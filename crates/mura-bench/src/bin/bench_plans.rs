//! `bench_plans`: greedy pipeline vs memoized plan-space enumeration,
//! suitable for CI.
//!
//! For each query class of the repro suite (plain closure, source/dest
//! filters, merged closures, filtered merged closures, concatenation) over
//! a labeled Erdős–Rényi graph, this measures:
//!
//! * **pipeline** — wall time of the plan the greedy rewrite pipeline
//!   picks (`Rewriter::optimize_pipeline`), and its planning time;
//! * **enumerated** — wall time of the plan extracted from the memoized
//!   enumeration (`Rewriter::optimize_report`), and its planning time.
//!
//! Both plans execute on the same engine with the same configuration, so
//! the measured difference is exactly the plan choice. Per class it also
//! records what the search itself cost: `stats_us` (gathering the
//! statistics the catalog keeps), `sweeps` (closure sweeps run by all
//! roll-outs) and `names_interned` (names the search left in the
//! dictionary: none, its symbols are numbers), and for a class that names
//! a constant `template_hit_us`: what the text with another constant pays
//! when the serving tier binds the enumerated plan as its shape's template
//! (parse, translate, shape key, rebind, one bracket) where
//! `enumerated_plan_ms` is what a search costs. A `history` section plans
//! the benchmark's 175-text read pool ten times over through one engine and
//! records the mean planning time per text of each sweep. Results are
//! written to `BENCH_plans.json`.
//!
//! Gates (non-zero exit on failure):
//! * per class, the enumerated plan's wall time must not exceed the
//!   pipeline plan's by more than `BENCH_MAX_SLOWDOWN_PCT` (default 5%);
//! * across the suite, total enumeration planning time must stay under
//!   `BENCH_MAX_ENUM_OVERHEAD_PCT` (default 5%) of total execution time;
//! * re-planning the 175-text pool leaves the dictionary as it found it
//!   (the first sweep interns the pool's query variables, no later sweep
//!   interns a name or moves the numbering of generated symbols);
//! * planning the pool for the tenth time costs at most 1.25 times the
//!   first time ([`MAX_HISTORY_RATIO`]).
//!
//! Environment knobs: `BENCH_NODES`, `BENCH_EDGE_PROB`, `BENCH_SEED`,
//! `BENCH_LABELS`, `BENCH_SAMPLES`, `BENCH_OUT`.

use std::time::{Duration, Instant};

use mura_bench::datasets::yago_read_pool;
use mura_core::{shape_key, Database, Term, Value};
use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
use mura_dist::{PlannedQuery, QueryEngine};
use mura_rewrite::{Rewriter, Stats};
use mura_ucrpq::{parse_ucrpq, to_mura};

/// The query classes of the repro suite, exercised against labels a1/a2
/// and the bound constant C. `filtered_merged` is the class where
/// enumeration beats the greedy pipeline: the pipeline merges `a1+/a2+`
/// into one fixpoint first, which loses the destination-filter push; the
/// enumerator keeps the unmerged composition alive, where reversing the
/// second closure lets the filter seed the iteration.
const CLASSES: &[(&str, &str)] = &[
    ("tc", "?x, ?y <- ?x a1+ ?y"),
    ("filtered_src", "?x <- C a1+ ?x"),
    ("filtered_dst", "?x <- ?x a1+ C"),
    ("merged", "?x, ?y <- ?x a1+/a2+ ?y"),
    ("filtered_merged", "?x <- ?x a1+/a2+ C"),
    ("concat", "?x, ?y <- ?x a1/a2+ ?y"),
];

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct Timings {
    mean_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

fn summarize(samples: &[Duration]) -> Timings {
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let total: f64 = samples.iter().map(ms).sum();
    Timings {
        mean_ms: total / samples.len() as f64,
        min_ms: samples.iter().map(ms).fold(f64::INFINITY, f64::min),
        max_ms: samples.iter().map(ms).fold(0.0, f64::max),
    }
}

fn json_timings(t: &Timings) -> String {
    format!(
        "{{\"mean_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}",
        t.mean_ms, t.min_ms, t.max_ms
    )
}

/// Executes `plan` `samples` times (plus an untimed warmup) on `engine`.
fn run_samples(engine: &QueryEngine, plan: &Term, samples: usize) -> (Vec<Duration>, usize) {
    let planned = PlannedQuery { plan: plan.clone(), planning: Duration::ZERO };
    let mut walls = Vec::with_capacity(samples);
    let mut rows = 0usize;
    for round in 0..=samples {
        let t = Instant::now();
        let out = engine.execute_plan(&planned).expect("execution");
        let wall = t.elapsed();
        if round > 0 {
            walls.push(wall);
        }
        rows = out.relation.len();
    }
    (walls, rows)
}

/// Texts bound per class for `template_hit_us`.
const TEMPLATE_HITS: u64 = 200;

/// Mean µs the engine spends on a text of `template`'s shape that names
/// another node where `query` names `C`, when `choose` answers by binding
/// the template — the serving tier's template hit, without its two locks.
fn time_template_hits(db: &Database, query: &str, template: &Term, binding: &[Value]) -> f64 {
    let mut engine = QueryEngine::new(db.clone());
    let t = Instant::now();
    for node in 0..TEMPLATE_HITS {
        let text = query.replace('C', &node.to_string());
        let bound = engine.plan_ucrpq_with(&text, None, Rewriter::optimize_report, |raw, _| {
            Ok((template.clone().rebind(binding, &shape_key(&raw).1), ()))
        });
        std::hint::black_box(bound.expect("bind the template"));
    }
    t.elapsed().as_secs_f64() * 1e6 / TEMPLATE_HITS as f64
}

/// Sweeps over the pool in the history section, and fresh engines the
/// per-sweep minimum is taken over.
const HISTORY_SWEEPS: usize = 10;
const HISTORY_RUNS: usize = 3;

/// What the last sweep may cost relative to the first. When scratch names
/// stayed in the dictionary the ratio was 3.4.
const MAX_HISTORY_RATIO: f64 = 1.25;

/// Mean planning µs per text of each of [`HISTORY_SWEEPS`] sweeps over the
/// benchmark's read pool through one engine (minimum over
/// [`HISTORY_RUNS`] fresh engines), the names each sweep left in the
/// dictionary, and whether every sweep after the first left the dictionary
/// as it found it.
fn history() -> (Vec<f64>, Vec<usize>, bool) {
    let (db, pool) = yago_read_pool(2_000, 19);
    // The first ask scans every relation once; that is load, not planning.
    let _ = Stats::from_db(&db);
    let mut sweep_us = vec![f64::INFINITY; HISTORY_SWEEPS];
    let mut names = vec![0; HISTORY_SWEEPS];
    let mut as_found = true;
    for _ in 0..HISTORY_RUNS {
        let mut engine = QueryEngine::new(db.clone());
        for sweep in 0..HISTORY_SWEEPS {
            let (before, mark) = (engine.db().dict().len(), engine.db().dict().mark());
            let t = Instant::now();
            for text in &pool {
                engine.plan_ucrpq(text).expect("plan pool text");
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / pool.len() as f64;
            sweep_us[sweep] = sweep_us[sweep].min(us);
            names[sweep] = engine.db().dict().len() - before;
            as_found &= sweep == 0 || (names[sweep] == 0 && engine.db().dict().mark() == mark);
        }
    }
    (sweep_us, names, as_found)
}

fn main() {
    let n = env_u64("BENCH_NODES", 600);
    let p = env_f64("BENCH_EDGE_PROB", 0.01);
    let seed = env_u64("BENCH_SEED", 42);
    let labels = env_u64("BENCH_LABELS", 3) as u32;
    let samples = env_u64("BENCH_SAMPLES", 5).max(1) as usize;
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_plans.json".into());
    let max_slowdown_pct = env_f64("BENCH_MAX_SLOWDOWN_PCT", 5.0);
    let max_enum_overhead_pct = env_f64("BENCH_MAX_ENUM_OVERHEAD_PCT", 5.0);

    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) | 1);
    let g = erdos_renyi(n, p, seed);
    let lg = with_random_labels(&g, labels, &mut rng);
    let mut db = lg.to_database();
    // Bind C to a node that actually sources an a1 edge (override with
    // BENCH_CONST), so the filtered classes return non-trivial answers.
    let c = std::env::var("BENCH_CONST").ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(
        || {
            let a1 = db.dict().lookup("a1").and_then(|s| db.relation(s)).expect("a1 relation");
            a1.sorted_rows().first().and_then(|r| r[0].as_int()).unwrap_or(0) as u64
        },
    );
    db.bind_constant("C", mura_core::Value::node(c));

    println!(
        "bench-plans: ER(n={n}, p={p}, seed={seed}) × {labels} labels, {} classes, {samples} samples",
        CLASSES.len()
    );

    let mut class_jsons = Vec::new();
    let mut failed = false;
    let mut total_exec_ms = 0.0f64;
    let mut total_enum_plan_ms = 0.0f64;
    let mut any_enumerated_win = false;

    for (name, query) in CLASSES {
        let q = parse_ucrpq(query).expect("parse query class");
        let term = to_mura(&q, &mut db).expect("translate query class");
        let rw = Rewriter::new(&mut db);
        let t = Instant::now();
        let _ = Stats::from_db(&db);
        let stats_us = t.elapsed().as_secs_f64() * 1e6;

        // Planning times: the greedy pipeline alone vs the full memoized
        // enumeration (which embeds one pipeline run as its cost floor).
        let t = Instant::now();
        let pipeline_plan = rw.optimize_pipeline(&term, &mut db).expect("pipeline optimize");
        let pipeline_plan_ms = t.elapsed().as_secs_f64() * 1e3;
        let names_before = db.dict().len();
        let t = Instant::now();
        let (enum_plan, report) = rw.optimize_report(&term, &mut db).expect("enumerate optimize");
        let enum_plan_ms = t.elapsed().as_secs_f64() * 1e3;
        let names_interned = db.dict().len() - names_before;
        let (_, binding) = shape_key(&term);
        let template_hit_us =
            (!binding.is_empty()).then(|| time_template_hits(&db, query, &enum_plan, &binding));

        let engine = QueryEngine::new(db.clone());
        let (pipe_walls, pipe_rows) = run_samples(&engine, &pipeline_plan, samples);
        // When the enumerator's winner IS the pipeline plan (its floor),
        // timing it separately only measures scheduler noise — share the
        // samples.
        let (enum_walls, enum_rows) = if enum_plan == pipeline_plan {
            (pipe_walls.clone(), pipe_rows)
        } else {
            run_samples(&engine, &enum_plan, samples)
        };
        assert_eq!(pipe_rows, enum_rows, "{name}: plans disagree on the answer");

        let pipe = summarize(&pipe_walls);
        let enu = summarize(&enum_walls);
        // Min-of-samples: the floor of each distribution is the honest
        // comparison, insensitive to scheduler noise spikes.
        let slowdown_pct = (enu.min_ms / pipe.min_ms - 1.0) * 100.0;
        total_exec_ms += enu.mean_ms * samples as f64;
        total_enum_plan_ms += enum_plan_ms;
        if report.enumerated_won {
            any_enumerated_win = true;
        }

        println!(
            "  {name:<16} {pipe_rows:>7} rows  pipeline {:>8.2} ms  enumerated {:>8.2} ms  \
             ({:+.1}%)  [{} candidates / {} groups / {} sweeps, plan {:.2} ms vs {:.2} ms, \
             {names_interned} names kept{}{}]",
            pipe.min_ms,
            enu.min_ms,
            slowdown_pct,
            report.candidates,
            report.groups,
            report.sweeps,
            enum_plan_ms,
            pipeline_plan_ms,
            if report.enumerated_won { ", enumerated won" } else { "" },
            template_hit_us.map_or(String::new(), |us| format!(", template hit {us:.1} us")),
        );

        if slowdown_pct > max_slowdown_pct {
            eprintln!(
                "FAIL: {name}: enumerated plan {:.2} ms is {slowdown_pct:.1}% slower than \
                 pipeline {:.2} ms (allowed {max_slowdown_pct:.1}%)",
                enu.min_ms, pipe.min_ms
            );
            failed = true;
        }

        class_jsons.push(format!(
            "    {{\"class\": \"{name}\", \"query\": \"{query}\", \"rows\": {pipe_rows}, \
             \"pipeline\": {}, \"enumerated\": {}, \
             \"pipeline_plan_ms\": {pipeline_plan_ms:.3}, \"enumerated_plan_ms\": {enum_plan_ms:.3}, \
             \"template_hit_us\": {}, \
             \"stats_us\": {stats_us:.1}, \"sweeps\": {}, \"names_interned\": {names_interned}, \
             \"candidates\": {}, \"groups\": {}, \"enumerated_won\": {}, \
             \"winner_cost\": {:.1}, \"pipeline_cost\": {:.1}, \"slowdown_pct\": {slowdown_pct:.2}}}",
            json_timings(&pipe),
            json_timings(&enu),
            template_hit_us.map_or("null".to_string(), |us| format!("{us:.1}")),
            report.sweeps,
            report.candidates,
            report.groups,
            report.enumerated_won,
            report.winner_cost,
            report.pipeline_cost,
        ));
    }

    let overhead_pct = total_enum_plan_ms / total_exec_ms.max(f64::MIN_POSITIVE) * 100.0;
    println!(
        "  enumeration planning: {total_enum_plan_ms:.2} ms over {total_exec_ms:.1} ms execution \
         → {overhead_pct:.2}% overhead"
    );
    if overhead_pct > max_enum_overhead_pct {
        eprintln!(
            "FAIL: enumeration overhead {overhead_pct:.2}% above allowed \
             {max_enum_overhead_pct:.1}%"
        );
        failed = true;
    }
    if !any_enumerated_win {
        eprintln!("FAIL: no query class chose an enumerated plan over the pipeline's");
        failed = true;
    }

    let (sweep_us, sweep_names, as_found) = history();
    let (first_us, last_us) = (sweep_us[0], sweep_us[HISTORY_SWEEPS - 1]);
    let history_ratio = last_us / first_us;
    println!(
        "  history: pool sweep 1 {first_us:.0} us/plan, sweep {HISTORY_SWEEPS} {last_us:.0} us/plan \
         ({history_ratio:.2}x), {} names kept per sweep",
        sweep_names[HISTORY_SWEEPS - 1]
    );
    if !as_found {
        eprintln!(
            "FAIL: re-planning the pool left names behind or moved the numbering of generated \
             symbols (names per sweep: {sweep_names:?})"
        );
        failed = true;
    }
    if history_ratio > MAX_HISTORY_RATIO {
        eprintln!(
            "FAIL: planning the pool for the {HISTORY_SWEEPS}th time costs {history_ratio:.2}x \
             the first time (allowed {MAX_HISTORY_RATIO:.2}x)"
        );
        failed = true;
    }
    let list = |v: &[String]| v.join(", ");
    let history_json = format!(
        "{{\"texts\": 175, \"sweep_us_per_plan\": [{}], \"names_kept_per_sweep\": [{}], \
         \"last_over_first\": {history_ratio:.3}}}",
        list(&sweep_us.iter().map(|u| format!("{u:.1}")).collect::<Vec<_>>()),
        list(&sweep_names.iter().map(|n| n.to_string()).collect::<Vec<_>>()),
    );

    let json = format!(
        "{{\n  \"bench\": \"plan_enumeration\",\n  \"graph\": {{\"nodes\": {n}, \"edge_prob\": {p}, \
         \"seed\": {seed}, \"labels\": {labels}}},\n  \"samples\": {samples},\n  \"classes\": [\n{}\n  ],\n  \"history\": {history_json},\n  \
         \"enum_planning_total_ms\": {total_enum_plan_ms:.3},\n  \"execution_total_ms\": {total_exec_ms:.3},\n  \
         \"enum_overhead_pct\": {overhead_pct:.3}\n}}\n",
        class_jsons.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write BENCH_plans.json");
    println!("  wrote {out_path}");

    if failed {
        std::process::exit(1);
    }
}
