//! The paper's experiments (§V), one function per table/figure.
//!
//! Every function returns a rendered [`Table`] whose rows mirror the
//! corresponding figure's series. The `repro` binary prints them;
//! `REPRO_QUICK=1` runs the same workloads at smaller scale.

use crate::datasets::*;
use crate::report::{fmt_outcome, Table};
use crate::systems::{run_system, Limits, Outcome, SystemId, Workload};
use mura_core::Database;
use mura_datagen::{random_tree, tc_size, uniprot_like, UniprotConfig};
use mura_dist::{QueryEngine, QueryOutput};
use mura_ucrpq::suites::{concat_closure_query, uniprot_queries, yago_queries};
use mura_ucrpq::{classify, parse_ucrpq};
use std::time::Duration;

/// Experiment scale knobs. `repro()` is the default for the `repro`
/// binary; `quick()` keeps CI fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub yago_people: u64,
    pub uniprot_sizes: [u64; 3],
    pub uniprot_small: u64,
    pub timeout: Duration,
    pub max_rows: u64,
    /// Myria ran on a single machine in the paper — smaller budget.
    pub myria_max_rows: u64,
    pub concat_max_n: usize,
    /// Timed runs per (query, engine) in Fig. 7, after an untimed one; the
    /// median is reported.
    pub fig7_runs: usize,
}

impl Scale {
    /// Default scale of the `repro` binary.
    pub fn repro() -> Scale {
        Scale {
            yago_people: 1200,
            uniprot_sizes: [8_000, 16_000, 32_000],
            uniprot_small: 4_000,
            // The paper's cluster timeout is 1000s on 62M-edge graphs; at
            // our ~3000x smaller scale, 20s plays the same role.
            timeout: Duration::from_secs(20),
            max_rows: 10_000_000,
            myria_max_rows: 1_000_000,
            concat_max_n: 8,
            fig7_runs: 7,
        }
    }

    /// Reduced scale for CI (`REPRO_QUICK=1`).
    pub fn quick() -> Scale {
        Scale {
            yago_people: 400,
            uniprot_sizes: [4_000, 8_000, 16_000],
            uniprot_small: 3_000,
            timeout: Duration::from_secs(10),
            max_rows: 3_000_000,
            myria_max_rows: 400_000,
            concat_max_n: 5,
            fig7_runs: 5,
        }
    }

    /// Reads `REPRO_QUICK=1` to switch scales from the environment.
    pub fn from_env() -> Scale {
        if std::env::var("REPRO_QUICK").is_ok_and(|v| v == "1") {
            Scale::quick()
        } else {
            Scale::repro()
        }
    }

    /// Budgets for the standard cluster systems.
    pub fn limits(&self) -> Limits {
        Limits { timeout: self.timeout, max_rows: self.max_rows, workers: 4 }
    }

    /// Budgets for Myria (single-machine configuration of the paper).
    pub fn myria_limits(&self) -> Limits {
        Limits { timeout: self.timeout, max_rows: self.myria_max_rows, workers: 4 }
    }
}

// ------------------------------------------------------------- Table I

/// Table I: the synthetic dataset inventory with exact TC sizes.
pub fn table1(scale: Scale) -> Table {
    let mut t = Table::new(&["dataset", "edges", "nodes", "TC size"]);
    let rnd_specs: &[(u64, f64, &str)] = &[
        (400, 0.01, "rnd_400_0.01"),
        (800, 0.005, "rnd_800_0.005"),
        (1200, 0.0033, "rnd_1200_0.0033"),
        (400, 0.05, "rnd_400_0.05"),
        (2000, 0.002, "rnd_2000_0.002"),
    ];
    for &(n, p, name) in rnd_specs {
        let g = mura_datagen::erdos_renyi(n, p, 42);
        t.row(vec![
            name.to_string(),
            g.edge_count().to_string(),
            n.to_string(),
            tc_size(&g).to_string(),
        ]);
    }
    for n in [1000u64, 5000] {
        let g = random_tree(n, 42);
        t.row(vec![
            format!("tree_{n}"),
            g.edge_count().to_string(),
            n.to_string(),
            tc_size(&g).to_string(),
        ]);
    }
    for edges in scale.uniprot_sizes {
        let g = uniprot_like(UniprotConfig { target_edges: edges, seed: 0x09 });
        t.row(vec![
            format!("uniprot_{edges}"),
            g.edge_count().to_string(),
            g.n_nodes.to_string(),
            "-".to_string(), // like the paper, TC not reported for uniprot
        ]);
    }
    t
}

// -------------------------------------------------------- Fig. 5 / 6

/// The class matrix of the query suites (paper Figs. 5 and 6).
pub fn class_matrix() -> Table {
    let mut t = Table::new(&["query", "C1", "C2", "C3", "C4", "C5", "C6", "text"]);
    for q in yago_queries().iter().chain(uniprot_queries().iter()) {
        let classes = classify(&parse_ucrpq(q.text).expect("suite query parses"));
        let mark =
            |c: mura_ucrpq::QueryClass| if classes.contains(&c) { "x" } else { "" }.to_string();
        use mura_ucrpq::QueryClass::*;
        t.row(vec![
            q.id.to_string(),
            mark(C1),
            mark(C2),
            mark(C3),
            mark(C4),
            mark(C5),
            mark(C6),
            q.text.chars().take(60).collect(),
        ]);
    }
    t
}

// ------------------------------------------------------------- Fig. 7

/// Fig. 7: the two `P_plw` implementations on the Yago suite, each
/// (query, engine) timed as the median of `scale.fig7_runs` runs.
pub fn fig7(scale: Scale) -> Table {
    let db = yago_db(scale.yago_people);
    let limits = scale.limits();
    let mut t = Table::new(&["query", "Pplw-SetRDD", "Pplw-sorted(pg)"]);
    for q in yago_queries() {
        let w = Workload::ucrpq(q.text);
        let [set, sorted] = [SystemId::DistMuRA, SystemId::DistMuRAPlwSorted]
            .map(|system| median_run(system, &db, &w, limits, scale.fig7_runs));
        t.row(vec![q.id.to_string(), fmt_outcome(&set), fmt_outcome(&sorted)]);
    }
    t
}

/// `system` on `w`: one untimed run, then the run of median time among
/// `runs` more. A first run that does not succeed is the outcome.
fn median_run(
    system: SystemId,
    db: &Database,
    w: &Workload,
    limits: Limits,
    runs: usize,
) -> Outcome {
    let first = run_system(system, db, w, limits);
    if first.millis().is_none() {
        return first;
    }
    let mut timed: Vec<Outcome> = (0..runs).map(|_| run_system(system, db, w, limits)).collect();
    if let Some(failed) = timed.iter().find(|o| o.millis().is_none()) {
        return failed.clone();
    }
    timed.sort_by(|a, b| a.millis().unwrap().total_cmp(&b.millis().unwrap()));
    timed.swap_remove(runs / 2)
}

// ------------------------------------------------------------- Fig. 9

/// Fig. 9: the Yago suite across all systems.
pub fn fig9(scale: Scale) -> Table {
    let db = yago_db(scale.yago_people);
    let limits = scale.limits();
    let systems = SystemId::fig9_set();
    let mut header: Vec<&str> = vec!["query"];
    header.extend(systems.iter().map(|s| s.name()));
    let mut t = Table::new(&header);
    for q in yago_queries() {
        let w = Workload::ucrpq(q.text);
        let mut row = vec![q.id.to_string()];
        for s in systems {
            row.push(fmt_outcome(&run_system(s, &db, &w, limits)));
        }
        t.row(row);
    }
    t
}

// ------------------------------------------------------------- Fig. 8

/// Fig. 8: Dist-μ-RA vs BigDatalog on growing Uniprot graphs (the paper's
/// uniprot_{1M,5M,10M} sweep where BigDatalog fails 44/75 evaluations).
pub fn fig8(scale: Scale) -> Table {
    let limits = scale.limits();
    let mut t = Table::new(&["query", "size", "Dist-muRA", "BigDatalog"]);
    for edges in scale.uniprot_sizes {
        let db = uniprot_db(edges);
        for q in uniprot_queries() {
            let w = Workload::ucrpq(q.text);
            let a = run_system(SystemId::DistMuRA, &db, &w, limits);
            let b = run_system(SystemId::BigDatalog, &db, &w, limits);
            t.row(vec![q.id.to_string(), edges.to_string(), fmt_outcome(&a), fmt_outcome(&b)]);
        }
    }
    t
}

// ------------------------------------------------------------ Fig. 10

/// Fig. 10: concatenated closures `a1+/…/an+`.
pub fn fig10(scale: Scale) -> Table {
    let db = labeled_rnd_db(600, 0.03, 10, 77);
    let limits = scale.limits();
    let systems =
        [SystemId::DistMuRA, SystemId::BigDatalog, SystemId::GraphX, SystemId::Centralized];
    let mut header: Vec<&str> = vec!["n"];
    header.extend(systems.iter().map(|s| s.name()));
    let mut t = Table::new(&header);
    for n in 2..=scale.concat_max_n {
        let q = concat_closure_query(n);
        let w = Workload::Ucrpq(q);
        let mut row = vec![n.to_string()];
        for s in systems {
            row.push(fmt_outcome(&run_system(s, &db, &w, limits)));
        }
        t.row(row);
    }
    t
}

// ------------------------------------------------------------ Fig. 11

/// Fig. 11: the non-regular μ-RA queries (aⁿbⁿ, same generation, reach).
pub fn fig11(scale: Scale) -> Table {
    let limits = scale.limits();
    let mut t = Table::new(&["query", "dataset", "Dist-muRA", "BigDatalog"]);
    let mut run = |name: &str, ds: &str, db: &Database, w: &Workload| {
        let a = run_system(SystemId::DistMuRA, db, w, limits);
        let b = run_system(SystemId::BigDatalog, db, w, limits);
        t.row(vec![name.to_string(), ds.to_string(), fmt_outcome(&a), fmt_outcome(&b)]);
    };
    for (n, p, seed) in [(400u64, 0.01, 1u64), (800, 0.005, 2)] {
        let db = labeled_rnd_db(n, p, 2, seed);
        let ds = format!("rnd_{n}_{p}");
        run("anbn", &ds, &db, &Workload::AnBn { a: "a1".into(), b: "a2".into() });
    }
    for n in [1000u64, 5000] {
        let db = tree_db(n, 3);
        run(
            "same_gen",
            &format!("tree_{n}"),
            &db,
            &Workload::SameGeneration { rel: "edge".into() },
        );
    }
    for (n, p) in [(400u64, 0.01), (1000, 0.004)] {
        let db = rnd_db(n, p, 5);
        run(
            "same_gen",
            &format!("rnd_{n}_{p}"),
            &db,
            &Workload::SameGeneration { rel: "edge".into() },
        );
        let db2 = rnd_db(n, p, 6);
        run(
            "reach",
            &format!("rnd_{n}_{p}"),
            &db2,
            &Workload::Reach { rel: "edge".into(), source: 0 },
        );
    }
    t
}

// ------------------------------------------------------------ Fig. 12

/// Fig. 12: Myria vs Dist-μ-RA on same generation over growing graphs
/// (the paper: the gap widens with size; Myria crashes on `rnd_10k_0.001`).
pub fn fig12(scale: Scale) -> Table {
    let mut t = Table::new(&["dataset", "Dist-muRA", "Myria"]);
    let w = Workload::SameGeneration { rel: "edge".into() };
    let datasets: Vec<(String, Database)> = vec![
        ("tree_200".into(), tree_db(200, 1)),
        ("tree_1000".into(), tree_db(1000, 1)),
        ("rnd_200_0.01".into(), rnd_db(200, 0.01, 2)),
        ("rnd_400_0.01".into(), rnd_db(400, 0.01, 2)),
        ("rnd_800_0.01".into(), rnd_db(800, 0.01, 2)),
    ];
    for (name, db) in datasets {
        let a = run_system(SystemId::DistMuRA, &db, &w, scale.limits());
        let b = run_system(SystemId::Myria, &db, &w, scale.myria_limits());
        t.row(vec![name, fmt_outcome(&a), fmt_outcome(&b)]);
    }
    t
}

// ------------------------------------------------------------ Fig. 13

/// Fig. 13: the Uniprot suite across systems on `uniprot_1M` (scaled).
pub fn fig13(scale: Scale) -> Table {
    let db = uniprot_db(scale.uniprot_sizes[0]);
    let limits = scale.limits();
    let systems =
        [SystemId::DistMuRA, SystemId::DistMuRAGld, SystemId::BigDatalog, SystemId::GraphX];
    let mut header: Vec<&str> = vec!["query"];
    header.extend(systems.iter().map(|s| s.name()));
    let mut t = Table::new(&header);
    for q in uniprot_queries() {
        let w = Workload::ucrpq(q.text);
        let mut row = vec![q.id.to_string()];
        for s in systems {
            row.push(fmt_outcome(&run_system(s, &db, &w, limits)));
        }
        t.row(row);
    }
    t
}

// ------------------------------------------------------------ Fig. 14

/// Fig. 14: Myria vs Dist-μ-RA on the small Uniprot graph.
pub fn fig14(scale: Scale) -> Table {
    let db = uniprot_db(scale.uniprot_small);
    let mut t = Table::new(&["query", "Dist-muRA", "Myria"]);
    for q in uniprot_queries() {
        let w = Workload::ucrpq(q.text);
        let a = run_system(SystemId::DistMuRA, &db, &w, scale.limits());
        let b = run_system(SystemId::Myria, &db, &w, scale.myria_limits());
        t.row(vec![q.id.to_string(), fmt_outcome(&a), fmt_outcome(&b)]);
    }
    t
}

// ----------------------------------------------- communication ablation

/// §IV/§V-E claim: `P_plw` eliminates per-iteration communication.
/// Reports shuffle/broadcast volumes for auto plan selection vs forced
/// `P_gld` on one representative query per class.
pub fn comm_ablation(scale: Scale) -> Table {
    let db = yago_db(scale.yago_people);
    let limits = scale.limits();
    let queries: &[(&str, &str)] = &[
        ("C1", "?a, ?b <- ?a isLocatedIn+ ?b"),
        ("C2", "?a <- ?a isLocatedIn+ Japan"),
        ("C3", "?a <- Japan dealsWith+ ?a"),
        ("C4", "?a, ?b <- ?a isLocatedIn+/dealsWith ?b"),
        ("C5", "?a, ?b <- ?a wasBornIn/isLocatedIn+ ?b"),
        ("C6", "?a, ?b <- ?a isLocatedIn+/dealsWith+ ?b"),
    ];
    let mut t =
        Table::new(&["class", "plan", "time", "shuffles", "rows shuffled", "rows broadcast"]);
    for (class, q) in queries {
        for (plan_name, system) in [("auto", SystemId::DistMuRA), ("Pgld", SystemId::DistMuRAGld)] {
            let out = run_system(system, &db, &Workload::ucrpq(q), limits);
            let (shuffled, broadcast) = match &out {
                Outcome::Ok { comm_rows, .. } => (*comm_rows, 0),
                _ => (0, 0),
            };
            // run_system folds comm into one number; re-run through the
            // QueryEngine for the detailed split.
            let detail = detailed_comm(&db, q, system, limits);
            let _ = (shuffled, broadcast);
            match detail {
                Some((time, shuffles, rs, rb)) => t.row(vec![
                    class.to_string(),
                    plan_name.to_string(),
                    format!("{time:.1}ms"),
                    shuffles.to_string(),
                    rs.to_string(),
                    rb.to_string(),
                ]),
                None => t.row(vec![
                    class.to_string(),
                    plan_name.to_string(),
                    fmt_outcome(&out),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
    }
    t
}

// ---------------------------------------------------- rewrite ablation

/// `query` answered over `db` with the logical rewriter on and off.
fn rewrite_runs(db: &Database, query: &str) -> [(&'static str, mura_core::Result<QueryOutput>); 2] {
    [
        ("on", QueryEngine::new(db.clone()).run_ucrpq(query)),
        ("off", QueryEngine::new(db.clone()).without_rewrites().run_ucrpq(query)),
    ]
}

/// §III rewrite rules: the rewriter on vs off, one row each, on a C2
/// query, where reversal and filter pushing matter most. (Nothing in
/// `yago_db(400)` is located in Japan: both rows answer 0 rows, and the
/// rewriter's part is not computing the closure it would filter.)
pub fn rewrites() -> Table {
    let mut t = Table::new(&["rewriter", "time", "rows"]);
    for (name, out) in rewrite_runs(&yago_db(400), "?x <- ?x isLocatedIn+ Japan") {
        let (time, rows) = match out {
            Ok(o) => {
                (format!("{:.1}ms", o.wall().as_secs_f64() * 1e3), o.relation.len().to_string())
            }
            Err(e) => (format!("fail({e})"), "-".into()),
        };
        t.row(vec![name.to_string(), time, rows]);
    }
    t
}

fn detailed_comm(
    db: &Database,
    query: &str,
    system: SystemId,
    limits: Limits,
) -> Option<(f64, u64, u64, u64)> {
    use mura_dist::exec::{ExecConfig, FixpointPlan, ResourceLimits};
    let plan = match system {
        SystemId::DistMuRAGld => FixpointPlan::ForceGld,
        _ => FixpointPlan::Auto,
    };
    let config = ExecConfig {
        workers: limits.workers,
        plan,
        local_engine: mura_dist::LocalEngine::SetRdd,
        limits: ResourceLimits {
            max_rows: Some(limits.max_rows),
            max_bytes: None,
            timeout: Some(limits.timeout),
        },
        ..Default::default()
    };
    let mut qe = QueryEngine::with_config(db.clone(), config);
    let out = qe.run_ucrpq(query).ok()?;
    Some((
        out.wall().as_secs_f64() * 1e3,
        out.comm.shuffles,
        out.comm.rows_shuffled,
        out.comm.rows_broadcast,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_rows() {
        let t = table1(Scale::quick());
        let s = t.render();
        assert!(s.contains("rnd_400_0.01"));
        assert!(s.contains("tree_1000"));
        assert!(s.contains("uniprot_"), "{s}");
    }

    #[test]
    fn class_matrix_covers_q1_to_q50() {
        let s = class_matrix().render();
        assert!(s.contains("Q1 "));
        assert!(s.contains("Q50"));
    }

    #[test]
    fn comm_ablation_shows_plw_advantage() {
        let scale = Scale::quick();
        let db = yago_db(scale.yago_people);
        let limits = scale.limits();
        let auto = detailed_comm(&db, "?a, ?b <- ?a isLocatedIn+ ?b", SystemId::DistMuRA, limits)
            .expect("auto run succeeds");
        let gld = detailed_comm(&db, "?a, ?b <- ?a isLocatedIn+ ?b", SystemId::DistMuRAGld, limits)
            .expect("gld run succeeds");
        assert!(auto.1 < gld.1, "P_plw must shuffle fewer times ({} vs {})", auto.1, gld.1);
    }

    #[test]
    fn rewriter_on_and_off_answer_alike() {
        let db = yago_db(400);
        for (country, answers) in [("Japan", 0), ("United_States", 23)] {
            let [(_, on), (_, off)] =
                rewrite_runs(&db, &format!("?x <- ?x isLocatedIn+ {country}"));
            let (on, off) = (on.expect("rewriter on"), off.expect("rewriter off"));
            assert_eq!(on.relation.len(), answers, "{country}");
            assert_eq!(on.relation.sorted_rows(), off.relation.sorted_rows(), "{country}");
        }
    }
}
