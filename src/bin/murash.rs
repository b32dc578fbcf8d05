//! `murash` — an interactive shell for Dist-μ-RA.
//!
//! ```sh
//! cargo run --release --bin murash
//! ```
//!
//! Load or generate a graph, then type UCRPQ queries:
//!
//! ```text
//! μ> .gen yago 1000
//! μ> ?x <- ?x isLocatedIn+ Japan
//! μ> .explain ?a, ?b <- ?a isLocatedIn+/dealsWith+ ?b
//! μ> .sql ?x, ?y <- ?x isLocatedIn+ ?y
//! μ> .help
//! ```

use dist_mu_ra::prelude::*;
use mura_core::analysis::TypeEnv;
use mura_core::sql::to_sql;
use mura_datagen::{load_edge_list, save_edge_list, UniprotConfig, YagoConfig};
use mura_datalog::ucrpq_to_program;
use mura_dist::exec::FixpointPlan;
use mura_dist::{FaultConfig, LocalEngine, TraceLevel};
use mura_ucrpq::to_mura;

struct Shell {
    db: Database,
    graph: Option<mura_datagen::Graph>,
    config: ExecConfig,
    optimize: bool,
    serving: Option<(mura_serve::TcpServeHandle, mura_serve::Server)>,
    /// When set (`--trace-out <path>`), every query runs with per-superstep
    /// tracing and the latest trace is written to this path as JSON.
    trace_out: Option<String>,
    /// When set (`--data-dir <dir>`), `.serve` starts durable: WAL +
    /// snapshots in this directory, recovery on restart.
    data_dir: Option<String>,
}

const HELP: &str = "\
commands:
  .gen yago <people> | uniprot <edges> | rnd <n> <p> [labels] | tree <n>
  .load <path>           load an edge-list file (src [label] dst, @node name id)
  .save <path>           save the current graph
  .rels                  list relations
  .consts                list named constants
  .const <name> <id>     name a node
  .insert [rel] <v> …    add a base row (node ids or constant names); a
                         running .serve instance maintains its cached views
  .delete [rel] <v> …    remove a base row (DRed maintenance server-side)
  .workers <n>           set worker count (default 4)
  .plan auto|gld|plw     fixpoint plan policy
  .engine setrdd|sorted  P_plw local engine
  .rewrites on|off       toggle the logical optimizer
  .chaos <seed>|off      deterministic fault injection (panics, transient
                         errors, message drops/dups, stragglers) + recovery
  .serve <addr>          serve queries over TCP (snapshot of the current db)
  .serve stop            stop the running server
  .classes <query>       classify a query (C1..C6)
  .profile <query>       run traced and print the superstep timeline
  .explain <query>       plan only: enumeration digest + physical plan
  .plan-of <query>       show the optimized logical plan
  .sql <query>           translate the optimized plan to PostgreSQL SQL
  .datalog <query>       show the left-to-right Datalog translation
  .help                  this text
  .quit                  exit
anything else is parsed as a UCRPQ query and executed.
start with `murash --connect <addr>` to talk to a remote .serve instance
(busy/overloaded replies carrying retry-after-ms are retried once; a
dropped connection is re-established once with backoff),
`murash --drain <addr>` to gracefully drain a remote server,
`murash --connect <addr> --mutate <file>` to stream a batch of
`insert`/`delete` lines and print one reply per mutation,
`--cluster <n>` to run queries on n real worker processes over TCP
(`--worker-bin <path>` overrides the mura-worker binary),
`--data-dir <dir>` to make .serve durable: every mutation is WAL-logged
and periodically snapshotted there, and a restarted `murash --data-dir`
.serve recovers to the exact pre-crash version with the same answers,
`--chaos <seed>` for fault injection, `--trace-out <path>` to dump each
query's trace as JSON (Chrome-trace compatible under \"traceEvents\";
combined with --cluster the file is the clock-aligned merge of every
worker process, one lane per worker).";

const USAGE: &str = "usage: murash [--connect <addr>] [--drain <addr>] [--mutate <file>] \
                     [--cluster <n>] [--worker-bin <path>] [--data-dir <dir>] \
                     [--chaos <seed>] [--trace-out <path>]";

fn main() {
    let mut connect: Option<String> = None;
    let mut drain: Option<String> = None;
    let mut mutate: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut trace_out: Option<String> = None;
    let mut cluster: Option<usize> = None;
    let mut worker_bin: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect")),
            "--drain" => drain = Some(value("--drain")),
            "--mutate" => mutate = Some(value("--mutate")),
            "--chaos" => {
                let seed = value("--chaos");
                chaos_seed = Some(seed.parse().unwrap_or_else(|_| {
                    eprintln!("invalid seed '{seed}'\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--cluster" => {
                let n = value("--cluster");
                cluster = Some(n.parse().unwrap_or_else(|_| {
                    eprintln!("invalid worker count '{n}'\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--worker-bin" => worker_bin = Some(value("--worker-bin")),
            "--data-dir" => data_dir = Some(value("--data-dir")),
            _ => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if let Some(addr) = drain {
        if let Err(e) = drain_remote(&addr) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(path) = mutate {
        let Some(addr) = connect else {
            eprintln!("--mutate requires --connect <addr>\n{USAGE}");
            std::process::exit(2);
        };
        if let Err(e) = mutate_remote(&addr, &path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(addr) = connect {
        if trace_out.is_some() {
            // Tracing happens inside the server process; a remote shell
            // only ever sees rendered text, never the trace itself.
            eprintln!(
                "--trace-out needs a local session: tracing runs server-side and its \
                 merged trace is not forwarded over the wire (use .profile against \
                 the server to render its timeline instead)\n{USAGE}"
            );
            std::process::exit(2);
        }
        if let Err(e) = client_repl(&addr) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut config = ExecConfig::default();
    if let Some(seed) = chaos_seed {
        config.fault = FaultConfig::chaos(seed);
        config.checkpoint_every = 2;
    }
    if let Some(n) = cluster {
        let n = n.max(1);
        let proc_cfg = mura_dist::ProcClusterConfig {
            workers: n,
            worker_bin: worker_bin.map(Into::into),
            ..Default::default()
        };
        match mura_dist::ProcCluster::spawn_with(proc_cfg) {
            Ok(proc) => {
                config.workers = n;
                config.backend = Some(proc as std::sync::Arc<dyn mura_dist::CommBackend>);
                println!(
                    "process cluster: {n} supervised workers over TCP \
                     (heartbeats, respawn on death)"
                );
            }
            Err(e) => {
                eprintln!("error: spawn process cluster: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut shell = Shell {
        db: Database::new(),
        graph: None,
        config,
        optimize: true,
        serving: None,
        trace_out,
        data_dir,
    };
    println!("Dist-μ-RA shell — .help for commands");
    if let Some(seed) = chaos_seed {
        println!("chaos mode: injecting faults with seed {seed} (checkpoint every 2 supersteps)");
    }
    if let Some(path) = &shell.trace_out {
        println!("tracing: every query runs at superstep level; latest trace goes to {path}");
    }
    while let Some(line) = mura_datagen::io::read_line("μ> ") {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ".quit" || line == ".exit" {
            break;
        }
        if let Err(e) = shell.dispatch(line) {
            println!("error: {e}");
        }
    }
}

impl Shell {
    fn dispatch(&mut self, line: &str) -> Result<()> {
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            let cmd = parts.next().unwrap_or("");
            let args: Vec<&str> = parts.collect();
            return self.command(cmd, &args, rest);
        }
        self.run_query(line)
    }

    fn command(&mut self, cmd: &str, args: &[&str], full: &str) -> Result<()> {
        let arg_err = |msg: &str| Err(MuraError::Frontend(msg.to_string()));
        match cmd {
            "help" => println!("{HELP}"),
            "gen" => {
                let graph = match args {
                    ["yago", people] => mura_datagen::yago_like(YagoConfig {
                        people: parse_num(people)?,
                        seed: 0xa60,
                    }),
                    ["uniprot", edges] => mura_datagen::uniprot_like(UniprotConfig {
                        target_edges: parse_num(edges)?,
                        seed: 0x09,
                    }),
                    ["rnd", n, p] | ["rnd", n, p, _] => {
                        let base = mura_datagen::erdos_renyi(
                            parse_num(n)?,
                            p.parse::<f64>()
                                .map_err(|_| MuraError::Frontend("invalid p".into()))?,
                            42,
                        );
                        if let Some(k) = args.get(3) {
                            let mut rng = mura_datagen::SplitMix64::seed_from_u64(42);
                            mura_datagen::with_random_labels(
                                &base,
                                parse_num(k)? as u32,
                                &mut rng,
                            )
                        } else {
                            base
                        }
                    }
                    ["tree", n] => mura_datagen::random_tree(parse_num(n)?, 42),
                    _ => return arg_err("usage: .gen yago <people> | uniprot <edges> | rnd <n> <p> [labels] | tree <n>"),
                };
                println!(
                    "generated: {} nodes, {} edges, labels: {}",
                    graph.n_nodes,
                    graph.edge_count(),
                    graph.labels.join(", ")
                );
                self.db = graph.to_database();
                self.graph = Some(graph);
            }
            "load" => {
                let [path] = args else { return arg_err("usage: .load <path>") };
                let graph = load_edge_list(path)?;
                println!("loaded: {} nodes, {} edges", graph.n_nodes, graph.edge_count());
                self.db = graph.to_database();
                self.graph = Some(graph);
            }
            "save" => {
                let [path] = args else { return arg_err("usage: .save <path>") };
                let Some(g) = &self.graph else {
                    return arg_err("no generated/loaded graph to save");
                };
                save_edge_list(g, path)?;
                println!("saved to {path}");
            }
            "rels" => {
                let mut rels: Vec<(String, usize)> = self
                    .db
                    .relations()
                    .map(|(s, r)| (self.db.dict().resolve(s).to_string(), r.len()))
                    .collect();
                rels.sort();
                for (name, len) in rels {
                    println!("  {name:<24} {len} rows");
                }
            }
            "consts" => {
                for (s, v) in self.db.constants() {
                    println!("  {:<24} {v}", self.db.dict().resolve(s));
                }
            }
            "const" => {
                let [name, id] = args else { return arg_err("usage: .const <name> <id>") };
                self.db.bind_constant(name, Value::node(parse_num(id)?));
                println!("bound {name}");
            }
            "workers" => {
                let [n] = args else { return arg_err("usage: .workers <n>") };
                self.config.workers = parse_num(n)? as usize;
            }
            "plan" => match args {
                ["auto"] => self.config.plan = FixpointPlan::Auto,
                ["gld"] => self.config.plan = FixpointPlan::ForceGld,
                ["plw"] => self.config.plan = FixpointPlan::ForcePlw,
                _ => return arg_err("usage: .plan auto|gld|plw"),
            },
            "engine" => match args {
                ["setrdd"] => self.config.local_engine = LocalEngine::SetRdd,
                ["sorted"] => self.config.local_engine = LocalEngine::Sorted,
                _ => return arg_err("usage: .engine setrdd|sorted"),
            },
            "rewrites" => match args {
                ["on"] => self.optimize = true,
                ["off"] => self.optimize = false,
                _ => return arg_err("usage: .rewrites on|off"),
            },
            "chaos" => match args {
                ["off"] => {
                    self.config.fault = FaultConfig::default();
                    self.config.checkpoint_every = 0;
                    println!("chaos off");
                }
                [seed] => {
                    self.config.fault = FaultConfig::chaos(parse_num(seed)?);
                    self.config.checkpoint_every = 2;
                    println!("chaos on (seed {seed}, checkpoint every 2 supersteps)");
                }
                _ => return arg_err("usage: .chaos <seed>|off"),
            },
            "insert" | "delete" => {
                let insert = cmd == "insert";
                if args.is_empty() {
                    return arg_err("usage: .insert|.delete [relation] <value> <value> …");
                }
                let batch = build_delta(&self.db, args, insert)?;
                let mut local = batch.clone();
                local.normalize(&self.db)?;
                if local.is_empty() {
                    println!("no-op (the database already looks like that)");
                } else {
                    let (ins, del, _) = local.apply(&mut self.db)?;
                    println!("applied: +{ins} -{del} rows");
                    if self.graph.take().is_some() {
                        println!("(the loaded graph snapshot is now stale; .save disabled)");
                    }
                }
                // A serving snapshot is kept live too: the same batch is
                // applied there and its cached views maintained in place.
                if let Some((_, server)) = &self.serving {
                    match server.apply_delta(batch) {
                        Ok(s) => println!(
                            "server: v={} +{} -{} maintained={} unaffected={} recomputed={}",
                            s.version,
                            s.inserted,
                            s.deleted,
                            s.maintained,
                            s.unaffected,
                            s.recomputed
                        ),
                        Err(e) => println!("server: ERR {e}"),
                    }
                }
            }
            "serve" => match args {
                ["stop"] => match self.serving.take() {
                    Some((handle, server)) => {
                        let stats = server.stats();
                        handle.stop();
                        server.shutdown();
                        println!(
                            "server stopped ({} completed, {} rejected)",
                            stats.completed, stats.rejected
                        );
                    }
                    None => println!("no server running"),
                },
                [addr] => {
                    if self.serving.is_some() {
                        return arg_err("already serving — .serve stop first");
                    }
                    // The server gets a snapshot: later shell-side loads
                    // don't propagate (stop and re-serve to republish).
                    let mut engine = QueryEngine::with_config(self.db.clone(), self.config.clone());
                    if !self.optimize {
                        engine = engine.without_rewrites();
                    }
                    let server = match &self.data_dir {
                        // Durable: recover the directory (snapshot + WAL
                        // tail win over the shell's in-memory snapshot),
                        // then keep logging every mutation there.
                        Some(dir) => {
                            let config = mura_serve::ServeConfig {
                                data_dir: Some(dir.into()),
                                ..Default::default()
                            };
                            let server = mura_serve::Server::recover(engine, config)
                                .map_err(|e| MuraError::Other(format!("recover {dir}: {e}")))?;
                            let stats = server.stats();
                            println!(
                                "durable in {dir}: recovered v={} (replayed {} WAL records)",
                                server.version(),
                                stats.recovery_replayed_batches
                            );
                            server
                        }
                        None => {
                            mura_serve::Server::start(engine, mura_serve::ServeConfig::default())
                        }
                    };
                    let handle = mura_serve::serve_tcp(&server, addr)
                        .map_err(|e| MuraError::Other(format!("bind {addr}: {e}")))?;
                    println!(
                        "serving on {} — connect with: murash --connect {}",
                        handle.addr(),
                        handle.addr()
                    );
                    self.serving = Some((handle, server));
                }
                _ => return arg_err("usage: .serve <addr> | .serve stop"),
            },
            "classes" => {
                let q = parse_ucrpq(strip_cmd(full, "classes"))?;
                println!("classes: {:?}", classify(&q));
            }
            "profile" => {
                let query = strip_cmd(full, "profile");
                if query.is_empty() {
                    return arg_err("usage: .profile <query>");
                }
                let out = self.execute_traced(query, TraceLevel::Superstep)?;
                println!(
                    "{} rows in {:.1?}  ({} fixpoint iterations)",
                    out.relation.len(),
                    out.wall(),
                    out.stats.fixpoint_iterations,
                );
                match out.trace() {
                    Some(trace) => {
                        println!("{}", trace.render_timeline());
                        let skew = trace.render_skew();
                        if !skew.is_empty() {
                            println!("worker skew (per fixpoint, max/median):");
                            print!("{skew}");
                        }
                        self.dump_trace(trace)?;
                    }
                    None => println!("(no trace recorded)"),
                }
            }
            "explain" => {
                // Plan only — no execution. Shows the enumeration digest
                // (candidate terms, per-group best costs, who won) and the
                // chosen physical plan. Against a `.serve` instance the
                // `.explain` verb additionally reports whether costing ran
                // from observed cardinalities.
                let query = strip_cmd(full, "explain");
                if query.is_empty() {
                    return arg_err("usage: .explain <query>");
                }
                let mut engine = QueryEngine::with_config(self.db.clone(), self.config.clone());
                if !self.optimize {
                    engine = engine.without_rewrites();
                }
                let (planned, report) = engine.plan_ucrpq_explained(query, None)?;
                if let Some(r) = report {
                    println!(
                        "{} candidates in {} groups{} — chosen cost {:.0} ({}) vs pipeline {:.0}",
                        r.candidates,
                        r.groups,
                        if r.budget_hit { " (budget hit)" } else { "" },
                        r.winner_cost,
                        if r.enumerated_won { "enumerated" } else { "greedy pipeline" },
                        r.pipeline_cost,
                    );
                    for g in &r.group_summaries {
                        println!("  group [{:>12.0}] x{:<3} {}", g.best_cost, g.members, g.label);
                    }
                }
                print!("{}", mura_dist::explain_plan(&planned.plan, engine.db()));
                println!("planning: {:.1?}", planned.planning);
            }
            "plan-of" => {
                let query = strip_cmd(full, "plan-of");
                let q = parse_ucrpq(query)?;
                let term = to_mura(&q, &mut self.db)?;
                let plan = if self.optimize { optimize(&term, &mut self.db)? } else { term };
                println!("{}", plan.display(self.db.dict()));
            }
            "sql" => {
                let query = strip_cmd(full, "sql");
                let q = parse_ucrpq(query)?;
                let term = to_mura(&q, &mut self.db)?;
                // Merged fixpoints don't fit one CTE; keep the naive form
                // for SQL unless it translates.
                let plan =
                    if self.optimize { optimize(&term, &mut self.db)? } else { term.clone() };
                let env = TypeEnv::from_db(&self.db);
                match to_sql(&plan, self.db.dict(), env) {
                    Ok(sql) => println!("{sql}"),
                    Err(_) => {
                        let env = TypeEnv::from_db(&self.db);
                        println!("{}", to_sql(&term, self.db.dict(), env)?);
                    }
                }
            }
            "datalog" => {
                let q = parse_ucrpq(strip_cmd(full, "datalog"))?;
                println!("{}", ucrpq_to_program(&q, &self.db)?);
            }
            other => {
                return Err(MuraError::Frontend(format!(
                    "unknown command '.{other}' — .help for commands"
                )))
            }
        }
        Ok(())
    }

    fn execute(&mut self, query: &str) -> Result<QueryOutput> {
        // `--trace-out` upgrades every plain query to superstep tracing.
        let level =
            if self.trace_out.is_some() { TraceLevel::Superstep } else { self.config.trace };
        self.execute_traced(query, level)
    }

    fn execute_traced(&mut self, query: &str, level: TraceLevel) -> Result<QueryOutput> {
        let mut config = self.config.clone();
        config.trace = config.trace.max(level);
        let mut engine = QueryEngine::with_config(self.db.clone(), config);
        if !self.optimize {
            engine = engine.without_rewrites();
        }
        let out = engine.run_ucrpq(query)?;
        // Keep interned symbols (query columns, constants) for later use.
        self.db = engine.db().clone();
        Ok(out)
    }

    /// Writes `trace` to the `--trace-out` path (no-op when unset). Under
    /// `--cluster` this is the merged cluster trace: worker-side spans are
    /// flushed back over the wire and clock-aligned into one lane per
    /// worker process before the query returns.
    fn dump_trace(&self, trace: &mura_dist::QueryTrace) -> Result<()> {
        let Some(path) = &self.trace_out else { return Ok(()) };
        std::fs::write(path, trace.to_json())
            .map_err(|e| MuraError::Other(format!("write {path}: {e}")))?;
        let lanes: std::collections::BTreeSet<i32> =
            trace.events.iter().filter(|e| e.worker >= 0).map(|e| e.worker).collect();
        println!(
            "trace written to {path} ({} events, {} worker lanes)",
            trace.events.len(),
            lanes.len()
        );
        Ok(())
    }

    fn run_query(&mut self, query: &str) -> Result<()> {
        let out = self.execute(query)?;
        let rel = &out.relation;
        println!(
            "{} rows in {:.1?}  ({} fixpoint iterations, {} shuffles, {} rows shuffled, {} broadcast)",
            rel.len(),
            out.wall(),
            out.stats.fixpoint_iterations,
            out.comm.shuffles,
            out.comm.rows_shuffled,
            out.comm.rows_broadcast,
        );
        if let Some(note) = out.health_note() {
            println!("  {note}");
            for line in out.stats.fault.to_string().lines() {
                println!("    {line}");
            }
        }
        for row in rel.sorted_rows().iter().take(20) {
            let vals: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            println!("  ({})", vals.join(", "));
        }
        if rel.len() > 20 {
            println!("  … {} more", rel.len() - 20);
        }
        if let Some(trace) = out.trace() {
            self.dump_trace(trace)?;
        }
        Ok(())
    }
}

/// Parses `[relation] value value …` into a one-row [`mura_serve::DeltaBatch`]
/// against `db`: an explicit leading relation name wins, otherwise the
/// database must hold exactly one relation; values are node ids or bound
/// constant names. Mirrors the server-side `.insert`/`.delete` parsing.
fn build_delta(db: &Database, args: &[&str], insert: bool) -> Result<mura_serve::DeltaBatch> {
    let err = |msg: String| MuraError::Frontend(msg);
    let mut tokens = args.to_vec();
    let rel = match db.dict().lookup(tokens[0]).filter(|s| db.relation(*s).is_some()) {
        Some(sym) => {
            tokens.remove(0);
            sym
        }
        None => {
            let mut rels = db.relations().map(|(s, _)| s);
            match (rels.next(), rels.next()) {
                (Some(only), None) => only,
                _ => {
                    return Err(err(format!(
                        "'{}' is not a relation and the database holds more than one",
                        tokens[0]
                    )))
                }
            }
        }
    };
    let arity = db.relation(rel).expect("relation resolved above").schema().arity();
    if tokens.len() != arity {
        return Err(err(format!(
            "relation '{}' has arity {arity}, got {} value(s)",
            db.dict().resolve(rel),
            tokens.len()
        )));
    }
    let row: Box<[Value]> = tokens
        .iter()
        .map(|tok| match tok.parse::<u64>() {
            Ok(id) => Ok(Value::node(id)),
            Err(_) => db
                .constant(tok)
                .ok_or_else(|| err(format!("'{tok}' is neither a node id nor a constant"))),
        })
        .collect::<Result<_>>()?;
    let mut batch = mura_serve::DeltaBatch::new();
    if insert {
        batch.push_insert(db, rel, row)?;
    } else {
        batch.push_delete(db, rel, row)?;
    }
    Ok(batch)
}

/// `murash --connect <addr> --mutate <file>`: streams a batch of
/// `insert`/`delete` lines (leading dot optional, `#` comments and blank
/// lines skipped) to a remote `.serve` instance, printing the one-line
/// reply for each. Busy replies carrying `retry-after-ms` are retried per
/// line up to [`MUTATE_RETRIES`] times, honoring the hint. Exits non-zero
/// if any mutation is rejected.
/// Bounded retries per `--mutate` line when the server answers busy with a
/// `retry-after-ms` hint.
const MUTATE_RETRIES: u32 = 3;

fn mutate_remote(addr: &str, path: &str) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    // No mid-stream reconnect here: a mutation whose reply was lost must
    // not be blindly resent (it may already have applied server-side).
    let mut conn = RemoteConn::connect(addr)?;
    let (mut applied, mut failed) = (0u64, 0u64);
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let verb = line.strip_prefix('.').unwrap_or(line);
        if !(verb.starts_with("insert") || verb.starts_with("delete")) {
            println!("{}:{}: ERR expected 'insert …' or 'delete …', got '{line}'", path, no + 1);
            failed += 1;
            continue;
        }
        // A busy/overloaded rejection is safe to resend: the server replied
        // without applying, so this is not the lost-reply case above. Honor
        // the server's retry-after-ms hint, bounded so a persistently
        // overloaded server fails the line instead of stalling the stream.
        let mut status;
        let mut attempts = 0u32;
        loop {
            (status, _) = conn.round_trip(&format!(".{verb}"))?;
            attempts += 1;
            let Some(ms) = retry_after_of(&status) else { break };
            if attempts > MUTATE_RETRIES {
                break;
            }
            println!(
                "{}:{}: {status} — retrying in {ms} ms ({attempts}/{MUTATE_RETRIES})",
                path,
                no + 1
            );
            std::thread::sleep(std::time::Duration::from_millis(ms.min(2_000)));
        }
        println!("{}:{}: {status}", path, no + 1);
        if status.starts_with("ERR") {
            failed += 1;
        } else {
            applied += 1;
        }
    }
    println!("{applied} applied, {failed} failed");
    if failed > 0 {
        std::process::exit(1);
    }
    Ok(())
}

/// Extracts the `retry-after-ms=<n>` token a busy/overloaded server embeds
/// in its `ERR` status line.
fn retry_after_of(status: &str) -> Option<u64> {
    status.split_whitespace().find_map(|tok| tok.strip_prefix("retry-after-ms=")?.parse().ok())
}

/// Socket read/write timeout for remote-mode connections: a hung or
/// half-dead server surfaces as a timeout error instead of blocking the
/// shell forever.
const CLIENT_IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// One client connection to a `.serve` instance, with socket timeouts
/// applied at connect time.
struct RemoteConn {
    reader: std::io::BufReader<std::net::TcpStream>,
    out: std::net::TcpStream,
}

impl RemoteConn {
    /// Connects with bounded exponential backoff (4 attempts, 50 → 400 ms)
    /// and arms both socket timeouts, so neither a refused port during a
    /// server restart nor a later stall hangs the client.
    fn connect(addr: &str) -> std::io::Result<RemoteConn> {
        let mut delay = std::time::Duration::from_millis(50);
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..4 {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(std::time::Duration::from_millis(400));
            }
            match std::net::TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT))?;
                    stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT))?;
                    let _ = stream.set_nodelay(true);
                    let reader = std::io::BufReader::new(stream.try_clone()?);
                    return Ok(RemoteConn { reader, out: stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one connect attempt"))
    }

    /// Sends one protocol line and reads the response block.
    fn round_trip(&mut self, line: &str) -> std::io::Result<(String, Vec<String>)> {
        use std::io::Write;
        self.out.write_all(format!("{line}\n").as_bytes())?;
        self.out.flush()?;
        mura_serve::read_response(&mut self.reader)
    }
}

/// Interactive client against a `.serve` instance: forwards each line over
/// TCP and prints the response block (status + body up to the `.`
/// terminator). A busy/overloaded rejection carrying a `retry-after-ms`
/// hint is honored with one automatic retry; a dropped or timed-out
/// connection is re-established once (with backoff) and the line resent.
fn client_repl(addr: &str) -> std::io::Result<()> {
    let mut conn = RemoteConn::connect(addr)?;
    println!(
        "connected to {addr} — server-side verbs: .stats .metrics .profile <query> .rels \
         .insert/.delete [rel] <v> … .deadline <ms> .drain .quit"
    );
    while let Some(line) = mura_datagen::io::read_line(&format!("μ@{addr}> ")) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (mut status, mut body) = match conn.round_trip(line) {
            Ok(resp) => resp,
            Err(e) => {
                // One-shot recovery: reconnect with backoff, resend once.
                // A second failure is terminal — no retry storms against a
                // server that is actually down.
                println!("connection lost ({e}) — reconnecting");
                conn = RemoteConn::connect(addr)?;
                conn.round_trip(line)?
            }
        };
        if status.starts_with("ERR ") {
            if let Some(ms) = retry_after_of(&status) {
                // Cap the wait: the hint is advisory and an interactive
                // shell should never stall for long.
                println!("{status} — retrying in {ms} ms");
                std::thread::sleep(std::time::Duration::from_millis(ms.min(2_000)));
                (status, body) = conn.round_trip(line)?;
            }
        }
        println!("{status}");
        for l in &body {
            println!("  {l}");
        }
        if line == ".quit" || line == ".exit" {
            break;
        }
    }
    Ok(())
}

/// `murash --drain <addr>`: asks a remote `.serve` instance to drain
/// gracefully and prints its final counters.
fn drain_remote(addr: &str) -> std::io::Result<()> {
    let mut conn = RemoteConn::connect(addr)?;
    let (status, body) = conn.round_trip(".drain")?;
    println!("{status}");
    for l in &body {
        println!("  {l}");
    }
    if !status.starts_with("OK") {
        std::process::exit(1);
    }
    Ok(())
}

fn parse_num(s: &str) -> Result<u64> {
    s.parse().map_err(|_| MuraError::Frontend(format!("invalid number '{s}'")))
}

fn strip_cmd<'a>(full: &'a str, cmd: &str) -> &'a str {
    full[cmd.len()..].trim()
}
