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
//!
//! The shell is the first client of its own server: it starts one
//! [`Server`] over an empty database, loads graphs into it, and sends every
//! query and every verb the line protocol knows through the same
//! [`Client`] and the same interpreter
//! ([`protocol::respond`]) a TCP session gets. `.serve <addr>` only opens a
//! port on that server, so the shell and its remote sessions always see the
//! same database.

use dist_mu_ra::prelude::*;
use mura_core::analysis::TypeEnv;
use mura_core::sql::to_sql;
use mura_datagen::{load_edge_list, save_edge_list, Graph, UniprotConfig, YagoConfig};
use mura_datalog::ucrpq_to_program;
use mura_dist::exec::FixpointPlan;
use mura_dist::{FaultConfig, LocalEngine};
use mura_serve::{protocol, ClusterMode, Pending, TcpServeHandle};
use mura_ucrpq::to_mura;
use std::fmt::Write as _;

/// Shell errors are only ever printed.
type ShellResult = std::result::Result<(), Box<dyn std::error::Error>>;

struct Shell {
    /// `None` only while a config verb restarts it.
    server: Option<Server>,
    /// What a TCP connection would carry from line to line (`.deadline`).
    session: protocol::Session,
    /// The graph `.save` writes, and the database version it was loaded
    /// at: any mutation since, local or remote, makes it stale.
    graph: Option<(Graph, u64)>,
    config: ExecConfig,
    optimize: bool,
    /// Cluster mode, worker binary and data directory, from the flags.
    serve: ServeConfig,
    tcp: Option<TcpServeHandle>,
    /// When set (`--trace-out <path>`), every query runs with per-superstep
    /// tracing and the latest trace is written to this path as JSON.
    trace_out: Option<String>,
}

const HELP: &str = "\
shell commands:
  .gen yago <people> | uniprot <edges> | rnd <n> <p> [labels] | tree <n>
  .load <path>           load an edge-list file (src [label] dst, @node name id)
  .save <path>           save the loaded graph (while nothing has mutated it)
  .consts                list named constants
  .const <name> <id>     name a node
  .workers <n>           set worker count (default 4)
  .plan auto|gld|plw     fixpoint plan policy
  .engine setrdd|sorted  P_plw local engine
  .rewrites on|off       toggle the logical optimizer
  .chaos <seed>|off      deterministic fault injection (panics, transient
                         errors, message drops/dups, stragglers) + recovery
                         (these five restart the server over the same database)
  .serve <addr>          open a TCP port on the shell's server
  .serve stop            close it
  .classes <query>       classify a query (C1..C6)
  .plan-of <query>       show the optimized logical plan
  .sql <query>           translate the optimized plan to PostgreSQL SQL
  .datalog <query>       show the left-to-right Datalog translation
  .help                  this text
server verbs (the same over `murash --connect <addr>`):";

const HELP_TAIL: &str = "\
anything else is parsed as a UCRPQ query and executed; the first 20 rows are shown.
start with `murash --connect <addr>` to talk to a remote .serve instance
(busy/overloaded replies carrying retry-after-ms are retried once; a
dropped connection is re-established once with backoff),
`murash --drain <addr>` to gracefully drain a remote server,
`murash --connect <addr> --mutate <file>` to stream a batch of
`insert`/`delete` lines and print one reply per mutation,
`--cluster <n>` to run queries on n real worker processes over TCP
(`--worker-bin <path>` overrides the mura-worker binary),
`--data-dir <dir>` to make the database durable: every load and mutation
is WAL-logged and periodically snapshotted there, and a restarted
`murash --data-dir` recovers to the exact pre-crash version with the same
answers,
`--chaos <seed>` for fault injection, `--trace-out <path>` to dump each
query's trace as JSON (Chrome-trace compatible under \"traceEvents\";
combined with --cluster the file is the clock-aligned merge of every
worker process, one lane per worker).";

/// The rows of `.help` (and the `--connect` banner) for the verbs the
/// shell shares with the protocol, from the protocol's own table.
fn verb_help() -> String {
    let mut rows = String::new();
    for verb in protocol::VERBS {
        let _ = writeln!(rows, "  {:<22} {}", verb.usage(), verb.help);
    }
    rows
}

const USAGE: &str = "usage: murash [--connect <addr>] [--drain <addr>] [--mutate <file>] \
                     [--cluster <n>] [--worker-bin <path>] [--data-dir <dir>] \
                     [--chaos <seed>] [--trace-out <path>]";

/// A command line that cannot be run.
fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut connect: Option<String> = None;
    let mut drain: Option<String> = None;
    let mut mutate: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut trace_out: Option<String> = None;
    let mut serve = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--connect" => connect = Some(value()),
            "--drain" => drain = Some(value()),
            "--mutate" => mutate = Some(value()),
            "--chaos" => {
                let seed = value();
                let seed =
                    seed.parse().unwrap_or_else(|_| usage_exit(&format!("invalid seed '{seed}'")));
                chaos_seed = Some(seed);
            }
            "--trace-out" => trace_out = Some(value()),
            "--cluster" => {
                let n = value();
                let workers: usize = n
                    .parse()
                    .unwrap_or_else(|_| usage_exit(&format!("invalid worker count '{n}'")));
                serve.cluster = ClusterMode::Processes { workers: workers.max(1) };
            }
            "--worker-bin" => serve.worker_bin = Some(value().into()),
            "--data-dir" => serve.data_dir = Some(value().into()),
            _ => usage_exit(&format!("unknown flag '{flag}'")),
        }
    }
    let remote = match (drain, mutate, connect) {
        (Some(addr), ..) => Some(drain_remote(&addr)),
        (None, Some(path), Some(addr)) => Some(mutate_remote(&addr, &path)),
        (None, Some(_), None) => usage_exit("--mutate requires --connect <addr>"),
        // Tracing happens inside the server process; a remote shell only
        // ever sees rendered text, never the trace itself.
        (None, None, Some(_)) if trace_out.is_some() => usage_exit(
            "--trace-out needs a local session: tracing runs server-side and its merged \
             trace is not forwarded over the wire (use .profile against the server to \
             render its timeline instead)",
        ),
        (None, None, Some(addr)) => Some(client_repl(&addr)),
        (None, None, None) => None,
    };
    if let Some(outcome) = remote {
        if let Err(e) = outcome {
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
    let mut shell = Shell {
        server: None,
        session: protocol::Session::default(),
        graph: None,
        config,
        optimize: true,
        serve,
        tcp: None,
        trace_out,
    };
    shell.start(Database::new());
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

/// Prints a reply the way a remote session shows it: the status line,
/// then the body indented.
fn print_reply<'a>(mut lines: impl Iterator<Item = &'a str>) {
    println!("{}", lines.next().unwrap_or_default());
    for line in lines {
        println!("  {line}");
    }
}

impl Shell {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("a server runs between commands")
    }

    /// Starts the shell's server over `db` with the current engine and
    /// serve configuration. A shell without a server is of no use, so a
    /// failure (no worker binary, an unreadable data directory) ends it.
    fn start(&mut self, db: Database) {
        let mut engine = QueryEngine::with_config(db, self.config.clone());
        if !self.optimize {
            engine = engine.without_rewrites();
        }
        let server = Server::try_start(engine, self.serve.clone()).unwrap_or_else(|e| {
            eprintln!("error: start server: {e}");
            std::process::exit(1);
        });
        if let ClusterMode::Processes { workers } = self.serve.cluster {
            println!(
                "process cluster: {workers} supervised workers over TCP \
                 (heartbeats, respawn on death)"
            );
        }
        if let Some(dir) = &self.serve.data_dir {
            // What the directory held wins over `db`.
            println!(
                "durable in {}: recovered v={} (replayed {} WAL records)",
                dir.display(),
                server.version(),
                server.stats().recovery_replayed_batches
            );
        }
        self.server = Some(server);
    }

    /// A config verb changed the engine configuration: restart the server
    /// over the same database, and reopen the TCP port if one was open.
    fn restart(&mut self) -> ShellResult {
        let port = self.tcp.take().map(|tcp| tcp.addr());
        let old = self.server.take().expect("a server runs between commands");
        let db = old.with_db(Database::clone);
        // The old server lets go of the data directory and the worker
        // fleet before the new one claims them.
        old.shutdown();
        self.start(db);
        match port {
            Some(addr) => self.listen(&addr.to_string()),
            None => Ok(()),
        }
    }

    fn listen(&mut self, addr: &str) -> ShellResult {
        let tcp =
            mura_serve::serve_tcp(self.server(), addr).map_err(|e| format!("bind {addr}: {e}"))?;
        println!("serving on {0} — connect with: murash --connect {0}", tcp.addr());
        self.tcp = Some(tcp);
        Ok(())
    }

    /// Replaces the served database with `graph`.
    fn load_graph(&mut self, graph: Graph) -> ShellResult {
        let db = graph.to_database();
        self.server().try_load(|served| *served = db)?;
        self.graph = Some((graph, self.server().version()));
        Ok(())
    }

    fn dispatch(&mut self, line: &str) -> ShellResult {
        if !line.starts_with('.') {
            return self.run_query(line);
        }
        let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        let args: Vec<&str> = rest.split_whitespace().collect();
        let parse_query = || parse_ucrpq(rest);
        match (cmd, args.as_slice()) {
            (".help", _) => println!("{HELP}\n{}{HELP_TAIL}", verb_help()),
            (".gen", args) => {
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
                        let p: f64 = p.parse().map_err(|_| "invalid p")?;
                        let base = mura_datagen::erdos_renyi(parse_num(n)?, p, 42);
                        match args.get(3) {
                            Some(k) => {
                                let mut rng = mura_datagen::SplitMix64::seed_from_u64(42);
                                let labels = parse_num(k)? as u32;
                                mura_datagen::with_random_labels(&base, labels, &mut rng)
                            }
                            None => base,
                        }
                    }
                    ["tree", n] => mura_datagen::random_tree(parse_num(n)?, 42),
                    _ => return Err("usage: .gen yago <people> | uniprot <edges> | rnd <n> <p> [labels] | tree <n>".into()),
                };
                println!(
                    "generated: {} nodes, {} edges, labels: {}",
                    graph.n_nodes,
                    graph.edge_count(),
                    graph.labels.join(", ")
                );
                self.load_graph(graph)?;
            }
            (".load", [path]) => {
                let graph = load_edge_list(path)?;
                println!("loaded: {} nodes, {} edges", graph.n_nodes, graph.edge_count());
                self.load_graph(graph)?;
            }
            (".save", [path]) => match &self.graph {
                Some((graph, version)) if *version == self.server().version() => {
                    save_edge_list(graph, path)?;
                    println!("saved to {path}");
                }
                Some(_) => {
                    return Err("the database has been mutated since the graph was loaded".into())
                }
                None => return Err("no generated/loaded graph to save".into()),
            },
            (".consts", []) => self.server().with_db(|db| {
                for (s, v) in db.constants() {
                    println!("  {:<24} {v}", db.dict().resolve(s));
                }
            }),
            (".const", [name, id]) => {
                let node = Value::node(parse_num(id)?);
                self.server().try_load(|db| {
                    db.bind_constant(name, node);
                })?;
                println!("bound {name}");
            }
            (".workers", [n]) => {
                self.config.workers = parse_num(n)? as usize;
                self.restart()?;
            }
            (".plan", [policy]) => {
                self.config.plan = match *policy {
                    "auto" => FixpointPlan::Auto,
                    "gld" => FixpointPlan::ForceGld,
                    "plw" => FixpointPlan::ForcePlw,
                    _ => return Err("usage: .plan auto|gld|plw".into()),
                };
                self.restart()?;
            }
            (".engine", [engine]) => {
                self.config.local_engine = match *engine {
                    "setrdd" => LocalEngine::SetRdd,
                    "sorted" => LocalEngine::Sorted,
                    _ => return Err("usage: .engine setrdd|sorted".into()),
                };
                self.restart()?;
            }
            (".rewrites", [switch @ ("on" | "off")]) => {
                self.optimize = *switch == "on";
                self.restart()?;
            }
            (".chaos", ["off"]) => {
                self.config.fault = FaultConfig::default();
                self.config.checkpoint_every = 0;
                println!("chaos off");
                self.restart()?;
            }
            (".chaos", [seed]) => {
                self.config.fault = FaultConfig::chaos(parse_num(seed)?);
                self.config.checkpoint_every = 2;
                println!("chaos on (seed {seed}, checkpoint every 2 supersteps)");
                self.restart()?;
            }
            (".serve", ["stop"]) => match self.tcp.take() {
                Some(tcp) => {
                    let stats = self.server().stats();
                    println!(
                        "stopped serving on {} ({} completed, {} rejected)",
                        tcp.addr(),
                        stats.completed,
                        stats.rejected
                    );
                }
                None => println!("not serving"),
            },
            (".serve", [_]) if self.tcp.is_some() => {
                return Err("already serving — .serve stop first".into())
            }
            (".serve", [addr]) => self.listen(addr)?,
            (".classes", [_, ..]) => println!("classes: {:?}", classify(&parse_query()?)),
            (".plan-of" | ".sql", [_, ..]) => {
                // Translation interns the query's names: work on a copy.
                let mut db = self.server().with_db(Database::clone);
                let term = to_mura(&parse_query()?, &mut db)?;
                let plan = if self.optimize { optimize(&term, &mut db)? } else { term.clone() };
                if cmd == ".plan-of" {
                    println!("{}", plan.display(db.dict()));
                } else {
                    // Merged fixpoints don't fit one CTE; keep the naive
                    // form for SQL unless the optimized one translates.
                    let sql = to_sql(&plan, db.dict(), TypeEnv::from_db(&db))
                        .or_else(|_| to_sql(&term, db.dict(), TypeEnv::from_db(&db)))?;
                    println!("{sql}");
                }
            }
            (".datalog", [_, ..]) => {
                let query = parse_query()?;
                println!("{}", self.server().with_db(|db| ucrpq_to_program(&query, db))?);
            }
            _ => match HELP.lines().find(|row| row.split_whitespace().next() == Some(cmd)) {
                // A shell command whose arguments fit no arm above.
                Some(row) => return Err(format!("usage: {}", row.trim()).into()),
                // Everything the protocol knows — and its reply to what it
                // does not — comes from the interpreter a TCP session gets.
                None => {
                    let server = self.server.as_ref().expect("a server runs between commands");
                    print_reply(protocol::respond(server, &mut self.session, line).lines());
                }
            },
        }
        Ok(())
    }

    /// Writes `trace` to the `--trace-out` path. Under `--cluster` this is
    /// the merged cluster trace: worker-side spans are flushed back over
    /// the wire and clock-aligned into one lane per worker process before
    /// the query returns.
    fn dump_trace(path: &str, trace: &mura_dist::QueryTrace) -> ShellResult {
        std::fs::write(path, trace.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        let lanes: std::collections::BTreeSet<i32> =
            trace.events.iter().filter(|e| e.worker >= 0).map(|e| e.worker).collect();
        println!(
            "trace written to {path} ({} events, {} worker lanes)",
            trace.events.len(),
            lanes.len()
        );
        Ok(())
    }

    fn run_query(&mut self, query: &str) -> ShellResult {
        let client = self.server();
        let out = match &self.trace_out {
            // `--trace-out` upgrades every plain query to superstep tracing.
            Some(_) => client.profile(query)?,
            None => client.submit(query, self.session.deadline).and_then(Pending::wait)?,
        };
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
        for row in rel.iter_sorted().take(20) {
            let vals: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            println!("  ({})", vals.join(", "));
        }
        if rel.len() > 20 {
            println!("  … {} more", rel.len() - 20);
        }
        if let (Some(path), Some(trace)) = (&self.trace_out, out.trace()) {
            Self::dump_trace(path, trace)?;
        }
        Ok(())
    }
}

/// `murash --connect <addr> --mutate <file>`: streams a batch of
/// `insert`/`delete` lines (leading dot optional, `#` comments and blank
/// lines skipped) to a remote `.serve` instance, printing the one-line
/// reply for each; a busy reply is retried up to three times per line.
/// Exits non-zero if any mutation is rejected.
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
        let at = format!("{path}:{}: ", no + 1);
        let (status, _) = conn.ask(&format!(".{verb}"), 3, &at)?;
        println!("{at}{status}");
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

    /// [`round_trip`](RemoteConn::round_trip), resending up to `retries`
    /// times when the server answers busy or overloaded: it replied without
    /// running the line, so this is safe even for a mutation — unlike a
    /// lost reply. The server's `retry-after-ms` hint is honored but capped
    /// (it is advisory, and a persistently overloaded server should fail
    /// the line rather than stall the caller). `at` prefixes the notices.
    fn ask(
        &mut self,
        line: &str,
        retries: u32,
        at: &str,
    ) -> std::io::Result<(String, Vec<String>)> {
        let mut attempt = 0;
        loop {
            let (status, body) = self.round_trip(line)?;
            attempt += 1;
            match retry_after_of(&status) {
                Some(ms) if attempt <= retries => {
                    println!("{at}{status} — retrying in {ms} ms ({attempt}/{retries})");
                    std::thread::sleep(std::time::Duration::from_millis(ms.min(2_000)));
                }
                _ => return Ok((status, body)),
            }
        }
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
    let verbs: Vec<String> = protocol::VERBS.iter().map(protocol::Verb::usage).collect();
    println!("connected to {addr} — server-side verbs: {}", verbs.join("  "));
    while let Some(line) = mura_datagen::io::read_line(&format!("μ@{addr}> ")) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (status, body) = match conn.ask(line, 1, "") {
            Ok(reply) => reply,
            Err(e) => {
                // One-shot recovery: reconnect with backoff, resend once.
                // A second failure is terminal — no retry storms against a
                // server that is actually down.
                println!("connection lost ({e}) — reconnecting");
                conn = RemoteConn::connect(addr)?;
                conn.ask(line, 1, "")?
            }
        };
        print_reply(std::iter::once(&status).chain(&body).map(String::as_str));
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
    print_reply(std::iter::once(&status).chain(&body).map(String::as_str));
    if !status.starts_with("OK") {
        std::process::exit(1);
    }
    Ok(())
}

fn parse_num(s: &str) -> std::result::Result<u64, String> {
    s.parse().map_err(|_| format!("invalid number '{s}'"))
}
