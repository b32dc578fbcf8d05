//! The line protocol: one interpreter, whoever is typing.
//!
//! Any plain line is parsed as a UCRPQ query; a line starting with `.` is
//! looked up in the verb table [`VERBS`] by the text before its first
//! whitespace. [`respond`] is the only interpreter: the TCP front end
//! ([`serve_tcp`]) loops over it per connection, and the `murash` shell
//! calls it for every verb it shares with a remote session. Every
//! [`Response`] is one status line (`OK …` or `ERR …`), zero or more body
//! lines, and a final line containing a single `.` — so clients read until
//! the terminator.
//!
//! ```text
//! → ?x, ?y <- ?x a1+ ?y
//! ← OK 42 rows planning=0.1ms execution=3.2ms
//! ← (0, 3)
//! ← …
//! ← .
//! ```
//!
//! Mutations reply with one status line carrying the new database version
//! and the rows that changed (a cached view is brought forward by the next
//! read of it, and counted there):
//!
//! ```text
//! → .insert e 7 8
//! ← OK v=3 +1 -0
//! ← .
//! ```
//!
//! The relation name may be omitted when the database holds exactly one
//! relation; values are node ids (integers) or bound constant names.
//!
//! Overloaded and busy rejections reply `ERR … retry-after-ms=<n>`; the
//! token is machine-parseable so clients can schedule a retry.

use crate::client::{Client, Server};
use crate::error::ServeResult;
use mura_dist::QueryOutput;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Response terminator line.
pub const TERMINATOR: &str = ".";

/// Maximum accepted protocol line, in bytes. Lines are this protocol's
/// frames: without a cap, a peer streaming an unterminated (or simply
/// enormous) "line" — garbage bytes, a runaway generator — grows the
/// read buffer without bound before the parser ever sees a newline.
/// Legitimate traffic (query text, `.metrics` pages rendered line by
/// line) stays far below a mebibyte.
pub const MAX_LINE: usize = 1 << 20;

/// Typed framing violations, carried as the payload of
/// [`io::ErrorKind::InvalidData`] errors from the capped line reader.
/// After either violation the stream cannot be resynchronized (the rest
/// of the bad line is indistinguishable from new frames), so the
/// connection must be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A line exceeded [`MAX_LINE`] bytes before its newline arrived.
    TooLong { limit: usize },
    /// A line's bytes were not valid UTF-8 (binary garbage on the port).
    InvalidUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong { limit } => {
                write!(f, "protocol line exceeds {limit} bytes before newline")
            }
            FrameError::InvalidUtf8 => write!(f, "protocol line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one `\n`-terminated line into `line` (cleared first), enforcing
/// [`MAX_LINE`]. Returns the byte count read (0 at EOF, like
/// `read_line`); violations surface as [`io::ErrorKind::InvalidData`]
/// with a [`FrameError`] payload. Both the server loop and
/// [`read_response`] frame through here, so neither side trusts the
/// other's framing.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    line.clear();
    let mut raw: Vec<u8> = Vec::new();
    loop {
        let (consumed, done, overflow) = {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                (0, true, false) // EOF: return what arrived so far
            } else {
                let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
                    Some(i) => (&buf[..=i], true),
                    None => (buf, false),
                };
                if raw.len() + chunk.len() > MAX_LINE {
                    (chunk.len(), done, true)
                } else {
                    raw.extend_from_slice(chunk);
                    (chunk.len(), done, false)
                }
            }
        };
        reader.consume(consumed);
        if overflow {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::TooLong { limit: MAX_LINE },
            ));
        }
        if done {
            break;
        }
    }
    match std::str::from_utf8(&raw) {
        Ok(s) => {
            line.push_str(s);
            Ok(raw.len())
        }
        Err(_) => Err(io::Error::new(io::ErrorKind::InvalidData, FrameError::InvalidUtf8)),
    }
}

/// A running TCP acceptor; stop it with [`TcpServeHandle::stop`].
pub struct TcpServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TcpServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the acceptor thread — what
    /// dropping the handle does. Already-open connections finish on their
    /// own threads.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for TcpServeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:7687"`, port 0 for ephemeral) and serves
/// connections against `server` on a background acceptor thread.
pub fn serve_tcp(server: &Server, addr: &str) -> io::Result<TcpServeHandle> {
    let listener = TcpListener::bind(addr)?;
    // Non-blocking accept so the acceptor can observe the stop flag.
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let client = server.client();
    let thread = std::thread::Builder::new().name("mura-serve-tcp".into()).spawn(move || {
        while !stop2.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let client = client.clone();
                    let _ = std::thread::Builder::new().name("mura-serve-conn".into()).spawn(
                        move || {
                            let _ = handle_connection(stream, &client);
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    })?;
    Ok(TcpServeHandle { addr: local, stop, thread: Some(thread) })
}

fn handle_connection(stream: TcpStream, client: &Client) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut session = Session::default();
    let mut line = String::new();
    loop {
        let response = match read_line_capped(&mut reader, &mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) if line.trim().is_empty() => continue,
            Ok(_) => respond(client, &mut session, &line),
            // Framing violation (oversized or binary line): answer once
            // with a typed error, then drop the connection — the rest of
            // the bad line cannot be told apart from frames.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Response { closes: true, ..Response::status(format!("ERR {e}")) }
            }
            Err(e) => return Err(e),
        };
        out.write_all(response.as_str().as_bytes())?;
        out.flush()?;
        if response.closes {
            return Ok(());
        }
    }
}

/// What a connection (or a shell) carries from one line to the next.
#[derive(Debug, Default)]
pub struct Session {
    /// Deadline of this session's queries, set by `.deadline`.
    pub deadline: Option<Duration>,
}

/// One reply, rendered: status line, body lines, terminator, in one
/// buffer that goes to the socket in one write. A query's is its answer's
/// filed reply, shared rather than copied.
#[derive(Debug)]
pub struct Response {
    text: Arc<str>,
    /// The session ends with this reply (`.quit`).
    pub closes: bool,
}

impl Response {
    /// A reply without a body.
    fn status(status: impl std::fmt::Display) -> Response {
        Response::block(status, "")
    }

    /// `status`, then `body` line by line.
    fn block(status: impl std::fmt::Display, body: &str) -> Response {
        let mut text = String::with_capacity(body.len() + 64);
        let _ = writeln!(text, "{status}");
        for line in body.lines() {
            text.push_str(line);
            text.push('\n');
        }
        end_block(&mut text);
        Response { text: text.into(), closes: false }
    }

    /// The reply as it goes to the socket, terminator included.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The lines of the reply, status first, terminator left out.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.text.lines().take_while(|l| *l != TERMINATOR)
    }
}

fn end_block(buf: &mut String) {
    buf.push_str(TERMINATOR);
    buf.push('\n');
}

/// One dot-command of the protocol.
pub struct Verb {
    /// What the line starts with, up to its first whitespace.
    pub name: &'static str,
    /// Synopsis of the argument; empty when the verb takes none.
    pub arg: &'static str,
    pub help: &'static str,
    run: fn(&Client, &mut Session, &str) -> ServeResult<Response>,
}

macro_rules! verbs {
    ($($name:literal $arg:literal $help:literal => $run:expr;)*) => {
        /// The verb table: every dot-command, the argument it takes and
        /// what it does. A line is matched against the names exactly, so
        /// `.explainx` is unknown rather than an `.explain`; a verb given
        /// an argument it does not take, or missing the one it needs,
        /// replies `ERR usage: …`.
        ///
        /// ```text
        #[doc = concat!($("→ ", $name, " ", $arg, "\n      ", $help, "\n"),*)]
        /// ```
        pub const VERBS: &[Verb] =
            &[$(Verb { name: $name, arg: $arg, help: $help, run: $run }),*];
    };
}

verbs! {
    ".stats" "" "serving counters incl. latency quantiles" =>
        |client, _, _| Ok(Response::block("OK stats", &client.stats_text()));
    ".metrics" "" "Prometheus text-exposition page" =>
        |client, _, _| Ok(Response::block("OK metrics", &client.metrics()));
    ".rels" "" "relations and row counts" => rels;
    ".explain" "<query>" "plan only: enumeration digest + chosen plan" =>
        |client, _, query| Ok(Response::block("OK explain", &client.explain(query)?));
    ".profile" "<query>" "run traced, print the superstep timeline" => profile;
    ".insert" "[rel] <v> …" "add a base row; cached views catch up when read" =>
        |client, _, row| mutate(client, ".insert", row);
    ".delete" "[rel] <v> …" "remove a base row (DRed when a view is read)" =>
        |client, _, row| mutate(client, ".delete", row);
    ".deadline" "<millis>" "deadline of this session's queries (0 clears)" => deadline;
    // Blocks until queued/in-flight queries resolve (bounded by the
    // server's drain grace). Subsequent queries get "server closed".
    ".drain" "" "graceful shutdown: finish in-flight, stop workers, final counters" =>
        |client, _, _| Ok(Response::block("OK drained", &client.request_drain().to_string()));
    ".quit" "" "end the session" => quit;
    ".exit" "" "end the session" => quit;
}

impl Verb {
    /// `name <arg>`, as `.help` and usage errors show it.
    pub fn usage(&self) -> String {
        format!("{} {}", self.name, self.arg).trim_end().to_string()
    }
}

/// Interprets one protocol line — a query or a verb — against `client`.
pub fn respond(client: &Client, session: &mut Session, line: &str) -> Response {
    let line = line.trim();
    let reply = if line.starts_with('.') {
        let (name, arg) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let Some(verb) = VERBS.iter().find(|v| v.name == name) else {
            return Response::status(format!("ERR unknown command '{line}'"));
        };
        let arg = arg.trim();
        if arg.is_empty() != verb.arg.is_empty() {
            return Response::status(format!("ERR usage: {}", verb.usage()));
        }
        (verb.run)(client, session, arg)
    } else {
        query(client, line, session.deadline)
    };
    reply.unwrap_or_else(|e| Response::status(format!("ERR {e}")))
}

fn quit(_: &Client, _: &mut Session, _: &str) -> ServeResult<Response> {
    Ok(Response { closes: true, ..Response::status("OK bye") })
}

fn deadline(_: &Client, session: &mut Session, millis: &str) -> ServeResult<Response> {
    Ok(match millis.parse::<u64>() {
        Ok(0) => {
            session.deadline = None;
            Response::status("OK deadline off")
        }
        Ok(ms) => {
            session.deadline = Some(Duration::from_millis(ms));
            Response::status(format!("OK deadline {ms} ms"))
        }
        Err(_) => Response::status("ERR usage: .deadline <millis>"),
    })
}

fn rels(client: &Client, _: &mut Session, _: &str) -> ServeResult<Response> {
    let mut rels = client.with_db(|db| {
        db.relations()
            .map(|(s, r)| format!("{} {} rows", db.dict().resolve(s), r.len()))
            .collect::<Vec<_>>()
    });
    rels.sort();
    Ok(Response::block("OK rels", &rels.join("\n")))
}

/// Parses a mutation (`[rel] value value …`) into a one-row
/// [`DeltaBatch`](mura_ivm::DeltaBatch) and applies it. Replies with a
/// single status line so batch drivers (`murash --mutate`) get one line
/// per mutation.
fn mutate(client: &Client, verb: &str, row: &str) -> ServeResult<Response> {
    let batch = match client.with_db(|db| parse_mutation(db, row, verb == ".insert")) {
        Ok(batch) => batch,
        Err(e) => return Ok(Response::status(format!("ERR {verb}: {e}"))),
    };
    let s = client.apply_delta(batch)?;
    Ok(Response::status(format!("OK v={} +{} -{}", s.version, s.inserted, s.deleted)))
}

fn parse_mutation(
    db: &mura_core::Database,
    args: &str,
    insert: bool,
) -> Result<mura_ivm::DeltaBatch, String> {
    use mura_core::Value;
    let mut tokens: Vec<&str> = args.split_whitespace().collect();
    // An explicit leading relation name wins; otherwise the database must
    // hold exactly one relation (the common single-graph case).
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
                    return Err(format!(
                        "'{}' is not a relation and the database holds more than one",
                        tokens[0]
                    ))
                }
            }
        }
    };
    let arity = db.relation(rel).ok_or_else(|| "relation vanished".to_string())?.schema().arity();
    if tokens.len() != arity {
        return Err(format!(
            "relation '{}' has arity {arity}, got {} value(s)",
            db.dict().resolve(rel),
            tokens.len()
        ));
    }
    let row: Box<[Value]> = tokens
        .iter()
        .map(|tok| mura_ucrpq::translate::resolve_const(tok, db).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut batch = mura_ivm::DeltaBatch::new();
    let push =
        if insert { mura_ivm::DeltaBatch::push_insert } else { mura_ivm::DeltaBatch::push_delete };
    push(&mut batch, db, rel, row).map_err(|e| e.to_string())?;
    Ok(batch)
}

/// Runs a query with per-superstep tracing and renders its timeline:
/// one aligned row per trace event (fixpoint, plan, worker, iteration,
/// delta size, rows shuffled/broadcast, probes, wall time).
fn profile(client: &Client, _: &mut Session, query: &str) -> ServeResult<Response> {
    let out = client.profile(query)?;
    let header = format!(
        "OK profile {} rows planning={:.1?} execution={:.1?}",
        out.relation.len(),
        out.planning,
        out.execution,
    );
    let Some(trace) = out.trace() else {
        return Ok(Response::block(header, "(no trace recorded)"));
    };
    let mut body = trace.render_timeline();
    // Cluster-aware addendum: per-fixpoint worker skew, derived from the
    // merged worker lanes (empty for single-lane traces).
    let skew = trace.render_skew();
    if !skew.is_empty() {
        body.push('\n');
        body.push_str(&skew);
    }
    Ok(Response::block(header, &body))
}

/// Runs a query and replies with its answer's reply: rendered by
/// [`render`] on the answer's first protocol read, written as it stands by
/// every later one — a cache hit sorts and formats nothing.
fn query(client: &Client, query: &str, deadline: Option<Duration>) -> ServeResult<Response> {
    let answer = client.submit(query, deadline)?.wait()?;
    Ok(Response { text: answer.reply(render), closes: false })
}

/// Renders the whole reply to a query — status line, one body line per row
/// in sorted order, terminator — into one buffer.
fn render(out: &QueryOutput) -> String {
    let rel = &out.relation;
    // A query that hit faults but recovered still answers with `OK` — the
    // result is exact — plus a typed degradation note, instead of dropping
    // the connection or failing the query.
    let mut buf = String::with_capacity(96 + rel.len() * (4 + 8 * rel.schema().arity()));
    let _ = write!(
        buf,
        "OK {} rows planning={:.1?} execution={:.1?}",
        rel.len(),
        out.planning,
        out.execution,
    );
    if let Some(note) = out.health_note() {
        let _ = write!(buf, " [{note}]");
    }
    buf.push('\n');
    render_rows(rel, &mut buf);
    end_block(&mut buf);
    buf
}

/// Appends `rel` as body lines, `(v, v, …)` per row in sorted order. The
/// order is a permutation of row ids: the rows are read where they are and
/// written once, into the response buffer.
fn render_rows(rel: &mura_core::Relation, buf: &mut String) {
    for row in rel.iter_sorted() {
        buf.push('(');
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                buf.push_str(", ");
            }
            let _ = write!(buf, "{v}");
        }
        buf.push_str(")\n");
    }
}

/// Client-side helper: reads one protocol response (status line + body up
/// to the `.` terminator). Returns `(status, body)`. Lines are read
/// through the same [`MAX_LINE`]-capped reader as the server loop, so a
/// malicious or corrupted server cannot balloon the client either; a
/// response truncated before its terminator is an
/// [`io::ErrorKind::UnexpectedEof`] error, never a silent partial answer.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(String, Vec<String>)> {
    let mut status = String::new();
    if read_line_capped(reader, &mut status)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status = status.trim_end().to_string();
    let mut body = Vec::new();
    let mut line = String::new();
    loop {
        if read_line_capped(reader, &mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "missing terminator"));
        }
        let line = line.trim_end();
        if line == TERMINATOR {
            return Ok((status, body));
        }
        body.push(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn capped_reader_round_trips_normal_lines() {
        let mut r = Cursor::new(b"hello\nworld\n".to_vec());
        let mut line = String::new();
        assert_eq!(read_line_capped(&mut r, &mut line).unwrap(), 6);
        assert_eq!(line.trim_end(), "hello");
        assert_eq!(read_line_capped(&mut r, &mut line).unwrap(), 6);
        assert_eq!(line.trim_end(), "world");
        assert_eq!(read_line_capped(&mut r, &mut line).unwrap(), 0); // EOF
    }

    #[test]
    fn oversized_line_is_a_typed_error_not_an_allocation() {
        // An unterminated 2 MiB blast must fail at the cap, not buffer on.
        let mut r = Cursor::new(vec![b'x'; 2 * MAX_LINE]);
        let mut line = String::new();
        let e = read_line_capped(&mut r, &mut line).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let frame = e.get_ref().and_then(|s| s.downcast_ref::<FrameError>());
        assert_eq!(frame, Some(&FrameError::TooLong { limit: MAX_LINE }));
    }

    #[test]
    fn binary_garbage_is_a_typed_error() {
        let mut r = Cursor::new(vec![0xff, 0xfe, 0x80, b'\n']);
        let mut line = String::new();
        let e = read_line_capped(&mut r, &mut line).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let frame = e.get_ref().and_then(|s| s.downcast_ref::<FrameError>());
        assert_eq!(frame, Some(&FrameError::InvalidUtf8));
    }

    #[test]
    fn rows_render_to_the_golden_bytes() {
        use mura_core::{Relation, Schema, Sym, Value};
        let rel = Relation::from_rows(
            Schema::new(vec![Sym(0), Sym(1)]),
            [
                [Value::Str(Sym(3)), Value::Int(7)],
                [Value::Int(12), Value::Int(-4)],
                [Value::Int(2), Value::Str(Sym(0))],
                [Value::Int(12), Value::Int(-40)],
            ],
        );
        let mut buf = String::from("OK 4 rows\n");
        render_rows(&rel, &mut buf);
        end_block(&mut buf);
        assert_eq!(buf, "OK 4 rows\n(2, s0)\n(12, -40)\n(12, -4)\n(s3, 7)\n.\n");
        // What the client reads back is what `sorted_rows` would list.
        let (status, body) = read_response(&mut Cursor::new(buf.into_bytes())).unwrap();
        let listed: Vec<String> = rel
            .sorted_rows()
            .iter()
            .map(|row| {
                let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                format!("({})", vals.join(", "))
            })
            .collect();
        assert_eq!((status.as_str(), body), ("OK 4 rows", listed));
    }

    /// A filed answer is rendered once: a read that finds it current, or
    /// brings it forward untouched, writes the stored reply itself. A
    /// mutation the view reads makes a new answer with a reply of its own,
    /// and a traced run replies in its own format and files nothing.
    #[test]
    fn a_filed_answer_is_rendered_once() {
        use crate::{ServeConfig, Server};
        use mura_core::{Database, Relation};
        use mura_dist::QueryEngine;
        let mut db = Database::new();
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        db.insert_relation("edge", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        db.insert_relation("other", Relation::from_pairs(src, dst, [(5, 6)]));
        let server = Server::start(QueryEngine::new(db), ServeConfig::default());
        let session = &mut Session::default();
        let text = "?x, ?y <- ?x edge+ ?y";
        let read = |session: &mut Session| respond(&server, session, text).text;

        let first = read(session);
        assert!(first.starts_with("OK 3 rows") && first.ends_with("(1, 2)\n.\n"), "{first}");
        assert!(Arc::ptr_eq(&first, &read(session)), "a hit writes the filed reply");
        assert_eq!((server.stats().result_hits, server.stats().result_misses), (1, 1));

        respond(&server, session, ".insert other 7 8");
        assert!(Arc::ptr_eq(&first, &read(session)), "an unaffected view keeps its reply");
        assert_eq!(server.stats().ivm_unaffected, 1);

        respond(&server, session, ".insert edge 2 3");
        let maintained = read(session);
        assert!(!Arc::ptr_eq(&first, &maintained));
        assert!(maintained.starts_with("OK 6 rows") && maintained.contains("\n(0, 3)\n"));
        assert_eq!(server.stats().ivm_maintained, 1);

        let profiled = respond(&server, session, &format!(".profile {text}")).text;
        assert!(profiled.starts_with("OK profile 6 rows"), "{profiled}");
        let misses = server.stats().result_misses;
        assert!(Arc::ptr_eq(&maintained, &read(session)), "the traced run filed nothing");
        assert_eq!(server.stats().result_misses, misses);
        server.shutdown();
    }

    #[test]
    fn truncated_response_is_unexpected_eof() {
        // Status line arrives, body is cut off before the terminator.
        let mut r = Cursor::new(b"OK 1 rows\n(0, 1)\n".to_vec());
        let e = read_response(&mut r).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }
}
