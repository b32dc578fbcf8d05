//! A line-oriented TCP front end over [`Server`].
//!
//! The protocol mirrors the `murash` shell: any plain line is parsed as a
//! UCRPQ query; dot-commands cover introspection. Every response is one
//! status line (`OK …` or `ERR …`), zero or more body lines, and a final
//! line containing a single `.` — so clients read until the terminator.
//!
//! ```text
//! → ?x, ?y <- ?x a1+ ?y
//! ← OK 42 rows planning=0.1ms execution=3.2ms
//! ← (0, 3)
//! ← …
//! ← .
//! → .deadline 500        set a per-connection deadline (0 clears)
//! → .stats               serving counters incl. latency quantiles
//! → .metrics             Prometheus text-exposition page
//! → .profile <query>     run traced, print the superstep timeline
//! → .explain <query>     plan only: enumeration digest + chosen plan
//! → .rels                relations and row counts
//! → .insert [rel] v …    add a base row; cached views are maintained
//! → .delete [rel] v …    remove a base row (DRed maintenance)
//! → .drain               graceful shutdown: finish in-flight, stop workers
//! → .quit
//! ```
//!
//! Mutations reply with one status line carrying the new database version
//! and the fate of every cached view:
//!
//! ```text
//! → .insert e 7 8
//! ← OK v=3 +1 -0 maintained=1 unaffected=0 recomputed=0
//! ← .
//! ```
//!
//! The relation name may be omitted when the database holds exactly one
//! relation; values are node ids (integers) or bound constant names.
//!
//! Overloaded and busy rejections reply `ERR … retry-after-ms=<n>`; the
//! token is machine-parseable so clients can schedule a retry.

use crate::error::ServeResult;
use crate::server::{Client, Server};
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

    /// Stops accepting connections and joins the acceptor thread.
    /// Already-open connections finish on their own threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
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
    let mut deadline: Option<Duration> = None;
    let mut line = String::new();
    loop {
        match read_line_capped(&mut reader, &mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Framing violation (oversized or binary line): answer
                // once with a typed error, then drop the connection — the
                // rest of the bad line cannot be told apart from frames.
                let _ = write_block(&mut out, &format!("ERR {e}"), &[]);
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => {
                write_block(&mut out, "OK bye", &[])?;
                return Ok(());
            }
            ".stats" => {
                let body: Vec<String> = client.stats_text().lines().map(str::to_string).collect();
                write_block(&mut out, "OK stats", &body)?;
            }
            ".metrics" => {
                let page = client.metrics();
                let body: Vec<String> = page.lines().map(str::to_string).collect();
                write_block(&mut out, "OK metrics", &body)?;
            }
            ".drain" => {
                // Blocks until queued/in-flight queries resolve (bounded
                // by the server's drain grace), then reports the final
                // counters. Subsequent queries get "server closed".
                let stats = client.request_drain();
                let body: Vec<String> = stats.to_string().lines().map(str::to_string).collect();
                write_block(&mut out, "OK drained", &body)?;
            }
            _ if line.starts_with(".explain") => {
                let query = line[".explain".len()..].trim();
                if query.is_empty() {
                    write_block(&mut out, "ERR usage: .explain <query>", &[])?;
                } else {
                    match client.explain(query) {
                        Ok(text) => {
                            let body: Vec<String> = text.lines().map(str::to_string).collect();
                            write_block(&mut out, "OK explain", &body)?;
                        }
                        Err(e) => write_block(&mut out, &format!("ERR {e}"), &[])?,
                    }
                }
            }
            _ if line.starts_with(".profile") => {
                let query = line[".profile".len()..].trim();
                if query.is_empty() {
                    write_block(&mut out, "ERR usage: .profile <query>", &[])?;
                } else {
                    match run_profile(client, query) {
                        Ok((header, body)) => write_block(&mut out, &header, &body)?,
                        Err(e) => write_block(&mut out, &format!("ERR {e}"), &[])?,
                    }
                }
            }
            ".rels" => {
                let mut body = client.with_db(|db| {
                    db.relations()
                        .map(|(s, r)| format!("{} {} rows", db.dict().resolve(s), r.len()))
                        .collect::<Vec<_>>()
                });
                body.sort();
                write_block(&mut out, "OK rels", &body)?;
            }
            _ if line.starts_with(".deadline") => {
                let arg = line[".deadline".len()..].trim();
                match arg.parse::<u64>() {
                    Ok(0) => {
                        deadline = None;
                        write_block(&mut out, "OK deadline off", &[])?;
                    }
                    Ok(ms) => {
                        deadline = Some(Duration::from_millis(ms));
                        write_block(&mut out, &format!("OK deadline {ms} ms"), &[])?;
                    }
                    Err(_) => write_block(&mut out, "ERR usage: .deadline <millis>", &[])?,
                }
            }
            _ if line == ".insert" || line.starts_with(".insert ") => {
                let (status, body) = run_mutation(client, line[".insert".len()..].trim(), true);
                write_block(&mut out, &status, &body)?;
            }
            _ if line == ".delete" || line.starts_with(".delete ") => {
                let (status, body) = run_mutation(client, line[".delete".len()..].trim(), false);
                write_block(&mut out, &status, &body)?;
            }
            _ if line.starts_with('.') => {
                write_block(&mut out, &format!("ERR unknown command '{line}'"), &[])?;
            }
            query => match run_query(client, query, deadline) {
                Ok(response) => send(&mut out, &response)?,
                Err(e) => write_block(&mut out, &format!("ERR {e}"), &[])?,
            },
        }
    }
}

type QueryBlock = (String, Vec<String>);

/// Parses a mutation line (`[rel] value value …`) into a one-row
/// [`DeltaBatch`] and applies it. Replies with a single status line so
/// batch drivers (`murash --mutate`) get one line per mutation.
fn run_mutation(client: &Client, args: &str, insert: bool) -> QueryBlock {
    let verb = if insert { ".insert" } else { ".delete" };
    let batch = client.with_db(|db| parse_mutation(db, args, insert));
    let batch = match batch {
        Ok(b) => b,
        Err(e) => return (format!("ERR {verb}: {e}"), Vec::new()),
    };
    match client.apply_delta(batch) {
        Ok(s) => (
            format!(
                "OK v={} +{} -{} maintained={} unaffected={} recomputed={}",
                s.version, s.inserted, s.deleted, s.maintained, s.unaffected, s.recomputed
            ),
            Vec::new(),
        ),
        Err(e) => (format!("ERR {e}"), Vec::new()),
    }
}

fn parse_mutation(
    db: &mura_core::Database,
    args: &str,
    insert: bool,
) -> Result<mura_ivm::DeltaBatch, String> {
    use mura_core::Value;
    let mut tokens: Vec<&str> = args.split_whitespace().collect();
    if tokens.is_empty() {
        return Err("usage: [relation] <value> <value> …".into());
    }
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
        .map(|tok| match tok.parse::<u64>() {
            Ok(id) => Ok(Value::node(id)),
            Err(_) => db
                .constant(tok)
                .ok_or_else(|| format!("'{tok}' is neither a node id nor a bound constant")),
        })
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
fn run_profile(client: &Client, query: &str) -> ServeResult<QueryBlock> {
    let out = client.profile(query)?;
    let header = format!(
        "OK profile {} rows planning={:.1?} execution={:.1?}",
        out.relation.len(),
        out.planning,
        out.execution,
    );
    let body = match out.trace() {
        Some(trace) => {
            let mut lines: Vec<String> =
                trace.render_timeline().lines().map(str::to_string).collect();
            // Cluster-aware addendum: per-fixpoint worker skew, derived
            // from the merged worker lanes (empty for single-lane traces).
            let skew = trace.render_skew();
            if !skew.is_empty() {
                lines.push(String::new());
                lines.extend(skew.lines().map(str::to_string));
            }
            lines
        }
        None => vec!["(no trace recorded)".to_string()],
    };
    Ok((header, body))
}

/// Runs a query and renders the whole response — status line, one body
/// line per row in sorted order, terminator — into one buffer.
fn run_query(client: &Client, query: &str, deadline: Option<Duration>) -> ServeResult<String> {
    let out = client.submit(query, deadline)?.wait()?;
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
    Ok(buf)
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

fn end_block(buf: &mut String) {
    buf.push_str(TERMINATOR);
    buf.push('\n');
}

fn send(out: &mut TcpStream, response: &str) -> io::Result<()> {
    out.write_all(response.as_bytes())?;
    out.flush()
}

fn write_block(out: &mut TcpStream, status: &str, body: &[String]) -> io::Result<()> {
    let mut buf =
        String::with_capacity(status.len() + 3 + body.iter().map(|l| l.len() + 1).sum::<usize>());
    buf.push_str(status);
    buf.push('\n');
    for l in body {
        buf.push_str(l);
        buf.push('\n');
    }
    end_block(&mut buf);
    send(out, &buf)
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

    #[test]
    fn truncated_response_is_unexpected_eof() {
        // Status line arrives, body is cut off before the terminator.
        let mut r = Cursor::new(b"OK 1 rows\n(0, 1)\n".to_vec());
        let e = read_response(&mut r).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }
}
