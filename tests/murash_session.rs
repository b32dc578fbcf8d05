//! Scripted `murash` sessions: the binary itself, stdin piped.
//!
//! The shell is the first client of its own server, so what it shows must
//! be what a `--connect` session against its `.serve` port shows — for
//! answers (no drift between the two after a mutation from either side)
//! and for the verbs both interpret.

use std::io::{Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::Duration;

const TC: &str = "?x, ?y <- ?x edge+ ?y";

/// A running `murash` with its stdin, and its stdout read on a thread so
/// that a shell that stops answering fails the test instead of hanging it.
struct Murash {
    child: Child,
    stdin: ChildStdin,
    stdout: Receiver<Vec<u8>>,
}

impl Murash {
    /// Starts the shell and returns it with what it printed up to its
    /// first prompt.
    fn spawn(args: &[&str]) -> (Murash, String) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_murash"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn murash");
        let stdin = child.stdin.take().unwrap();
        let mut out = child.stdout.take().unwrap();
        let (tx, stdout) = channel();
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n @ 1..) = out.read(&mut buf) {
                if tx.send(buf[..n].to_vec()).is_err() {
                    break;
                }
            }
        });
        let mut shell = Murash { child, stdin, stdout };
        let banner = shell.until_prompt();
        (shell, banner)
    }

    /// Everything printed up to the next prompt (`μ> ` or `μ@addr> `),
    /// prompt left out.
    fn until_prompt(&mut self) -> String {
        let mut seen = Vec::new();
        loop {
            let text = String::from_utf8_lossy(&seen);
            let last_line = text.rfind('\n').map_or(0, |at| at + 1);
            if text[last_line..].starts_with('μ') && text.ends_with("> ") {
                return text[..last_line].to_string();
            }
            let chunk = self.stdout.recv_timeout(Duration::from_secs(60));
            seen.extend(chunk.unwrap_or_else(|_| panic!("no prompt after: {text}")));
        }
    }

    /// Types one line and returns the reply.
    fn ask(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").unwrap();
        self.until_prompt()
    }

    fn quit(mut self) {
        writeln!(self.stdin, ".quit").unwrap();
        assert!(self.child.wait().unwrap().success(), "murash must exit cleanly");
    }
}

/// The `N` of a shell's `N rows in …` or a protocol `OK N rows …` line.
fn rows_of(reply: &str) -> usize {
    let words: Vec<&str> = reply.split_whitespace().collect();
    let at = words.iter().position(|w| *w == "rows").unwrap_or_else(|| panic!("no rows: {reply}"));
    words[at - 1].parse().unwrap_or_else(|_| panic!("no row count: {reply}"))
}

/// The first word of every line: what a reply says, without the numbers
/// (timings, counters) that differ between two runs.
fn shape(reply: &str) -> Vec<&str> {
    reply.lines().filter_map(|l| l.split_whitespace().next()).collect()
}

#[test]
fn shell_and_its_remote_sessions_share_one_server() {
    let (mut shell, _) = Murash::spawn(&[]);
    assert!(shell.ask(".gen tree 200").contains("200 nodes"));
    let before = rows_of(&shell.ask(TC));

    // A local mutation is seen locally …
    let reply = shell.ask(".insert edge 500 0");
    assert!(reply.starts_with("OK v=2 +1 -0"), "{reply}");
    let after = rows_of(&shell.ask(TC));
    assert!(after > before, "the inserted edge must extend the closure: {before} -> {after}");

    // … and by a remote session: `.serve` opens a port on the server the
    // shell itself uses, not on a snapshot of it.
    let reply = shell.ask(".serve 127.0.0.1:0");
    let addr = reply.split_whitespace().nth(2).unwrap_or_else(|| panic!("{reply}")).to_string();
    let (mut remote, banner) = Murash::spawn(&["--connect", &addr]);
    assert!(banner.contains(".explain <query>") && banner.contains(".drain"), "{banner}");
    assert_eq!(rows_of(&remote.ask(TC)), after);

    // The other direction: a remote mutation is seen by the shell.
    assert!(remote.ask(".insert edge 501 0").starts_with("OK v=3 +1 -0"));
    let grown = rows_of(&shell.ask(TC));
    assert!(grown > after);
    assert_eq!(rows_of(&remote.ask(TC)), grown);

    // The verbs both sides know print the same thing on both sides.
    assert_eq!(shell.ask(".rels"), remote.ask(".rels"));
    for verb in [format!(".explain {TC}"), format!(".profile {TC}"), ".stats".to_string()] {
        let (local, over_tcp) = (shell.ask(&verb), remote.ask(&verb));
        assert!(local.starts_with("OK "), "{verb}: {local}");
        assert_eq!(shape(&local), shape(&over_tcp), "{verb}");
    }

    // Mistakes are errors, not panics — and the shell keeps going.
    assert!(shell.ask(".bogus").starts_with("ERR unknown command"));
    assert!(shell.ask(".explainx q").starts_with("ERR unknown command"));
    assert!(shell.ask(".load").starts_with("error: usage: .load <path>"));
    assert!(shell.ask(".insert edge 1").starts_with("ERR .insert: relation 'edge' has arity 2"));
    assert!(shell.ask(".insert").starts_with("ERR usage: .insert"));
    assert!(shell.ask("?x <- ?x nosuchlabel+ ?y").starts_with("error: "));

    // A config verb restarts the server over the same database (and
    // reopens the port): same rows under another fixpoint plan.
    let reply = shell.ask(".plan gld");
    assert!(reply.contains(&format!("serving on {addr}")), "{reply}");
    assert_eq!(rows_of(&shell.ask(TC)), grown);
    drop(remote); // its connection went with the old server
    let (mut remote, _) = Murash::spawn(&["--connect", &addr]);
    assert_eq!(rows_of(&remote.ask(TC)), grown);
    remote.quit();
    shell.quit();
}

#[test]
fn data_dir_recovers_what_the_shell_loaded_and_inserted() {
    let dir = std::env::temp_dir().join(format!("murash-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();

    let (mut shell, banner) = Murash::spawn(&["--data-dir", dir_arg]);
    assert!(banner.contains("recovered v=0 (replayed 0 WAL records)"), "{banner}");
    shell.ask(".gen tree 50");
    assert!(shell.ask(".insert edge 500 0").starts_with("OK v=2"));
    let rows = rows_of(&shell.ask(TC));
    shell.quit();

    let (mut shell, banner) = Murash::spawn(&["--data-dir", dir_arg]);
    assert!(banner.contains("recovered v=2 (replayed 2 WAL records)"), "{banner}");
    assert_eq!(rows_of(&shell.ask(TC)), rows, "the graph and the inserted row are back");
    assert!(shell.ask(".rels").contains("edge 50 rows"));
    shell.quit();
    let _ = std::fs::remove_dir_all(&dir);
}
