//! Reading and writing graphs as labeled edge lists.
//!
//! The format is the common whitespace/TAB-separated triple file used by
//! SNAP-style datasets and RDF exports after identifier mapping:
//!
//! ```text
//! # comment
//! <src-id> <label> <dst-id>
//! ```
//!
//! plus an optional constants section that names nodes (for query anchors
//! like `Japan`):
//!
//! ```text
//! @node Japan 17
//! ```
//!
//! Two-column lines (`src dst`) are accepted too and get the label `edge`.

use crate::graph::Graph;
use mura_core::{MuraError, Result, Value};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Parses a graph from edge-list text (see the module docs for the
/// format).
pub fn parse_edge_list(text: &str) -> Result<Graph> {
    let mut g = Graph::new(0);
    let mut max_node = 0u64;
    let mut pending: Vec<(u64, String, u64)> = Vec::new();
    let mut named: Vec<(String, u64)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = |what: &str| {
            MuraError::Frontend(format!("edge list line {}: {what}: '{line}'", lineno + 1))
        };
        if let Some(rest) = line.strip_prefix("@node") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| bad("missing node name"))?;
            let id = it.next().ok_or_else(|| bad("missing node id"))?;
            let id = node_id(id).map_err(|e| bad(&format!("node id {e}")))?;
            named.push((name.to_string(), id));
            max_node = max_node.max(id);
            continue;
        }
        let first = parts.next().ok_or_else(|| bad("missing source"))?;
        let second = parts.next().ok_or_else(|| bad("missing label or target"))?;
        let third = parts.next();
        if parts.next().is_some() {
            return Err(bad("too many fields"));
        }
        let src = node_id(first).map_err(|e| bad(&format!("source id {e}")))?;
        let (label, dst_text) = match third {
            Some(t) => (second.to_string(), t),
            None => ("edge".to_string(), second),
        };
        let dst = node_id(dst_text).map_err(|e| bad(&format!("target id {e}")))?;
        max_node = max_node.max(src).max(dst);
        pending.push((src, label, dst));
    }
    g.n_nodes = if pending.is_empty() && named.is_empty() {
        0
    } else {
        max_node
            .checked_add(1)
            .ok_or_else(|| MuraError::Frontend("edge list: too many nodes".into()))?
    };
    for (s, label, d) in pending {
        let l = g.add_label(&label);
        g.add_edge(s, l, d);
    }
    for (name, id) in named {
        g.name_node(&name, id);
    }
    Ok(g)
}

/// Reads a node id: a `u64` that [`Value::node`] can hold.
fn node_id(text: &str) -> std::result::Result<u64, &'static str> {
    let id: u64 = text.parse().map_err(|_| "is invalid")?;
    match i64::try_from(id).ok().and_then(Value::try_int) {
        Some(_) => Ok(id),
        None => Err("is outside the value domain"),
    }
}

/// Loads a graph from an edge-list file.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<Graph> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| MuraError::Other(format!("open {}: {e}", path.as_ref().display())))?;
    let mut text = String::new();
    let mut reader = BufReader::new(file);
    std::io::Read::read_to_string(&mut reader, &mut text)
        .map_err(|e| MuraError::Other(format!("read {}: {e}", path.as_ref().display())))?;
    parse_edge_list(&text)
}

/// Writes a graph as an edge-list file (round-trips with
/// [`load_edge_list`]).
pub fn save_edge_list(g: &Graph, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path.as_ref())
        .map_err(|e| MuraError::Other(format!("create {}: {e}", path.as_ref().display())))?;
    let mut w = BufWriter::new(file);
    let emit = |w: &mut BufWriter<std::fs::File>| -> std::io::Result<()> {
        writeln!(w, "# {} nodes, {} edges", g.n_nodes, g.edge_count())?;
        for &(s, l, d) in &g.edges {
            writeln!(w, "{s}\t{}\t{d}", g.labels[l as usize])?;
        }
        for (name, id) in &g.named_nodes {
            writeln!(w, "@node {name} {id}")?;
        }
        Ok(())
    };
    emit(&mut w).map_err(|e| MuraError::Other(format!("write: {e}")))?;
    w.flush().map_err(|e| MuraError::Other(format!("flush: {e}")))
}

/// Convenience: read lines interactively (used by the CLI). Returns `None`
/// on EOF.
pub fn read_line(prompt: &str) -> Option<String> {
    print!("{prompt}");
    std::io::stdout().flush().ok()?;
    let mut line = String::new();
    match std::io::stdin().lock().read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_triples_and_pairs() {
        let g =
            parse_edge_list("# a comment\n0 knows 1\n1 knows 2\n\n3 4\n@node root 0\n").unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.n_nodes, 5);
        assert_eq!(g.labels.len(), 2); // knows + edge
        assert_eq!(g.named_nodes, vec![("root".to_string(), 0)]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_edge_list("0 a 1 extra").is_err());
        assert!(parse_edge_list("x a 1").is_err());
        assert!(parse_edge_list("0 a y").is_err());
        assert!(parse_edge_list("@node onlyname").is_err());
    }

    #[test]
    fn refuses_ids_outside_the_value_domain() {
        for (text, what) in [
            ("0 a 18446744073709551615", "line 1: target id is outside the value domain"),
            (
                "# big\n@node Big 18446744073709551615",
                "line 2: node id is outside the value domain",
            ),
            ("0 a 9223372036854775808", "line 1: target id is outside the value domain"),
            ("9223372036854775807 a 0", "line 1: source id is outside the value domain"),
        ] {
            match parse_edge_list(text) {
                Err(MuraError::Frontend(msg)) => assert!(msg.contains(what), "{text}: {msg}"),
                other => panic!("{text}: expected a Frontend error, got {other:?}"),
            }
        }
        let top = mura_core::value::SYM_BASE - 1;
        let g = parse_edge_list(&format!("0 a {top}")).unwrap();
        assert_eq!(g.n_nodes, top as u64 + 1);
    }

    #[test]
    fn round_trips_through_files() {
        let g = crate::yago::yago_like(crate::yago::YagoConfig { people: 60, seed: 2 });
        let path = std::env::temp_dir().join(format!("mura_io_test_{}.tsv", std::process::id()));
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.named_nodes.len(), g.named_nodes.len());
        // Same database after the round trip.
        let db1 = g.to_database();
        let db2 = g2.to_database();
        assert_eq!(db1.total_rows(), db2.total_rows());
        for (name, rel) in db1.relations() {
            let n = db1.dict().resolve(name);
            assert_eq!(db2.relation_by_name(&n).map(|r| r.len()), Some(rel.len()), "{n} differs");
        }
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = parse_edge_list("# nothing\n").unwrap();
        assert_eq!(g.n_nodes, 0);
        assert_eq!(g.edge_count(), 0);
    }
}
