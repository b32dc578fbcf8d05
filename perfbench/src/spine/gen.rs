//! Seeded workload generation. What the program under test sees — the
//! class graph and its bound constant, request streams, mutation streams
//! — is derived here from `--seed` through the in-tree SplitMix64; the
//! same seed gives byte-identical inputs. The served dataset is fixed
//! (see [`YAGO_SEED`]).

use mura_core::{Database, Value};
use mura_datagen::{
    erdos_renyi, with_random_labels, yago_like, Graph, SplitMix64, YagoConfig, Zipf,
};
use mura_ucrpq::suites::yago_queries;
use std::collections::BTreeSet;

/// Independent sub-seeds, one per generated input, so that lengthening
/// one stream never shifts another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes {
    pub graph: u64,
    pub labels: u64,
    pub stream: u64,
    pub mutations: u64,
}

pub fn lanes(seed: u64) -> Lanes {
    let mut r = SplitMix64::seed_from_u64(seed);
    Lanes {
        graph: r.next_u64(),
        labels: r.next_u64(),
        stream: r.next_u64(),
        mutations: r.next_u64(),
    }
}

/// The paper's query classes over labels `a1`/`a2` and the bound constant
/// `C`, plus the filtered merged closure the plan enumerator wins.
pub const CLASS_QUERIES: [(&str, &str); 7] = [
    ("C1", "?x, ?y <- ?x a1+ ?y"),
    ("C2", "?x <- ?x a1+ C"),
    ("C3", "?y <- C a1+ ?y"),
    ("C4", "?x, ?y <- ?x a1+/a2 ?y"),
    ("C5", "?x, ?y <- ?x a2/a1+ ?y"),
    ("C6", "?x, ?y <- ?x a1+/a2+ ?y"),
    ("C2C6", "?x <- ?x a1+/a2+ C"),
];

/// Labeled Erdős–Rényi graph (`k = 2` labels) with `C` bound to the node
/// of maximal `a1` out-degree (smallest id on ties), so the filtered
/// classes have non-trivial answers on every seed.
pub fn classes_db(seed: u64, nodes: u64, edge_prob: f64) -> Database {
    let l = lanes(seed);
    let mut rng = SplitMix64::seed_from_u64(l.labels);
    let g = with_random_labels(&erdos_renyi(nodes, edge_prob, l.graph), 2, &mut rng);
    let a1 = g.labels.iter().position(|n| n == "a1").expect("label a1") as u32;
    let mut degree = vec![0u32; nodes as usize];
    for &(s, label, _) in &g.edges {
        if label == a1 {
            degree[s as usize] += 1;
        }
    }
    let max = degree.iter().copied().max().unwrap_or(0);
    let c = degree.iter().position(|&d| d == max).unwrap_or(0) as u64;
    let mut db = g.to_database();
    db.bind_constant("C", Value::node(c));
    db
}

/// Generator seed of the served dataset (the one `mura-bench`'s `yago_db`
/// uses). The dataset is fixed, as the paper's Yago is; `--seed` drives
/// the traffic against it. A per-seed dataset was tried: with 40 regions
/// spread over 40 countries, the hot queries' answers — and with them hit
/// latency, miss latency and memory — differed by 20% between seeds, so
/// two seeds compared two datasets rather than two runs.
pub const YAGO_SEED: u64 = 0xa60;

/// The Yago-like graph with every country node also bound as
/// `Country00..` (countries are the sources of `dealsWith` edges), so
/// country-filtered queries can be instantiated over all of them.
pub fn yago_graph(people: u64) -> Graph {
    let mut g = yago_like(YagoConfig { people, seed: YAGO_SEED });
    let deals = label_id(&g, "dealsWith");
    let countries: BTreeSet<u64> = g.edges.iter().filter(|e| e.1 == deals).map(|e| e.0).collect();
    for (i, node) in countries.into_iter().enumerate() {
        g.name_node(&format!("Country{i:02}"), node);
    }
    g
}

fn label_id(g: &Graph, name: &str) -> u32 {
    g.labels.iter().position(|n| n == name).unwrap_or_else(|| panic!("label {name}")) as u32
}

/// The read pool in rank order: the Yago suite Q1–Q24 without Q16 (its
/// answer is a 460k-row product), then Q1–Q8 re-instantiated over every
/// one of the first `countries` countries. The order is fixed; only the
/// graph and the draws depend on the seed, so the hot set is the same
/// queries on every seed.
pub fn read_pool(countries: usize) -> Vec<String> {
    let suite = yago_queries();
    let mut pool: Vec<String> = suite
        .iter()
        .filter(|q| q.id != "Q16" && q.id != "Q25")
        .map(|q| q.text.to_string())
        .collect();
    for c in 0..countries {
        for q in &suite[..8] {
            let (path, _constant) =
                q.text.rsplit_once(' ').expect("suite query ends in a constant");
            pool.push(format!("{path} Country{c:02}"));
        }
    }
    pool
}

/// The endless Zipf(s = 1.0) stream of pool ranks the client connection
/// requests.
pub struct ReadStream {
    rng: SplitMix64,
    zipf: Zipf,
}

pub fn read_stream(seed: u64, pool_len: usize) -> ReadStream {
    ReadStream {
        rng: SplitMix64::seed_from_u64(lanes(seed).stream),
        zipf: Zipf::new(pool_len, 1.0),
    }
}

impl Iterator for ReadStream {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        Some(self.zipf.sample(&mut self.rng) as u32)
    }
}

/// One edge-level mutation of the served graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    pub insert: bool,
    pub label: u32,
    pub src: u64,
    pub dst: u64,
}

impl Mutation {
    /// The protocol line (`.insert <rel> <src> <dst>`).
    pub fn line(&self, g: &Graph) -> String {
        let verb = if self.insert { ".insert" } else { ".delete" };
        format!("{verb} {} {} {}", g.labels[self.label as usize], self.src, self.dst)
    }
}

/// The relation `serve_mixed` mutates. One relation on purpose: an
/// `isLocatedIn` edge costs ten times an `actedIn` edge to maintain (most
/// cached views read it), and a stream mixing the two puts every
/// percentile of the mutation latencies between two modes.
pub const MUTATED_LABEL: &str = "isLocatedIn";

/// `count` mutations of [`MUTATED_LABEL`], alternating `.insert` of a
/// fresh edge and `.delete` of an existing one. Every mutation is valid
/// when the stream is applied to `g` in order (an insert never
/// duplicates, a delete always finds its edge).
///
/// Only *leaf* edges are touched — edges whose source nothing is located
/// in (most cities, every company and airport) — and an insert points a
/// leaf at the target of another leaf edge. The interior of the hierarchy
/// stays as generated, so every mutation changes the cached closures by
/// a comparable amount whichever edges the seed picks.
pub fn mutation_stream(lane: u64, g: &Graph, count: usize) -> Vec<Mutation> {
    let mut rng = SplitMix64::seed_from_u64(lane);
    let label = label_id(g, MUTATED_LABEL);
    let of_label = || g.edges.iter().filter(|e| e.1 == label);
    let located_in: BTreeSet<u64> = of_label().map(|e| e.2).collect();
    let mut edges: Vec<(u64, u64)> =
        of_label().filter(|e| !located_in.contains(&e.0)).map(|e| (e.0, e.2)).collect();
    let mut live: BTreeSet<(u64, u64)> = edges.iter().copied().collect();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        if i % 2 == 0 {
            let (src, dst) = loop {
                let src = rng.choose(&edges).expect("label has leaf edges").0;
                let dst = rng.choose(&edges).expect("label has leaf edges").1;
                if !live.contains(&(src, dst)) {
                    break (src, dst);
                }
            };
            live.insert((src, dst));
            edges.push((src, dst));
            out.push(Mutation { insert: true, label, src, dst });
        } else {
            let (src, dst) = edges.swap_remove(rng.gen_range(0..edges.len()));
            live.remove(&(src, dst));
            out.push(Mutation { insert: false, label, src, dst });
        }
    }
    out
}

/// Applies `mutations` to `g`, panicking on one that is not valid there.
pub fn apply_mutations(g: &mut Graph, mutations: &[Mutation]) {
    let mut live: BTreeSet<(u64, u32, u64)> = g.edges.iter().copied().collect();
    for m in mutations {
        let edge = (m.src, m.label, m.dst);
        let changed = if m.insert { live.insert(edge) } else { live.remove(&edge) };
        assert!(changed, "mutation {m:?} is a no-op on this graph");
    }
    g.edges = live.into_iter().collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams() {
        let build = |seed| {
            let mut g = yago_graph(200);
            let pool = read_pool(10);
            let reads: Vec<&str> = read_stream(seed, pool.len())
                .take(500)
                .map(|r| pool[r as usize].as_str())
                .collect();
            let stream = mutation_stream(lanes(seed).mutations, &g, 40);
            let muts: Vec<String> = stream.iter().map(|m| m.line(&g)).collect();
            apply_mutations(&mut g, &stream);
            (reads.join("\n"), muts.join("\n"), g.edges)
        };
        assert_eq!(build(42), build(42));
        assert_ne!(build(42).0, build(43).0);
        assert_ne!(build(42).1, build(43).1);
    }

    #[test]
    fn mutations_are_valid_in_order() {
        let mut g = yago_graph(200);
        let before = g.edges.len();
        let stream = mutation_stream(lanes(7).mutations, &g, 60);
        // `apply_mutations` panics on a duplicate insert or a missing delete.
        apply_mutations(&mut g, &stream);
        assert_eq!(g.edges.len(), before);
        apply_mutations(&mut g, &stream[..0]);
    }

    #[test]
    fn pool_is_distinct_and_constants_are_bound() {
        let g = yago_graph(200);
        let countries = g.named_nodes.iter().filter(|(n, _)| n.starts_with("Country")).count();
        assert_eq!(countries, 40);
        let pool = read_pool(countries);
        assert_eq!(pool.len(), 23 + 8 * 40);
        assert_eq!(pool.iter().collect::<BTreeSet<_>>().len(), pool.len());
        let db = g.to_database();
        assert!(db.constant("Country39").is_some());
    }

    #[test]
    fn classes_constant_has_out_edges() {
        let db = classes_db(5, 2_000, 0.001);
        let c = db.constant("C").expect("C bound");
        let a1 = db.relation_by_name("a1").expect("a1");
        let src = db.dict().lookup("src").unwrap();
        let pos = a1.schema().position(src).unwrap();
        assert!(a1.iter().any(|row| row[pos] == c));
    }
}
