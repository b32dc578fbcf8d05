//! Scaled experiment datasets.
//!
//! The paper's graphs are scaled to laptop size while keeping the
//! structural features the experiments depend on. The scale factor per
//! dataset:
//!
//! | paper             | here (repro)              | here (REPRO_QUICK) |
//! |-------------------|---------------------------|-------------------|
//! | Yago (62M edges)  | yago-like, ~20k edges     | ~6k edges         |
//! | uniprot_{1,5,10}M | 20k / 60k / 120k edges    | 8k / 16k / 32k    |
//! | rnd_10k_0.001 …   | rnd_{400..2000} (TC keeps the super-linear blow-up) | smaller |
//! | tree_10 / tree_150 (thousands of nodes) | tree_{200..2000} | tree_200 |

use mura_core::Database;
use mura_datagen::SplitMix64;
use mura_datagen::{
    erdos_renyi, random_tree, uniprot_like, with_random_labels, yago_like, Graph, UniprotConfig,
    YagoConfig,
};

/// Yago-like database (repro scale).
pub fn yago_db(people: u64) -> Database {
    yago_like(YagoConfig { people, seed: 0xa60 }).to_database()
}

/// The served dataset and read pool of the repository benchmark
/// (`perfbench/src/spine/gen.rs`, restated: that package stands alone):
/// the Yago-like graph with every country — the sources of `dealsWith`
/// edges — also bound as `Country00..`, and the Yago suite without Q16 and
/// Q25 followed by Q1–Q8 over each of the first `countries` countries.
pub fn yago_read_pool(people: u64, countries: usize) -> (Database, Vec<String>) {
    let mut g = yago_like(YagoConfig { people, seed: 0xa60 });
    let deals = g.labels.iter().position(|n| n == "dealsWith").expect("label dealsWith") as u32;
    let sources: std::collections::BTreeSet<u64> =
        g.edges.iter().filter(|e| e.1 == deals).map(|e| e.0).collect();
    for (i, node) in sources.into_iter().enumerate() {
        g.name_node(&format!("Country{i:02}"), node);
    }
    let suite = mura_ucrpq::suites::yago_queries();
    let mut pool: Vec<String> = suite
        .iter()
        .filter(|q| q.id != "Q16" && q.id != "Q25")
        .map(|q| q.text.to_string())
        .collect();
    for c in 0..countries {
        for q in &suite[..8] {
            let (path, _constant) = q.text.rsplit_once(' ').expect("query ends in a constant");
            pool.push(format!("{path} Country{c:02}"));
        }
    }
    (g.to_database(), pool)
}

/// Uniprot-like database with roughly `edges` edges.
pub fn uniprot_db(edges: u64) -> Database {
    uniprot_like(UniprotConfig { target_edges: edges, seed: 0x09 }).to_database()
}

/// Erdős–Rényi graph as a single-relation database (`edge`).
pub fn rnd_db(n: u64, p: f64, seed: u64) -> Database {
    erdos_renyi(n, p, seed).to_database()
}

/// Erdős–Rényi graph with `k` random labels `a1..ak`.
pub fn labeled_rnd_db(n: u64, p: f64, k: u32, seed: u64) -> Database {
    labeled_rnd_graph(n, p, k, seed).to_database()
}

/// The underlying labeled graph (for Table I-style stats).
pub fn labeled_rnd_graph(n: u64, p: f64, k: u32, seed: u64) -> Graph {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed);
    let g = erdos_renyi(n, p, seed);
    with_random_labels(&g, k, &mut rng)
}

/// Random recursive tree database (`edge` relation).
pub fn tree_db(n: u64, seed: u64) -> Database {
    random_tree(n, seed).to_database()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_build() {
        assert!(yago_db(200).total_rows() > 500);
        assert!(uniprot_db(2000).total_rows() > 800);
        assert!(rnd_db(100, 0.05, 1).total_rows() > 100);
        let l = labeled_rnd_db(100, 0.05, 3, 1);
        assert!(l.relation_count() == 3);
        assert_eq!(tree_db(100, 1).total_rows(), 99);
    }
}
