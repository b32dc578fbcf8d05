//! Labeled directed multigraphs and their conversion to μ-RA databases.

use crate::rng::SplitMix64;
use mura_core::{Database, Relation, Schema, Value};

/// A directed graph with labeled edges and optional named nodes
/// (query constants such as `Japan` or `Kevin_Bacon`).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Number of nodes; node ids are `0..n_nodes`.
    pub n_nodes: u64,
    /// Label names; edge labels index into this.
    pub labels: Vec<String>,
    /// Edges `(src, label, dst)`.
    pub edges: Vec<(u64, u32, u64)>,
    /// Named nodes, registered as constants on export.
    pub named_nodes: Vec<(String, u64)>,
}

impl Graph {
    /// Empty graph with `n_nodes` nodes and no labels.
    pub fn new(n_nodes: u64) -> Self {
        Graph { n_nodes, ..Default::default() }
    }

    /// Single-label graph from an edge list.
    pub fn single_label(
        label: &str,
        n_nodes: u64,
        edges: impl IntoIterator<Item = (u64, u64)>,
    ) -> Self {
        let mut g = Graph::new(n_nodes);
        let l = g.add_label(label);
        for (s, d) in edges {
            g.add_edge(s, l, d);
        }
        g
    }

    /// Registers a label, returning its id (idempotent).
    pub fn add_label(&mut self, name: &str) -> u32 {
        if let Some(i) = self.labels.iter().position(|l| l == name) {
            return i as u32;
        }
        self.labels.push(name.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Adds one edge.
    ///
    /// # Panics
    /// Panics if an endpoint or the label is out of range.
    pub fn add_edge(&mut self, src: u64, label: u32, dst: u64) {
        assert!(src < self.n_nodes && dst < self.n_nodes, "edge endpoint out of range");
        assert!((label as usize) < self.labels.len(), "unknown label id");
        self.edges.push((src, label, dst));
    }

    /// Names a node (exported as a query constant).
    pub fn name_node(&mut self, name: &str, node: u64) {
        assert!(node < self.n_nodes);
        self.named_nodes.push((name.to_string(), node));
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edge count per label.
    pub fn label_counts(&self) -> Vec<(String, usize)> {
        let mut counts = vec![0usize; self.labels.len()];
        for &(_, l, _) in &self.edges {
            counts[l as usize] += 1;
        }
        self.labels.iter().cloned().zip(counts).collect()
    }

    /// Plain `(src, dst)` pairs, ignoring labels, deduplicated.
    pub fn plain_edges(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.edges.iter().map(|&(s, _, d)| (s, d)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Builds a μ-RA [`Database`]: one binary relation per label with
    /// columns `src`/`dst`, plus the named-node constants.
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let schema = Schema::new(vec![src, dst]);
        let ps = schema.position(src).unwrap();
        let mut rels: Vec<Relation> =
            (0..self.labels.len()).map(|_| Relation::new(schema.clone())).collect();
        for &(s, l, d) in &self.edges {
            let mut row = [Value::node(0); 2];
            row[ps] = Value::node(s);
            row[1 - ps] = Value::node(d);
            rels[l as usize].insert(row);
        }
        for (name, rel) in self.labels.iter().zip(rels) {
            db.insert_relation(name, rel);
        }
        for (name, node) in &self.named_nodes {
            db.bind_constant(name, Value::node(*node));
        }
        db
    }
}

/// Returns a copy of `g` whose edges are uniformly re-labeled with `k` fresh
/// labels `a1..ak` (the paper's "graphs derived from rnd_p_n by adding a set
/// of predefined labels randomly", used for concatenated closures and aⁿbⁿ).
pub fn with_random_labels(g: &Graph, k: u32, rng: &mut SplitMix64) -> Graph {
    let mut out = Graph::new(g.n_nodes);
    let labels: Vec<u32> = (1..=k).map(|i| out.add_label(&format!("a{i}"))).collect();
    for &(s, _, d) in &g.edges {
        let l = *rng.choose(&labels).expect("k >= 1");
        out.add_edge(s, l, d);
    }
    out.named_nodes = g.named_nodes.clone();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_export() {
        let mut g = Graph::new(3);
        let a = g.add_label("a");
        let b = g.add_label("b");
        g.add_edge(0, a, 1);
        g.add_edge(1, b, 2);
        g.name_node("start", 0);
        let db = g.to_database();
        assert_eq!(db.relation_by_name("a").unwrap().len(), 1);
        assert_eq!(db.relation_by_name("b").unwrap().len(), 1);
        assert_eq!(db.constant("start"), Some(Value::node(0)));
    }

    #[test]
    fn add_label_idempotent() {
        let mut g = Graph::new(1);
        assert_eq!(g.add_label("x"), g.add_label("x"));
        assert_eq!(g.labels.len(), 1);
    }

    #[test]
    fn relabel_preserves_structure() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let g = Graph::single_label("edge", 10, (0..9).map(|i| (i, i + 1)));
        let lg = with_random_labels(&g, 3, &mut rng);
        assert_eq!(lg.edge_count(), g.edge_count());
        assert_eq!(lg.labels.len(), 3);
        assert_eq!(lg.plain_edges(), g.plain_edges());
    }

    #[test]
    fn label_counts_sum() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let g = Graph::single_label("edge", 100, (0..99).map(|i| (i, i + 1)));
        let lg = with_random_labels(&g, 4, &mut rng);
        let total: usize = lg.label_counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge() {
        let mut g = Graph::new(2);
        let a = g.add_label("a");
        g.add_edge(0, a, 5);
    }
}
