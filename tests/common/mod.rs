//! The differential oracle's case generator and its [`check`]. A [`Case`]
//! is drawn from one seed and a [`Size`]: a two-label graph, a UCRPQ of one
//! or two atoms, a second binding of its constants and a mutation stream.
//! Each part has its own random stream, so lowering one size leaves the
//! other parts as they were, and a smaller graph is a prefix of the larger
//! one.
//!
//! Every route holds what it answers to centralized evaluation of the raw
//! term. Most are in `tests/oracle.rs`; a route that took over a suite
//! keeps the suite's file and test names: `prop_pipeline` (distributed),
//! `prop_enumerate` (memo candidates), `prop_rewrites` (chosen plan),
//! `prop_fixpoints` (fixpoint laws) and `full_suites` (the fixed corpus).
#![allow(dead_code)]

use dist_mu_ra::prelude::*;
use mura_core::eval;
use mura_datagen::SplitMix64;
use mura_dist::{FixpointPlan, LocalEngine, PlannedQuery};
use mura_ucrpq::{to_mura, Atom, Crpq, Endpoint, Path};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Case `i` is drawn from seed `BASE_SEED + i`. The low bits are zero, so
/// case `i` is an Erdős–Rényi one when `i % 4 == 3`.
pub const BASE_SEED: u64 = 0x0c1e_0000;
pub const PLANS: [FixpointPlan; 3] =
    [FixpointPlan::Auto, FixpointPlan::ForceGld, FixpointPlan::ForcePlw];
pub const ENGINES: [LocalEngine; 2] = [LocalEngine::SetRdd, LocalEngine::Sorted];

pub type Rows = Vec<Box<[Value]>>;

/// Runs `route` on the first `cases` cases drawn at `size`. The first case
/// it fails is drawn again at each smaller size while one still fails, and
/// the route panics with the smallest.
pub fn check(route: &str, cases: u64, size: Size, mut run: impl FnMut(&Case)) {
    let mut fails = |seed, size| {
        let case = Case::draw(seed, size);
        let panic = catch_unwind(AssertUnwindSafe(|| run(&case))).err()?;
        let message = panic.downcast_ref::<String>().cloned();
        Some((case, message.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))))
    };
    for seed in (0..cases).map(|i| BASE_SEED + i) {
        let Some(mut smallest) = fails(seed, size) else { continue };
        while let Some(smaller) = smallest.0.size.smaller().into_iter().find_map(|s| fails(seed, s))
        {
            smallest = smaller;
        }
        let (case, message) = smallest;
        panic!("route {route} fails: {}\n{case}", message.unwrap_or_default());
    }
}

/// Every fixpoint plan × local engine.
pub fn configs() -> impl Iterator<Item = (FixpointPlan, LocalEngine)> {
    PLANS.into_iter().flat_map(|plan| ENGINES.map(|engine| (plan, engine)))
}

/// The raw term of `q` over `db`, and its centralized answer.
pub fn reference(q: &Ucrpq, db: &mut Database) -> (Term, Relation) {
    let raw = to_mura(q, db).unwrap_or_else(|e| panic!("translating {q}: {e}"));
    let answer = eval(&raw, db).expect("centralized evaluation");
    (raw, answer)
}

/// An engine over the case's graph, the plan it chooses for the query, and
/// the centralized answer.
pub fn chosen(case: &Case) -> (QueryEngine, PlannedQuery, Rows) {
    let mut engine = QueryEngine::new(build_db(&case.edges));
    let want = reference(&case.query, engine.db_mut()).1.sorted_rows();
    let planned = engine.plan_ucrpq(&case.query.to_string()).expect("planning");
    (engine, planned, want)
}

/// Nodes of every graph; an Erdős–Rényi case has exactly as many.
pub const NODES: u64 = 24;
/// Constants bound to strings: no node is one, but a filter on them is a
/// filter of the other kind.
pub const NAMED: [&str; 2] = ["S", "T"];

/// An edge `(src, dst, labelled a)`; the other label is `b`.
pub type Edge = (u64, u64, bool);

/// How much of its seed a case draws. The shrinker lowers one field at a
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// At most this many edges of the drawn graph.
    pub edges: usize,
    /// Depth of the random paths.
    pub depth: u32,
    /// Mutation batches.
    pub stream: usize,
}

impl Size {
    /// Paths three deep: closures over compositions of closures, such as
    /// `((a/b+)|a)+`.
    pub const FULL: Size = Size { edges: 64, depth: 3, stream: 4 };
    /// Paths two deep, for the routes that search or serve each case many
    /// times over.
    pub const SHALLOW: Size = Size { depth: 2, ..Size::FULL };

    /// The sizes one step below this one.
    pub fn smaller(self) -> Vec<Size> {
        let mut out = Vec::new();
        if self.edges > 0 {
            out.push(Size { edges: self.edges / 2, ..self });
            out.push(Size { edges: self.edges - 1, ..self });
        }
        if self.depth > 0 {
            out.push(Size { depth: self.depth - 1, ..self });
        }
        if self.stream > 0 {
            out.push(Size { stream: self.stream - 1, ..self });
        }
        out
    }
}

/// One mutation batch: `R ← (R \ delete) ∪ insert`.
#[derive(Debug)]
pub struct Batch {
    pub insert: Vec<Edge>,
    pub delete: Vec<Edge>,
}

pub struct Case {
    pub seed: u64,
    pub size: Size,
    /// `erdos_renyi(NODES, 0.09, seed)` with random labels, queried for
    /// its transitive closure: deep enough for checkpoints to matter.
    /// Every fourth seed.
    pub er: bool,
    pub edges: Vec<Edge>,
    pub query: Ucrpq,
    /// `query` with its constants drawn again.
    pub rebound: Ucrpq,
    pub stream: Vec<Batch>,
}

impl Case {
    pub fn draw(seed: u64, size: Size) -> Case {
        let part = |k: u64| SplitMix64::seed_from_u64(seed ^ (k << 48));
        let (mut rng, er) = (part(1), seed % 4 == 3);
        let mut edges: Vec<Edge> = if er {
            let pairs = erdos_renyi(NODES, 0.09, seed).plain_edges();
            pairs.into_iter().map(|(s, d)| (s, d, rng.gen_bool(0.5))).collect()
        } else {
            (0..rng.gen_range(1..50usize)).map(|_| rand_edge(&mut rng)).collect()
        };
        edges.truncate(size.edges);
        let mut rng = part(2);
        let query = rand_query(&mut rng, size.depth, er);
        let rebound = rebind(&query, &mut rng);
        let stream = rand_stream(&mut part(3), &edges, size.stream);
        Case { seed, size, er, edges, query, rebound, stream }
    }

    /// The graph after the first `batches` batches of the stream.
    pub fn edges_after(&self, batches: usize) -> Vec<Edge> {
        self.stream[..batches].iter().fold(self.edges.clone(), apply)
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.er { "Erdős–Rényi" } else { "random" };
        let edges = self.edges.len();
        writeln!(f, "seed {:#x}, {:?}, {kind} graph of {edges} edges", self.seed, self.size)?;
        writeln!(f, "query   {}", self.query)?;
        writeln!(f, "rebound {}", self.rebound)?;
        writeln!(f, "edges   {:?}", self.edges)?;
        write!(f, "stream  {:?}", self.stream)
    }
}

/// Relations `a` and `b` over `(src, dst)`, and the named constants.
pub fn build_db(edges: &[Edge]) -> Database {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    for (label, is_a) in [("a", true), ("b", false)] {
        let pairs = edges.iter().filter(|e| e.2 == is_a).map(|&(s, d, _)| (s, d));
        db.insert_relation(label, Relation::from_pairs(src, dst, pairs));
    }
    for name in NAMED {
        let value = Value::sym(db.intern(name));
        db.bind_constant(name, value);
    }
    db
}

/// The constants of `q`, in order.
pub fn constants(q: &Ucrpq) -> Vec<&str> {
    let ends = q.branches.iter().flat_map(|b| &b.atoms).flat_map(|a| [&a.left, &a.right]);
    ends.filter_map(|end| match end {
        Endpoint::Const(c) => Some(c.as_str()),
        Endpoint::Var(_) => None,
    })
    .collect()
}

fn rand_edge(rng: &mut SplitMix64) -> Edge {
    (rng.gen_range(0..NODES), rng.gen_range(0..NODES), rng.gen_bool(0.5))
}

/// Random path over labels {a, b} with bounded depth, biased toward the
/// shapes where the planner makes decisions: closures, compositions of
/// closures, and inverses.
fn rand_path(rng: &mut SplitMix64, depth: u32) -> Path {
    let leaf = |rng: &mut SplitMix64| match rng.gen_range(0..4u64) {
        0 => Path::label("a"),
        1 => Path::label("b"),
        2 => Path::label("a").inverse(),
        _ => Path::label("b").inverse(),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..8u64) {
        0 | 1 => rand_path(rng, depth - 1).then(rand_path(rng, depth - 1)),
        2 => rand_path(rng, depth - 1).or(rand_path(rng, depth - 1)),
        3..=5 => rand_path(rng, depth - 1).plus(),
        _ => leaf(rng),
    }
}

/// A small integer, so that two draws meet, or one time in eight a named
/// constant.
fn rand_constant(rng: &mut SplitMix64) -> String {
    match rng.gen_range(0..8u64) {
        0 => NAMED[rng.gen_range(0..2usize)].to_string(),
        _ => rng.gen_range(0..8u64).to_string(),
    }
}

/// A drawn constant, or `var`.
fn rand_endpoint(rng: &mut SplitMix64, var: &str, constant: bool) -> Endpoint {
    if constant {
        Endpoint::Const(rand_constant(rng))
    } else {
        Endpoint::Var(var.to_string())
    }
}

/// `L p R` or `L p ?m, ?m q R`, with a constant at none, one or both of
/// `L` and `R`, a third each (two need two atoms); the other ends are `?x`
/// and `?y`. The head is the variables among them, or `?m` when there are
/// none. The ends are drawn before the paths, so a shallower draw keeps
/// them. On an Erdős–Rényi graph: the closure over both labels,
/// `?x, ?y <- ?x (a|b)+ ?y`.
fn rand_query(rng: &mut SplitMix64, depth: u32, er: bool) -> Ucrpq {
    let var = |v: &str| Endpoint::Var(v.to_string());
    if er {
        let path = Path::label("a").or(Path::label("b")).plus();
        let atoms = vec![Atom { left: var("x"), path, right: var("y") }];
        return Ucrpq { branches: vec![Crpq { head: vec!["x".into(), "y".into()], atoms }] };
    }
    let (constants, on_left) = (rng.gen_range(0..3u64), rng.gen_bool(0.5));
    let left = rand_endpoint(rng, "x", constants == 2 || constants == 1 && on_left);
    let right = rand_endpoint(rng, "y", constants == 2 || constants == 1 && !on_left);
    let atoms = if constants < 2 && rng.gen_bool(0.5) {
        vec![Atom { left, path: rand_path(rng, depth), right }]
    } else {
        let first = Atom { left, path: rand_path(rng, depth), right: var("m") };
        vec![first, Atom { left: var("m"), path: rand_path(rng, depth), right }]
    };
    let mut head: Vec<String> = [&atoms[0].left, &atoms[atoms.len() - 1].right]
        .into_iter()
        .filter_map(|end| match end {
            Endpoint::Var(v) => Some(v.clone()),
            Endpoint::Const(_) => None,
        })
        .collect();
    if head.is_empty() {
        head.push("m".to_string());
    }
    Ucrpq { branches: vec![Crpq { head, atoms }] }
}

/// `q` with its constants drawn again. One time in two the binding keeps
/// their pattern — the integers shifted by one offset, the named constants
/// swapped or not — otherwise each is drawn freely.
fn rebind(q: &Ucrpq, rng: &mut SplitMix64) -> Ucrpq {
    let (free, shift, swap) = (rng.gen_bool(0.5), rng.gen_range(1..8u64), rng.gen_bool(0.5));
    let mut q = q.clone();
    let ends =
        q.branches.iter_mut().flat_map(|b| &mut b.atoms).flat_map(|a| [&mut a.left, &mut a.right]);
    for end in ends {
        let Endpoint::Const(c) = end else { continue };
        *c = match c.parse::<u64>() {
            _ if free => rand_constant(rng),
            Ok(n) => ((n + shift) % 8).to_string(),
            Err(_) if swap => NAMED[usize::from(c == NAMED[0])].to_string(),
            Err(_) => continue,
        };
    }
    q
}

/// Batches inserting random edges and deleting present ones; every third
/// is delete-heavy, so maintenance must rederive.
fn rand_stream(rng: &mut SplitMix64, edges: &[Edge], batches: usize) -> Vec<Batch> {
    let mut current = edges.to_vec();
    (0..batches)
        .map(|i| {
            let (inserts, deletes) = if i % 3 == 2 { (1, 4) } else { (3, 1) };
            let insert = (0..inserts).map(|_| rand_edge(rng)).collect();
            let delete = (0..deletes).filter_map(|_| rng.choose(&current).copied()).collect();
            let batch = Batch { insert, delete };
            current = apply(std::mem::take(&mut current), &batch);
            batch
        })
        .collect()
}

fn apply(mut edges: Vec<Edge>, batch: &Batch) -> Vec<Edge> {
    edges.retain(|e| !batch.delete.contains(e));
    edges.extend(&batch.insert);
    edges
}
