//! The BSP (Pregel) runtime and UCRPQ evaluation on top of it.
//!
//! Supersteps proceed in lockstep across hash-partitioned vertices: each
//! vertex accumulates the *(origin, NFA-state)* pairs that reached it,
//! forwards newly discovered pairs along matching edges, and reports a
//! result whenever an accepting state arrives. Conjunctive queries are
//! evaluated atom by atom and joined on the driver, as one would implement
//! them over GraphX.

use crate::nfa::Nfa;
use mura_core::fxhash::{FxHashMap, FxHashSet};
use mura_core::{Database, MuraError, Relation, Result, Schema, Value};
use mura_ucrpq::{parse_ucrpq, Atom, Endpoint, Ucrpq};
use std::time::{Duration, Instant};

/// Pregel runtime configuration.
#[derive(Debug, Clone)]
pub struct PregelConfig {
    /// Number of workers (vertex partitions).
    pub workers: usize,
    /// Abort when total sent messages exceed this (models GraphX running
    /// out of memory on message/state blow-up).
    pub max_messages: Option<u64>,
    /// Hard cap on supersteps (defensive bound).
    pub max_supersteps: u64,
    /// Wall-clock timeout.
    pub timeout: Option<Duration>,
}

impl Default for PregelConfig {
    fn default() -> Self {
        PregelConfig { workers: 4, max_messages: None, max_supersteps: 100_000, timeout: None }
    }
}

/// Counters reported after a run.
#[derive(Debug, Clone, Default)]
pub struct PregelStats {
    /// Supersteps executed (across all atoms of the query).
    pub supersteps: u64,
    /// Messages sent.
    pub messages: u64,
}

/// Result of a Pregel query evaluation.
#[derive(Debug, Clone)]
pub struct PregelOutput {
    pub relation: Relation,
    pub wall: Duration,
    pub stats: PregelStats,
}

/// Per-label adjacency (forward and reverse).
struct Adjacency {
    forward: FxHashMap<String, FxHashMap<u64, Vec<u64>>>,
    reverse: FxHashMap<String, FxHashMap<u64, Vec<u64>>>,
    vertices: Vec<u64>,
}

/// GraphX-style query engine.
pub struct PregelEngine {
    db: Database,
    config: PregelConfig,
    adj: Adjacency,
}

impl PregelEngine {
    /// Builds the engine (materializes per-label adjacency once).
    pub fn new(db: Database, config: PregelConfig) -> Self {
        let adj = build_adjacency(&db);
        PregelEngine { db, config, adj }
    }

    /// The database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Parses and evaluates a UCRPQ.
    pub fn run_ucrpq(&self, query: &str) -> Result<PregelOutput> {
        let q = parse_ucrpq(query)?;
        self.run(&q)
    }

    /// Evaluates a parsed UCRPQ.
    pub fn run(&self, q: &Ucrpq) -> Result<PregelOutput> {
        let start = Instant::now();
        let deadline = self.config.timeout.map(|t| start + t);
        let mut stats = PregelStats::default();
        let mut result: Option<Relation> = None;
        for branch in &q.branches {
            // Evaluate each atom with a Pregel run, join on the driver.
            let mut branch_rel: Option<Relation> = None;
            for atom in &branch.atoms {
                let rel = self.run_atom(atom, &mut stats, deadline)?;
                branch_rel = Some(match branch_rel {
                    None => rel,
                    Some(acc) => acc.join(&rel),
                });
            }
            let mut branch_rel =
                branch_rel.ok_or_else(|| MuraError::Frontend("empty query body".into()))?;
            // Project to the head.
            let keep: Vec<mura_core::Sym> = branch
                .head
                .iter()
                .filter_map(|h| self.db.dict().lookup(&format!("?{h}")))
                .collect();
            let drop: Vec<mura_core::Sym> = branch_rel
                .schema()
                .columns()
                .iter()
                .copied()
                .filter(|c| !keep.contains(c))
                .collect();
            if !drop.is_empty() {
                branch_rel = branch_rel.antiproject(&drop);
            }
            result = Some(match result {
                None => branch_rel,
                Some(acc) => acc.union(&branch_rel),
            });
        }
        Ok(PregelOutput {
            relation: result.ok_or_else(|| MuraError::Frontend("empty query".into()))?,
            wall: start.elapsed(),
            stats,
        })
    }

    fn resolve_const(&self, name: &str) -> Result<Value> {
        if let Some(v) = self.db.constant(name) {
            return Ok(v);
        }
        name.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| MuraError::Frontend(format!("unknown constant '{name}'")))
    }

    /// One Pregel run for a single path atom.
    fn run_atom(
        &self,
        atom: &Atom,
        stats: &mut PregelStats,
        deadline: Option<Instant>,
    ) -> Result<Relation> {
        let nfa = Nfa::from_path(&atom.path)?;
        for l in nfa.labels() {
            if self.db.relation_by_name(l).is_none() {
                return Err(MuraError::Frontend(format!("unknown edge label '{l}'")));
            }
        }
        // Origins: a constant left endpoint seeds a single origin (the one
        // selection GraphX-style traversal can exploit); otherwise every
        // vertex starts a traversal.
        let origins: Vec<u64> = match &atom.left {
            Endpoint::Const(c) => {
                let v = self.resolve_const(c)?;
                match v.as_int() {
                    Some(i) if i >= 0 => vec![i as u64],
                    _ => {
                        return Err(MuraError::Frontend(format!("constant '{c}' is not a node id")))
                    }
                }
            }
            Endpoint::Var(_) => self.adj.vertices.clone(),
        };
        let pairs = self.bsp(&nfa, &origins, stats, deadline)?;
        // Build the atom relation from (origin, reached) result pairs.
        self.pairs_to_relation(atom, pairs)
    }

    /// The BSP loop. Returns the accepted `(origin, vertex)` pairs.
    fn bsp(
        &self,
        nfa: &Nfa,
        origins: &[u64],
        stats: &mut PregelStats,
        deadline: Option<Instant>,
    ) -> Result<FxHashSet<(u64, u64)>> {
        let n = self.config.workers;
        let part_of = |v: u64| (mura_core::fxhash::hash_u64(v) as usize) % n;
        // Vertex states: per partition, vertex → set of (origin, state).
        let mut states: Vec<FxHashMap<u64, FxHashSet<(u64, u32)>>> =
            (0..n).map(|_| FxHashMap::default()).collect();
        let mut results: FxHashSet<(u64, u64)> = FxHashSet::default();
        // Initial messages: origins enter at the start state.
        let mut inboxes: Vec<Vec<(u64, u64, u32)>> = (0..n).map(|_| Vec::new()).collect();
        for &o in origins {
            inboxes[part_of(o)].push((o, o, nfa.start));
        }
        while inboxes.iter().any(|i| !i.is_empty()) {
            stats.supersteps += 1;
            if stats.supersteps > self.config.max_supersteps {
                return Err(MuraError::Other("superstep bound exceeded".into()));
            }
            if let Some(d) = deadline {
                if Instant::now() > d {
                    let millis = self.config.timeout.unwrap_or_default().as_millis() as u64;
                    return Err(MuraError::Timeout { millis });
                }
            }
            // Each partition processes its inbox in parallel.
            struct PartOut {
                outbox: Vec<(u64, u64, u32)>,
                accepted: Vec<(u64, u64)>,
                sent: u64,
            }
            let adj = &self.adj;
            let outs: Vec<PartOut> = std::thread::scope(|s| {
                let handles: Vec<_> = states
                    .iter_mut()
                    .zip(inboxes.iter_mut())
                    .map(|(part_states, inbox)| {
                        s.spawn(move || {
                            let mut out =
                                PartOut { outbox: Vec::new(), accepted: Vec::new(), sent: 0 };
                            for (v, o, st) in inbox.drain(..) {
                                let seen = part_states.entry(v).or_default();
                                if !seen.insert((o, st)) {
                                    continue;
                                }
                                if nfa.is_accepting(st) {
                                    out.accepted.push((o, v));
                                }
                                for (l, t) in nfa.transitions_from(st) {
                                    let neighbors = if l.inverse {
                                        adj.reverse.get(&l.label).and_then(|m| m.get(&v))
                                    } else {
                                        adj.forward.get(&l.label).and_then(|m| m.get(&v))
                                    };
                                    if let Some(ns) = neighbors {
                                        for &w in ns {
                                            out.outbox.push((w, o, t));
                                            out.sent += 1;
                                        }
                                    }
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });
            // Route outboxes, account messages, enforce the budget.
            let mut next: Vec<Vec<(u64, u64, u32)>> = (0..n).map(|_| Vec::new()).collect();
            for out in outs {
                stats.messages += out.sent;
                results.extend(out.accepted);
                for msg in out.outbox {
                    next[part_of(msg.0)].push(msg);
                }
            }
            if let Some(max) = self.config.max_messages {
                if stats.messages > max {
                    return Err(MuraError::ResourceExhausted {
                        what: "pregel messages",
                        limit: max,
                        reached: stats.messages,
                    });
                }
            }
            inboxes = next;
        }
        Ok(results)
    }

    fn pairs_to_relation(&self, atom: &Atom, pairs: FxHashSet<(u64, u64)>) -> Result<Relation> {
        // Columns named like the μ-RA frontend (`?x`), resolved against the
        // dictionary; unseen variables must be interned by a prior
        // translation or direct lookup — fall back to a deterministic probe.
        let col = |v: &str| -> Result<mura_core::Sym> {
            self.db.dict().lookup(&format!("?{v}")).ok_or_else(|| {
                MuraError::Frontend(format!(
                    "variable ?{v} missing from dictionary; run through PregelEngine::run_ucrpq"
                ))
            })
        };
        match (&atom.left, &atom.right) {
            (Endpoint::Var(l), Endpoint::Var(r)) if l == r => {
                let c = col(l)?;
                let schema = Schema::new(vec![c]);
                Ok(Relation::from_rows(
                    schema,
                    pairs
                        .into_iter()
                        .filter(|(o, v)| o == v)
                        .map(|(o, _)| vec![Value::node(o)].into_boxed_slice()),
                ))
            }
            (Endpoint::Var(l), Endpoint::Var(r)) => {
                let cl = col(l)?;
                let cr = col(r)?;
                Ok(Relation::from_pairs(cl, cr, pairs))
            }
            (Endpoint::Const(_), Endpoint::Var(r)) => {
                let cr = col(r)?;
                let schema = Schema::new(vec![cr]);
                Ok(Relation::from_rows(
                    schema,
                    pairs.into_iter().map(|(_, v)| vec![Value::node(v)].into_boxed_slice()),
                ))
            }
            (Endpoint::Var(l), Endpoint::Const(c)) => {
                let target = self.resolve_const(c)?;
                let cl = col(l)?;
                let schema = Schema::new(vec![cl]);
                Ok(Relation::from_rows(
                    schema,
                    pairs
                        .into_iter()
                        .filter(|(_, v)| Value::node(*v) == target)
                        .map(|(o, _)| vec![Value::node(o)].into_boxed_slice()),
                ))
            }
            (Endpoint::Const(_), Endpoint::Const(c2)) => {
                let target = self.resolve_const(c2)?;
                let found = pairs.iter().any(|(_, v)| Value::node(*v) == target);
                let mut rel = Relation::new(Schema::empty());
                if found {
                    rel.insert(Vec::new().into_boxed_slice());
                }
                Ok(rel)
            }
        }
    }
}

/// Intern `?v` columns for all variables of a query (the engine resolves
/// them at result construction time).
pub fn intern_query_vars(q: &Ucrpq, db: &mut Database) {
    for v in q.body_vars() {
        db.intern(&format!("?{v}"));
    }
}

fn build_adjacency(db: &Database) -> Adjacency {
    let mut forward: FxHashMap<String, FxHashMap<u64, Vec<u64>>> = FxHashMap::default();
    let mut reverse: FxHashMap<String, FxHashMap<u64, Vec<u64>>> = FxHashMap::default();
    let mut vertices: FxHashSet<u64> = FxHashSet::default();
    let (Some(src), Some(dst)) = (db.dict().lookup("src"), db.dict().lookup("dst")) else {
        return Adjacency { forward, reverse, vertices: Vec::new() };
    };
    for (name, rel) in db.relations() {
        let schema = rel.schema();
        let (Some(ps), Some(pd)) = (schema.position(src), schema.position(dst)) else {
            continue;
        };
        if schema.arity() != 2 {
            continue;
        }
        let label = db.dict().resolve(name).to_string();
        let f = forward.entry(label.clone()).or_default();
        let r = reverse.entry(label).or_default();
        for row in rel.iter() {
            let (Some(s), Some(d)) = (row[ps].as_int(), row[pd].as_int()) else { continue };
            let (s, d) = (s as u64, d as u64);
            f.entry(s).or_default().push(d);
            r.entry(d).or_default().push(s);
            vertices.insert(s);
            vertices.insert(d);
        }
    }
    let mut vertices: Vec<u64> = vertices.into_iter().collect();
    vertices.sort_unstable();
    Adjacency { forward, reverse, vertices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::eval;
    use mura_datagen::SplitMix64;
    use mura_datagen::{erdos_renyi, with_random_labels};

    fn db() -> Database {
        let mut rng = SplitMix64::seed_from_u64(33);
        let g = erdos_renyi(120, 0.02, 17);
        let lg = with_random_labels(&g, 2, &mut rng);
        let mut db = lg.to_database();
        db.bind_constant("C", Value::node(3));
        db
    }

    /// Reference evaluation through the μ-RA route (also interns ?cols).
    fn reference(q: &str, db: &mut Database) -> Relation {
        let parsed = parse_ucrpq(q).unwrap();
        let t = mura_ucrpq::to_mura(&parsed, db).unwrap();
        eval(&t, db).unwrap()
    }

    fn check(q: &str) {
        let mut d = db();
        let expected = reference(q, &mut d);
        let engine = PregelEngine::new(d, PregelConfig::default());
        let out = engine.run_ucrpq(q).unwrap();
        assert_eq!(out.relation.sorted_rows(), expected.sorted_rows(), "pregel diverged on {q}");
    }

    #[test]
    fn closure_matches_mura() {
        check("?x, ?y <- ?x a1+ ?y");
    }

    #[test]
    fn anchored_left() {
        check("?y <- C a1+ ?y");
    }

    #[test]
    fn anchored_right() {
        check("?x <- ?x a1+ C");
    }

    #[test]
    fn inverse_and_alt() {
        check("?x, ?y <- ?x (a1/-a1) ?y");
        check("?x, ?y <- ?x (a1|a2)+ ?y");
    }

    #[test]
    fn concat_of_closures() {
        check("?x, ?y <- ?x a1+/a2+ ?y");
    }

    #[test]
    fn conjunction_joins() {
        check("?x, ?z <- ?x a1 ?y, ?y a2 ?z");
    }

    #[test]
    fn left_anchor_sends_fewer_messages() {
        let mut d = db();
        let _ = reference("?y <- C a1+ ?y", &mut d);
        let _ = reference("?x, ?y <- ?x a1+ ?y", &mut d);
        let engine = PregelEngine::new(d, PregelConfig::default());
        let anchored = engine.run_ucrpq("?y <- C a1+ ?y").unwrap();
        let unanchored = engine.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
        assert!(
            anchored.stats.messages < unanchored.stats.messages,
            "anchoring must reduce message volume ({} vs {})",
            anchored.stats.messages,
            unanchored.stats.messages
        );
    }

    #[test]
    fn message_budget_aborts() {
        let mut d = db();
        let _ = reference("?x, ?y <- ?x a1+ ?y", &mut d);
        let engine =
            PregelEngine::new(d, PregelConfig { max_messages: Some(10), ..Default::default() });
        let err = engine.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap_err();
        assert!(matches!(err, MuraError::ResourceExhausted { .. }));
    }

    #[test]
    fn timeout_reports_the_configured_time() {
        // A closure of several hundred thousand pairs: far more than 1 ms.
        let mut rng = SplitMix64::seed_from_u64(33);
        let mut d = with_random_labels(&erdos_renyi(600, 0.01, 17), 2, &mut rng).to_database();
        let _ = mura_ucrpq::to_mura(&parse_ucrpq("?x, ?y <- ?x (a1|a2)+ ?y").unwrap(), &mut d);
        let timeout = Some(std::time::Duration::from_millis(1));
        let engine = PregelEngine::new(d, PregelConfig { timeout, ..Default::default() });
        let err = engine.run_ucrpq("?x, ?y <- ?x (a1|a2)+ ?y").unwrap_err();
        assert_eq!(err.to_string(), "evaluation timed out after 1 ms");
    }

    #[test]
    fn same_var_endpoints() {
        // ?x (a1/-a1)+ ?x : nodes related to themselves (always true for
        // nodes with an outgoing a1 edge, via there-and-back).
        let mut d = db();
        let expected = reference("?x <- ?x (a1/-a1) ?x", &mut d);
        let engine = PregelEngine::new(d, PregelConfig::default());
        let out = engine.run_ucrpq("?x <- ?x (a1/-a1) ?x").unwrap();
        assert_eq!(out.relation.sorted_rows(), expected.sorted_rows());
    }
}
