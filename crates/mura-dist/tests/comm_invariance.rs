//! The communication model is an invariant of the engine, not of its
//! kernels: however the per-partition work is done, the paper's classes
//! must shuffle and broadcast exactly the rows they always did. This suite
//! pins `CommSnapshot {shuffles, rows_shuffled, broadcasts, rows_broadcast}`
//! and `fixpoint_iterations` of C1–C6 + C2C6 on a fixed Erdős–Rényi graph,
//! under `Auto` and `ForceGld` with 2 and 4 workers, to golden values
//! recorded before the kernels were made to accumulate in place.

use mura_core::{Database, Value};
use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
use mura_dist::{ExecConfig, FixpointPlan, QueryEngine};

/// The benchmark's class queries (`perfbench/src/spine/gen.rs`).
const QUERIES: [(&str, &str); 7] = [
    ("C1", "?x, ?y <- ?x a1+ ?y"),
    ("C2", "?x <- ?x a1+ C"),
    ("C3", "?y <- C a1+ ?y"),
    ("C4", "?x, ?y <- ?x a1+/a2 ?y"),
    ("C5", "?x, ?y <- ?x a2/a1+ ?y"),
    ("C6", "?x, ?y <- ?x a1+/a2+ ?y"),
    ("C2C6", "?x <- ?x a1+/a2+ C"),
];

/// `(workers, plan, class, shuffles, rows_shuffled, broadcasts,
/// rows_broadcast, fixpoint_iterations)`.
type Line = (usize, FixpointPlan, &'static str, u64, u64, u64, u64, u64);

use FixpointPlan::{Auto, ForceGld};

#[rustfmt::skip]
const GOLDEN: &[Line] = &[
    (2, Auto, "C1", 1, 385, 1, 385, 1),
    (2, Auto, "C2", 2, 0, 1, 385, 1),
    (2, Auto, "C3", 20, 108, 1, 385, 19),
    (2, Auto, "C4", 2, 759, 2, 770, 1),
    (2, Auto, "C5", 2, 815, 2, 770, 1),
    (2, Auto, "C6", 57, 44422, 3, 1188, 28),
    (2, Auto, "C2C6", 4, 0, 3, 803, 2),
    (2, ForceGld, "C1", 29, 9511, 1, 385, 27),
    (2, ForceGld, "C2", 1, 0, 1, 385, 0),
    (2, ForceGld, "C3", 20, 108, 1, 385, 19),
    (2, ForceGld, "C4", 28, 7997, 2, 770, 27),
    (2, ForceGld, "C5", 30, 8989, 2, 770, 27),
    (2, ForceGld, "C6", 57, 44422, 3, 1188, 28),
    (2, ForceGld, "C2C6", 2, 0, 3, 803, 0),
    (4, Auto, "C1", 1, 385, 1, 1155, 1),
    (4, Auto, "C2", 2, 0, 1, 1155, 1),
    (4, Auto, "C3", 20, 108, 1, 1155, 19),
    (4, Auto, "C4", 2, 759, 2, 2310, 1),
    (4, Auto, "C5", 2, 815, 2, 2310, 1),
    (4, Auto, "C6", 57, 44745, 3, 3564, 28),
    (4, Auto, "C2C6", 4, 0, 3, 2409, 2),
    (4, ForceGld, "C1", 29, 9518, 1, 1155, 27),
    (4, ForceGld, "C2", 1, 0, 1, 1155, 0),
    (4, ForceGld, "C3", 20, 108, 1, 1155, 19),
    (4, ForceGld, "C4", 28, 8032, 2, 2310, 27),
    (4, ForceGld, "C5", 30, 8997, 2, 2310, 27),
    (4, ForceGld, "C6", 57, 44745, 3, 3564, 28),
    (4, ForceGld, "C2C6", 2, 0, 3, 2409, 0),
];

/// 400 nodes, two labels, mean out-degree 1 per label (closures up to
/// 27 supersteps deep); `C` is the node of maximal `a1` out-degree.
fn fixed_db() -> Database {
    let mut rng = SplitMix64::seed_from_u64(0xc0ffee);
    let g = with_random_labels(&erdos_renyi(400, 1.0e-2, 17), 2, &mut rng);
    let a1 = g.labels.iter().position(|n| n == "a1").expect("label a1") as u32;
    let mut degree = vec![0u32; 400];
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

#[test]
fn communication_counts_match_golden() {
    let db = fixed_db();
    let mut actual: Vec<Line> = Vec::new();
    for workers in [2usize, 4] {
        for plan in [Auto, ForceGld] {
            let config = ExecConfig { workers, plan, ..Default::default() };
            let mut engine = QueryEngine::with_config(db.clone(), config);
            for (class, query) in QUERIES {
                let out = engine.run_ucrpq(query).unwrap_or_else(|e| panic!("{class}: {e}"));
                let c = out.comm;
                actual.push((
                    workers,
                    plan,
                    class,
                    c.shuffles,
                    c.rows_shuffled,
                    c.broadcasts,
                    c.rows_broadcast,
                    out.stats.fixpoint_iterations,
                ));
            }
        }
    }
    let rendered: String = actual
        .iter()
        .map(|(w, p, c, s, rs, b, rb, it)| {
            format!("    ({w}, {p:?}, {c:?}, {s}, {rs}, {b}, {rb}, {it}),\n")
        })
        .collect();
    assert!(actual == GOLDEN, "communication counts moved; the engine now measures:\n{rendered}");
    // The table must exercise both plans' signatures, or it pins nothing.
    assert!(GOLDEN.iter().any(|l| l.1 == ForceGld && l.7 > 2), "no multi-superstep P_gld line");
    assert!(GOLDEN.iter().any(|l| l.4 > 0 && l.6 > 0), "no line that both shuffles and broadcasts");
}
