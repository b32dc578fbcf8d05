//! Randomized soundness of plan templates: the planner never reads which
//! constant a filter names, so the plan searched for one instantiation of a
//! query, with the constants swapped ([`Term::rebind`]), **is** the plan
//! searched for the other — structurally, not only in its answer — and
//! [`shape_key`] tells exactly when two instantiations are one shape.
//! Random graphs × random paths × constants in no, one or two positions
//! (the same constant twice included, and constants of both kinds). A
//! rewrite rule that starts to read a constant's value fails here first;
//! the property it reads then belongs in the shape key.

mod common;

use common::{build_db, rand_graph, rand_path};
use dist_mu_ra::prelude::*;
use mura_core::{eval, shape_key, term_key};
use mura_datagen::SplitMix64;
use mura_ucrpq::{to_mura, Atom, Crpq, Endpoint, Path};

/// Integer nodes of the graph, and two names bound to strings — no node is
/// one, but a filter on them is a filter of the other kind.
const NAMED: [&str; 2] = ["S", "T"];

fn rand_constant(rng: &mut SplitMix64) -> String {
    match rng.gen_range(0..8u64) {
        0 => NAMED[rng.gen_range(0..2usize)].to_string(),
        _ => rng.gen_range(0..6u64).to_string(),
    }
}

/// `slots` constant endpoints around `?x`: none, one on a random side, or
/// one on each of two atoms that meet in `?x`.
fn query(paths: &[Path; 2], slots: usize, flip: bool, constants: &[String; 2]) -> Ucrpq {
    let var = |v: &str| Endpoint::Var(v.to_string());
    let atom = |path: &Path, constant: &String, flip: bool| {
        let (left, right) = (Endpoint::Const(constant.clone()), var("x"));
        let (left, right) = if flip { (right, left) } else { (left, right) };
        Atom { left, path: path.clone(), right }
    };
    let (head, atoms) = match slots {
        0 => {
            (vec!["x", "y"], vec![Atom { left: var("x"), path: paths[0].clone(), right: var("y") }])
        }
        1 => (vec!["x"], vec![atom(&paths[0], &constants[0], flip)]),
        _ => (
            vec!["x"],
            vec![atom(&paths[0], &constants[0], flip), atom(&paths[1], &constants[1], !flip)],
        ),
    };
    Ucrpq { branches: vec![Crpq { head: head.into_iter().map(String::from).collect(), atoms }] }
}

type Rows = Vec<Box<[Value]>>;

/// The plan, the shape and the binding of `text`, searched from scratch
/// with no observations, and the centralized answer of its raw term.
fn plan(engine: &mut QueryEngine, q: &Ucrpq) -> (Term, (u64, Vec<Value>), Rows) {
    let text = q.to_string();
    let (planned, shape) = engine
        .plan_ucrpq_with(&text, None, Rewriter::optimize_report, |raw, search| {
            Ok((search(&raw)?.0, shape_key(&raw)))
        })
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    let raw = to_mura(q, engine.db_mut()).expect("translated a moment ago");
    let expected = eval(&raw, engine.db()).expect("centralized eval").sorted_rows();
    (planned.plan, shape, expected)
}

#[test]
fn a_rebound_plan_is_the_plan_searched_for_the_other_constants() {
    const CASES: u64 = 320;
    let (mut same_shape, mut other_shape) = (0, 0);
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x7e3a_91a7 ^ case);
        let mut db = build_db(&rand_graph(&mut rng));
        for name in NAMED {
            let value = Value::Str(db.intern(name));
            db.bind_constant(name, value);
        }
        let paths = [rand_path(&mut rng, 2), rand_path(&mut rng, 2)];
        let (slots, flip) = (case as usize % 3, rng.gen_bool(0.5));
        let mut constants = || [rand_constant(&mut rng), rand_constant(&mut rng)];
        let (c0, c1) = (constants(), constants());
        let (q0, q1) = (query(&paths, slots, flip, &c0), query(&paths, slots, flip, &c1));

        let mut engine = QueryEngine::new(db);
        let (plan0, (shape0, binding0), _) = plan(&mut engine, &q0);
        let (plan1, (shape1, binding1), expected1) = plan(&mut engine, &q1);

        // One shape iff the constants in use have the same kinds and are
        // equal in the same places.
        let kind = |c: &String| NAMED.contains(&c.as_str());
        let pattern = |c: &[String; 2]| {
            (c[..slots].iter().map(kind).collect::<Vec<_>>(), slots == 2 && c[0] == c[1])
        };
        assert_eq!(shape0 == shape1, pattern(&c0) == pattern(&c1), "case {case}: {q0} / {q1}");
        if shape0 != shape1 {
            other_shape += 1;
            continue;
        }
        same_shape += 1;
        let rebound = plan0.rebind(&binding0, &binding1);
        assert_eq!(rebound, plan1, "case {case}: {q0} rebound is not the plan of {q1}");
        assert_eq!(term_key(&rebound), term_key(&plan1), "case {case}: {q0} / {q1}");
        for plan in [&rebound, &plan1] {
            let got = eval(plan, engine.db()).unwrap_or_else(|e| panic!("case {case}: {q1}: {e}"));
            assert_eq!(got.sorted_rows(), expected1, "case {case}: {q1} diverged");
        }
    }
    assert!(same_shape >= 150 && other_shape >= 20, "{same_shape} same, {other_shape} other");
}
