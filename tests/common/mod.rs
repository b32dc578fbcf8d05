//! Generators the randomized planner suites share (`prop_enumerate`,
//! `prop_templates`): random paths over labels {a, b}, endpoints, small
//! labelled graphs. Each suite uses some of them.
#![allow(dead_code)]

use dist_mu_ra::prelude::*;
use mura_datagen::SplitMix64;
use mura_ucrpq::{Endpoint, Path};

/// Random path expression over labels {a, b} with bounded depth, biased
/// toward the shapes where the enumerator actually makes decisions:
/// closures, compositions of closures, and inverses.
pub fn rand_path(rng: &mut SplitMix64, depth: u32) -> Path {
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

pub fn rand_endpoint(rng: &mut SplitMix64, var: &str) -> Endpoint {
    if rng.gen_range(0..3u64) < 2 {
        Endpoint::Var(var.to_string())
    } else {
        Endpoint::Const(rng.gen_range(0..24u64).to_string())
    }
}

pub fn rand_graph(rng: &mut SplitMix64) -> Vec<(u64, u64, bool)> {
    let len = rng.gen_range(1..50usize);
    (0..len)
        .map(|_| (rng.gen_range(0..24u64), rng.gen_range(0..24u64), rng.gen_bool(0.5)))
        .collect()
}

pub fn build_db(edges: &[(u64, u64, bool)]) -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    let a: Vec<(u64, u64)> =
        edges.iter().filter(|(_, _, is_a)| *is_a).map(|&(s, d, _)| (s, d)).collect();
    let b: Vec<(u64, u64)> =
        edges.iter().filter(|(_, _, is_a)| !*is_a).map(|&(s, d, _)| (s, d)).collect();
    db.insert_relation("a", Relation::from_pairs(src, dst, a));
    db.insert_relation("b", Relation::from_pairs(src, dst, b));
    db
}

pub fn build_query(path: &Path, left: Endpoint, right: Endpoint) -> Ucrpq {
    let mut head = Vec::new();
    if let Endpoint::Var(v) = &left {
        head.push(v.clone());
    }
    if let Endpoint::Var(v) = &right {
        if !head.contains(v) {
            head.push(v.clone());
        }
    }
    let (left, right) = if head.is_empty() {
        // Both endpoints constant: keep one variable to have a head.
        head.push("x".to_string());
        (left, Endpoint::Var("x".to_string()))
    } else {
        (left, right)
    };
    mura_ucrpq::Ucrpq {
        branches: vec![mura_ucrpq::Crpq {
            head,
            atoms: vec![mura_ucrpq::Atom { left, path: path.clone(), right }],
        }],
    }
}
