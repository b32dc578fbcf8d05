//! A snapshot taken after planning carries the user's names and nothing of
//! the searches: a hundred planned queries leave their query variables in
//! the dictionary, their plans' generated symbols are numbers that travel
//! inside the plans, and every plan restores symbol for symbol.

use mura_core::{Database, Sym, Term};
use mura_datagen::{yago_like, YagoConfig};
use mura_durable::{load_newest_snapshot, write_snapshot, SnapshotState};
use mura_rewrite::{bracketed, FeedbackStore, Rewriter};
use mura_ucrpq::suites::yago_queries;
use mura_ucrpq::{parse_ucrpq, to_mura};

/// The Yago-like graph and a hundred texts over it: the suite (without
/// the two product queries), over and over.
fn graph_and_texts() -> (Database, Vec<String>) {
    let db = yago_like(YagoConfig { people: 200, seed: 0xa60 }).to_database();
    let suite: Vec<String> = yago_queries()
        .iter()
        .filter(|q| q.id != "Q16" && q.id != "Q25")
        .map(|q| q.text.to_string())
        .collect();
    (db, suite.iter().cycle().take(100).cloned().collect())
}

#[test]
fn snapshot_after_a_hundred_plans_holds_the_plans_names_only() {
    let (mut db, texts) = graph_and_texts();
    assert_eq!(texts.len(), 100);
    let names_before = db.dict().len();
    let plans: Vec<(String, Term, u64)> = texts
        .iter()
        .map(|text| {
            let query = parse_ucrpq(text).expect("parse");
            let (plan, _report) = bracketed(&mut db, |db| {
                let term = to_mura(&query, db)?;
                Rewriter::new(db).optimize_report(&term, db)
            })
            .expect("plan");
            (text.clone(), plan, 0)
        })
        .collect();
    // What planning interned: the texts' query variables. (Before the
    // bracket about 36,000 generated names, with it about 2,000.)
    let interned: Vec<&str> = db.dict().names().skip(names_before).collect();
    assert!(interned.len() < 16 && interned.iter().all(|n| n.starts_with('?')), "{interned:?}");
    let generated = |plan: &Term| {
        let mut symbols: Vec<Sym> = Vec::new();
        plan.for_each_symbol(&mut |s| {
            symbols.extend((s.is_generated() && !symbols.contains(&s)).then_some(s))
        });
        symbols.len()
    };
    let kept: usize = plans.iter().map(|(_, plan, _)| generated(plan)).sum();
    assert!(kept >= 100, "every plan of a recursive query keeps a binder: {kept}");

    let dir = std::env::temp_dir().join(format!("mura-planned-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = SnapshotState {
        version: 1,
        epoch: 0,
        db,
        views: Vec::new(),
        feedback: FeedbackStore::new().export_state(),
        plans,
    };
    write_snapshot(&dir, &state).unwrap();
    let (loaded, skipped) = load_newest_snapshot(&dir).unwrap();
    assert!(skipped.is_empty());
    let loaded = loaded.expect("a snapshot was written");
    std::fs::remove_dir_all(&dir).unwrap();

    let (before, after) = (state.db.dict(), loaded.db.dict());
    assert!(before.names().eq(after.names()), "names restore in symbol order");
    assert_eq!(loaded.plans.len(), state.plans.len());
    for ((text, plan, _), (_, restored, _)) in state.plans.iter().zip(&loaded.plans) {
        assert_eq!(restored, plan, "{text}");
        // Every symbol of the restored plan resolves, to the name it had.
        assert_eq!(restored.display(after).to_string(), plan.display(before).to_string());
    }
}
