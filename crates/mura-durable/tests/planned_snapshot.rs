//! A snapshot taken after planning carries the dictionary the plans need
//! and not the one the searches used: a hundred planned queries leave a
//! few names each, the snapshot restores every one of them, and the
//! fresh-name counter resumes where it stood.

use mura_core::{Database, Term};
use mura_datagen::{yago_like, YagoConfig};
use mura_durable::snapshot::SNAP_FORMAT;
use mura_durable::{load_newest_snapshot, write_snapshot, SnapshotState};
use mura_rewrite::{bracketed, FeedbackStore, Rewriter};
use mura_ucrpq::suites::yago_queries;
use mura_ucrpq::{parse_ucrpq, to_mura};

fn is_generated(name: &str) -> bool {
    name.split_once('#').is_some_and(|(prefix, digits)| {
        !prefix.is_empty() && !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
    })
}

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
    assert_eq!(SNAP_FORMAT, 2, "the dictionary's layout in a snapshot did not change");
    let (mut db, texts) = graph_and_texts();
    assert_eq!(texts.len(), 100);
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
    let generated = db.dict().names().filter(|n| is_generated(n)).count();
    // Before the bracket: about 36,000 (≈ 360 per plan).
    assert!(generated < 2_500, "{generated} generated names after 100 plans");
    assert!(generated >= 100, "every plan of a recursive query keeps a binder: {generated}");

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
    assert_eq!(after.fresh_counter(), before.fresh_counter());
    assert!(before.names().eq(after.names()), "names restore in symbol order");
    assert_eq!(loaded.plans.len(), state.plans.len());
    for ((text, plan, _), (_, restored, _)) in state.plans.iter().zip(&loaded.plans) {
        assert_eq!(restored, plan, "{text}");
        // Every symbol of the restored plan resolves, to the name it had.
        assert_eq!(restored.display(after).to_string(), plan.display(before).to_string());
    }
    // The restored dictionary goes on minting where the original would.
    let (mut a, mut b) = (state.db, loaded.db);
    let (x, y) = (a.dict_mut().fresh("X"), b.dict_mut().fresh("X"));
    assert_eq!((x, a.dict().resolve(x)), (y, b.dict().resolve(y)));
}
