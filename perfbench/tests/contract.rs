//! The benchmark against its own declaration: `BENCHMARK.json` and the
//! `bench` executable must name the same workloads and metrics, and the
//! counts a later change may rest a claim on must repeat exactly.

use mura_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

fn declaration() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("{key} is an array"))
}

fn string<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} is a string in {v}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One quick run; returns `(correct, metric name → (value, unit))`.
fn quick_run(workload: &str, trace: bool) -> (bool, BTreeMap<String, (f64, String)>) {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run bench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} trace={trace} failed:\n{stdout}");
    let line = stdout.trim_end().lines().last().expect("a result line");
    let result = Json::parse(line).unwrap_or_else(|e| panic!("result line {line}: {e}"));
    let keys: Vec<&str> = result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
    let map = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            (name.clone(), (value, string(m, "unit").to_string()))
        })
        .collect();
    (result.get("correct") == Some(&Json::Bool(true)), map)
}

#[test]
fn emitted_names_match_the_declaration_both_ways() {
    let doc = declaration();
    let keys: BTreeSet<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    let expected = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    assert_eq!(keys, BTreeSet::from(expected));

    let declared = |key: &str| -> BTreeMap<String, String> {
        array(&doc, key)
            .iter()
            .map(|m| (string(m, "name").into(), string(m, "unit").into()))
            .collect()
    };
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
    assert_eq!(end_to_end.len(), array(&doc, "end_to_end").len(), "a name is declared twice");
    assert_eq!(per_layer.len(), array(&doc, "per_layer").len(), "a name is declared twice");
    assert!(end_to_end.contains_key("setup_s"));
    for m in array(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
        assert!(matches!(string(m, "better"), "lower" | "higher"));
    }
    for name in end_to_end.keys().chain(per_layer.keys()) {
        assert!(valid_name(name), "{name}");
    }

    let workloads = array(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let (name, why) = (string(w, "name"), string(w, "why"));
        assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'), "{name}");
        for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
            let (correct, emitted) = quick_run(name, trace);
            assert!(correct, "{name} trace={trace} reported a wrong answer");
            let units: BTreeMap<String, String> =
                emitted.iter().map(|(n, (_, unit))| (n.clone(), unit.clone())).collect();
            assert_eq!(&units, declared, "{name} trace={trace}: emitted vs declared");
            if !trace {
                for (metric, (value, _)) in &emitted {
                    assert!(*value > 0.0, "{name}: end-to-end {metric} is {value}");
                }
            }
        }
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    for (workload, names) in [
        (
            "classes_proc",
            &["dist.rows_shuffled", "dist.rows_broadcast", "dist.wire_exchange_bytes"][..],
        ),
        ("serve_mixed", &["durable.wal_bytes_per_mutation"][..]),
    ] {
        let (first, second) = (quick_run(workload, true).1, quick_run(workload, true).1);
        for name in names {
            assert!(first[*name].0 > 0.0, "{workload}: {name} is zero");
            assert_eq!(first[*name], second[*name], "{workload}: {name} differs between runs");
        }
    }
}

#[test]
fn unknown_workload_is_a_clear_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run bench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result line on failure");
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown workload nope"));
}
