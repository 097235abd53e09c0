//! Same seed ⇒ the same inputs, outputs and counts; another seed ⇒ other
//! inputs that pass the same output checks. Quick sizes throughout.

use mpps_benchmark::harness::Opts;
use mpps_benchmark::metrics::{Outcome, END_TO_END, PER_LAYER};
use mpps_benchmark::{run_workload, WORKLOADS};
use mpps_telemetry::json::{self, Value};
use std::path::PathBuf;

fn run(workload: &str, seed: u64, trace: bool, tag: &str) -> Outcome {
    // Tests run on parallel threads of one process: a directory each, so
    // that no two servers share a spill directory.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&out_dir).unwrap();
    let opts = Opts {
        seed,
        seconds: 0.4,
        trace,
        quick: true,
        out_dir: out_dir.clone(),
    };
    let outcome = run_workload(workload, &opts).expect("a declared workload");
    std::fs::remove_dir_all(&out_dir).unwrap();
    assert_eq!(
        outcome.failed, 0,
        "{workload} seed {seed}: {:?}",
        outcome.failures
    );
    assert!(outcome.attempted > 0);
    outcome
}

/// The metrics that are counts made by the program, not times.
const COUNTS: &[&str] = &[
    "ops.interpreter.cycles",
    "ops.interpreter.fired",
    "ops.interpreter.changes",
    "rete.engine.activations_left",
    "rete.engine.activations_right",
    "rete.engine.arena_high_water",
    "rete.engine.conflict_set_len_max",
    "rete.network.nodes",
    "core.sweep.points",
    "core.sweep.dedup_hits",
    "core.simexec.peak_speedup_rubik",
    "core.simexec.peak_speedup_tourney",
    "core.simexec.peak_speedup_weaver",
    "core.simexec.loss_at_32us_rubik",
    "core.simexec.predicted_speedup",
    "mpcsim.network_messages",
    "server.store.faultins_per_req",
    "server.store.evictions_per_req",
    "server.snapshot.bytes",
];

fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| COUNTS.contains(&m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

fn same_seed_same_counts(workload: &str) {
    let (a, b) = (run(workload, 7, true, "a"), run(workload, 7, true, "b"));
    assert!(!counts(&a).is_empty(), "{workload} reports no count metric");
    assert_eq!(
        counts(&a),
        counts(&b),
        "{workload}: counts must repeat for a seed"
    );
    assert_eq!(
        a.digest, b.digest,
        "{workload}: outputs must repeat for a seed"
    );
}

#[test]
fn match_workloads_repeat_for_a_seed() {
    for w in [
        "rubik-modify",
        "tourney-cross",
        "weaver-small",
        "cold-start",
    ] {
        same_seed_same_counts(w);
    }
}

#[test]
fn simulator_repeats_for_a_seed_and_pins_seed_1() {
    same_seed_same_counts("sim-sweep");
    // Seed 1 is checked against the checksum in data/ (a failed check would
    // have tripped `run`); another seed is another set of traces.
    assert_ne!(
        run("sim-sweep", 1, false, "c").digest,
        run("sim-sweep", 2, false, "c").digest
    );
}

#[test]
fn serve_workloads_repeat_and_agree_with_each_other() {
    same_seed_same_counts("serve-spill");
    let hot = run("serve-hot", 7, false, "d");
    let spill = run("serve-spill", 7, false, "d");
    assert!(hot.digest.is_some());
    assert_eq!(
        hot.digest, spill.digest,
        "same seed, same access sequence: byte-equal snapshots"
    );
    let spill_traced = run("serve-spill", 7, true, "e");
    let faults = spill_traced
        .get("server.store.faultins_per_req")
        .unwrap()
        .value;
    assert!(
        faults > 0.0,
        "the spill budget must make some request fault in"
    );
    let hot_traced = run("serve-hot", 7, true, "e");
    assert_eq!(
        hot_traced
            .get("server.store.faultins_per_req")
            .unwrap()
            .value,
        0.0
    );
}

#[test]
fn another_seed_is_another_input_that_passes_the_same_checks() {
    for w in ["rubik-modify", "tourney-cross", "serve-hot"] {
        assert_ne!(
            run(w, 3, false, "f").digest,
            run(w, 4, false, "f").digest,
            "{w}"
        );
    }
}

#[test]
fn every_run_reports_every_end_to_end_metric_and_none_is_zero() {
    for w in WORKLOADS {
        let outcome = run(w.name, 5, false, "g");
        for def in END_TO_END {
            let m = outcome
                .get(def.name)
                .unwrap_or_else(|| panic!("{} lacks {}", w.name, def.name));
            assert!(m.value > 0.0, "{} {} is {}", w.name, def.name, m.value);
        }
    }
}

/// `BENCHMARK.json` at the repo root must declare exactly what the code
/// prints. (Absent when only this directory is checked out; then the run
/// fails earlier, at the build.)
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let declared = |defs: &[mpps_benchmark::metrics::Def]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    };
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let (json, code) = (names(key), declared(defs));
        assert_eq!(
            json.len(),
            code.len(),
            "{key}: BENCHMARK.json and the catalogue differ in length"
        );
        for (j, c) in json.iter().zip(&code) {
            assert_eq!(j, c, "{key}: BENCHMARK.json and the catalogue differ");
        }
    }
    let bounds: Vec<f64> = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
        .collect();
    assert_eq!(
        bounds,
        END_TO_END.iter().map(|d| d.bound).collect::<Vec<_>>()
    );
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
}
