//! The metric catalogue (the names `BENCHMARK.json` declares), the result
//! of one run, and its two printed forms: the contract's last line and the
//! richer `detail` line the suite and `compare` read.

use crate::harness::{median, peak_rss_mb, percentile, second_best, Opts, Spans};
use mpps_telemetry::json::Value;
use mpps_telemetry::TraceRecorder;
use std::fmt::Write as _;

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; layer metrics have none (0).
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    e2e(name, unit, higher, 0.0)
}

/// What a user of each executor sees. Every workload reports every one:
/// `work_per_s` and `op_*` are measured in the workload's own unit of work
/// and operation (see [`crate::WORKLOADS`]).
pub const END_TO_END: &[Def] = &[
    e2e("work_per_s", "1/s", true, 0.20),
    e2e("op_p50_us", "us", false, 0.20),
    e2e("op_p99_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Single layers, named after the module measured. A layer a workload never
/// enters reads 0 on that workload.
pub const PER_LAYER: &[Def] = &[
    layer("ops.parser.parse_us_p50", "us", false),
    layer("ops.parser.parse_share", "ratio", false),
    layer("rete.network.compile_us_p50", "us", false),
    layer("rete.network.compile_share", "ratio", false),
    layer("rete.network.compile_share_rubik", "ratio", false),
    layer("rete.network.nodes", "count", false),
    layer("rete.engine.process_share", "ratio", false),
    layer("rete.engine.process_ns_per_change", "ns", false),
    layer("rete.engine.conflict_set_share", "ratio", false),
    layer("rete.engine.conflict_set_len_p50", "count", false),
    layer("rete.engine.conflict_set_len_max", "count", false),
    layer("rete.engine.activations_left", "count", false),
    layer("rete.engine.activations_right", "count", false),
    layer("rete.engine.left_share", "ratio", false),
    layer("rete.engine.probes_per_activation", "ratio", false),
    layer("rete.engine.arena_high_water", "count", false),
    layer("ops.interpreter.self_share", "ratio", false),
    layer("ops.interpreter.self_ns_per_cycle", "ns", false),
    layer("ops.interpreter.load_cycle_us_p50", "us", false),
    layer("ops.interpreter.cycles", "count", false),
    layer("ops.interpreter.fired", "count", false),
    layer("ops.interpreter.changes", "count", false),
    layer("core.threaded.workers", "count", true),
    layer("core.threaded.changes_per_s", "1/s", true),
    layer("core.threaded.cycle_p50_us", "us", false),
    layer("core.threaded.cycle_p99_us", "us", false),
    layer("core.threaded.speedup_vs_seq", "ratio", true),
    layer("core.threaded.process_share", "ratio", false),
    layer("core.threaded.work_share", "ratio", true),
    layer("core.threaded.wait_share", "ratio", false),
    layer("core.threaded.messages_per_cycle", "ratio", false),
    layer("core.threaded.forwarded_share", "ratio", false),
    layer("core.threaded.worker_skew", "ratio", false),
    layer("core.simexec.predicted_speedup", "ratio", true),
    layer("core.simexec.model_error", "ratio", false),
    layer("core.simexec.host_ns_per_act", "ns", false),
    layer("core.simexec.peak_speedup_rubik", "ratio", true),
    layer("core.simexec.peak_speedup_tourney", "ratio", true),
    layer("core.simexec.peak_speedup_weaver", "ratio", true),
    layer("core.simexec.loss_at_32us_rubik", "ratio", false),
    layer("core.simexec.loss_at_32us_tourney", "ratio", false),
    layer("core.simexec.loss_at_32us_weaver", "ratio", false),
    layer("core.sweep.points", "count", false),
    layer("core.sweep.dedup_hits", "count", true),
    layer("core.sweep.jobs2_speedup", "ratio", true),
    layer("core.partition.greedy_us_p50", "us", false),
    layer("core.partition.greedy_skew", "ratio", false),
    layer("mpcsim.network_messages", "count", false),
    layer("workloads.synth.gen_ms", "ms", false),
    layer("server.session.create_us_p50", "us", false),
    layer("server.session.ingest_run_us_p50", "us", false),
    layer("server.server.service_us_p50", "us", false),
    layer("server.server.service_us_p99", "us", false),
    layer("server.server.queue_wait_us_p50", "us", false),
    layer("server.server.queue_wait_us_p99", "us", false),
    layer("server.server.worker_busy_share", "ratio", false),
    layer("server.server.overloaded", "count", false),
    layer("server.store.faultins_per_req", "ratio", false),
    layer("server.store.evictions_per_req", "ratio", false),
    layer("server.store.spill_bytes_per_eviction", "bytes", false),
    layer("server.store.evict_us_p50", "us", false),
    layer("server.store.faultin_req_us_p50", "us", false),
    layer("server.snapshot.encode_us_p50", "us", false),
    layer("server.snapshot.decode_us_p50", "us", false),
    layer("server.snapshot.bytes", "bytes", false),
    layer("telemetry.trace_overhead", "ratio", false),
    layer("telemetry.self_time_coverage", "ratio", true),
];

/// One measured metric: the headline value, how many samples stand behind
/// it, and the per-round values its spread is judged by.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
    pub rounds: Vec<f64>,
}

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Digest of sampled outputs, compared across workloads by the suite
    /// (`serve-hot` and `serve-spill` must agree).
    pub digest: Option<u64>,
    /// The traced run's layer table, ready to print.
    pub layers: Vec<String>,
}

impl Outcome {
    /// A timed metric: the headline is the second-best of its per-round
    /// values (see [`second_best`] for why not the median).
    pub fn timed(&mut self, name: &'static str, rounds: Vec<f64>, samples: u64) {
        let def = def_of(name).expect("every produced metric is declared");
        self.metrics.push(Metric {
            name,
            value: second_best(&rounds, def.higher_is_better),
            samples,
            rounds,
        });
    }

    /// The five end-to-end metrics of a timed run, from its per-round
    /// throughputs and latency percentiles (`samples` operations in all) and
    /// its set-up repetitions.
    pub fn end_to_end(
        &mut self,
        rates: Vec<f64>,
        p50s: Vec<f64>,
        p99s: Vec<f64>,
        samples: u64,
        setup: Vec<f64>,
    ) {
        self.timed("work_per_s", rates, samples);
        self.timed("op_p50_us", p50s, samples);
        self.timed("op_p99_us", p99s, samples);
        self.single("peak_rss_mb", peak_rss_mb());
        let reps = setup.len() as u64;
        self.timed("setup_s", setup, reps);
    }

    /// A layer metric that is the median of `samples_ns`, in microseconds.
    pub fn p50_us(&mut self, name: &'static str, samples_ns: &mut [u64]) {
        samples_ns.sort_unstable();
        self.single(name, percentile(samples_ns, 0.5) as f64 / 1e3);
    }

    /// The traced run's results: the layer table, how much of `wall_ns` its
    /// self times account for, and the Chrome trace `recorder` holds, written
    /// to `<out_dir>/<workload>.trace.json`.
    pub fn traced(
        &mut self,
        opts: &Opts,
        workload: &str,
        spans: &Spans,
        wall_ns: u64,
        recorder: &TraceRecorder,
    ) {
        self.single("telemetry.self_time_coverage", spans.coverage(wall_ns));
        self.layers = spans.table(wall_ns);
        let path = opts.out_dir.join(format!("{workload}.trace.json"));
        let text = mpps_telemetry::chrome::chrome_trace(recorder);
        if let Err(e) = std::fs::write(&path, text) {
            self.check(false, || format!("writing {}: {e}", path.display()));
        }
    }

    /// A layer metric whose headline is the median over `rounds`.
    pub fn median_of(&mut self, name: &'static str, rounds: Vec<f64>, samples: u64) {
        self.metrics.push(Metric {
            name,
            value: median(&rounds),
            samples,
            rounds,
        });
    }

    /// A metric measured once (a count, a ratio of sums).
    pub fn single(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: 1,
            rounds: vec![value],
        });
    }

    /// Record an output check: a failure counts against `failed`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract's result object: every declared metric of the run's kind,
/// in catalogue order; one the workload did not produce reads 0.
pub fn contract_line(outcome: &Outcome, trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, def) in defs.iter().enumerate() {
        let value = outcome.get(def.name).map_or(0.0, |m| m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            num(value),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Everything measured, with sample counts and per-round values — the form
/// the suite stores and `compare` reads.
pub fn detail_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        outcome.digest.unwrap_or(0)
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let rounds: Vec<String> = m.rounds.iter().map(|&r| num(r)).collect();
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"samples\": {}, \"rounds\": [{}]}}",
            m.name,
            num(m.value),
            m.samples,
            rounds.join(", ")
        );
    }
    out.push_str("}}");
    out
}

/// Six significant digits, so that a 30 µs set-up does not print as 0.0000 s.
fn significant(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return "0".into();
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

pub fn def_of(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The human-readable table of one run: name, value, unit, sample count and
/// bound for every metric the run produced.
pub fn print_table(outcome: &Outcome, quick: bool) {
    for m in &outcome.metrics {
        let def = def_of(m.name).expect("every produced metric is declared");
        let bound = if def.bound > 0.0 && !quick {
            format!("bound {:.0}%", def.bound * 100.0)
        } else {
            "no bound".into()
        };
        println!(
            "  {:<42} {:>16} {:<6} n={:<8} {}",
            m.name,
            significant(m.value),
            def.unit,
            m.samples,
            bound
        );
    }
    for row in &outcome.layers {
        println!("{row}");
    }
    for f in &outcome.failures {
        println!("  FAILED CHECK: {f}");
    }
}

/// Read back a metric map written by [`detail_json`].
pub fn parse_metrics(detail: &Value) -> Vec<(String, f64, u64, Vec<f64>)> {
    let Some(map) = detail.get("metrics").and_then(Value::as_object) else {
        return Vec::new();
    };
    map.iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let samples = m.get("samples").and_then(Value::as_u64).unwrap_or(0);
            let rounds = m
                .get("rounds")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            (name.clone(), value, samples, rounds)
        })
        .collect()
}
