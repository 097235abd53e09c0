//! Component micro-benchmarks and the DESIGN.md ablations:
//!
//! * hashed vs linear token memories (the paper's ×10 comparison claim is
//!   the reason hashed memories are "the data-structure of choice");
//! * multiple-granularity root handling (broadcast + duplicated constant
//!   tests) vs central routing;
//! * the §3.1 processor-pair variant vs the §3.2 combined variant;
//! * the discrete-event machine's raw event throughput.
//!
//! `cargo bench -p mpps-bench --bench components`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpps_bench::experiments::SEED;
use mpps_core::{
    simulate, MappingConfig, MappingVariant, OverheadSetting, Partition, RootDistribution,
};
use mpps_ops::{Matcher, Wme, WmeChange, WmeId};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_workloads::{synth, tourney};
use std::hint::black_box;

/// WM changes that trigger a sizable cross-product match.
fn cross_changes(n: usize) -> Vec<WmeChange> {
    let mut changes = Vec::new();
    for i in 0..n {
        changes.push(WmeChange::add(
            WmeId(1 + i as u64),
            Wme::new("team", &[("div", "east".into()), ("id", (i as i64).into())]),
        ));
        changes.push(WmeChange::add(
            WmeId(1000 + i as u64),
            Wme::new(
                "team",
                &[("div", "west".into()), ("id", (100 + i as i64).into())],
            ),
        ));
    }
    changes.push(WmeChange::add(
        WmeId(5000),
        Wme::new("round", &[("n", 1.into())]),
    ));
    changes
}

fn bench_memory_ablation(c: &mut Criterion) {
    // table_size = 1 degenerates every hashed memory into a single linear
    // list — the pre-hashing Rete. The paper's "factor of 10" claim is
    // about joins whose equality variable discriminates: use a join with
    // many distinct values (a cross product would hash to one bucket
    // either way — that is the Tourney pathology, not this ablation).
    use mpps_ops::parse_program;
    let program = parse_program("(p link (a ^v <x>) (b ^v <x>) --> (remove 1))").unwrap();
    let network = ReteNetwork::compile(&program).unwrap();
    let changes: Vec<WmeChange> = (0..300i64)
        .flat_map(|i| {
            [
                WmeChange::add(WmeId(1 + 2 * i as u64), Wme::new("a", &[("v", i.into())])),
                WmeChange::add(WmeId(2 + 2 * i as u64), Wme::new("b", &[("v", i.into())])),
            ]
        })
        .collect();
    let mut g = c.benchmark_group("memory_ablation");
    for (label, table_size) in [("hashed_2048", 2048u64), ("linear_1", 1u64)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut m = ReteMatcher::new(
                    network.clone(),
                    EngineConfig {
                        table_size,
                        record_trace: false,
                    },
                );
                m.process(black_box(&changes));
                black_box(m.conflict_set().len())
            })
        });
    }
    g.finish();
}

fn bench_granularity_ablation(c: &mut Criterion) {
    let trace = synth::rubik(SEED);
    let p = 16;
    let partition = Partition::round_robin(trace.table_size, p);
    let mut g = c.benchmark_group("granularity_ablation");
    g.sample_size(20);
    for (label, roots) in [
        ("broadcast_duplicate", RootDistribution::BroadcastDuplicate),
        ("central_route", RootDistribution::CentralRoute),
    ] {
        let config = MappingConfig {
            roots,
            ..MappingConfig::standard(p, OverheadSetting::table_5_1()[2])
        };
        g.bench_function(label, |b| {
            b.iter(|| black_box(simulate(&trace, &config, &partition)).total)
        });
    }
    g.finish();
}

fn bench_pairs_ablation(c: &mut Criterion) {
    let trace = synth::weaver(SEED);
    let p = 8;
    let partition = Partition::round_robin(trace.table_size, p);
    let mut g = c.benchmark_group("pairs_ablation");
    for (label, variant) in [
        ("combined", MappingVariant::Combined),
        ("processor_pairs", MappingVariant::ProcessorPairs),
    ] {
        let config = MappingConfig {
            variant,
            ..MappingConfig::standard(p, OverheadSetting::table_5_1()[1])
        };
        g.bench_function(label, |b| {
            b.iter(|| black_box(simulate(&trace, &config, &partition)).total)
        });
    }
    g.finish();
}

fn bench_rete_vs_treat(c: &mut Criterion) {
    // Rete pays beta maintenance on modifies; TREAT deletes for free but
    // re-joins on adds. The modify-heavy cube workload and the add-heavy
    // cross product pull in opposite directions.
    use mpps_ops::TreatMatcher;
    let cube = mpps_workloads::rubik::program_with_observers(20);
    let cube_batches: Vec<Vec<WmeChange>> = {
        // Replay the interpreter's change log so both matchers see the
        // same modify-heavy traffic.
        use mpps_ops::{Interpreter, Strategy};
        let m = ReteMatcher::from_program(&cube).unwrap();
        let mut interp = Interpreter::with_matcher(cube.clone(), Strategy::Lex, m);
        for w in mpps_workloads::rubik::initial(&mpps_workloads::rubik::alternating_moves(4)) {
            interp.add_wme(w);
        }
        interp.run(12).unwrap();
        interp.change_log().to_vec()
    };
    let mut g = c.benchmark_group("rete_vs_treat");
    g.bench_function("rete_modify_heavy", |b| {
        b.iter(|| {
            let mut m = ReteMatcher::from_program(&cube).unwrap();
            for batch in &cube_batches {
                m.process(black_box(batch));
            }
            black_box(m.conflict_set().len())
        })
    });
    g.bench_function("treat_modify_heavy", |b| {
        b.iter(|| {
            let mut m = TreatMatcher::new(&cube);
            for batch in &cube_batches {
                m.process(black_box(batch));
            }
            black_box(m.conflict_set().len())
        })
    });
    let cross = tourney::program();
    g.bench_function("rete_add_heavy", |b| {
        b.iter(|| {
            let mut m = ReteMatcher::from_program(&cross).unwrap();
            m.process(black_box(&cross_changes(16)));
            black_box(m.conflict_set().len())
        })
    });
    g.bench_function("treat_add_heavy", |b| {
        b.iter(|| {
            let mut m = TreatMatcher::new(&cross);
            m.process(black_box(&cross_changes(16)));
            black_box(m.conflict_set().len())
        })
    });
    g.finish();
}

fn bench_machine_throughput(c: &mut Criterion) {
    use mpps_mpcsim::{Ctx, MachineConfig, Node, ProcId, SimTime, Simulator};
    struct Relay(u32);
    impl Node for Relay {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send(1, self.0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _f: ProcId, left: u32) {
            ctx.compute(SimTime::from_us(1));
            if left > 0 {
                ctx.send((ctx.me() + 1) % ctx.processors(), left - 1);
            }
        }
    }
    c.bench_function("mpcsim_10k_messages", |b| {
        b.iter(|| {
            let cfg = MachineConfig {
                processors: 8,
                send_overhead: SimTime::from_us(1),
                recv_overhead: SimTime::from_us(1),
                network: mpps_mpcsim::NetworkModel::Constant(SimTime::from_ns(500)),
            };
            let mut sim = Simulator::new(cfg, (0..8).map(|_| Relay(10_000)).collect());
            black_box(sim.run().makespan)
        })
    });
}

fn bench_simulate_hot_loop(c: &mut Criterion) {
    // The sweep engine's per-point cost: `simulate` allocates a fresh
    // scratch per call; `simulate_in` reuses one across points the way a
    // `SweepPlan` worker does. The gap is the remaining allocation cost —
    // the per-cycle trace-data clones of the pre-refactor executor no
    // longer exist on either path.
    use mpps_core::{simulate_in, SimScratch};
    let trace = synth::rubik(SEED);
    let p = 16;
    let partition = Partition::round_robin(trace.table_size, p);
    let config = MappingConfig::standard(p, OverheadSetting::table_5_1()[1]);
    let mut g = c.benchmark_group("simulate_hot_loop");
    g.sample_size(20);
    g.bench_function("fresh_scratch", |b| {
        b.iter(|| black_box(simulate(&trace, &config, &partition)).total)
    });
    g.bench_function("reused_scratch", |b| {
        let mut scratch = SimScratch::new();
        b.iter(|| black_box(simulate_in(&mut scratch, &trace, &config, &partition)).total)
    });
    g.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The Recorder hook's cost. `null_recorder` is the default path —
    // the `NullRecorder` calls must monomorphize to nothing, so it has
    // to stay within noise of `simulate_hot_loop/reused_scratch`;
    // `trace_recorder` prices the opt-in enabled path (span/counter
    // pushes and histogram updates per simulated event).
    use mpps_core::{simulate_in, simulate_recorded, SimScratch};
    use mpps_telemetry::TraceRecorder;
    let trace = synth::rubik(SEED);
    let p = 16;
    let partition = Partition::round_robin(trace.table_size, p);
    let config = MappingConfig::standard(p, OverheadSetting::table_5_1()[1]);
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(20);
    g.bench_function("null_recorder", |b| {
        let mut scratch = SimScratch::new();
        b.iter(|| black_box(simulate_in(&mut scratch, &trace, &config, &partition)).total)
    });
    g.bench_function("trace_recorder", |b| {
        let mut scratch = SimScratch::new();
        b.iter(|| {
            let mut rec = TraceRecorder::new();
            black_box(simulate_recorded(
                &mut scratch,
                &trace,
                &config,
                &partition,
                &mut rec,
            ))
            .total
        })
    });
    g.finish();
}

fn bench_sweep_plan(c: &mut Criterion) {
    // The figure driver's fan-out: one section's full overhead sweep as a
    // single plan, serial vs a worker pool.
    use mpps_core::sweep::{overhead_sweep_jobs, PartitionStrategy};
    let trace = synth::rubik(SEED);
    let procs = [1usize, 2, 4, 8, 16, 32];
    let rows = OverheadSetting::table_5_1();
    let mut g = c.benchmark_group("sweep_plan");
    g.sample_size(10);
    for jobs in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("overhead_sweep", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    black_box(overhead_sweep_jobs(
                        &trace,
                        &procs,
                        &rows,
                        PartitionStrategy::RoundRobin,
                        jobs,
                    ))
                })
            },
        );
    }
    g.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_generation");
    g.bench_function("synth_rubik", |b| b.iter(|| black_box(synth::rubik(SEED))));
    g.bench_function("synth_tourney", |b| {
        b.iter(|| black_box(synth::tourney(SEED)))
    });
    g.bench_function("captured_rubik_ruleset", |b| {
        b.iter(|| black_box(mpps_workloads::rubik::section(2, 256).trace.len()))
    });
    g.finish();
}

criterion_group!(
    components,
    bench_memory_ablation,
    bench_rete_vs_treat,
    bench_granularity_ablation,
    bench_pairs_ablation,
    bench_machine_throughput,
    bench_simulate_hot_loop,
    bench_telemetry_overhead,
    bench_sweep_plan,
    bench_trace_generation,
);
criterion_main!(components);
