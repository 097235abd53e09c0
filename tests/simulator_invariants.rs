//! Property tests on the trace-driven simulator: timing invariants that
//! must hold for every trace, processor count, and overhead setting.

use mpps::core::sweep::baseline;
use mpps::core::{simulate, MappingConfig, OverheadSetting, Partition, TerminationModel};
use mpps::mpcsim::SimTime;
use mpps::ops::Sign;
use mpps::rete::trace::{ActKind, ActivationRecord, TraceCycle};
use mpps::rete::{NodeId, Side, Trace};
use proptest::prelude::*;

const TABLE: u64 = 64;

/// Generate a random but well-formed trace: every parent precedes its
/// children, buckets in range.
fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                0u32..20,                     // node
                any::<bool>(),                // side (roots only)
                0u64..TABLE,                  // bucket
                any::<prop::sample::Index>(), // parent selector
                0u8..10,                      // parent? kind? mixing byte
            ),
            0..40,
        ),
        1..4,
    )
    .prop_map(|cycles| {
        let mut trace = Trace::new(TABLE);
        for specs in cycles {
            let mut cycle = TraceCycle::default();
            for (node, right, bucket, parent_sel, mix) in specs {
                let is_root = cycle.activations.is_empty() || mix < 4;
                let parent = if is_root {
                    None
                } else {
                    Some(parent_sel.index(cycle.activations.len()) as u32)
                };
                // Children of two-input nodes are left activations; only
                // roots may be right activations.
                let side = if parent.is_none() && right {
                    Side::Right
                } else {
                    Side::Left
                };
                let kind = if parent.is_some() && mix == 9 {
                    ActKind::Production
                } else {
                    ActKind::TwoInput
                };
                // Productions cannot have children; remap children whose
                // chosen parent is a production to the root.
                let parent = parent.map(|p| {
                    let mut p = p;
                    while cycle.activations[p as usize].kind == ActKind::Production {
                        if p == 0 {
                            break;
                        }
                        p -= 1;
                    }
                    p
                });
                // If we still landed on a production at index 0, make this
                // activation a root instead.
                let parent = match parent {
                    Some(p) if cycle.activations[p as usize].kind == ActKind::Production => None,
                    other => other,
                };
                cycle.activations.push(ActivationRecord {
                    node: NodeId(node),
                    side,
                    sign: Sign::Plus,
                    bucket,
                    parent,
                    kind,
                });
            }
            trace.cycles.push(cycle);
        }
        trace
    })
}

/// Serial work of a trace under the default cost model (plus constant
/// tests per cycle) — an upper bound on any simulated makespan total.
fn serial_work(trace: &Trace) -> SimTime {
    mpps::core::continuum::serial_time(trace, &mpps::core::CostModel::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With zero overheads, parallel total never exceeds serial total
    /// (adding processors cannot add work) and speedup never exceeds P.
    #[test]
    fn zero_overhead_bounds(trace in arb_trace(), p in 1usize..9) {
        let config = MappingConfig {
            network: mpps::mpcsim::NetworkModel::Constant(SimTime::ZERO),
            ..MappingConfig::standard(p, OverheadSetting::ZERO)
        };
        let partition = Partition::round_robin(TABLE, p);
        let report = simulate(&trace, &config, &partition);
        let serial = serial_work(&trace);
        prop_assert!(report.total <= serial, "parallel {} > serial {}", report.total, serial);
        let base = baseline(&trace);
        prop_assert_eq!(base.total, serial);
        let speedup = report.speedup_vs(&base);
        prop_assert!(speedup <= p as f64 + 1e-9, "speedup {} > P {}", speedup, p);
    }

    /// Overheads never make a run faster.
    #[test]
    fn overhead_monotonicity(trace in arb_trace(), p in 1usize..9) {
        let partition = Partition::round_robin(TABLE, p);
        let rows = OverheadSetting::table_5_1();
        let mut prev = SimTime::ZERO;
        for row in rows {
            let config = MappingConfig::standard(p, row);
            let total = simulate(&trace, &config, &partition).total;
            prop_assert!(total >= prev, "overhead {} made the run faster", row.total());
            prev = total;
        }
    }

    /// The simulation is deterministic.
    #[test]
    fn determinism(trace in arb_trace(), p in 1usize..9) {
        let config = MappingConfig::standard(p, OverheadSetting::table_5_1()[2]);
        let partition = Partition::random(TABLE, p, 7);
        let a = simulate(&trace, &config, &partition);
        let b = simulate(&trace, &config, &partition);
        prop_assert_eq!(a.total, b.total);
        for (x, y) in a.cycles.iter().zip(b.cycles.iter()) {
            prop_assert_eq!(x.makespan, y.makespan);
            prop_assert_eq!(&x.left_acts, &y.left_acts);
        }
    }

    /// Activation conservation: every partition processes every
    /// activation exactly once.
    #[test]
    fn conservation_across_partitions(trace in arb_trace(), seed in 0u64..4, p in 1usize..9) {
        let expected = trace.stats();
        let config = MappingConfig::standard(p, OverheadSetting::table_5_1()[1]);
        let partition = Partition::random(TABLE, p, seed);
        let report = simulate(&trace, &config, &partition);
        let left: u64 = report.cycles.iter().map(|c| c.left_acts.iter().sum::<u64>()).sum();
        let right: u64 = report.cycles.iter().map(|c| c.right_acts.iter().sum::<u64>()).sum();
        prop_assert_eq!(left as usize, expected.left);
        prop_assert_eq!(right as usize, expected.right);
    }

    /// Drain reports add exactly one message per match processor per
    /// cycle (the packet's report) plus one per token routed to another
    /// match processor, and change nothing else the trace decides.
    #[test]
    fn drain_reports_add_one_message_per_inbound_message(
        trace in arb_trace(),
        seed in 0u64..4,
        p in 1usize..9,
        row in 0usize..4,
    ) {
        let omniscient = MappingConfig::standard(p, OverheadSetting::table_5_1()[row]);
        let reports = MappingConfig {
            termination: TerminationModel::Reports,
            ..omniscient
        };
        let partition = Partition::random(TABLE, p, seed);
        let base = simulate(&trace, &omniscient, &partition);
        let priced = simulate(&trace, &reports, &partition);
        for (c, cycle) in trace.cycles.iter().enumerate() {
            let acts = &cycle.activations;
            let routed = acts
                .iter()
                .filter(|a| a.kind == ActKind::TwoInput)
                .filter_map(|a| a.parent.map(|parent| (a, &acts[parent as usize])))
                .filter(|(a, parent)| partition.owner(a.bucket) != partition.owner(parent.bucket))
                .count() as u64;
            let (b, r) = (&base.cycles[c], &priced.cycles[c]);
            prop_assert_eq!(r.network_messages, b.network_messages + p as u64 + routed);
            prop_assert_eq!(&r.left_acts, &b.left_acts);
            prop_assert_eq!(&r.right_acts, &b.right_acts);
            prop_assert_eq!(r.instantiations, b.instantiations);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simulator-input text format round-trips arbitrary well-formed
    /// traces exactly.
    #[test]
    fn trace_text_roundtrip(trace in arb_trace()) {
        let text = trace.to_text();
        let back = Trace::from_text(&text).unwrap();
        prop_assert_eq!(back.table_size, trace.table_size);
        prop_assert_eq!(back.cycles.len(), trace.cycles.len());
        for (a, b) in trace.cycles.iter().zip(back.cycles.iter()) {
            prop_assert_eq!(&a.activations, &b.activations);
        }
    }

    /// Section extraction and empty-cycle filtering preserve stats of the
    /// retained cycles.
    #[test]
    fn section_and_filter_consistency(trace in arb_trace()) {
        let full = trace.stats();
        let filtered = trace.without_empty_cycles();
        prop_assert_eq!(filtered.stats(), full);
        if !trace.cycles.is_empty() {
            let first = trace.section(0, 1);
            let rest = trace.section(1, trace.cycles.len());
            prop_assert_eq!(
                first.stats().total() + rest.stats().total(),
                full.total()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Hostile trace text: a valid trace's text with one byte replaced, a
    /// line deleted or duplicated, or the tail cut off either parses or is
    /// an error, never a panic; a mutant that parses simulates.
    #[test]
    fn mutated_trace_text_never_panics(
        trace in arb_trace(),
        mutation in 0u8..4,
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let text = trace.to_text();
        let mut lines: Vec<&str> = text.lines().collect();
        let mutant = match mutation {
            0 => {
                let mut bytes = text.clone().into_bytes();
                // Mostly digits: numbers are what the parser must range-check.
                let alphabet = b"0123456789 .<\n";
                let i = at.index(bytes.len());
                bytes[i] = alphabet[usize::from(byte) % alphabet.len()];
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => {
                lines.remove(at.index(lines.len()));
                lines.join("\n")
            }
            2 => {
                let i = at.index(lines.len());
                lines.insert(i, lines[i]);
                lines.join("\n")
            }
            _ => text[..at.index(text.len())].to_owned(),
        };
        if let Ok(parsed) = Trace::from_text(&mutant) {
            let config = MappingConfig::standard(2, OverheadSetting::table_5_1()[1]);
            simulate(&parsed, &config, &Partition::round_robin(parsed.table_size, 2));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel sweep engine is a pure optimization: for any trace,
    /// worker count, and partition strategy, its curves are identical to
    /// the serial helpers' (same points, bit-equal speedups and times).
    #[test]
    fn parallel_sweep_matches_serial(
        trace in arb_trace(),
        jobs in 2usize..9,
        strat in 0usize..3,
    ) {
        use mpps::core::sweep::{
            speedup_curve, speedup_curve_jobs, PartitionSpec, PartitionStrategy, PointSpec,
            SweepPlan,
        };
        let strategy = [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Random(7),
            PartitionStrategy::GreedyWholeTrace,
        ][strat];
        let procs = [1usize, 2, 3, 5, 8];
        let overhead = OverheadSetting::table_5_1()[1];
        let serial = speedup_curve(&trace, &procs, overhead, strategy);
        let parallel = speedup_curve_jobs(&trace, &procs, overhead, strategy, jobs);
        prop_assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            prop_assert_eq!(a.processors, b.processors);
            prop_assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            prop_assert_eq!(a.total_us.to_bits(), b.total_us.to_bits());
        }
        // One plan over every Table 5-1 row: `run(jobs)` must equal `run(1)`.
        let mut plan = SweepPlan::new();
        let t = plan.add_trace(&trace);
        let mut ids = Vec::new();
        for o in OverheadSetting::table_5_1() {
            for &p in &procs {
                ids.push(plan.add_point(PointSpec {
                    trace: t,
                    config: MappingConfig::standard(p, o),
                    partition: PartitionSpec::Strategy(strategy),
                }));
            }
        }
        let (serial_rows, parallel_rows) = (plan.run(1), plan.run(jobs));
        for id in ids {
            let (a, b) = (serial_rows.speedup_point(id), parallel_rows.speedup_point(id));
            prop_assert_eq!(a.processors, b.processors);
            prop_assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            prop_assert_eq!(a.total_us.to_bits(), b.total_us.to_bits());
        }
    }
}
