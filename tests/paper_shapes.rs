//! Shape assertions for every reproduced table and figure: who wins, by
//! roughly what factor, and where the paper's qualitative observations
//! show up. These are the claims EXPERIMENTS.md reports.

use mpps_bench::experiments as exp;

fn peak(curve: &[mpps::core::sweep::SpeedupPoint]) -> f64 {
    curve.iter().map(|p| p.speedup).fold(0.0, f64::max)
}

#[test]
fn table5_2_exact_activation_mixes() {
    let rows = exp::table5_2(&exp::Sections::generate());
    assert_eq!(rows[0][0], "Rubik");
    assert_eq!(rows[0][1], "2388 (28%)");
    assert_eq!(rows[0][2], "6114 (72%)");
    assert_eq!(rows[0][3], "8502");
    assert_eq!(rows[1][1], "10667 (99%)");
    assert_eq!(rows[1][2], "83 (1%)");
    assert_eq!(rows[1][3], "10750");
    assert_eq!(rows[2][1], "338 (81%)");
    assert_eq!(rows[2][2], "78 (19%)");
    assert_eq!(rows[2][3], "416");
}

#[test]
fn fig5_1_shapes() {
    let curves = exp::solo(exp::fig5_1);
    let get = |name: &str| {
        curves
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c.clone())
            .unwrap()
    };
    let rubik = get("Rubik");
    let tourney = get("Tourney");
    let weaver = get("Weaver");
    // Baselines normalize to 1 at a single processor.
    for c in [&rubik, &tourney, &weaver] {
        assert!((c[0].speedup - 1.0).abs() < 0.05, "P=1 speedup ≈ 1");
    }
    // "As expected, Rubik has the largest overall speedup."
    assert!(peak(&rubik) > peak(&tourney));
    assert!(peak(&rubik) > peak(&weaver));
    // "Up to 8–12 fold speedups are available": every section peaks in or
    // near that band (≥ 6), and Rubik well inside it.
    assert!(
        peak(&rubik) >= 8.0 && peak(&rubik) <= 16.0,
        "{}",
        peak(&rubik)
    );
    assert!(peak(&tourney) >= 6.0, "{}", peak(&tourney));
    assert!(peak(&weaver) >= 6.0, "{}", peak(&weaver));
}

#[test]
fn fig5_2_overhead_losses_track_left_fraction() {
    let losses = exp::solo(exp::fig5_2_losses);
    let loss = |name: &str| {
        losses
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, l, _)| l)
            .unwrap()
    };
    let (rubik, tourney, weaver) = (loss("Rubik"), loss("Tourney"), loss("Weaver"));
    // Paper: Rubik ≈30%, Tourney ≈45%, Weaver up to 50%. Rubik (right-
    // heavy) is hit least; the left-heavy sections lose substantially
    // more.
    assert!((0.15..=0.40).contains(&rubik), "rubik loss {rubik}");
    assert!((0.30..=0.60).contains(&tourney), "tourney loss {tourney}");
    assert!((0.30..=0.60).contains(&weaver), "weaver loss {weaver}");
    assert!(rubik < tourney, "left-heavy Tourney loses more than Rubik");
    assert!(rubik < weaver, "left-heavy Weaver loses more than Rubik");
}

#[test]
fn fig5_2_speedup_decreases_with_overhead_at_fixed_p() {
    for (name, sweeps) in exp::solo(exp::fig5_2) {
        // Compare the four curves at the largest processor count.
        let at_max: Vec<f64> = sweeps
            .iter()
            .map(|(_, c)| c.last().unwrap().speedup)
            .collect();
        for w in at_max.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-9,
                "{name}: more overhead must not speed things up: {at_max:?}"
            );
        }
    }
}

#[test]
fn fig5_4_unsharing_improves_weaver() {
    let (shared, unshared) = exp::solo(exp::fig5_4);
    assert!(
        peak(&unshared) > peak(&shared) * 1.1,
        "unsharing lifts the peak: {} -> {}",
        peak(&shared),
        peak(&unshared)
    );
    // The improvement concentrates at higher processor counts (the
    // bottleneck was successor generation, not total work).
    let last_gain = unshared.last().unwrap().speedup / shared.last().unwrap().speedup;
    assert!(last_gain > 1.1, "gain at P=32: {last_gain}");
}

#[test]
fn fig5_5_uneven_and_flipping_load() {
    let cycles = exp::solo(exp::fig5_5);
    assert_eq!(cycles.len(), 2);
    for (i, loads) in cycles.iter().enumerate() {
        assert_eq!(loads.len(), 16);
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        // Within a cycle the distribution is clearly uneven.
        assert!(
            max > 1.5 * mean,
            "cycle {i} should be uneven: max {max}, mean {mean}"
        );
    }
    // "Processors busy in one cycle are seen to be idle in the next":
    // per-processor loads shift between the cycles.
    let a = &cycles[0];
    let b = &cycles[1];
    let moved = a
        .iter()
        .zip(b.iter())
        .filter(|(&x, &y)| {
            let hi = x.max(y) as f64;
            let lo = x.min(y) as f64;
            hi > 0.0 && lo < 0.5 * hi
        })
        .count();
    assert!(
        moved >= 4,
        "load should shift between cycles ({moved} procs moved)"
    );
}

#[test]
fn fig5_6_copy_and_constraint_improves_tourney() {
    let (plain, cc) = exp::solo(exp::fig5_6);
    assert!(
        peak(&cc) > peak(&plain) * 1.1,
        "copy-and-constraint lifts the peak: {} -> {}",
        peak(&plain),
        peak(&cc)
    );
}

#[test]
fn network_is_mostly_idle() {
    for (name, idle) in exp::solo(exp::network_idle) {
        assert!(
            idle > 0.93,
            "{name}: paper reports 97–98% idle, got {:.1}%",
            idle * 100.0
        );
    }
}

#[test]
fn greedy_distribution_gains_roughly_paper_factor() {
    let gains = exp::solo(exp::greedy_gains);
    // Paper: "improved the speedups by a factor of 1.4". At least one
    // section should gain substantially, and none should regress.
    assert!(
        gains.iter().any(|&(_, simulated, _)| simulated >= 1.3),
        "gains: {gains:?}"
    );
    for (name, simulated, _) in &gains {
        assert!(*simulated >= 0.95, "{name} must not regress: {simulated}");
    }
}

#[test]
fn random_placement_is_not_a_fix() {
    // "A random distribution of the buckets … failed to provide a
    // significant improvement."
    for (name, gain) in exp::solo(exp::random_vs_round_robin) {
        assert!(
            (0.7..=1.35).contains(&gain),
            "{name}: random placement should be roughly neutral, got {gain}"
        );
    }
}

#[test]
fn continuum_center_beats_both_endpoints() {
    let points = exp::solo(exp::continuum);
    let get = |label: &str| {
        points
            .iter()
            .find(|(l, _)| l.starts_with(label))
            .map(|&(_, s)| s)
            .unwrap()
    };
    let distributed = get("distributed");
    assert!(distributed > get("replicated") * 2.0);
    assert!(distributed > get("single-master") * 2.0);
}

#[test]
fn shared_bus_comparable_at_paper_scale_but_queue_bound_beyond() {
    // §5.2: "speedups comparable to those achieved … on our shared-bus
    // implementation" for a comparable number of processors — and §6's
    // tradeoff: the centralized task queue eventually binds.
    for (name, rows) in exp::solo(exp::shared_bus) {
        let at = |p: usize| rows.iter().find(|r| r.0 == p).copied().unwrap();
        let (_, mpc16, bus16) = at(16);
        assert!(
            (0.5..=2.0).contains(&(mpc16 / bus16)),
            "{name}: at 16 procs the mappings are comparable (mpc {mpc16}, bus {bus16})"
        );
        // The bus saturates at scale: the last 33% of processors (24→32)
        // buy < 10%. (16→32 is not a robust segment — hot-bucket tasks
        // hold their claimed processor while waiting, so 16 procs can
        // still be partly processor-bound on layouts where collisions
        // cluster.)
        let (_, _, bus24) = at(24);
        let (_, _, bus32) = at(32);
        assert!(
            bus32 < bus24 * 1.10,
            "{name}: shared bus should saturate (24: {bus24}, 32: {bus32})"
        );
    }
}

#[test]
fn drain_reports_cost_most_where_tokens_cross_processors() {
    // A drain report is one more message per message a match processor
    // takes from another processor: it adds work and never removes any.
    // Tourney's cross product routes the most tokens between processors,
    // so it pays the most reports.
    let all = exp::solo(exp::termination_cost);
    let loss = |name: &str, p: usize| {
        let rows = &all.iter().find(|(n, _)| *n == name).unwrap().1;
        let &(_, omni, reports) = rows.iter().find(|r| r.0 == p).unwrap();
        1.0 - reports / omni
    };
    for (name, rows) in &all {
        for &(p, omni, reports) in rows {
            assert!(
                reports <= omni,
                "{name} at P={p}: reports {reports} beat omniscient {omni}"
            );
        }
    }
    for p in exp::PROCS.iter().copied().filter(|&p| p >= 2) {
        for other in ["Rubik", "Weaver"] {
            assert!(
                loss("Tourney", p) > loss(other, p),
                "P={p}: tourney loses {} <= {other} {}",
                loss("Tourney", p),
                loss(other, p)
            );
        }
    }
}

#[test]
fn first_generation_mpcs_were_useless_for_fine_grained_match() {
    // §1's motivation: Cosmic-Cube-era latencies/overheads destroy the
    // speedup; Nectar-era parameters preserve most of it.
    for (name, new_gen, first_gen) in exp::solo(exp::era_comparison) {
        assert!(
            new_gen > 4.0,
            "{name}: new-generation MPC should speed up well, got {new_gen}"
        );
        assert!(
            first_gen < 2.0,
            "{name}: first-generation MPC should be crippled, got {first_gen}"
        );
        assert!(new_gen > 2.0 * first_gen, "{name}: the era gap is large");
    }
}
