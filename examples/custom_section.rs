//! Build your own characteristic section with the parametric generator,
//! then study it the way §5 studies Rubik/Tourney/Weaver: sweep
//! processors, detect speedup dips, and bound the gain a better bucket
//! distribution could deliver.
//!
//! ```sh
//! cargo run --release --example custom_section
//! ```

use mpps::core::sweep::{speedup_curve, PartitionStrategy};
use mpps::core::{OverheadSetting, Partition};
use mpps::workloads::synth::{custom, SectionParams};
use mpps_bench::experiments::greedy_improvement_bound;
use mpps_bench::report::find_dips;

fn main() {
    // A section with a §5.2.1-style hot generator and a restricted
    // active-bucket set — both pathologies at once.
    let params = SectionParams {
        cycles: 5,
        rights_per_cycle: 400,
        lefts_per_cycle: 300,
        active_left_buckets: 12,
        chain_probability: 0.4,
        instantiation_every: 25,
        hot_generator_fanout: 60,
    };
    let trace = custom(params, 7);
    let stats = trace.stats();
    println!("section: {} cycles, {stats}", trace.cycles.len());

    let procs = [1usize, 2, 4, 8, 12, 16, 24, 32];
    let curve = speedup_curve(
        &trace,
        &procs,
        OverheadSetting::table_5_1()[1],
        PartitionStrategy::RoundRobin,
    );
    let points: Vec<(usize, f64)> = curve.iter().map(|p| (p.processors, p.speedup)).collect();
    // The envelope is the running maximum: what a per-P-tuned bucket
    // distribution would trace.
    println!("\nP      speedup   envelope");
    let mut envelope = 0.0_f64;
    for &(procs, speedup) in &points {
        envelope = envelope.max(speedup);
        println!("{procs:<6} {speedup:<9.2} {envelope:.2}");
    }

    let dips = find_dips(&points, 0.01);
    if dips.is_empty() {
        println!("\nno speedup dips detected");
    } else {
        for d in dips {
            println!(
                "\ndip: {} -> {} processors lost {:.0}% speedup ({:.2} -> {:.2}) — \
                 the paper's uneven-bucket effect",
                d.from_procs,
                d.to_procs,
                d.depth() * 100.0,
                d.before,
                d.after
            );
        }
    }

    let rr = Partition::round_robin(trace.table_size, 16);
    println!(
        "\noffline-greedy load-balance bound at 16 procs: x{:.2}",
        greedy_improvement_bound(&trace, &rr)
    );
}
