//! End-to-end pipeline: run a real ruleset, capture its hash-table
//! activity trace, and sweep it on the simulated message-passing computer
//! — exactly what the paper did with its Rubik/Tourney/Weaver traces.
//!
//! ```sh
//! cargo run --release --example trace_simulation
//! ```

use mpps::core::sweep::{baseline, speedup_curve, PartitionStrategy};
use mpps::core::OverheadSetting;
use mpps::workloads::rubik;
use mpps_bench::report::render_table;

fn main() {
    // 1. Run eight cube moves under the MRA interpreter, recording the
    //    Rete activation trace (table of 512 hash buckets).
    let run = rubik::section(8, 512);
    let stats = run.trace.stats();
    println!(
        "captured {} cycles, {} activations ({})",
        run.trace.cycles.len(),
        stats.total(),
        stats
    );

    // 2. The trace round-trips through the simulator input format.
    let text = run.trace.to_text();
    let trace = mpps::rete::Trace::from_text(&text).expect("trace parses back");
    println!(
        "trace serialized to {} lines of simulator input",
        text.lines().count()
    );

    // 3. Sweep processors × overhead settings on the simulated MPC.
    let procs = [1usize, 2, 4, 8, 16, 32];
    let base = baseline(&trace);
    println!(
        "serial match time (1 processor, zero overheads): {}",
        base.total
    );
    let mut rows = Vec::new();
    for overhead in OverheadSetting::table_5_1() {
        let curve = speedup_curve(&trace, &procs, overhead, PartitionStrategy::RoundRobin);
        rows.push(
            std::iter::once(overhead.name.to_owned())
                .chain(curve.iter().map(|p| format!("{:.2}", p.speedup)))
                .collect::<Vec<String>>(),
        );
    }
    let headers: Vec<String> = std::iter::once("overhead".to_owned())
        .chain(procs.iter().map(|p| format!("P={p}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!(
        "\n{}",
        render_table(
            "Simulated speedups for the captured cube trace",
            &header_refs,
            &rows,
        )
    );
}
