//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [FIGURE|all] [--figures a,b,c] [--jobs N]
//!       [--telemetry-out DIR] [--check-telemetry DIR]
//! ```
//!
//! `repro --help` lists the figures ([`FIGURES`] is their one
//! declaration); no argument, or `all`, prints every one in paper order.
//!
//! All selected figures contribute their simulation points to **one**
//! [`SweepPlan`]; shared points (same trace, mapping, and partition) are
//! simulated once, and the plan executes on `--jobs` worker threads
//! (default: available parallelism). Results are keyed by point id, so
//! stdout is byte-identical for every `--jobs` value; stderr notes the
//! plan's size and wall-clock.
//!
//! `--telemetry-out DIR` runs the sweep with wall-time telemetry and
//! writes `trace.json` (Chrome `trace_event`, one lane per worker —
//! open at <https://ui.perfetto.dev>), `events.jsonl`, and
//! `summary.json` into DIR. `--check-telemetry DIR` validates such a
//! directory — or one written by `mpps run --profile DIR`
//! (`match_profile.json`, plus the threaded `trace.json`) —
//! structurally and exits; CI uses it as the schema check.

use std::time::Instant;

use mpps_bench::experiments::{self as exp, Sections};
use mpps_bench::report::{find_dips, render_series, render_table};
use mpps_bench::telemetry as tel;
use mpps_core::sweep::{SpeedupPoint, SweepPlan, SweepResults};
use mpps_telemetry::TraceRecorder;

/// A figure's second half: print it from the executed plan.
type Print<'t> = Box<dyn FnOnce(&SweepResults) + 't>;

/// A figure's first half: register its points on the shared plan (the
/// figures that simulate nothing register none) and return the printer.
type Figure = for<'t> fn(&'t Sections, &mut SweepPlan<'t>) -> Print<'t>;

/// Every figure — name, one-line description, plan-and-print function —
/// in canonical (paper) order, which is also the output order.
const FIGURES: &[(&str, &str, Figure)] = &[
    ("fig5-1", "speedups, zero overhead", fig5_1),
    ("table5-1", "overhead settings", table5_1),
    ("fig5-2", "speedups per overhead row, loss summary", fig5_2),
    ("table5-2", "activation mixes", table5_2),
    ("fig5-3", "unsharing, illustrated on a toy network", fig5_3),
    ("fig5-4", "Weaver with/without unsharing", fig5_4),
    ("fig5-5", "left tokens per processor, Rubik", fig5_5),
    ("fig5-6", "Tourney with/without copy-and-constraint", fig5_6),
    ("network-idle", "§5.1 interconnect idle time", network_idle),
    ("greedy", "§5.2.2 offline-greedy improvement", greedy),
    ("probmodel", "§5.2.2 probabilistic model", probmodel),
    ("continuum", "§6 mapping continuum endpoints", continuum),
    ("shared-bus", "§5.2 MPC vs shared-bus mapping", shared_bus),
    (
        "termination-cost",
        "cost of drain-report termination detection",
        termination_cost,
    ),
    ("era", "§1 motivation: first- vs new-generation MPCs", era),
];

fn curve_points(curve: &[SpeedupPoint]) -> Vec<(f64, f64)> {
    curve
        .iter()
        .map(|p| (p.processors as f64, p.speedup))
        .collect()
}

fn fig5_1<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let data = exp::fig5_1(s, plan);
    Box::new(move |r| {
        let curves = data(r);
        let series: Vec<(&str, Vec<(f64, f64)>)> = curves
            .iter()
            .map(|(name, c)| (*name, curve_points(c)))
            .collect();
        println!(
            "{}",
            render_series(
                "Figure 5-1: speedups with zero message-passing overheads",
                "P",
                &series,
                40,
            )
        );
        // The paper's "interesting dips": report any decrease with more
        // processors.
        for (name, curve) in &curves {
            let pts: Vec<(usize, f64)> = curve.iter().map(|p| (p.processors, p.speedup)).collect();
            for d in find_dips(&pts, 0.01) {
                println!(
                    "dip ({name}): {} -> {} processors, speedup {:.2} -> {:.2}                  (uneven active-bucket distribution)",
                    d.from_procs, d.to_procs, d.before, d.after
                );
            }
        }
        println!();
    })
}

fn table5_1<'t>(_: &'t Sections, _: &mut SweepPlan<'t>) -> Print<'t> {
    Box::new(|_| {
        println!(
            "{}",
            render_table(
                "Table 5-1: message-processing overhead settings",
                &["Run", "Send", "Receive", "Total"],
                &exp::table5_1(),
            )
        );
    })
}

fn fig5_2<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let curves = exp::fig5_2(s, plan);
    let losses = exp::fig5_2_losses(s, plan);
    Box::new(move |r| {
        for (name, sweeps) in curves(r) {
            let series: Vec<(String, Vec<(f64, f64)>)> = sweeps
                .iter()
                .map(|(o, c)| (format!("{}:{}", name, o.name), curve_points(c)))
                .collect();
            let series_ref: Vec<(&str, Vec<(f64, f64)>)> = series
                .iter()
                .map(|(n, pts)| (n.as_str(), pts.clone()))
                .collect();
            println!(
                "{}",
                render_series(
                    &format!("Figure 5-2 ({name}): speedups under varying overheads"),
                    "P",
                    &series_ref,
                    40,
                )
            );
        }
        let rows: Vec<Vec<String>> = losses(r)
            .iter()
            .map(|&(name, loss, left_frac)| {
                vec![
                    name.to_owned(),
                    format!("{:.0}%", loss * 100.0),
                    format!("{:.0}%", left_frac * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                "Peak-speedup loss at 32us overhead (paper: Rubik 30%, Tourney 45%, Weaver 50%)",
                &["Section", "Speedup loss", "Left-activation share"],
                &rows,
            )
        );
    })
}

fn table5_2<'t>(s: &'t Sections, _: &mut SweepPlan<'t>) -> Print<'t> {
    Box::new(move |_| {
        println!(
            "{}",
            render_table(
                "Table 5-2: tokens in the sections of the three programs",
                &["Program", "Left activations", "Right activations", "Total"],
                &exp::table5_2(s),
            )
        );
    })
}

fn fig5_3<'t>(_: &'t Sections, _: &mut SweepPlan<'t>) -> Print<'t> {
    use mpps_ops::parse_program;
    use mpps_rete::{transform::unshare, ReteNetwork};
    Box::new(|_| {
        let src = r#"
        (p o1 (i1 ^k <k>) (i2 ^k <k>) (i3 ^tag a) --> (remove 1))
        (p o2 (i1 ^k <k>) (i2 ^k <k>) (i3 ^tag b) --> (remove 1))
    "#;
        let program = parse_program(src).unwrap();
        let shared = ReteNetwork::compile(&program).unwrap();
        let unshared = unshare(&program).unwrap();
        println!("Figure 5-3: unsharing the Rete network (illustrative)\n");
        println!("productions O1, O2 share the join of conditions I1 and I2\n");
        let s = shared.stats();
        let u = unshared.stats();
        println!(
            "  shared   network: {} two-input nodes ({} with multiple outputs)",
            s.two_input, s.shared_two_input
        );
        println!(
            "  unshared network: {} two-input nodes ({} with multiple outputs)",
            u.two_input, u.shared_two_input
        );
        println!("\nafter unsharing, O1 and O2 generate their outputs independently\n");
    })
}

/// Print a before/after transform figure (two curves, zero overheads).
fn transform_pair<'t>(
    data: impl FnOnce(&SweepResults) -> (Vec<SpeedupPoint>, Vec<SpeedupPoint>) + 't,
    title: &'static str,
    (before, after): (&'static str, &'static str),
) -> Print<'t> {
    Box::new(move |r| {
        let (b, a) = data(r);
        let series = [(before, curve_points(&b)), (after, curve_points(&a))];
        println!("{}", render_series(title, "P", &series, 40));
    })
}

fn fig5_4<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    transform_pair(
        exp::fig5_4(s, plan),
        "Figure 5-4: Weaver speedups with unsharing (zero overheads)",
        ("shared", "unshared"),
    )
}

fn fig5_5<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let data = exp::fig5_5(s, plan);
    Box::new(move |r| {
        for (c, loads) in data(r).iter().enumerate() {
            let series: Vec<(f64, f64)> = loads
                .iter()
                .enumerate()
                .map(|(p, &l)| (p as f64, l as f64))
                .collect();
            println!(
                "{}",
                render_series(
                    &format!("Figure 5-5 (cycle {c}): left tokens per processor, Rubik, 16 procs"),
                    "proc",
                    &[("tokens", series)],
                    40,
                )
            );
        }
    })
}

fn fig5_6<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    transform_pair(
        exp::fig5_6(s, plan),
        "Figure 5-6: Tourney speedups with copy-and-constraint (zero overheads)",
        ("original", "copy+constrain"),
    )
}

fn network_idle<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let data = exp::network_idle(s, plan);
    Box::new(move |r| {
        let rows: Vec<Vec<String>> = data(r)
            .iter()
            .map(|&(name, idle)| vec![name.to_owned(), format!("{:.1}%", idle * 100.0)])
            .collect();
        println!(
            "{}",
            render_table(
                "Interconnect idle time at 16 processors, 8us overheads (paper: 97-98%)",
                &["Section", "Network idle"],
                &rows,
            )
        );
    })
}

fn greedy<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let gains = exp::greedy_gains(s, plan);
    let random = exp::random_vs_round_robin(s, plan);
    Box::new(move |r| {
        let rows: Vec<Vec<String>> = gains(r)
            .iter()
            .map(|&(name, simulated, bound)| {
                vec![
                    name.to_owned(),
                    format!("x{simulated:.2}"),
                    format!("x{bound:.2}"),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                "Offline greedy bucket distribution vs round-robin, 16 procs (paper: x1.4)",
                &["Section", "Simulated speedup gain", "Load-balance bound"],
                &rows,
            )
        );
        let rows: Vec<Vec<String>> = random(r)
            .iter()
            .map(|&(name, gain)| vec![name.to_owned(), format!("x{gain:.2}")])
            .collect();
        println!(
            "{}",
            render_table(
                "Random placement vs round-robin (paper: no significant improvement)",
                &["Section", "Gain from random placement"],
                &rows,
            )
        );
    })
}

fn probmodel<'t>(_: &'t Sections, _: &mut SweepPlan<'t>) -> Print<'t> {
    use mpps_bench::probmodel::{estimate_max_load, prob_perfectly_even, prob_totally_uneven};
    Box::new(|_| {
        println!("Probabilistic model of active-bucket distribution (section 5.2.2)\n");
        let (a, p) = (128u64, 16u64);
        println!(
            "  {a} active buckets on {p} processors: P(perfectly even) = {:.2e}, \
             P(totally uneven) = {:.2e}  (both < 1%)",
            prob_perfectly_even(a, p),
            prob_totally_uneven(a, p)
        );
        println!("\n  relative imbalance E[max]/ideal at 8 processors:");
        for active in [16u64, 64, 256, 1024] {
            let est = estimate_max_load(active, 8, 0, 2000, 7);
            println!(
                "    {active:>5} active buckets: {:.2}",
                est.mean_max_load / est.ideal as f64
            );
        }
        println!("\n  P(near-linear speedup) with 64 active buckets (slack 1):");
        for procs in [2usize, 4, 8, 16, 32] {
            let est = estimate_max_load(64, procs, 1, 2000, 11);
            println!("    {procs:>3} processors: {:.2}", est.prob_near_linear);
        }
        println!();
    })
}

fn continuum<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let data = exp::continuum(s, plan);
    Box::new(move |r| {
        let rows: Vec<Vec<String>> = data(r)
            .iter()
            .map(|(label, speedup)| vec![label.clone(), format!("{speedup:.2}x")])
            .collect();
        println!(
            "{}",
            render_table(
                "Section 6 continuum (Rubik, 16 procs, 8us overheads): match speedup vs serial",
                &["Mapping", "Speedup"],
                &rows,
            )
        );
    })
}

fn shared_bus<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let data = exp::shared_bus(s, plan);
    Box::new(move |r| {
        for (name, rows) in data(r) {
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|&(p, mpc, bus)| {
                    vec![format!("{p}"), format!("{mpc:.2}"), format!("{bus:.2}")]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    &format!(
                        "Section 5.2 comparison ({name}): distributed MPC vs shared-bus mapping"
                    ),
                    &["P", "MPC speedup", "Shared-bus speedup"],
                    &table,
                )
            );
        }
    })
}

fn termination_cost<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let data = exp::termination_cost(s, plan);
    Box::new(move |r| {
        for (name, rows) in data(r) {
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|&(p, omniscient, reports)| {
                    vec![
                        format!("{p}"),
                        format!("{omniscient:.2}"),
                        format!("{reports:.2}"),
                        format!("{:.0}%", (1.0 - reports / omniscient) * 100.0),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    &format!(
                        "Termination detection cost ({name}): omniscient vs drain reports, 8us overheads"
                    ),
                    &["P", "Omniscient", "Drain reports", "Loss"],
                    &table,
                )
            );
        }
    })
}

fn era<'t>(s: &'t Sections, plan: &mut SweepPlan<'t>) -> Print<'t> {
    let data = exp::era_comparison(s, plan);
    Box::new(move |r| {
        let rows: Vec<Vec<String>> = data(r)
            .iter()
            .map(|&(name, new_gen, old)| {
                vec![
                    name.to_owned(),
                    format!("{new_gen:.2}x"),
                    format!("{old:.2}x"),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                "Section 1 motivation: new-generation vs first-generation MPC, 16 procs",
                &[
                    "Section",
                    "Nectar-era (8us, 0.5us)",
                    "Cosmic-Cube-era (300us, 500us/hop)"
                ],
                &rows,
            )
        );
    })
}

struct Args {
    /// Indices into [`FIGURES`], ascending, once each.
    figures: Vec<usize>,
    jobs: usize,
    telemetry_out: Option<String>,
    check_telemetry: Option<String>,
}

/// Print the usage text — to stdout for `--help` (exit 0), to stderr with
/// `error` first for a caller mistake (exit 2).
fn usage(error: Option<String>) -> ! {
    let mut text = String::from(
        "usage: repro [FIGURE|all] [--figures a,b,c] [--jobs N]\n\
         \x20            [--telemetry-out DIR] [--check-telemetry DIR]\n\
         figures (default: all, in this order):\n",
    );
    for (name, what, _) in FIGURES {
        text.push_str(&format!("  {name:<17} {what}\n"));
    }
    match error {
        None => {
            print!("{text}");
            std::process::exit(0)
        }
        Some(error) => {
            eprint!("repro: {error}\n{text}");
            std::process::exit(2)
        }
    }
}

fn parse_args() -> Args {
    let mut selected = vec![false; FIGURES.len()];
    let mut select = |name: &str| match FIGURES.iter().position(|(f, ..)| *f == name) {
        Some(i) => selected[i] = true,
        None if name == "all" => selected.fill(true),
        None => usage(Some(format!("unknown figure {name:?}"))),
    };
    let mut jobs: Option<usize> = None;
    let mut telemetry_out: Option<String> = None;
    let mut check_telemetry: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage(Some(format!("{arg} requires a value"))))
        };
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = value();
                let parsed = v.parse();
                jobs = Some(
                    parsed.unwrap_or_else(|_| usage(Some(format!("--jobs: not a number: {v:?}")))),
                );
            }
            "--figures" => value()
                .split(',')
                .filter(|s| !s.is_empty())
                .for_each(&mut select),
            "--telemetry-out" => telemetry_out = Some(value()),
            "--check-telemetry" => check_telemetry = Some(value()),
            "--help" | "-h" => usage(None),
            name if !name.starts_with('-') => select(name),
            _ => usage(Some(format!("unknown flag {arg:?}"))),
        }
    }
    if !selected.contains(&true) {
        selected.fill(true);
    }
    let jobs = jobs.unwrap_or_else(mpps_telemetry::available_cpus);
    Args {
        // Canonical order, once each — output must not depend on request
        // order.
        figures: (0..FIGURES.len()).filter(|&i| selected[i]).collect(),
        jobs,
        telemetry_out,
        check_telemetry,
    }
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.check_telemetry {
        match tel::check_dir(std::path::Path::new(dir)) {
            Ok(report) => {
                eprintln!("repro: {dir}: {report}");
                return;
            }
            Err(e) => {
                eprintln!("repro: {dir}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Phase 1: one shared plan across every selected figure. Identical
    // points registered by different figures are simulated once.
    let sections = Sections::generate();
    let mut plan = SweepPlan::new();
    let printers: Vec<Print> = args
        .figures
        .iter()
        .map(|&i| FIGURES[i].2(&sections, &mut plan))
        .collect();

    // Phase 2: execute every point (plus one baseline per trace) on the
    // worker pool — with wall-time telemetry when requested.
    let mut recorder = args.telemetry_out.as_ref().map(|_| TraceRecorder::new());
    let run_start = Instant::now();
    let results = match recorder.as_mut() {
        Some(rec) => plan.run_traced(args.jobs, rec),
        None => plan.run(args.jobs),
    };
    eprintln!(
        "repro: {} points ({} traces, {} dedup hits) in {:.1} ms on {} jobs",
        plan.point_count(),
        plan.trace_count(),
        plan.dedup_hits(),
        run_start.elapsed().as_secs_f64() * 1e3,
        args.jobs
    );
    if let (Some(dir), Some(rec)) = (&args.telemetry_out, &recorder) {
        match tel::write_dir(std::path::Path::new(dir), rec) {
            Ok(written) => eprintln!(
                "repro: telemetry ({} files) written to {dir}",
                written.len()
            ),
            Err(e) => {
                eprintln!("repro: cannot write telemetry to {dir}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Phase 3: print in canonical order — byte-identical for any --jobs.
    let separators = printers.len() > 1;
    for print in printers {
        if separators {
            println!("==================================================================");
        }
        print(&results);
    }
}
