//! `compare A.json B.json`: how two sets of runs are read against each
//! other — the two-set acceptance check of the benchmark itself, and the
//! way a later change reads its result against its parent's.

use crate::harness::iqr_share;
use crate::metrics::def_of;
use crate::suite::end_to_end_rows;
use mpps_telemetry::json::{self, Value};
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The rounds' interquartile spread exceeds the bound: the metric
    /// cannot tell a change of that size from noise.
    Unresolved,
}

/// Judge B against A. `a` and `b` are the runs' headline values,
/// `*_rounds` the per-round values behind them.
pub fn verdict(
    higher_is_better: bool,
    bound: f64,
    (a, a_rounds): (f64, &[f64]),
    (b, b_rounds): (f64, &[f64]),
) -> Verdict {
    let better_by = if higher_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if iqr_share(a_rounds).max(iqr_share(b_rounds)) > bound {
        // Still a result if every round of B beats every round of A.
        let all_better = !a_rounds.is_empty()
            && a_rounds.iter().all(|&x| {
                b_rounds
                    .iter()
                    .all(|&y| if higher_is_better { y > x } else { y < x })
            });
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if better_by < -bound {
        Verdict::Worse
    } else if better_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let stamp = |doc: &Value| {
        format!(
            "commit {} seed {}",
            doc.get("commit").and_then(Value::as_str).unwrap_or("?"),
            doc.get("seed").and_then(Value::as_u64).unwrap_or(0)
        )
    };
    println!("A = {} ({})", a_path.display(), stamp(&a));
    println!("B = {} ({})", b_path.display(), stamp(&b));
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    let b_rows = end_to_end_rows(&b);
    let mut worse = 0;
    for (workload, metric, a_value, a_rounds) in end_to_end_rows(&a) {
        let Some((_, _, b_value, b_rounds)) =
            b_rows.iter().find(|r| r.0 == workload && r.1 == metric)
        else {
            println!("{workload:<14} {metric:<12} missing from B");
            worse += 1;
            continue;
        };
        let def = def_of(metric).expect("end-to-end rows are declared metrics");
        let v = verdict(
            def.higher_is_better,
            def.bound,
            (a_value, &a_rounds),
            (*b_value, b_rounds),
        );
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{workload:<14} {metric:<12} {a_value:>14.4} {b_value:>14.4} {:>14.4} {:>6.0}%  {}",
            b_value / a_value,
            def.bound * 100.0,
            format!("{v:?}").to_lowercase()
        );
    }
    if worse > 0 {
        println!("{worse} metric(s) worse than the bound allows");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let shifted = |k: f64| STEADY.map(|x| x * k);
        let judge =
            |higher, b: &[f64; 5]| verdict(higher, 0.10, (100.0, &STEADY), (b[2] / 0.99, b));
        assert_eq!(judge(true, &shifted(1.05)), Verdict::Same);
        assert_eq!(judge(true, &shifted(0.8)), Verdict::Worse);
        assert_eq!(judge(true, &shifted(1.3)), Verdict::Better);
        assert_eq!(judge(false, &shifted(1.3)), Verdict::Worse);
        assert_eq!(judge(false, &shifted(0.8)), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_round_wins() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(
                true,
                0.10,
                (100.0, &noisy),
                (104.0, &STEADY.map(|x| x * 1.04))
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                true,
                0.10,
                (100.0, &noisy),
                (200.0, &STEADY.map(|x| x * 2.0))
            ),
            Verdict::Better
        );
    }
}
