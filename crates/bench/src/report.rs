//! Plain-text rendering of tables and figures for the `repro` harness,
//! and the one reading of a speedup curve it reports: its dips.
//!
//! §5.1: *"Interestingly, there are dips in the speedup graphs showing a
//! decrease in the speedup with an increase in the number of processors
//! employed. This shows that the partitioning of the hash-tables could
//! result in an uneven distribution of the processing load."*
//! [`find_dips`] locates those non-monotonic stretches.

use std::fmt::Write;

/// Render an aligned ASCII table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match headers");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    writeln!(out, "{}", fmt_row(&header_cells)).unwrap();
    writeln!(out, "{sep}").unwrap();
    for row in rows {
        writeln!(out, "{}", fmt_row(row)).unwrap();
    }
    out
}

/// Render one or more named series as an ASCII chart: x = first column,
/// one bar row per x value per series. Good enough to eyeball the shape
/// of a speedup curve in a terminal.
pub fn render_series(
    title: &str,
    x_label: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    max_width: usize,
) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    let y_max = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(_, y)| y))
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let name_w = series.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, pts) in series {
        for &(x, y) in pts {
            let bar_len = ((y / y_max) * max_width as f64).round() as usize;
            writeln!(
                out,
                "{name:<name_w$} {x_label}={x:<6} {y:>8.2} |{}",
                "#".repeat(bar_len)
            )
            .unwrap();
        }
    }
    out
}

/// One detected dip: speedup fell between two consecutive swept processor
/// counts.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Dip {
    /// Processor count before the dip.
    pub from_procs: usize,
    /// Processor count at the dip.
    pub to_procs: usize,
    /// Speedup before.
    pub before: f64,
    /// Speedup after (lower).
    pub after: f64,
}

impl Dip {
    /// Relative depth of the dip (0.05 = lost 5% of the prior speedup).
    pub fn depth(&self) -> f64 {
        if self.before <= 0.0 {
            0.0
        } else {
            1.0 - self.after / self.before
        }
    }
}

/// Find all dips in a `(processors, speedup)` curve. `tolerance` ignores
/// noise: only drops deeper than that relative fraction are reported.
pub fn find_dips(curve: &[(usize, f64)], tolerance: f64) -> Vec<Dip> {
    let mut out = Vec::new();
    for w in curve.windows(2) {
        let (p0, s0) = w[0];
        let (p1, s1) = w[1];
        if p1 > p0 && s0 > 0.0 && (1.0 - s1 / s0) > tolerance {
            out.push(Dip {
                from_procs: p0,
                to_procs: p1,
                before: s0,
                after: s1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            "Table X",
            &["program", "left", "right"],
            &[
                vec!["Rubik".into(), "2388".into(), "6114".into()],
                vec!["Tourney".into(), "10667".into(), "83".into()],
            ],
        );
        assert!(t.contains("Table X"));
        let lines: Vec<&str> = t.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
        assert!(lines[2].chars().all(|c| c == '-' || c == '+'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        render_table("t", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn series_bars_scale_to_max() {
        let s = render_series(
            "Speedups",
            "P",
            &[("rubik", vec![(1.0, 1.0), (8.0, 8.0)])],
            10,
        );
        assert!(s.contains("|##########"), "{s}");
        assert!(s.contains("|#\n") || s.contains("|# "), "{s}");
    }

    #[test]
    fn detects_single_dip() {
        let curve = vec![(1, 1.0), (2, 1.9), (4, 3.0), (8, 2.5), (16, 4.0)];
        let dips = find_dips(&curve, 0.01);
        assert_eq!(dips.len(), 1);
        assert_eq!(dips[0].from_procs, 4);
        assert_eq!(dips[0].to_procs, 8);
        assert!((dips[0].depth() - (1.0 - 2.5 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn tolerance_filters_noise() {
        let curve = vec![(1, 1.0), (2, 1.99), (4, 1.98)];
        assert!(find_dips(&curve, 0.02).is_empty());
        assert_eq!(find_dips(&curve, 0.0001).len(), 1);
    }

    #[test]
    fn monotone_curve_has_no_dips() {
        let curve = vec![(1, 1.0), (2, 2.0), (4, 3.5)];
        assert!(find_dips(&curve, 0.0).is_empty());
    }

    #[test]
    fn empty_curve_has_no_dips() {
        assert!(find_dips(&[], 0.0).is_empty());
    }
}
