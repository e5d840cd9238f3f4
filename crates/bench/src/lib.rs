//! Benchmark support: report formatting for the paper-table harnesses.
//!
//! Every table and figure in the paper has a bench target in this crate's
//! `benches/` directory (`cargo bench -p flipc-bench --bench <name>`), each
//! printing the regenerated rows next to the paper's reported values. The
//! formatting helpers here keep those reports uniform. [`report`] is the
//! `BENCH.json` schema of the `bench-report` binary, the deterministic
//! simulation suite that the crate's `baseline` test holds to exact
//! equality with `baselines/BENCH_baseline.json`. Wall-clock measurement
//! of the message path lives in `perfbench/`.

use std::fmt::Write as _;

pub mod report;

/// Prints a titled, column-aligned table to stdout.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n=== {title} ===");
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    print!("{out}");
}

/// Formats a microsecond value for report cells.
pub fn us(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio (e.g. measured/paper) for report cells.
pub fn ratio(measured: f64, paper: f64) -> String {
    format!("{:.2}x", measured / paper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(16.234), "16.23");
        assert_eq!(ratio(32.4, 16.2), "2.00x");
    }

    #[test]
    fn print_table_accepts_aligned_rows() {
        print_table(
            "demo",
            &["system", "us"],
            &[
                vec!["FLIPC".into(), "16.2".into()],
                vec!["NX".into(), "46.0".into()],
            ],
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn print_table_rejects_ragged_rows() {
        print_table("bad", &["a", "b"], &[vec!["only-one".into()]]);
    }
}
