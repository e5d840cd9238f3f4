//! The exact gate on the deterministic simulation suite.
//!
//! Runs the `bench-report` binary and fails unless its report equals the
//! committed `baselines/BENCH_baseline.json`: rows are matched by name,
//! and every row must keep its unit, value, p50, p99 and direction. The
//! suite runs seeded schedules on a manual clock, so any difference is a
//! change in behaviour — an improvement as much as a regression. A change
//! that means to move a row regenerates the baseline in the same commit
//! and says why.

use std::path::Path;
use std::process::Command;

use flipc_bench::report::{Direction, Metric, Report, SCHEMA_VERSION};

/// Rewrites the committed baseline from this build's suite.
const REGENERATE: &str =
    "cargo run --release -p flipc-bench --bin bench-report -- --out baselines/BENCH_baseline.json";

/// Every difference between `baseline` and `current`, one line each:
/// rows that changed, rows the suite added, rows it retired. Empty when
/// the two reports are equal.
fn diff(baseline: &Report, current: &Report) -> Vec<String> {
    if baseline.schema != current.schema {
        return vec![format!(
            "schema: baseline v{}, current v{}",
            baseline.schema, current.schema
        )];
    }
    let mut out = Vec::new();
    for old in &baseline.metrics {
        match current.get(&old.name) {
            Some(new) if new == old => {}
            Some(new) => out.push(format!(
                "changed {}: {} -> {}",
                old.name,
                row(old),
                row(new)
            )),
            None => out.push(format!("retired {}: {}", old.name, row(old))),
        }
    }
    for new in &current.metrics {
        if baseline.get(&new.name).is_none() {
            out.push(format!("added {}: {}", new.name, row(new)));
        }
    }
    if out.is_empty() && baseline.metrics.len() != current.metrics.len() {
        out.push("a row name appears twice".into());
    }
    out
}

fn row(m: &Metric) -> String {
    format!(
        "{} {} (p50 {:?}, p99 {:?}, {})",
        m.value,
        m.unit,
        m.p50,
        m.p99,
        m.direction.as_str()
    )
}

fn load(path: &Path) -> Report {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Report::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn suite_equals_the_committed_baseline() {
    let out = std::env::temp_dir().join(format!("flipc_bench_{}.json", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run bench-report");
    assert!(
        run.status.success(),
        "bench-report failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let current = load(&out);
    let _ = std::fs::remove_file(&out);
    let baseline =
        load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_baseline.json"));
    let diffs = diff(&baseline, &current);
    assert!(
        diffs.is_empty(),
        "bench-report differs from baselines/BENCH_baseline.json:\n  {}\n\
         If the change is intended, regenerate the baseline and say why in CHANGES.md:\n  {REGENERATE}",
        diffs.join("\n  ")
    );
}

fn sample_report() -> Report {
    Report::new(vec![
        Metric {
            name: "loss10_delivery_ratio".into(),
            unit: "ratio".into(),
            value: 1.0,
            p50: None,
            p99: None,
            direction: Direction::HigherIsBetter,
        },
        Metric {
            name: "tiered_high_class_p99_us".into(),
            unit: "us".into(),
            value: 115.03,
            p50: Some(24.0),
            p99: Some(115.03),
            direction: Direction::LowerIsBetter,
        },
    ])
}

#[test]
fn written_report_reads_back_identical() {
    let report = sample_report();
    let path = std::env::temp_dir().join(format!("flipc_bench_rt_{}.json", std::process::id()));
    std::fs::write(&path, report.render_json()).unwrap();
    let back = load(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(back, report);
    assert_eq!(back.schema, SCHEMA_VERSION);
    assert!(diff(&report, &back).is_empty());
}

#[test]
fn collapsed_delivery_ratio_is_a_regression_too() {
    let baseline = sample_report();
    let mut broken = sample_report();
    broken.metrics[0].value = 0.25;
    let diffs = diff(&baseline, &broken);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].starts_with("changed loss10_delivery_ratio: 1 ratio"));
}

#[test]
fn improvements_and_membership_changes_fail_the_gate() {
    let baseline = sample_report();
    let mut current = sample_report();
    // A lower p99 is better, and still a difference; so is a p50 alone.
    current.metrics[1].value = 100.0;
    current.metrics[1].p99 = Some(100.0);
    let diffs = diff(&baseline, &current);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].starts_with("changed tiered_high_class_p99_us"));
    current = sample_report();
    current.metrics[1].p50 = Some(23.0);
    assert_eq!(diff(&baseline, &current).len(), 1);

    current = sample_report();
    current.metrics[0].name = "loss20_delivery_ratio".into();
    let diffs = diff(&baseline, &current);
    assert_eq!(diffs.len(), 2, "{diffs:?}");
    assert!(diffs[0].starts_with("retired loss10_delivery_ratio"));
    assert!(diffs[1].starts_with("added loss20_delivery_ratio"));

    current = sample_report();
    current.metrics.push(current.metrics[0].clone());
    assert_eq!(diff(&baseline, &current), ["a row name appears twice"]);
}

#[test]
fn schema_skew_refuses_to_compare() {
    let baseline = sample_report();
    let mut future = sample_report();
    future.schema += 1;
    let diffs = diff(&baseline, &future);
    assert_eq!(diffs.len(), 1);
    assert!(diffs[0].starts_with("schema:"));
}
