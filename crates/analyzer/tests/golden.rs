//! Golden test: the analyzer must detect one seeded violation per rule
//! family in `tests/fixtures/` (two for `hot-path`: an allocation and an
//! atomic RMW) and emit byte-identical JSON.

use std::path::Path;

use flipc_analyzer::config::{Allowlist, Config};

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_fixture() -> flipc_analyzer::report::Report {
    let root = fixture_root();
    let cfg = Config::load(&root.join("analyzer.toml")).expect("fixture config parses");
    let allow =
        Allowlist::load(&root.join("analyzer-allowlist.toml")).expect("fixture allowlist parses");
    flipc_analyzer::analyze(&root, &cfg, &allow).expect("fixture scan succeeds")
}

#[test]
fn detects_one_violation_per_rule_family() {
    let report = run_fixture();
    let find = |rule: &str| -> Vec<(&str, u32)> {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule && !f.allowlisted)
            .map(|f| (f.path.as_str(), f.line))
            .collect()
    };
    assert_eq!(find("atomics-facade"), vec![("src/facade.rs", 4)]);
    assert_eq!(find("memory-ordering"), vec![("src/handshake.rs", 11)]);
    assert_eq!(find("hot-path"), vec![("src/hot.rs", 6), ("src/hot.rs", 8)]);
    let rmw: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.message.starts_with("hot path rmw"))
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(rmw, vec!["hot path rmw `.fetch_add()` at src/hot.rs:8"]);
    assert_eq!(find("single-writer"), vec![("src/writer.rs", 8)]);
    // The justified Relaxed and the correct-role store must NOT appear.
    assert!(!report
        .findings
        .iter()
        .any(|f| f.line == 9 && f.path == "src/handshake.rs"));
    assert!(!report
        .findings
        .iter()
        .any(|f| f.line == 12 && f.path == "src/writer.rs"));
    // The allowlisted finding is present but marked.
    let allowed: Vec<_> = report.findings.iter().filter(|f| f.allowlisted).collect();
    assert_eq!(allowed.len(), 1);
    assert_eq!(allowed[0].symbol, "Pump::flush");
    assert!(report.stale_allows.is_empty());
    assert!(!report.clean(), "fixture must gate red");
}

#[test]
fn json_report_matches_golden() {
    let report = run_fixture();
    let mut actual = report.to_json().render_pretty();
    actual.push('\n');
    let golden_path = fixture_root().join("golden_report.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden report exists");
    if actual != golden {
        let actual_path = fixture_root().join("golden_report.actual.json");
        std::fs::write(&actual_path, &actual).expect("write actual");
        panic!(
            "analyzer JSON diverged from the golden report.\n  golden: {}\n  actual: {}\n\
             If the change is intentional (schema bump or rule change), review the \
             diff and replace the golden file.",
            golden_path.display(),
            actual_path.display()
        );
    }
}
