//! The committed `BENCH.json` against a freshly compiled snapshot and
//! against the `BENCH_pr10.json` history it continues.

use qccd_bench::check::check_snapshot;
use qccd_bench::diff::{diff_snapshots, DiffClass};
use qccd_bench::json::{parse, strip_keys, Json};
use qccd_bench::profile::paper_snapshot;
use qccd_machine::MachineSpec;
use qccd_sim::SimParams;

fn committed() -> Json {
    parse(include_str!("../../../BENCH.json")).expect("BENCH.json parses")
}

/// `paper_eval snapshot`'s document passes `paper_eval check` — every
/// live flag true — and moves no quality metric of the committed
/// snapshot (regenerate `BENCH.json` when a change improves one).
#[test]
fn fresh_snapshot_passes_check_and_matches_the_committed_one() {
    let fresh = paper_snapshot(&MachineSpec::paper_l6(), &SimParams::default());
    assert_eq!(check_snapshot(&fresh), Vec::<String>::new());
    let fresh = parse(&fresh.to_string()).expect("the rendered snapshot parses");
    let report = diff_snapshots(&committed(), &fresh, 0.0);
    let moved: Vec<&str> = report
        .metrics
        .iter()
        .filter(|m| matches!(m.class, DiffClass::Regression | DiffClass::Improvement))
        .map(|m| m.path.as_str())
        .collect();
    assert!(moved.is_empty(), "quality metrics moved: {moved:?}");
    assert!(
        report.strings_changed.is_empty(),
        "{:?}",
        report.strings_changed
    );
}

/// Outside its wall-clock keys and the instrumentation, explanation,
/// fidelity and jobs subtrees, `BENCH.json` carries every value of
/// `BENCH_pr10.json` with no regression.
#[test]
fn committed_snapshot_keeps_the_bench_pr10_quality_rows() {
    let drop = |k: &str| {
        matches!(k, "profile" | "explain" | "fidelity" | "jobs") || k.starts_with("compile_seconds")
    };
    let history = parse(include_str!("../../../BENCH_pr10.json")).expect("BENCH_pr10.json parses");
    let report = diff_snapshots(
        &strip_keys(&history, &drop),
        &strip_keys(&committed(), &drop),
        0.0,
    );
    assert!(report.removed.is_empty(), "{:?}", report.removed);
    assert!(
        report.strings_changed.is_empty(),
        "{:?}",
        report.strings_changed
    );
    assert_eq!(
        report.count(DiffClass::Regression),
        0,
        "{:?}",
        report.regressions()
    );
}
