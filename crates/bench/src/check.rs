//! `paper_eval check` — every acceptance assertion over a `BENCH.json`
//! document, as a pure function of the parsed document.
//!
//! [`crate::profile::paper_snapshot`] runs the assertions that need live
//! compiles and records their outcome as `all_*` flags; everything else
//! is asserted here from the rows themselves:
//!
//! * Table II and routing: optimized ≤ baseline shuttles, congestion ≤
//!   serial shuttles, transport depth strictly below the shuttle count
//!   and concurrent timed makespan ≤ serial on ≥ 2 benchmarks each, and
//!   the Fig. 4 worked example at 4 vs 1 shuttles;
//! * packing and the clock objective: packed ≤ lookahead (strictly lower
//!   on QAOA), clock ≤ packed with ≥ 1 strict win, and QAOA's clock
//!   makespan at its pinned 220800 µs;
//! * explanation: the critical-path attribution identity holds, the path
//!   is non-empty, and it explains the reported clock makespan;
//! * fidelity attribution: the identity holds, the duration and motional
//!   shares lie in `[0, 1]` and sum to at most 1, and the worst-gate and
//!   hottest-trap lists are non-empty;
//! * instrumentation: every candidate priced by the delta scorer
//!   (`delta_hit_rate` = 1), non-empty phases and histograms;
//! * the live flags (`all_instrumented_eq_plain`, `all_delta_eq_full`,
//!   `all_jobs_deterministic`) and the suite-level flags and counts,
//!   which must agree with the rows;
//! * structure: all five paper benchmarks with every subtree, and no
//!   `null` (non-finite) leaf anywhere.

use crate::json::Json;

/// The paper suite's benchmark names.
const PAPER_BENCHMARKS: [&str; 5] = ["Supremacy", "QAOA", "SquareRoot", "QFT", "QuadraticForm"];

/// QAOA's clock-objective timed makespan under realistic timing, µs.
const QAOA_CLOCK_MAKESPAN_US: f64 = 220800.0;

/// The subtrees every benchmark object carries.
const SUBTREES: [&str; 11] = [
    "baseline",
    "optimized",
    "congestion_router",
    "timed",
    "packed",
    "clock",
    "utilization",
    "profile",
    "explain",
    "fidelity",
    "jobs",
];

/// Flags recorded by the snapshot's live compiles.
const LIVE_FLAGS: [&str; 3] = [
    "all_instrumented_eq_plain",
    "all_delta_eq_full",
    "all_jobs_deterministic",
];

/// Collects named failures.
#[derive(Default)]
struct Checker {
    failures: Vec<String>,
}

impl Checker {
    /// Records `reason` once, however many assertions read the same
    /// broken value.
    fn fail(&mut self, reason: String) {
        if !self.failures.contains(&reason) {
            self.failures.push(reason);
        }
    }

    fn expect(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }

    /// The number at `path` under `value`, or a failure naming it.
    fn num(&mut self, value: &Json, at: &str, path: &str) -> Option<f64> {
        match value.get(path) {
            Some(Json::Num(n)) => Some(*n),
            _ => {
                self.fail(format!("{at}: `{path}` is missing or not a number"));
                None
            }
        }
    }

    /// The boolean at `path` under `value`, or a failure naming it.
    fn flag(&mut self, value: &Json, at: &str, path: &str) -> Option<bool> {
        match value.get(path) {
            Some(Json::Bool(b)) => Some(*b),
            _ => {
                self.fail(format!("{at}: `{path}` is missing or not a boolean"));
                None
            }
        }
    }

    /// `lhs ≤ rhs` (or `<` when `strict`); `None` when either is missing.
    fn compare(
        &mut self,
        value: &Json,
        at: &str,
        lhs: &str,
        rhs: &str,
        strict: bool,
    ) -> Option<bool> {
        let (l, r) = (self.num(value, at, lhs)?, self.num(value, at, rhs)?);
        Some(if strict { l < r } else { l <= r })
    }

    /// Fails unless `lhs ≤ rhs` (or `<` when `strict`); returns `false`
    /// only when both are present and out of order.
    fn require_order(
        &mut self,
        value: &Json,
        at: &str,
        lhs: &str,
        rhs: &str,
        strict: bool,
    ) -> bool {
        let violated = self.compare(value, at, lhs, rhs, strict) == Some(false);
        if violated {
            let op = if strict { "<" } else { "<=" };
            self.fail(format!("{at}: expected `{lhs}` {op} `{rhs}`"));
        }
        !violated
    }

    /// Fails unless the flag at `path` is true.
    fn require_flag(&mut self, value: &Json, at: &str, path: &str) {
        if self.flag(value, at, path) == Some(false) {
            self.fail(format!("{at}: `{path}` is false"));
        }
    }

    /// Fails unless the array at `path` exists and is non-empty.
    fn require_non_empty(&mut self, value: &Json, at: &str, path: &str) {
        let ok = matches!(value.get(path), Some(Json::Arr(items)) if !items.is_empty());
        self.expect(ok, || format!("{at}: `{path}` is missing or empty"));
    }
}

/// Checks a parsed `BENCH.json` document and returns one named reason per
/// violated assertion — empty when the document passes.
pub fn check_snapshot(doc: &Json) -> Vec<String> {
    let mut c = Checker::default();
    null_leaves(doc, "", &mut c.failures);
    for (key, want) in [("suite", "paper"), ("timing", "realistic")] {
        let ok = matches!(doc.get(key), Some(Json::Str(s)) if s == want);
        c.expect(ok, || format!("`{key}` is not `{want}`"));
    }
    for (path, want) in [
        ("fig4_worked_example.baseline_shuttles", 4.0),
        ("fig4_worked_example.optimized_shuttles", 1.0),
    ] {
        if let Some(got) = c.num(doc, "suite", path) {
            c.expect(got == want, || {
                format!("`{path}` is {got}, expected {want}")
            });
        }
    }

    let benchmarks: &[Json] = match doc.get("benchmarks") {
        Some(Json::Arr(items)) => items,
        _ => {
            c.fail("`benchmarks` is missing or not an array".to_owned());
            &[]
        }
    };
    for name in PAPER_BENCHMARKS {
        let present = benchmarks
            .iter()
            .any(|b| matches!(b.get("name"), Some(Json::Str(s)) if s == name));
        c.expect(present, || format!("benchmark `{name}` is missing"));
    }

    let mut all_leq = true;
    let mut congestion_leq = true;
    let mut depth_wins = 0usize;
    let mut timed_wins = 0usize;
    let mut packed_leq = true;
    let mut packed_wins = 0usize;
    let mut clock_leq = true;
    let mut clock_wins = 0usize;
    for b in benchmarks {
        let at = match b.get("name") {
            Some(Json::Str(name)) => name.as_str(),
            _ => "unnamed benchmark",
        };
        for sub in SUBTREES {
            let ok = matches!(b.get(sub), Some(Json::Obj(_)));
            c.expect(ok, || format!("{at}: `{sub}` subtree is missing"));
        }
        all_leq &= c.require_order(b, at, "optimized_shuttles", "baseline_shuttles", false);
        congestion_leq &= c.require_order(
            b,
            at,
            "congestion_router.shuttles",
            "optimized_shuttles",
            false,
        );
        let depth = "congestion_router.transport_depth";
        depth_wins +=
            usize::from(c.compare(b, at, depth, "optimized_shuttles", true) == Some(true));
        let (concurrent, serial) = ("timed.congestion_makespan_us", "timed.serial_makespan_us");
        timed_wins += usize::from(c.compare(b, at, concurrent, serial, false) == Some(true));

        let (packed, lookahead) = (
            "packed.packed_timed_makespan_us",
            "packed.lookahead_timed_makespan_us",
        );
        packed_leq &= c.require_order(b, at, packed, lookahead, false);
        packed_wins += usize::from(c.compare(b, at, packed, lookahead, true) == Some(true));
        let clock = "clock.clock_timed_makespan_us";
        clock_leq &= c.require_order(b, at, clock, packed, false);
        clock_wins += usize::from(c.flag(b, at, "clock.improved") == Some(true));
        if at == "QAOA" {
            c.require_order(b, at, packed, lookahead, true);
            if let Some(got) = c.num(b, at, clock) {
                c.expect(got == QAOA_CLOCK_MAKESPAN_US, || {
                    format!("{at}: `{clock}` is {got}, pinned at {QAOA_CLOCK_MAKESPAN_US}")
                });
            }
        }
        c.num(b, at, "clock.compile_seconds");
        c.num(b, at, "clock.compile_seconds_full");

        // Explanation: the attributed path explains the reported makespan.
        c.require_flag(b, at, "explain.attribution.identity");
        if let Some(steps) = c.num(b, at, "explain.critical_path_steps") {
            c.expect(steps > 0.0, || format!("{at}: empty critical path"));
        }
        if let (Some(explained), Some(reported)) =
            (c.num(b, at, "explain.makespan_us"), c.num(b, at, clock))
        {
            c.expect(explained.to_bits() == reported.to_bits(), || {
                format!("{at}: explained makespan {explained} is not the reported {reported}")
            });
        }

        // Fidelity attribution.
        c.require_flag(b, at, "fidelity.identity");
        if let Some(loss) = c.num(b, at, "fidelity.total_log_loss") {
            c.expect(loss > 0.0, || {
                format!("{at}: fidelity loss {loss} is not positive")
            });
        }
        let duration = c.num(b, at, "fidelity.duration_share");
        let motional = c.num(b, at, "fidelity.motional_share");
        for (name, share) in [("duration_share", duration), ("motional_share", motional)] {
            if let Some(s) = share {
                c.expect((0.0..=1.0).contains(&s), || {
                    format!("{at}: `fidelity.{name}` {s} is outside [0, 1]")
                });
            }
        }
        if let (Some(d), Some(m)) = (duration, motional) {
            c.expect(d + m <= 1.0 + 1e-12, || {
                format!("{at}: duration + motional share {} exceeds 1", d + m)
            });
        }
        c.require_non_empty(b, at, "fidelity.worst_gates");
        c.require_non_empty(b, at, "fidelity.hottest_traps");

        // Instrumentation.
        if let Some(rate) = c.num(b, at, "profile.delta_hit_rate") {
            c.expect(rate == 1.0, || {
                format!("{at}: delta hit rate {rate} (a candidate fell back to the clone oracle)")
            });
        }
        c.require_non_empty(b, at, "profile.phases");
        c.require_non_empty(b, at, "profile.histograms");
    }

    // Suite-level flags and counts: true / at their floors, and in
    // agreement with the rows above.
    for (key, rows_hold) in [
        ("all_optimized_leq_baseline", all_leq),
        ("all_congestion_leq_serial", congestion_leq),
        ("all_packed_leq_lookahead", packed_leq),
        ("all_clock_leq_packed", clock_leq),
    ] {
        c.require_flag(doc, "suite", key);
        c.expect(rows_hold, || format!("the rows violate `{key}`"));
    }
    for key in LIVE_FLAGS {
        c.require_flag(doc, "suite", key);
    }
    for (key, from_rows, floor) in [
        ("depth_strictly_lower_count", depth_wins, 2),
        ("timed_makespan_leq_serial_count", timed_wins, 2),
        ("packed_strict_win_count", packed_wins, 1),
        ("clock_strict_win_count", clock_wins, 1),
    ] {
        if let Some(recorded) = c.num(doc, "suite", key) {
            c.expect(recorded == from_rows as f64, || {
                format!("`{key}` is {recorded} but the rows give {from_rows}")
            });
        }
        c.expect(from_rows >= floor, || {
            format!("`{key}`: {from_rows} benchmark(s), expected at least {floor}")
        });
    }
    c.failures
}

/// Records a failure for every `null` leaf — the encoding of a NaN or
/// infinite number — under `value`.
fn null_leaves(value: &Json, path: &str, failures: &mut Vec<String>) {
    match value {
        Json::Null => failures.push(format!("`{path}` is null (a non-finite number)")),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let segment = match item.get("name") {
                    Some(Json::Str(name)) => name.clone(),
                    _ => i.to_string(),
                };
                null_leaves(item, &format!("{path}[{segment}]"), failures);
            }
        }
        Json::Obj(pairs) => {
            for (key, item) in pairs {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                null_leaves(item, &child, failures);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// The committed snapshot at the repository root.
    fn committed() -> Json {
        parse(include_str!("../../../BENCH.json")).expect("BENCH.json parses")
    }

    /// The value at a dotted path (empty for the object itself) under
    /// benchmark `name`, or under the top level when `name` is empty.
    fn at<'a>(doc: &'a mut Json, name: &str, path: &str) -> &'a mut Json {
        let mut value = doc;
        if !name.is_empty() {
            value = match value {
                Json::Obj(pairs) => match pairs.iter_mut().find(|(k, _)| k == "benchmarks") {
                    Some((_, Json::Arr(items))) => items
                        .iter_mut()
                        .find(|b| matches!(b.get("name"), Some(Json::Str(s)) if s == name))
                        .expect("benchmark present"),
                    _ => panic!("no benchmarks"),
                },
                _ => panic!("not an object"),
            };
        }
        for key in path.split('.').filter(|k| !k.is_empty()) {
            value = match value {
                Json::Obj(pairs) => {
                    &mut pairs
                        .iter_mut()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no key {key}"))
                        .1
                }
                _ => panic!("{key}: not an object"),
            };
        }
        value
    }

    /// Asserts that `tamper` makes the committed snapshot fail with a
    /// reason containing `reason`.
    fn fails_with(tamper: impl FnOnce(&mut Json), reason: &str) {
        let mut doc = committed();
        tamper(&mut doc);
        let failures = check_snapshot(&doc);
        assert!(
            failures.iter().any(|f| f.contains(reason)),
            "expected a failure naming `{reason}`, got {failures:?}"
        );
    }

    #[test]
    fn committed_snapshot_passes() {
        assert_eq!(check_snapshot(&committed()), Vec::<String>::new());
    }

    #[test]
    fn a_flipped_all_flag_fails_by_name() {
        for flag in [
            "all_optimized_leq_baseline",
            "all_congestion_leq_serial",
            "all_packed_leq_lookahead",
            "all_clock_leq_packed",
            "all_instrumented_eq_plain",
            "all_delta_eq_full",
            "all_jobs_deterministic",
        ] {
            fails_with(|d| *at(d, "", flag) = Json::Bool(false), flag);
        }
    }

    #[test]
    fn clock_makespan_above_packed_fails() {
        fails_with(
            |d| *at(d, "QFT", "clock.clock_timed_makespan_us") = Json::Num(1e12),
            "QFT: expected `clock.clock_timed_makespan_us` <= `packed.packed_timed_makespan_us`",
        );
        fails_with(
            |d| *at(d, "QFT", "clock.clock_timed_makespan_us") = Json::Num(1e12),
            "the rows violate `all_clock_leq_packed`",
        );
    }

    #[test]
    fn row_orderings_and_pins_fail_when_violated() {
        fails_with(
            |d| *at(d, "QFT", "optimized_shuttles") = Json::Num(1e9),
            "QFT: expected `optimized_shuttles` <= `baseline_shuttles`",
        );
        fails_with(
            |d| *at(d, "Supremacy", "congestion_router.shuttles") = Json::Num(1e9),
            "Supremacy: expected `congestion_router.shuttles` <= `optimized_shuttles`",
        );
        fails_with(
            |d| *at(d, "QAOA", "packed.packed_timed_makespan_us") = Json::Num(1e12),
            "QAOA: expected `packed.packed_timed_makespan_us` < ",
        );
        fails_with(
            |d| *at(d, "QAOA", "clock.clock_timed_makespan_us") = Json::Num(220801.0),
            "pinned at 220800",
        );
        fails_with(
            |d| *at(d, "", "fig4_worked_example.baseline_shuttles") = Json::Num(3.0),
            "fig4_worked_example.baseline_shuttles",
        );
        fails_with(
            |d| *at(d, "", "depth_strictly_lower_count") = Json::Num(0.0),
            "`depth_strictly_lower_count` is 0 but the rows give",
        );
        fails_with(
            |d| *at(d, "QAOA", "profile.delta_hit_rate") = Json::Num(0.5),
            "QAOA: delta hit rate 0.5",
        );
        fails_with(
            |d| *at(d, "QFT", "explain.makespan_us") = Json::Num(1.0),
            "QFT: explained makespan",
        );
    }

    #[test]
    fn a_false_identity_fails() {
        fails_with(
            |d| *at(d, "SquareRoot", "explain.attribution.identity") = Json::Bool(false),
            "SquareRoot: `explain.attribution.identity` is false",
        );
        fails_with(
            |d| *at(d, "SquareRoot", "fidelity.identity") = Json::Bool(false),
            "SquareRoot: `fidelity.identity` is false",
        );
    }

    #[test]
    fn shares_summing_past_one_fail() {
        fails_with(
            |d| {
                *at(d, "QAOA", "fidelity.duration_share") = Json::Num(0.6);
                *at(d, "QAOA", "fidelity.motional_share") = Json::Num(0.6);
            },
            "QAOA: duration + motional share",
        );
        fails_with(
            |d| *at(d, "QAOA", "fidelity.motional_share") = Json::Num(-0.1),
            "outside [0, 1]",
        );
    }

    #[test]
    fn a_null_quality_leaf_fails() {
        fails_with(
            |d| *at(d, "QAOA", "clock.clock_timed_makespan_us") = Json::Null,
            "`benchmarks[QAOA].clock.clock_timed_makespan_us` is null",
        );
        // Rendering a NaN writes `null`, so a poisoned live value fails
        // the same way after a round trip.
        fails_with(
            |d| {
                *at(d, "QFT", "packed.program_fidelity") = Json::Num(f64::NAN);
                *d = parse(&d.to_string()).unwrap();
            },
            "`benchmarks[QFT].packed.program_fidelity` is null",
        );
    }

    #[test]
    fn a_missing_benchmark_or_subtree_fails() {
        fails_with(
            |d| {
                if let Json::Arr(items) = at(d, "", "benchmarks") {
                    items.retain(|b| !matches!(b.get("name"), Some(Json::Str(s)) if s == "QFT"));
                }
            },
            "benchmark `QFT` is missing",
        );
        fails_with(
            |d| {
                if let Json::Obj(fields) = at(d, "QuadraticForm", "") {
                    fields.retain(|(k, _)| k != "explain");
                }
            },
            "QuadraticForm: `explain` subtree is missing",
        );
        fails_with(
            |d| *at(d, "QAOA", "profile.histograms") = Json::Arr(vec![]),
            "QAOA: `profile.histograms` is missing or empty",
        );
    }
}
