//! Every metric the benchmark prints, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! test below holds the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Printed by the untraced run (`--trace 0`), with the share of the
    /// parent's median by which it may worsen.
    EndToEnd { bound: f64 },
    /// Printed by the traced run (`--trace 1`).
    PerLayer,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    // Read by the test that holds `BENCHMARK.json` in step.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::PerLayer,
    }
}

const HIGHER: bool = true;
const LOWER: bool = false;

/// Per-layer `*_ms` figures are totals over one pass of the workload's
/// inputs (the mean over the passes the traced run made); counts are per
/// pass too.
pub const METRICS: &[Metric] = &[
    e2e("compile_gates_per_s", "gates/s", HIGHER, 0.24),
    e2e("compile_ms_p50", "ms", LOWER, 0.24),
    e2e("compile_ms_p90", "ms", LOWER, 0.24),
    e2e("analyze_ms_p50", "ms", LOWER, 0.24),
    e2e("peak_rss_mb", "MB", LOWER, 0.15),
    e2e("setup_s", "s", LOWER, 0.25),
    e2e("shuttles_per_kgate", "1/kgate", LOWER, 0.06),
    e2e("makespan_us_per_gate_geomean", "us/gate", LOWER, 0.07),
    e2e("neg_log_fidelity_per_kgate", "nat/kgate", LOWER, 0.1),
    e2e("shuttle_reduction_pct_mean", "%", HIGHER, 0.24),
    layer("circuit.generate_ms", "ms", LOWER),
    layer("circuit.dag_ms", "ms", LOWER),
    layer("machine.schedule_validate_ms", "ms", LOWER),
    layer("core.mapping_ms", "ms", LOWER),
    layer("core.compile_ms.baseline", "ms", LOWER),
    layer("core.compile_ms.optimized", "ms", LOWER),
    layer("core.compile_ms.congestion", "ms", LOWER),
    layer("core.compile_ms.clock", "ms", LOWER),
    layer("core.loop_ms_est", "ms", LOWER),
    layer("core.compile_growth_exp", "exponent", LOWER),
    layer("core.loop_growth_exp", "exponent", LOWER),
    layer("core.growth_points", "count", HIGHER),
    layer("core.rebalance_self_ms", "ms", LOWER),
    layer("core.scoring_self_ms", "ms", LOWER),
    layer("core.batching_self_ms", "ms", LOWER),
    layer("core.compile_self_frac", "fraction", LOWER),
    layer("core.shuttles_per_gate", "ratio", LOWER),
    layer("core.rebalance_shuttle_frac", "fraction", LOWER),
    layer("core.candidates_scored", "count", LOWER),
    layer("core.clock_ties", "count", HIGHER),
    layer("route.transport_validate_ms", "ms", LOWER),
    layer("route.transport_validate_growth_exp", "exponent", LOWER),
    layer("route.pack_concurrent_ms", "ms", LOWER),
    layer("route.pack_lookahead_ms", "ms", LOWER),
    layer("route.backfill_self_ms", "ms", LOWER),
    layer("route.backfill_accept_frac", "fraction", HIGHER),
    layer("route.depth_per_shuttle", "ratio", LOWER),
    layer("flow.self_ms", "ms", LOWER),
    layer("flow.solves", "count", LOWER),
    layer("flow.paths_per_solve", "ratio", LOWER),
    layer("flow.commodity_fallback_frac", "fraction", LOWER),
    layer("timing.lower_ms", "ms", LOWER),
    layer("timing.delta_hit_frac", "fraction", HIGHER),
    layer("timing.full_scores", "count", LOWER),
    layer("timing.pool_tasks", "count", LOWER),
    layer("timing.pool_shard_frac", "fraction", HIGHER),
    layer("pack.pack_ms", "ms", LOWER),
    layer("pack.arm_packed_ms", "ms", LOWER),
    layer("pack.arm_clock_ms", "ms", LOWER),
    layer("pack.race_overlap", "ratio", HIGHER),
    layer("pack.adopted_frac", "fraction", HIGHER),
    layer("pack.replanned_runs", "count", HIGHER),
    layer("pack.clock_win_frac", "fraction", HIGHER),
    layer("sim.simulate_ms", "ms", LOWER),
    layer("sim.attribute_ms", "ms", LOWER),
    layer("sim.wall_frac", "fraction", LOWER),
    layer("obs.trace_overhead_frac", "fraction", LOWER),
];

/// Values measured by one run, keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// The result line: every metric of the run's kind, in table order.
///
/// # Errors
///
/// A metric of that kind was not measured, one was measured that the
/// table does not list, or a value is not finite.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    traced: bool,
    values: &Values,
) -> Result<String, String> {
    let wanted: Vec<&Metric> = METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::PerLayer) == traced)
        .collect();
    if let Some(extra) = values
        .0
        .keys()
        .find(|k| !wanted.iter().any(|m| m.name == **k))
    {
        return Err(format!(
            "measured metric `{extra}` is not listed for this run"
        ));
    }
    let mut metrics = String::new();
    for (i, m) in wanted.iter().enumerate() {
        let v = *values
            .0
            .get(m.name)
            .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite ({v})", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            r#"{sep}"{}": {{"value": {v}, "unit": "{}"}}"#,
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{metrics}}}}}"#
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => {
                    &fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("missing key `{key}`"))
                        .1
                }
                _ => panic!("not an object"),
            }
        }

        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                other => panic!("not an array: {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(
                self.s[self.i], c,
                "expected `{}` at byte {}",
                c as char, self.i
            );
            self.i += 1;
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    loop {
                        self.ws();
                        let Json::Str(key) = self.value() else {
                            panic!("object key is not a string")
                        };
                        self.eat(b':');
                        fields.push((key, self.value()));
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Json::Obj(fields);
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(items);
                    }
                    loop {
                        items.push(self.value());
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b']' {
                            return Json::Arr(items);
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                        self.i += 1;
                    }
                    self.i += 1;
                    Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
                }
                b't' | b'f' | b'n' => {
                    let word: &[u8] = match self.s[self.i] {
                        b't' => b"true",
                        b'f' => b"false",
                        _ => b"null",
                    };
                    assert_eq!(&self.s[self.i..self.i + word.len()], word);
                    self.i += word.len();
                    match word {
                        b"true" => Json::Bool(true),
                        b"false" => Json::Bool(false),
                        _ => Json::Null,
                    }
                }
                _ => {
                    let start = self.i;
                    while self.s[self.i].is_ascii_digit() || b"+-.eE".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    Json::Num(
                        std::str::from_utf8(&self.s[start..self.i])
                            .unwrap()
                            .parse()
                            .unwrap(),
                    )
                }
            }
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
        v
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root"))
    }

    fn better(m: &Metric) -> &'static str {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let doc = benchmark_json();
        let e2e: Vec<&Metric> = METRICS
            .iter()
            .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }))
            .collect();
        let listed = doc.get("end_to_end").arr();
        assert_eq!(listed.len(), e2e.len(), "end_to_end metric count");
        for (entry, m) in listed.iter().zip(&e2e) {
            let Kind::EndToEnd { bound } = m.kind else {
                unreachable!()
            };
            assert_eq!(entry.keys(), ["name", "unit", "better", "bound"]);
            assert_eq!(entry.get("name").str(), m.name);
            assert_eq!(entry.get("unit").str(), m.unit, "{}", m.name);
            assert_eq!(entry.get("better").str(), better(m), "{}", m.name);
            assert_eq!(entry.get("bound"), &Json::Num(bound), "{}", m.name);
        }
        let layers: Vec<&Metric> = METRICS
            .iter()
            .filter(|m| m.kind == Kind::PerLayer)
            .collect();
        let listed = doc.get("per_layer").arr();
        assert_eq!(listed.len(), layers.len(), "per_layer metric count");
        for (entry, m) in listed.iter().zip(&layers) {
            assert_eq!(entry.keys(), ["name", "unit", "better"]);
            assert_eq!(entry.get("name").str(), m.name);
            assert_eq!(entry.get("unit").str(), m.unit, "{}", m.name);
            assert_eq!(entry.get("better").str(), better(m), "{}", m.name);
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert_eq!(names, crate::workload::NAMES);
    }

    #[test]
    fn result_line_prints_every_metric_of_the_run_and_parses() {
        let mut values = Values::default();
        for m in METRICS.iter().filter(|m| m.kind == Kind::PerLayer) {
            values.set(m.name, 0.25);
        }
        let line = result_line(true, 3, 0, true, &values).unwrap();
        let doc = parse(&line);
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        let printed = doc.get("metrics");
        let names: Vec<&str> = printed.keys();
        let want: Vec<&str> = METRICS
            .iter()
            .filter(|m| m.kind == Kind::PerLayer)
            .map(|m| m.name)
            .collect();
        assert_eq!(names, want);
        for m in METRICS.iter().filter(|m| m.kind == Kind::PerLayer) {
            assert_eq!(printed.get(m.name).get("unit").str(), m.unit);
        }
        // The untraced run refuses a per-layer value, and a missing one.
        assert!(result_line(true, 3, 0, false, &values).is_err());
        assert!(result_line(true, 3, 0, true, &Values::default()).is_err());
    }
}
