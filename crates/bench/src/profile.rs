//! The `paper_eval snapshot` document: the paper suite compiled once
//! under realistic timing and recorded as `BENCH.json`.
//!
//! Each benchmark's object is its `muzzle eval --suite paper --timing
//! realistic --format json` row ([`crate::report::suite_json`]) plus four
//! trailing subtrees:
//!
//! * `profile` — the `qccd-obs` instrumentation of a second, recorded
//!   run: phase wall times, hot-path counters, histograms and the
//!   delta-scorer hit rate;
//! * `explain` — the clock schedule's makespan attributed along its
//!   critical path;
//! * `fidelity` — the clock schedule's log fidelity decomposed into
//!   per-gate duration and motional loss;
//! * `jobs` — wall-clock seconds of the clock pipeline at `--jobs` 1
//!   and 4 (informational by their `compile_seconds` prefix).
//!
//! The assertions that need live compiles run here and land in the
//! document as top-level flags, so [`crate::check::check_snapshot`]
//! gates them with everything else:
//!
//! * `all_instrumented_eq_plain` — observing never decides: the recorded
//!   run's quality figures and clock schedule equal the plain run's;
//! * `all_delta_eq_full` — the clock race under the full re-lower oracle
//!   (`--score-mode full`) returns the delta scorer's result bit for bit;
//! * `all_jobs_deterministic` — `compile_clock` at `--jobs` 1, 4 and 8
//!   returns the row's clock result bit for bit.

use crate::json::{strip_keys, Json};
use crate::report::{fig4_worked_example, row_json, suite_json};
use crate::{compare_timed, ComparedBenchmark, ComparisonRow, TIMING_RUNS};
use qccd_circuit::generators::{paper_suite, BenchmarkCircuit};
use qccd_core::{CompileResult, CompilerConfig, ScoreMode};
use qccd_machine::MachineSpec;
use qccd_sim::{FidelityAttribution, LossTerm, SimParams};
use qccd_timing::{attribute_path, critical_path, TimingModel};
use std::time::Instant;

/// Every value the report renders for `row` except its wall-clock
/// compile seconds — what instrumentation must leave unchanged.
fn quality(row: &ComparisonRow) -> Json {
    strip_keys(&row_json(row), &|k| k.starts_with("compile_seconds"))
}

/// `true` when two compile results are the same program: schedule,
/// transport rounds, counters and makespan bits.
fn same_result(a: &CompileResult, b: &CompileResult) -> bool {
    a.schedule == b.schedule
        && a.transport == b.transport
        && a.stats == b.stats
        && a.timeline.makespan_us.to_bits() == b.timeline.makespan_us.to_bits()
}

/// Compiles the paper suite under realistic timing and returns the
/// `BENCH.json` document (see the module docs for its layout and the
/// flags it carries). A false flag is reported on stderr naming the
/// benchmark; gating it is [`crate::check::check_snapshot`]'s job.
///
/// # Panics
///
/// Panics if a benchmark fails to compile or validate, if the Fig. 4
/// example fails to build, or if a critical path is not contiguous.
pub fn paper_snapshot(spec: &MachineSpec, params: &SimParams) -> Json {
    let model = TimingModel::realistic();
    let mut rows: Vec<ComparisonRow> = Vec::new();
    let mut extras: Vec<Vec<(String, Json)>> = Vec::new();
    let mut instrumented_eq_plain = true;
    let mut delta_eq_full = true;
    let mut jobs_deterministic = true;
    for bench in &paper_suite() {
        qccd_obs::info("snapshot", || format!("  {}", bench.name));
        let plain = compare_timed(bench, spec, params, &model);

        qccd_obs::reset();
        qccd_obs::enable();
        let recorded = compare_timed(bench, spec, params, &model);
        qccd_obs::disable();
        let profile = recorded_profile_json();
        if quality(&recorded.row) != quality(&plain.row)
            || !same_result(&recorded.clock, &plain.clock)
        {
            eprintln!("{}: instrumentation changed the result", bench.name);
            instrumented_eq_plain = false;
        }

        let (full, full_stats) = qccd_pack::race_clock(
            plain.packed.clone(),
            &bench.circuit,
            spec,
            &CompilerConfig::optimized()
                .with_timing(model)
                .with_score_mode(ScoreMode::Full),
        )
        .expect("benchmark circuits compile under the clock objective");
        if full_stats != plain.row.clock_stats || !same_result(&full, &plain.clock) {
            eprintln!("{}: delta and full scoring diverged", bench.name);
            delta_eq_full = false;
        }

        let (jobs, deterministic) = jobs_json(bench, spec, &model, &plain);
        jobs_deterministic &= deterministic;
        extras.push(vec![
            ("profile".to_owned(), profile),
            (
                "explain".to_owned(),
                explain_json(bench, &plain.clock, &model),
            ),
            (
                "fidelity".to_owned(),
                fidelity_json(&plain.clock_attribution),
            ),
            ("jobs".to_owned(), jobs),
        ]);
        rows.push(plain.row);
    }

    let fig4 = fig4_worked_example().expect("the Fig. 4 worked example compiles");
    let mut doc = suite_json("paper", spec, "realistic", &fig4, &rows);
    if let Json::Obj(top) = &mut doc {
        if let Some((_, Json::Arr(benchmarks))) = top.iter_mut().find(|(k, _)| k == "benchmarks") {
            for (benchmark, extra) in benchmarks.iter_mut().zip(extras) {
                if let Json::Obj(fields) = benchmark {
                    fields.extend(extra);
                }
            }
        }
    }
    doc.with_field("all_jobs_deterministic", Json::Bool(jobs_deterministic))
        .with_field(
            "all_instrumented_eq_plain",
            Json::Bool(instrumented_eq_plain),
        )
        .with_field("all_delta_eq_full", Json::Bool(delta_eq_full))
}

/// The `profile` subtree from what the `qccd-obs` recorder holds.
fn recorded_profile_json() -> Json {
    let hits = qccd_obs::counter_value("timing.delta_hits");
    let fallbacks = qccd_obs::counter_value("timing.clone_fallbacks");
    // Shuttle-only candidate walks keep this at exactly 1: every
    // speculative candidate is priced by the O(delta) path.
    let delta_hit_rate = if hits + fallbacks == 0 {
        1.0
    } else {
        hits as f64 / (hits + fallbacks) as f64
    };
    Json::obj(vec![
        (
            "phases",
            Json::Arr(
                qccd_obs::phase_stats()
                    .iter()
                    .map(|ph| {
                        Json::obj(vec![
                            ("name", Json::str(ph.name.as_str())),
                            ("count", Json::int(ph.count)),
                            ("total_us", Json::Num(ph.total_us)),
                            ("self_us", Json::Num(ph.self_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                qccd_obs::counters()
                    .into_iter()
                    .map(|(name, value)| (name, Json::int(value as usize)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Arr(
                qccd_obs::histograms()
                    .iter()
                    .map(|h| {
                        Json::obj(vec![
                            ("name", Json::str(h.name.as_str())),
                            ("count", Json::int(h.count as usize)),
                            ("mean", Json::Num(h.mean())),
                            ("p50", Json::int(h.p50() as usize)),
                            ("p99", Json::int(h.p99() as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("delta_hit_rate", Json::Num(delta_hit_rate)),
        ("wall_us", Json::Num(qccd_obs::wall_us())),
    ])
}

/// The clock schedule's makespan attributed along its critical path.
fn explain_json(bench: &BenchmarkCircuit, clock: &CompileResult, model: &TimingModel) -> Json {
    let path = critical_path(&clock.timeline, &bench.circuit);
    assert!(
        path.is_contiguous(),
        "{}: critical path is not contiguous",
        bench.name
    );
    let a = attribute_path(&clock.timeline, model, &path);
    Json::obj(vec![
        ("makespan_us", Json::Num(a.makespan_us)),
        ("critical_path_steps", Json::int(path.steps.len())),
        (
            "blame_counts",
            Json::Obj(
                path.blame_counts()
                    .iter()
                    .map(|(b, n)| (b.label().to_owned(), Json::int(*n)))
                    .collect(),
            ),
        ),
        (
            "attribution",
            Json::obj(vec![
                ("gate_us", Json::Num(a.gate_us)),
                ("flight_us", Json::Num(a.flight_us)),
                ("split_merge_us", Json::Num(a.split_merge_us)),
                ("junction_us", Json::Num(a.junction_us)),
                ("zone_move_us", Json::Num(a.zone_move_us)),
                ("idle_wait_us", Json::Num(a.idle_wait_us)),
                ("total_us", Json::Num(a.total_us())),
                (
                    "identity",
                    Json::Bool(a.total_us().to_bits() == a.makespan_us.to_bits()),
                ),
            ]),
        ),
    ])
}

/// The loss-decomposition totals, the duration/motional shares, and the
/// top-3 worst gates and hottest traps by blamed heat loss.
fn fidelity_json(attr: &FidelityAttribution) -> Json {
    Json::obj(vec![
        (
            "log_program_fidelity",
            Json::Num(attr.report.log_program_fidelity),
        ),
        ("total_log_loss", Json::Num(attr.total_loss())),
        ("duration_loss", Json::Num(attr.gate_duration_loss)),
        ("motional_loss", Json::Num(attr.gate_motional_loss)),
        ("zero_point_loss", Json::Num(attr.gate_zero_point_loss)),
        ("heat_loss", Json::Num(attr.gate_heat_loss)),
        ("shuttle_pulse_loss", Json::Num(attr.shuttle_pulse_loss)),
        ("duration_share", Json::Num(attr.duration_share())),
        ("motional_share", Json::Num(attr.motional_share())),
        ("saturated_gates", Json::int(attr.saturated_gates)),
        ("identity", Json::Bool(attr.identity_holds())),
        (
            "worst_gates",
            Json::Arr(
                attr.worst_gates(3)
                    .iter()
                    .filter_map(|t| match t {
                        LossTerm::Gate {
                            gate,
                            trap,
                            log_loss,
                            n_bar,
                            ..
                        } => Some(Json::obj(vec![
                            ("gate", Json::int(gate.index())),
                            ("trap", Json::int(trap.index())),
                            ("log_loss", Json::Num(*log_loss)),
                            ("n_bar", Json::Num(*n_bar)),
                        ])),
                        LossTerm::Shuttle { .. } => None,
                    })
                    .collect(),
            ),
        ),
        (
            "hottest_traps",
            Json::Arr(
                attr.hottest_traps(3)
                    .iter()
                    .map(|(trap, blamed, gross)| {
                        Json::obj(vec![
                            ("trap", Json::int(*trap)),
                            ("blamed_log_loss", Json::Num(*blamed)),
                            ("gross_quanta", Json::Num(*gross)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs `compile_clock` at `--jobs` 1 and 4 ([`TIMING_RUNS`] times each,
/// keeping the minimum wall time) and once at 8, and returns the `jobs`
/// subtree plus whether every run returned `compared`'s clock result and
/// stats bit for bit.
fn jobs_json(
    bench: &BenchmarkCircuit,
    spec: &MachineSpec,
    model: &TimingModel,
    compared: &ComparedBenchmark,
) -> (Json, bool) {
    let config = CompilerConfig::optimized().with_timing(*model);
    let mut deterministic = true;
    let mut min_seconds = |jobs: usize, runs: usize| {
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let start = Instant::now();
            let (result, stats) =
                qccd_pack::compile_clock(&bench.circuit, spec, &config.with_jobs(jobs))
                    .expect("benchmark circuits compile under the clock objective");
            best = best.min(start.elapsed().as_secs_f64());
            if stats != compared.row.clock_stats || !same_result(&result, &compared.clock) {
                eprintln!("{}: clock result diverged at jobs={jobs}", bench.name);
                deterministic = false;
            }
        }
        best
    };
    let secs1 = min_seconds(1, TIMING_RUNS);
    let secs4 = min_seconds(4, TIMING_RUNS);
    min_seconds(8, 1);
    let json = Json::obj(vec![
        ("compile_seconds_jobs1", Json::Num(secs1)),
        ("compile_seconds_jobs4", Json::Num(secs4)),
        ("compile_seconds_speedup_jobs4", Json::Num(secs1 / secs4)),
    ]);
    (json, deterministic)
}
