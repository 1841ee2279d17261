//! The suite report shared by `muzzle eval --format json` and
//! `paper_eval snapshot`: the Fig. 4 worked example, the suite-level
//! acceptance figures, and the one JSON renderer for a suite's
//! [`ComparisonRow`]s.

use crate::json::Json;
use crate::ComparisonRow;
use qccd_circuit::parser::parse_program;
use qccd_core::{compile_with_mapping, CompilerConfig};
use qccd_machine::{InitialMapping, MachineSpec, TrapId};
use qccd_sim::SimReport;

/// Shuttle counts of the Fig. 4 worked example under both policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig4 {
    /// Baseline (excess-capacity) shuttles — the paper reports 4.
    pub baseline_shuttles: usize,
    /// Optimized (future-ops) shuttles — the paper reports 1.
    pub optimized_shuttles: usize,
}

/// Runs the paper's Fig. 4 worked example: `MS q1,q2; MS q2,q3; MS q1,q2;
/// MS q2,q4;` on two traps of capacity 4 with ions 0-1 in T0 and 2-4 in
/// T1. The baseline's excess-capacity policy ping-pongs ion 2 for 4
/// shuttles while the future-ops policy moves ion 1 once.
///
/// # Errors
///
/// A message if the fixed program, machine or mapping fails to build or
/// compile.
pub fn fig4_worked_example() -> Result<Fig4, String> {
    let circuit = parse_program(
        "MS q[1], q[2];\nMS q[2], q[3];\nMS q[1], q[2];\nMS q[2], q[4];",
        5,
    )
    .map_err(|e| e.to_string())?;
    let spec = MachineSpec::linear(2, 4, 1).map_err(|e| e.to_string())?;
    let mapping = InitialMapping::from_traps(
        &spec,
        vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
    )
    .map_err(|e| e.to_string())?;
    let baseline = compile_with_mapping(
        &circuit,
        &spec,
        &CompilerConfig::baseline(),
        mapping.clone(),
    )
    .map_err(|e| e.to_string())?;
    let optimized = compile_with_mapping(&circuit, &spec, &CompilerConfig::optimized(), mapping)
        .map_err(|e| e.to_string())?;
    Ok(Fig4 {
        baseline_shuttles: baseline.stats.shuttles,
        optimized_shuttles: optimized.stats.shuttles,
    })
}

/// Suite-level acceptance figures over a suite's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteChecks {
    /// Optimized shuttle count ≤ baseline on every benchmark (Table II).
    pub all_leq: bool,
    /// Congestion-routed shuttle count ≤ serial on every benchmark.
    pub congestion_leq: bool,
    /// Benchmarks whose concurrent transport depth is strictly below the
    /// serial shuttle count.
    pub depth_wins: usize,
    /// Benchmarks whose congestion-routed *timed* makespan (under the
    /// row's timing model) is at or below the serial router's.
    pub timed_makespan_wins: usize,
    /// Packed timed makespan ≤ lookahead on every benchmark (the packer's
    /// never-regress guarantee, re-checked end to end).
    pub packed_leq_lookahead: bool,
    /// Benchmarks where packing *strictly* beat lookahead on the clock.
    pub packed_strict_wins: usize,
    /// Clock-objective timed makespan ≤ packed on every benchmark (the
    /// clock pipeline's never-regress guarantee, re-checked end to end).
    pub clock_leq_packed: bool,
    /// Benchmarks where the clock objective *strictly* beat the packed
    /// stack on the device clock.
    pub clock_strict_wins: usize,
}

impl SuiteChecks {
    /// The figures over `rows`.
    pub fn of(rows: &[ComparisonRow]) -> SuiteChecks {
        let count = |pred: &dyn Fn(&ComparisonRow) -> bool| rows.iter().filter(|r| pred(r)).count();
        let all = |pred: &dyn Fn(&ComparisonRow) -> bool| rows.iter().all(pred);
        SuiteChecks {
            all_leq: all(&|r| r.policy.optimized_shuttles <= r.policy.baseline_shuttles),
            congestion_leq: all(&|r| r.congestion_shuttles <= r.policy.optimized_shuttles),
            depth_wins: count(&|r| r.transport_depth < r.policy.optimized_shuttles),
            timed_makespan_wins: count(&|r| {
                r.transport_sim.timed_makespan_us <= r.policy.optimized_sim.timed_makespan_us
            }),
            packed_leq_lookahead: all(&|r| {
                r.packed_timed_makespan_us <= r.lookahead_timed_makespan_us
            }),
            packed_strict_wins: count(&|r| {
                r.packed_timed_makespan_us < r.lookahead_timed_makespan_us
            }),
            clock_leq_packed: all(&|r| r.clock_timed_makespan_us <= r.packed_timed_makespan_us),
            clock_strict_wins: count(&|r| r.clock_stats.improved),
        }
    }
}

fn sim_json(sim: &SimReport, compile_s: f64) -> Json {
    Json::obj(vec![
        ("program_fidelity", Json::Num(sim.program_fidelity)),
        ("makespan_us", Json::Num(sim.makespan_us)),
        ("compile_seconds", Json::Num(compile_s)),
    ])
}

/// One benchmark's report object.
pub(crate) fn row_json(r: &ComparisonRow) -> Json {
    let p = &r.policy;
    Json::obj(vec![
        ("name", Json::str(&p.name)),
        ("qubits", Json::int(p.qubits as usize)),
        ("two_qubit_gates", Json::int(p.two_qubit_gates)),
        ("baseline_shuttles", Json::int(p.baseline_shuttles)),
        ("optimized_shuttles", Json::int(p.optimized_shuttles)),
        ("delta", Json::Num(p.delta() as f64)),
        ("delta_percent", Json::Num(p.delta_percent())),
        ("fidelity_improvement", Json::Num(p.fidelity_improvement())),
        ("baseline", sim_json(&p.baseline_sim, p.baseline_compile_s)),
        (
            "optimized",
            sim_json(&p.optimized_sim, p.optimized_compile_s),
        ),
        (
            "congestion_router",
            Json::obj(vec![
                ("shuttles", Json::int(r.congestion_shuttles)),
                ("transport_depth", Json::int(r.transport_depth)),
                ("depth_delta", Json::Num(r.depth_delta() as f64)),
                ("makespan_us", Json::Num(r.transport_sim.makespan_us)),
                (
                    "program_fidelity",
                    Json::Num(r.transport_sim.program_fidelity),
                ),
            ]),
        ),
        (
            "timed",
            Json::obj(vec![
                (
                    "serial_makespan_us",
                    Json::Num(p.optimized_sim.timed_makespan_us),
                ),
                (
                    "congestion_makespan_us",
                    Json::Num(r.transport_sim.timed_makespan_us),
                ),
                ("zone_moves", Json::int(r.transport_sim.zone_moves)),
                (
                    "junction_crossings",
                    Json::int(r.transport_sim.junction_crossings),
                ),
            ]),
        ),
        (
            "packed",
            Json::obj(vec![
                ("shuttles", Json::int(r.packed_shuttles)),
                ("transport_depth", Json::int(r.packed_depth)),
                (
                    "lookahead_timed_makespan_us",
                    Json::Num(r.lookahead_timed_makespan_us),
                ),
                (
                    "packed_timed_makespan_us",
                    Json::Num(r.packed_timed_makespan_us),
                ),
                ("program_fidelity", Json::Num(r.packed_sim.program_fidelity)),
            ]),
        ),
        (
            "clock",
            Json::obj(vec![
                (
                    "clock_timed_makespan_us",
                    Json::Num(r.clock_timed_makespan_us),
                ),
                (
                    "candidate_makespan_us",
                    Json::Num(r.clock_stats.clock_makespan_us),
                ),
                ("clock_ties", Json::int(r.clock_stats.clock_ties)),
                ("batched_layers", Json::int(r.clock_stats.batched_layers)),
                ("batched_hops", Json::int(r.clock_stats.batched_hops)),
                ("improved", Json::Bool(r.clock_stats.improved)),
                ("compile_seconds", Json::Num(r.clock_compile_s)),
                ("compile_seconds_full", Json::Num(r.clock_full_compile_s)),
                ("program_fidelity", Json::Num(r.clock_sim.program_fidelity)),
                ("fidelity_duration_share", Json::Num(r.clock_duration_share)),
                ("fidelity_motional_share", Json::Num(r.clock_motional_share)),
            ]),
        ),
        (
            "utilization",
            Json::obj(vec![
                ("idle_fraction", Json::Num(r.idle_fraction)),
                ("hottest_trap", Json::int(r.hottest_trap)),
                ("hottest_trap_busy_us", Json::Num(r.hottest_trap_busy_us)),
            ]),
        ),
    ])
}

/// The suite report: the machine and timing header, the Fig. 4 worked
/// example, one object per row, and the [`SuiteChecks`] over `rows`.
/// `muzzle eval --format json` prints it as is; `paper_eval snapshot`
/// appends its instrumentation, explanation and determinism results to
/// each benchmark object and to the top level.
pub fn suite_json(
    suite: &str,
    machine: &MachineSpec,
    timing: &str,
    fig4: &Fig4,
    rows: &[ComparisonRow],
) -> Json {
    let checks = SuiteChecks::of(rows);
    Json::obj(vec![
        ("suite", Json::str(suite)),
        ("machine", Json::str(machine.to_string())),
        ("timing", Json::str(timing)),
        (
            "fig4_worked_example",
            Json::obj(vec![
                ("baseline_shuttles", Json::int(fig4.baseline_shuttles)),
                ("optimized_shuttles", Json::int(fig4.optimized_shuttles)),
            ]),
        ),
        ("benchmarks", Json::Arr(rows.iter().map(row_json).collect())),
        ("all_optimized_leq_baseline", Json::Bool(checks.all_leq)),
        (
            "all_congestion_leq_serial",
            Json::Bool(checks.congestion_leq),
        ),
        ("depth_strictly_lower_count", Json::int(checks.depth_wins)),
        (
            "timed_makespan_leq_serial_count",
            Json::int(checks.timed_makespan_wins),
        ),
        (
            "all_packed_leq_lookahead",
            Json::Bool(checks.packed_leq_lookahead),
        ),
        (
            "packed_strict_win_count",
            Json::int(checks.packed_strict_wins),
        ),
        ("all_clock_leq_packed", Json::Bool(checks.clock_leq_packed)),
        (
            "clock_strict_win_count",
            Json::int(checks.clock_strict_wins),
        ),
    ])
}
