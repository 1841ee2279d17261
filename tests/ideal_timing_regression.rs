//! Regression pins for the uniform-hop (ideal) timing model: the five
//! paper benchmarks must reproduce the `BENCH_pr2.json` rows *exactly* —
//! baseline and optimized makespans of the serial router, and transport
//! depth and makespan of the congestion router — so `--timing ideal`
//! stays the paper-parity replay every later timing model is measured
//! against.

use muzzle_shuttle::compiler::{compile, CompilerConfig, RouterPolicy};
use muzzle_shuttle::machine::MachineSpec;
use muzzle_shuttle::sim::{simulate_timed, SimParams, SimReport};
use muzzle_shuttle::timing::TimingModel;
use qccd_circuit::generators::{paper_suite, BenchmarkCircuit};

/// One benchmark's pinned `BENCH_pr2.json` row (ideal timing).
struct Pin {
    name: &'static str,
    baseline_makespan_us: f64,
    optimized_makespan_us: f64,
    congestion_depth: usize,
    congestion_makespan_us: f64,
}

/// The `BENCH_pr2.json` rows, verbatim.
const PINS: [Pin; 5] = [
    Pin {
        name: "Supremacy",
        baseline_makespan_us: 107770.0,
        optimized_makespan_us: 95985.0,
        congestion_depth: 347,
        congestion_makespan_us: 95820.0,
    },
    Pin {
        name: "QAOA",
        baseline_makespan_us: 355920.0,
        optimized_makespan_us: 278190.0,
        congestion_depth: 1336,
        congestion_makespan_us: 278190.0,
    },
    Pin {
        name: "SquareRoot",
        baseline_makespan_us: 285315.0,
        optimized_makespan_us: 189320.0,
        congestion_depth: 561,
        congestion_makespan_us: 189285.0,
    },
    Pin {
        name: "QFT",
        baseline_makespan_us: 225140.0,
        optimized_makespan_us: 410445.0,
        congestion_depth: 287,
        congestion_makespan_us: 409785.0,
    },
    Pin {
        name: "QuadraticForm",
        baseline_makespan_us: 385015.0,
        optimized_makespan_us: 548190.0,
        congestion_depth: 439,
        congestion_makespan_us: 547365.0,
    },
];

/// Compiles `bench` under `config` on the paper machine and replays it on
/// `model`'s timeline.
fn run(bench: &BenchmarkCircuit, config: &CompilerConfig, model: &TimingModel) -> SimReport {
    let spec = MachineSpec::paper_l6();
    let result = compile(&bench.circuit, &spec, config).expect("paper benchmarks compile");
    simulate_timed(
        &result.schedule,
        &result.transport,
        &bench.circuit,
        &spec,
        &SimParams::default(),
        model,
    )
    .expect("compiled schedules replay")
}

/// `muzzle eval --suite paper` (ideal timing) reproduces the PR 2
/// makespans and depths bit for bit, and realistic timing moves the
/// congestion router's timed makespan off the ideal pin on every
/// benchmark (the model is junction- and distance-sensitive).
#[test]
fn ideal_timing_reproduces_bench_pr2_rows_exactly() {
    let ideal = TimingModel::ideal();
    let congestion = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
    for (bench, pin) in paper_suite().iter().zip(&PINS) {
        assert_eq!(bench.name, pin.name, "suite order changed");
        let base = run(bench, &CompilerConfig::baseline(), &ideal);
        assert_eq!(
            base.makespan_us, pin.baseline_makespan_us,
            "{}: baseline makespan drifted",
            pin.name
        );
        let opt = run(bench, &CompilerConfig::optimized(), &ideal);
        assert_eq!(
            opt.makespan_us, pin.optimized_makespan_us,
            "{}: optimized makespan drifted",
            pin.name
        );
        let cong = run(bench, &congestion, &ideal);
        assert_eq!(
            cong.shuttle_depth, pin.congestion_depth,
            "{}: congestion depth drifted",
            pin.name
        );
        assert_eq!(
            cong.makespan_us, pin.congestion_makespan_us,
            "{}: congestion makespan drifted",
            pin.name
        );
        let realistic = run(bench, &congestion, &TimingModel::realistic());
        assert_ne!(
            realistic.timed_makespan_us, pin.congestion_makespan_us,
            "{}: realistic timing must differ from the uniform-hop pin",
            pin.name
        );
    }
}
