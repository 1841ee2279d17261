//! Determinism properties of `--jobs N`: racing the clock pipeline's two
//! arms on threads must be a pure wall-clock optimization.
//!
//! Invariants checked:
//!
//! 1. **Core compile parity** — `compile` under the clock objective
//!    produces bit-for-bit identical schedules, transport and stats at
//!    every `jobs` width, on {linear, ring, grid} topologies under both
//!    timing models (the compile loop itself is sequential at every
//!    width).
//! 2. **Full pipeline parity** — `compile_clock` (the default-objective
//!    packed stack and the clock candidate raced on scoped threads at
//!    `jobs >= 2`) is bit-for-bit identical at jobs ∈ {1, 2, 8},
//!    including the chosen timeline's makespan bits.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompilerConfig, Objective};
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::pack::compile_clock;
use muzzle_shuttle::timing::TimingModel;

/// The three paper topologies at a size where shuttling is forced.
fn specs() -> Vec<(&'static str, MachineSpec)> {
    vec![
        (
            "linear",
            MachineSpec::linear(3, 8, 2).expect("linear spec builds"),
        ),
        (
            "ring",
            MachineSpec::new(TrapTopology::ring(4), 8, 2).expect("ring spec builds"),
        ),
        (
            "grid",
            MachineSpec::new(TrapTopology::grid(2, 2), 8, 2).expect("grid spec builds"),
        ),
    ]
}

fn models() -> [(&'static str, TimingModel); 2] {
    [
        ("ideal", TimingModel::ideal()),
        ("realistic", TimingModel::realistic()),
    ]
}

#[test]
fn core_clock_compile_is_bit_identical_at_every_pool_width() {
    for (topo, spec) in specs() {
        let circuit = random_circuit(10, 50, 0x9e37);
        for (timing, model) in models() {
            let config = CompilerConfig::optimized()
                .with_timing(model)
                .with_objective(Objective::Clock);
            let base = compile(&circuit, &spec, &config)
                .unwrap_or_else(|e| panic!("{topo}/{timing}: sequential compile failed: {e}"));
            for jobs in [2usize, 8] {
                let wide = compile(&circuit, &spec, &config.with_jobs(jobs))
                    .unwrap_or_else(|e| panic!("{topo}/{timing}: jobs={jobs} compile failed: {e}"));
                assert_eq!(wide.stats, base.stats, "{topo}/{timing} jobs={jobs}");
                assert_eq!(wide.schedule, base.schedule, "{topo}/{timing} jobs={jobs}");
                assert_eq!(
                    wide.transport, base.transport,
                    "{topo}/{timing} jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn clock_pipeline_is_bit_identical_at_every_pool_width() {
    for (topo, spec) in specs() {
        let circuit = random_circuit(10, 40, 0x51f1);
        for (timing, model) in models() {
            let config = CompilerConfig::optimized().with_timing(model);
            let (base, base_stats) = compile_clock(&circuit, &spec, &config)
                .unwrap_or_else(|e| panic!("{topo}/{timing}: sequential pipeline failed: {e}"));
            for jobs in [2usize, 8] {
                let (wide, wide_stats) = compile_clock(&circuit, &spec, &config.with_jobs(jobs))
                    .unwrap_or_else(|e| {
                        panic!("{topo}/{timing}: jobs={jobs} pipeline failed: {e}")
                    });
                assert_eq!(wide_stats, base_stats, "{topo}/{timing} jobs={jobs}");
                assert_eq!(wide.schedule, base.schedule, "{topo}/{timing} jobs={jobs}");
                assert_eq!(
                    wide.transport, base.transport,
                    "{topo}/{timing} jobs={jobs}"
                );
                assert_eq!(
                    wide.timeline.makespan_us.to_bits(),
                    base.timeline.makespan_us.to_bits(),
                    "{topo}/{timing} jobs={jobs}"
                );
            }
        }
    }
}
