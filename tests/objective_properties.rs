//! Property tests for the timed compile-loop objective: random circuits
//! × {linear, ring, grid} topologies × all router stacks.
//!
//! Invariants checked on every sampled instance:
//!
//! 1. **Gate semantics** — a `--objective clock` compile passes the strict
//!    schedule validator (every gate exactly once, dependency order,
//!    co-located operands) and its transport rounds replay-validate, so
//!    the final mapping is exactly what the flat schedule's own replay
//!    produces — the same gate semantics the shuttle-count objective
//!    guarantees.
//! 2. **Replay equivalence** — packing a clock-objective result passes
//!    [`validate_equivalent`] (same gates in the same traps, identical
//!    final mapping) and never regresses the clock, i.e. the clock
//!    objective composes with the existing replay-equivalence machinery.
//! 3. **Speculative scoring is exact** — the fold the objective threads
//!    through the loop (checkpoint → score candidates → rollback → commit
//!    winner) ends *bit-for-bit equal* to a fresh transport-less full
//!    [`lower`] of the committed schedule: speculation never leaks into
//!    the committed state.
//! 4. **Pipeline never regresses** — `compile_clock`'s chosen result is
//!    never above the default-objective packed stack on the clock.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompilerConfig, Objective, RouterPolicy};
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::pack::{compile_clock, pack, validate_equivalent};
use muzzle_shuttle::timing::{lower, TimingModel};
use proptest::prelude::*;

fn topology_strategy() -> impl Strategy<Value = TrapTopology> {
    prop_oneof![
        (2u32..=6).prop_map(TrapTopology::linear),
        (3u32..=8).prop_map(TrapTopology::ring),
        prop_oneof![
            Just(TrapTopology::grid(2, 2)),
            Just(TrapTopology::grid(2, 3)),
            Just(TrapTopology::grid(3, 3)),
        ],
    ]
}

/// The three router stacks: serial, congestion, congestion + lookahead.
fn router_stack(selector: usize) -> (RouterPolicy, bool) {
    match selector % 3 {
        0 => (RouterPolicy::Serial, false),
        1 => (RouterPolicy::congestion(), false),
        _ => (RouterPolicy::congestion(), true),
    }
}

fn spec_for(topology: TrapTopology, qubits: u32) -> MachineSpec {
    let traps = topology.num_traps();
    let comm = 2u32;
    let per_trap = qubits.div_ceil(traps) + 1;
    MachineSpec::new(topology, per_trap + comm, comm).expect("constructed spec is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn clock_objective_keeps_gate_semantics_and_scores_exactly(
        topology in topology_strategy(),
        qubits in 4u32..=12,
        gates in 1usize..=60,
        seed in any::<u64>(),
        router_sel in 0usize..3,
        realistic in any::<bool>(),
    ) {
        let (router, lookahead) = router_stack(router_sel);
        let spec = spec_for(topology, qubits);
        let circuit = random_circuit(qubits, gates, seed);
        let model = if realistic {
            TimingModel::realistic()
        } else {
            TimingModel::ideal()
        };
        let config = CompilerConfig::optimized()
            .with_router(router)
            .with_lookahead(lookahead)
            .with_timing(model)
            .with_objective(Objective::Clock);
        let result = compile(&circuit, &spec, &config).expect("clock compile fits machine");

        // (1) Gate semantics: the strict schedule validator replays every
        // gate in dependency order with co-located operands — the same
        // contract the shuttle-count objective's results satisfy — and
        // the transport rounds replay to the identical final mapping.
        result
            .schedule
            .validate(&circuit, &spec)
            .expect("clock schedules keep strict gate semantics");
        result
            .transport
            .validate_relaxed(&result.schedule, &spec)
            .expect("clock transport rounds replay-validate");
        prop_assert_eq!(result.stats.gate_ops, circuit.len());

        // (3) The threaded checkpoint/score/rollback fold is bit-for-bit
        // a fresh transport-less full lower of the committed schedule.
        let fresh = lower(&result.schedule, None, &circuit, &spec, &model)
            .expect("committed schedules lower");
        let threaded = result
            .clock_serial_makespan_us
            .expect("clock objective records its fold");
        prop_assert_eq!(
            threaded.to_bits(),
            fresh.makespan_us.to_bits(),
            "threaded fold {} != fresh lower {}",
            threaded,
            fresh.makespan_us
        );

        // The default objective records no fold and must stay decoupled.
        let default_cfg = config.with_objective(Objective::Shuttles);
        let default_result =
            compile(&circuit, &spec, &default_cfg).expect("default compile fits machine");
        prop_assert_eq!(default_result.clock_serial_makespan_us, None);

        // (2) Replay equivalence: the pack validators accept the clock
        // result exactly as they accept shuttle-objective results.
        let packed = pack(&result, &circuit, &spec, &model)
            .expect("packing validates on clock-objective schedules");
        validate_equivalent(&result.schedule, &packed.schedule, &circuit, &spec)
            .expect("packed clock schedule must be replay-equivalent");
        packed
            .transport
            .validate(&packed.schedule, &spec)
            .expect("packed clock rounds must strict-validate");
        prop_assert!(packed.stats.packed_makespan_us <= packed.stats.input_makespan_us);
    }

    #[test]
    fn clock_pipeline_never_regresses_the_packed_stack(
        topology in topology_strategy(),
        qubits in 4u32..=10,
        gates in 1usize..=50,
        seed in any::<u64>(),
        realistic in any::<bool>(),
    ) {
        let spec = spec_for(topology, qubits);
        let circuit = random_circuit(qubits, gates, seed);
        let model = if realistic {
            TimingModel::realistic()
        } else {
            TimingModel::ideal()
        };
        let config = CompilerConfig::optimized().with_timing(model);
        let (result, stats) =
            compile_clock(&circuit, &spec, &config).expect("clock pipeline compiles");
        // (4) Never regress, and the chosen result is the chosen score.
        prop_assert!(stats.chosen_makespan_us <= stats.packed_makespan_us);
        prop_assert_eq!(result.timeline.makespan_us, stats.chosen_makespan_us);
        prop_assert_eq!(stats.improved, stats.clock_makespan_us < stats.packed_makespan_us);
        // The chosen result is fully validated whichever candidate won.
        result
            .schedule
            .validate(&circuit, &spec)
            .expect("chosen schedule validates");
        result
            .transport
            .validate_relaxed(&result.schedule, &spec)
            .expect("chosen transport validates");
        result.timeline.validate().expect("chosen timeline validates");
    }
}
