//! Shuttle-direction policies: baseline excess-capacity (Listing 1) and
//! the paper's future-ops move score (§III-A).

use crate::config::DirectionPolicy;
use crate::next_use::NextUse;
use qccd_circuit::{Circuit, DependencyDag, GateId, Qubit};
use qccd_machine::{IonId, MachineState, TrapId};
use std::collections::VecDeque;

/// The outcome of a shuttle-direction decision for a cross-trap gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveDecision {
    /// The ion that will move.
    pub ion: IonId,
    /// Its current trap.
    pub from: TrapId,
    /// The trap it will move to (the other operand's trap).
    pub to: TrapId,
}

impl MoveDecision {
    /// The decision that moves the *other* ion instead.
    pub fn opposite(self, other_ion: IonId) -> MoveDecision {
        MoveDecision {
            ion: other_ion,
            from: self.to,
            to: self.from,
        }
    }
}

/// The two move scores of §III-A2, exposed for tests and diagnostics
/// (Table I of the paper reports exactly these numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MoveScores {
    /// `ionA(A→B)` move score: future gates satisfied if both ions end up
    /// in `trapB`.
    pub a_to_b: u32,
    /// `ionB(B→A)` move score: future gates satisfied if both ions end up
    /// in `trapA`.
    pub b_to_a: u32,
}

/// How the §III-A3 proximity gap between consecutive relevant gates is
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProximityMetric {
    /// Gap in dependency-graph layers (scale-invariant; the default).
    Layers,
    /// Gap in intervening gates of the planned order (the paper's text
    /// read literally; kept for ablation).
    Gates,
}

/// A direction decision plus the §III-A tie information a timed objective
/// needs: when the move scores tie, *both* orientations are genuinely open
/// — the paper's text does not specify one — and `alternative` carries the
/// orientation the excess-capacity fallback rejected, so a clock-driven
/// compiler can re-arbitrate the tie on projected makespan instead. The
/// re-arbitration prices each orientation's planned walk speculatively
/// (O(delta) by default, the full re-lower oracle under
/// `--score-mode full`; the two are pinned bit-for-bit identical), so
/// surfacing the alternative never changes what the configured policy
/// alone would decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionChoice {
    /// The decision the configured policy arrives at (ties broken by the
    /// excess-capacity fallback, as always).
    pub decision: MoveDecision,
    /// The other orientation, present only when the future-ops move scores
    /// tied and the decision was therefore open.
    pub alternative: Option<MoveDecision>,
}

/// Decides which ion of the cross-trap gate at `pending[active_pos]` moves.
///
/// `pending` is the planned execution order of the not-yet-executed gates
/// (layer-sorted); the scan for future operations walks it forward from the
/// active gate. Ion positions are taken from the *current* machine state —
/// the paper's proximity cutoff exists precisely because distant future
/// gates "may not represent ion locations correctly" (§III-A3).
///
/// # Panics
///
/// Panics if the active gate is not a two-qubit gate spanning two traps —
/// the scheduler only calls this for gates that need a shuttle.
pub fn decide_direction(
    policy: DirectionPolicy,
    circuit: &Circuit,
    dag: &DependencyDag,
    state: &MachineState,
    pending: &VecDeque<GateId>,
    active_pos: usize,
) -> MoveDecision {
    decide_direction_open(policy, circuit, dag, state, pending, active_pos).decision
}

/// [`decide_direction`] with the tie surfaced: identical decision, plus
/// the rejected orientation whenever the §III-A move scores tied (see
/// [`DirectionChoice`]). The shuttle-count objective ignores the
/// alternative; the clock objective scores both on the projected device
/// clock.
///
/// Cost: one O(pending) pass indexing each ion's two-qubit gates from
/// `pending[active_pos..]`, then the decision itself. The compile loop
/// keeps that index current across decisions instead of rebuilding it,
/// so a decision there costs only the §III-A scan: O(relevant gates
/// within the proximity cutoff) under
/// [`DirectionPolicy::FutureOps`], O(proximity window) under the
/// positional [`DirectionPolicy::FutureOpsGateDistance`] ablation, which
/// walks `pending`, and O(1) under [`DirectionPolicy::ExcessCapacity`].
/// It reads the operands' traps and the excess capacities of those two
/// traps from `state`, and the layers of the scanned gates from `dag`.
pub fn decide_direction_open(
    policy: DirectionPolicy,
    circuit: &Circuit,
    dag: &DependencyDag,
    state: &MachineState,
    pending: &VecDeque<GateId>,
    active_pos: usize,
) -> DirectionChoice {
    let next_use = NextUse::new(
        circuit,
        state.num_ions() as usize,
        pending.range(active_pos..).copied(),
    );
    decide_direction_indexed(policy, circuit, dag, state, pending, active_pos, &next_use)
}

/// [`decide_direction_open`] over a caller-maintained [`NextUse`] index,
/// in which the gate at `pending[active_pos]` must be ready: the first
/// unexecuted gate of both its operands.
pub(crate) fn decide_direction_indexed(
    policy: DirectionPolicy,
    circuit: &Circuit,
    dag: &DependencyDag,
    state: &MachineState,
    pending: &VecDeque<GateId>,
    active_pos: usize,
    next_use: &NextUse,
) -> DirectionChoice {
    let gate = circuit.gate(pending[active_pos]);
    let (qa, qb) = gate
        .two_qubit_operands()
        .expect("direction decision requires a two-qubit gate");
    let (ion_a, ion_b) = (IonId::from(qa), IonId::from(qb));
    let (trap_a, trap_b) = (state.trap_of(ion_a), state.trap_of(ion_b));
    assert_ne!(trap_a, trap_b, "gate operands are already co-located");

    let scored = |metric: ProximityMetric, proximity: u32| -> DirectionChoice {
        let scan = || {
            move_scores_scan(
                circuit, dag, state, pending, active_pos, qa, qb, trap_a, trap_b, proximity, metric,
            )
        };
        let scores = match metric {
            ProximityMetric::Layers => {
                let scores = move_scores(
                    circuit, dag, state, next_use, qa, qb, trap_a, trap_b, proximity,
                );
                debug_assert_eq!(scores, scan(), "indexed §III-A scores diverged");
                scores
            }
            ProximityMetric::Gates => scan(),
        };
        if scores.a_to_b > scores.b_to_a {
            DirectionChoice {
                decision: MoveDecision {
                    ion: ion_a,
                    from: trap_a,
                    to: trap_b,
                },
                alternative: None,
            }
        } else if scores.b_to_a > scores.a_to_b {
            DirectionChoice {
                decision: MoveDecision {
                    ion: ion_b,
                    from: trap_b,
                    to: trap_a,
                },
                alternative: None,
            }
        } else {
            // Tie: the paper does not specify; fall back to the
            // excess-capacity rule, which both compilers share — and
            // surface the rejected orientation as an open alternative.
            let decision = excess_capacity_direction(state, ion_a, ion_b, trap_a, trap_b);
            let other = if decision.ion == ion_a { ion_b } else { ion_a };
            qccd_obs::debug("core.direction", || {
                format!(
                    "open tie: ion {} {}->{} (alt ion {}), excess-capacity rule decided",
                    decision.ion.index(),
                    decision.from.index(),
                    decision.to.index(),
                    other.index(),
                )
            });
            DirectionChoice {
                decision,
                alternative: Some(decision.opposite(other)),
            }
        }
    };

    match policy {
        DirectionPolicy::ExcessCapacity => DirectionChoice {
            decision: excess_capacity_direction(state, ion_a, ion_b, trap_a, trap_b),
            alternative: None,
        },
        DirectionPolicy::FutureOps { proximity } => scored(ProximityMetric::Layers, proximity),
        DirectionPolicy::FutureOpsGateDistance { proximity } => {
            scored(ProximityMetric::Gates, proximity)
        }
    }
}

/// Listing 1 of the paper. `ion_a` is the gate's first operand
/// ("trap0" in the listing), `ion_b` the second ("trap1").
fn excess_capacity_direction(
    state: &MachineState,
    ion_a: IonId,
    ion_b: IonId,
    trap_a: TrapId,
    trap_b: TrapId,
) -> MoveDecision {
    let (ec_a, ec_b) = (state.excess_capacity(trap_a), state.excess_capacity(trap_b));
    if ec_a <= ec_b {
        // Listing 1 lines 1-4: strictly-less moves trap0 → trap1, and the
        // tie also moves the 1st ion of the gate.
        MoveDecision {
            ion: ion_a,
            from: trap_a,
            to: trap_b,
        }
    } else {
        MoveDecision {
            ion: ion_b,
            from: trap_b,
            to: trap_a,
        }
    }
}

/// Computes the §III-A2 move scores for the active gate `(qa, qb)`,
/// honouring the §III-A3 proximity cutoff in dependency-graph layers.
///
/// Reads only `next_use`: the active gate must be the first unexecuted
/// gate of both operands (every gate the scheduler decides is ready). The
/// later gates of `qa` and `qb` are merged in `(layer, id)` order — the
/// order of the planned queue — counting a gate of both operands once.
/// When the layer gap since the previous relevant gate exceeds
/// `proximity`, the scan stops and all later gates are excluded.
///
/// Cost: O(relevant gates in range), independent of the width of the
/// pending queue. It answers exactly what [`move_scores_scan`] does under
/// [`ProximityMetric::Layers`]: the queue is layer-sorted, so an
/// irrelevant gate whose gap would stop that walk is followed by a
/// relevant gate whose gap stops it too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn move_scores(
    circuit: &Circuit,
    dag: &DependencyDag,
    state: &MachineState,
    next_use: &NextUse,
    qa: Qubit,
    qb: Qubit,
    trap_a: TrapId,
    trap_b: TrapId,
    proximity: u32,
) -> MoveScores {
    let (a, b) = (
        next_use.remaining(IonId::from(qa)),
        next_use.remaining(IonId::from(qb)),
    );
    debug_assert!(
        !a.is_empty() && a.first() == b.first(),
        "the active gate heads both operands' next-use lists"
    );
    let mut scores = MoveScores::default();
    let key = |g: GateId| (dag.layer_of(g), g.0);
    let mut last_layer = dag.layer_of(a[0]);
    let (mut i, mut j) = (1, 1);
    loop {
        let gid = match (a.get(i), b.get(j)) {
            (None, None) => break,
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if key(x) < key(y) => {
                i += 1;
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
        };
        let layer = dag.layer_of(gid);
        if layer.saturating_sub(last_layer) > proximity {
            break;
        }
        last_layer = layer;
        let (x, y) = circuit
            .gate(gid)
            .two_qubit_operands()
            .expect("next-use lists hold two-qubit gates");
        score_gate(&mut scores, state, x, y, qa, qb, trap_a, trap_b);
    }
    scores
}

/// The queue walk behind [`move_scores`], and the positional
/// [`ProximityMetric::Gates`] ablation's only implementation.
///
/// Scanning walks `pending` past the active gate. A gate is *relevant* if
/// it involves `qa` or `qb`. When the gap since the previous relevant gate
/// (measured per `metric`) exceeds `proximity`, the scan stops and all
/// later gates are excluded. Cost: O(proximity window) of `pending`,
/// which on wide circuits is hundreds of gates per decision; under
/// [`ProximityMetric::Layers`] it serves as the oracle that debug builds
/// check every [`move_scores`] answer against.
#[allow(clippy::too_many_arguments)]
pub(crate) fn move_scores_scan(
    circuit: &Circuit,
    dag: &DependencyDag,
    state: &MachineState,
    pending: &VecDeque<GateId>,
    active_pos: usize,
    qa: Qubit,
    qb: Qubit,
    trap_a: TrapId,
    trap_b: TrapId,
    proximity: u32,
    metric: ProximityMetric,
) -> MoveScores {
    let mut scores = MoveScores::default();
    let mut last_pos = active_pos;
    let mut last_layer = dag.layer_of(pending[active_pos]);
    #[allow(clippy::needless_range_loop)] // VecDeque range iteration needs indices for gap math
    for pos in (active_pos + 1)..pending.len() {
        let gid = pending[pos];
        // Gap from the previous relevant gate, in the configured unit. The
        // queue is layer-sorted and positions only grow, so once the gap
        // exceeds the cutoff for a *non-relevant* gate no later relevant
        // gate can be back within range — break either way.
        let gap = match metric {
            ProximityMetric::Layers => u64::from(dag.layer_of(gid).saturating_sub(last_layer)),
            ProximityMetric::Gates => (pos - last_pos - 1) as u64,
        };
        if gap > u64::from(proximity) {
            break;
        }
        let gate = circuit.gate(gid);
        let Some((x, y)) = gate.two_qubit_operands() else {
            continue; // single-qubit gates only widen the gap
        };
        if x != qa && x != qb && y != qa && y != qb {
            continue;
        }
        last_pos = pos;
        last_layer = dag.layer_of(gid);
        score_gate(&mut scores, state, x, y, qa, qb, trap_a, trap_b);
    }
    scores
}

/// Adds the relevant gate `(x, y)` to `scores`: each operand that is `qa`
/// or `qb` pulls toward its partner's trap.
#[allow(clippy::too_many_arguments)]
fn score_gate(
    scores: &mut MoveScores,
    state: &MachineState,
    x: Qubit,
    y: Qubit,
    qa: Qubit,
    qb: Qubit,
    trap_a: TrapId,
    trap_b: TrapId,
) {
    for (p, partner) in [(x, y), (y, x)] {
        if p != qa && p != qb {
            continue;
        }
        let partner_trap = state.trap_of(IonId::from(partner));
        if partner_trap == trap_b {
            scores.a_to_b += 1;
        } else if partner_trap == trap_a {
            scores.b_to_a += 1;
        }
        // Partners in third traps influence neither direction.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::Opcode;
    use qccd_machine::{InitialMapping, MachineSpec};

    /// A decision scenario: the circuit, its DAG, the machine state, the
    /// planned queue and the next-use index built from that queue.
    struct Fixture {
        c: Circuit,
        dag: DependencyDag,
        state: MachineState,
        pending: VecDeque<GateId>,
        index: NextUse,
    }

    impl Fixture {
        fn new(c: Circuit, state: MachineState, pending: VecDeque<GateId>) -> Self {
            let dag = c.dependency_dag();
            let index = NextUse::new(&c, state.num_ions() as usize, pending.iter().copied());
            Fixture {
                c,
                dag,
                state,
                pending,
                index,
            }
        }

        /// `pending` in the DAG's topological order.
        fn topological(c: Circuit, state: MachineState) -> Self {
            let pending = c.dependency_dag().topological_order().into();
            Fixture::new(c, state, pending)
        }

        /// The §III-A scores of the front gate `(qa, qb)`: from the index
        /// under the layer metric (asserted equal to the queue walk), from
        /// the queue walk under the gate metric.
        fn scores(&self, qa: u32, qb: u32, proximity: u32, metric: ProximityMetric) -> MoveScores {
            let (qa, qb) = (Qubit(qa), Qubit(qb));
            let (ta, tb) = (
                self.state.trap_of(IonId::from(qa)),
                self.state.trap_of(IonId::from(qb)),
            );
            let scan = move_scores_scan(
                &self.c,
                &self.dag,
                &self.state,
                &self.pending,
                0,
                qa,
                qb,
                ta,
                tb,
                proximity,
                metric,
            );
            if metric == ProximityMetric::Gates {
                return scan;
            }
            let indexed = move_scores(
                &self.c,
                &self.dag,
                &self.state,
                &self.index,
                qa,
                qb,
                ta,
                tb,
                proximity,
            );
            assert_eq!(indexed, scan, "index and queue walk disagree");
            indexed
        }

        /// The scheduler's decision for the front gate.
        fn decide(&self, policy: DirectionPolicy) -> DirectionChoice {
            decide_direction_indexed(
                policy,
                &self.c,
                &self.dag,
                &self.state,
                &self.pending,
                0,
                &self.index,
            )
        }
    }

    fn state_of(spec: &MachineSpec, traps: &[u32]) -> MachineState {
        let traps = traps.iter().map(|&t| TrapId(t)).collect();
        let mapping = InitialMapping::from_traps(spec, traps).unwrap();
        MachineState::with_mapping(spec, &mapping).unwrap()
    }

    /// Builds the Fig. 4 scenario: 2 traps of capacity 4; ions 0,1 in T0;
    /// ions 2,3,4 in T1. Gates A-D.
    fn fig4() -> Fixture {
        let mut c = Circuit::new(5);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap(); // A
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap(); // B
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap(); // C
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(4)).unwrap(); // D
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let state = state_of(&spec, &[0, 0, 1, 1, 1]);
        Fixture::new(c, state, (0..4).map(GateId).collect())
    }

    /// A single cross-trap gate (1, 2) with no future gates, ions 0,1 in
    /// T0 and 2,3,4 in T1: EC(T0)=2 > EC(T1)=1.
    fn lone_gate() -> Fixture {
        let mut c = Circuit::new(5);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let state = state_of(&spec, &[0, 0, 1, 1, 1]);
        Fixture::new(c, state, [GateId(0)].into_iter().collect())
    }

    #[test]
    fn paper_table1_move_score() {
        // Table I: ionA=1, ionB=2, trapA=T0, trapB=T1.
        // ionA(A→B) = 3 (Gate-C + Gates B,D), ionB(B→A) = 1 (Gate-C).
        let fx = fig4();
        for metric in [ProximityMetric::Layers, ProximityMetric::Gates] {
            assert_eq!(
                fx.scores(1, 2, 6, metric),
                MoveScores {
                    a_to_b: 3,
                    b_to_a: 1
                },
                "metric {metric:?}"
            );
        }
    }

    #[test]
    fn future_ops_moves_ion1_to_t1() {
        // §III-A2: "ionA = 1 will move from trapA (T0) to trapB (T1)".
        let fx = fig4();
        let expected = MoveDecision {
            ion: IonId(1),
            from: TrapId(0),
            to: TrapId(1),
        };
        let policy = DirectionPolicy::FutureOps { proximity: 6 };
        assert_eq!(fx.decide(policy).decision, expected);
        let public = decide_direction(policy, &fx.c, &fx.dag, &fx.state, &fx.pending, 0);
        assert_eq!(public, expected);
    }

    #[test]
    fn excess_capacity_moves_ion2_to_t0() {
        // Fig. 4: EC(T0)=2 > EC(T1)=1, so the baseline moves ion 2 into T0.
        let fx = fig4();
        let d = decide_direction(
            DirectionPolicy::ExcessCapacity,
            &fx.c,
            &fx.dag,
            &fx.state,
            &fx.pending,
            0,
        );
        assert_eq!(
            d,
            MoveDecision {
                ion: IonId(2),
                from: TrapId(1),
                to: TrapId(0)
            }
        );
    }

    #[test]
    fn excess_capacity_tie_moves_first_ion() {
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        // 2 ions per trap: equal ECs.
        let fx = Fixture::new(
            c,
            state_of(&spec, &[0, 0, 1, 1]),
            [GateId(0)].into_iter().collect(),
        );
        let d = fx.decide(DirectionPolicy::ExcessCapacity).decision;
        assert_eq!(d.ion, IonId(0), "tie moves the gate's first ion");
        assert_eq!(d.to, TrapId(1));
    }

    /// Builds the Fig. 5 scenario: relevant gates 1 and 3 are close; gate
    /// 11 is separated from gate 3 by a 7-gate (and 7-layer) filler chain.
    fn fig5() -> Fixture {
        let mut c = Circuit::new(10);
        let (a, b, cc, d) = (Qubit(0), Qubit(1), Qubit(2), Qubit(3));
        c.push_two_qubit(Opcode::Ms, a, b).unwrap(); // 1 (active)
        c.push_two_qubit(Opcode::Ms, cc, Qubit(4)).unwrap(); // 2 (filler)
        c.push_two_qubit(Opcode::Ms, a, cc).unwrap(); // 3 relevant

        // Filler chain on qubits 8-9: each gate depends on the previous,
        // pushing layers (and positions) 7 deep.
        for _ in 0..7 {
            c.push_two_qubit(Opcode::Ms, Qubit(8), Qubit(9)).unwrap(); // 4..=10
        }
        // Gate 11 involves b and d, with d fed through the filler chain so
        // its layer is deep under both metrics.
        c.push_two_qubit(Opcode::Ms, Qubit(9), d).unwrap(); // chains d deep
        c.push_two_qubit(Opcode::Ms, b, d).unwrap(); // "gate 11" relevant but distant
        let spec = MachineSpec::linear(2, 8, 2).unwrap();
        // a in T0; b, c (gate 3 counts toward a_to_b) and d (gate 11 would
        // also count toward a_to_b) in T1.
        let state = state_of(&spec, &[0, 1, 1, 1, 0, 0, 0, 1, 1, 0]);
        let fx = Fixture::topological(c, state);
        // The active gate (a,b) must be at the front for the scan.
        assert_eq!(fx.pending[0], GateId(0));
        fx
    }

    #[test]
    fn proximity_excludes_distant_gates_both_metrics() {
        // Fig. 5: gate 3 is close (considered); the late (b,d) gate is
        // beyond the proximity-6 horizon under both metrics.
        let fx = fig5();
        for metric in [ProximityMetric::Layers, ProximityMetric::Gates] {
            assert_eq!(
                fx.scores(0, 1, 6, metric),
                MoveScores {
                    a_to_b: 1,
                    b_to_a: 0
                },
                "only gate 3 counts under {metric:?}"
            );
            // A generous proximity includes the distant gate too.
            assert_eq!(
                fx.scores(0, 1, 50, metric),
                MoveScores {
                    a_to_b: 2,
                    b_to_a: 0
                },
                "distant gate included under {metric:?} with proximity 50"
            );
        }
    }

    #[test]
    fn layer_metric_sees_parallel_relevant_gates() {
        // A wide layer: 20 independent filler gates sit between the active
        // gate and the relevant gate *in position*, but everything is in
        // layers 0-1. The layer metric keeps the relevant gate; the literal
        // gate metric discards it at proximity 6.
        let mut c = Circuit::new(46);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // active
        for i in 0..20 {
            let base = 4 + 2 * i;
            c.push_two_qubit(Opcode::Ms, Qubit(base), Qubit(base + 1))
                .unwrap();
        }
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(2)).unwrap(); // relevant, layer 1
        let spec = MachineSpec::linear(2, 60, 2).unwrap();
        // Qubits 1 and 2 live in T1; qubit 0 and all fillers in T0.
        let traps: Vec<u32> = (0..46).map(|q| u32::from(q == 1 || q == 2)).collect();
        let fx = Fixture::topological(c, state_of(&spec, &traps));
        assert_eq!(fx.pending[0], GateId(0));

        assert_eq!(
            fx.scores(0, 1, 6, ProximityMetric::Layers),
            MoveScores {
                a_to_b: 1,
                b_to_a: 0
            }
        );
        assert_eq!(
            fx.scores(0, 1, 6, ProximityMetric::Gates),
            MoveScores::default(),
            "literal gate distance discards the relevant gate behind 20 fillers"
        );
    }

    #[test]
    fn tie_falls_back_to_excess_capacity() {
        // No future gates at all: scores tie at 0; EC rule must decide.
        let fx = lone_gate();
        let d = fx
            .decide(DirectionPolicy::FutureOps { proximity: 6 })
            .decision;
        // EC(T0)=2 > EC(T1)=1: move ion 2 into T0 (same as baseline test).
        assert_eq!(d.ion, IonId(2));
    }

    #[test]
    fn open_ties_surface_both_orientations() {
        // No future gates: the scores tie, so the decision is open and the
        // alternative is the opposite orientation of the EC choice.
        let fx = lone_gate();
        let choice = decide_direction_open(
            DirectionPolicy::FutureOps { proximity: 6 },
            &fx.c,
            &fx.dag,
            &fx.state,
            &fx.pending,
            0,
        );
        assert_eq!(
            choice,
            fx.decide(DirectionPolicy::FutureOps { proximity: 6 })
        );
        let alt = choice.alternative.expect("scoreless gate ties");
        assert_ne!(choice.decision.ion, alt.ion);
        assert_eq!(choice.decision.from, alt.to);
        assert_eq!(choice.decision.to, alt.from);

        // A decisive score (the Fig. 4 setup) surfaces no alternative, and
        // the EC policy never does.
        let fx = fig4();
        let decisive = fx.decide(DirectionPolicy::FutureOps { proximity: 6 });
        assert_eq!(decisive.alternative, None);
        let ec = fx.decide(DirectionPolicy::ExcessCapacity);
        assert_eq!(ec.alternative, None);
    }

    #[test]
    fn partners_in_third_traps_are_neutral() {
        let mut c = Circuit::new(6);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // active
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(5)).unwrap(); // partner in T2
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let state = state_of(&spec, &[0, 1, 0, 1, 2, 2]);
        let fx = Fixture::new(c, state, (0..2).map(GateId).collect());
        assert_eq!(
            fx.scores(0, 1, 6, ProximityMetric::Layers),
            MoveScores::default()
        );
    }

    #[test]
    fn opposite_decision() {
        let d = MoveDecision {
            ion: IonId(1),
            from: TrapId(0),
            to: TrapId(1),
        };
        let o = d.opposite(IonId(2));
        assert_eq!(
            o,
            MoveDecision {
                ion: IonId(2),
                from: TrapId(1),
                to: TrapId(0)
            }
        );
    }
}
