//! Per-ion next-use lists: the compile loop's index of the remaining
//! two-qubit gates of every ion.
//!
//! The dependency DAG is qubit-carried, so an ion's gates execute in
//! program order and their layers strictly increase along its list. The
//! unexecuted gates of an ion are therefore always a suffix of its list,
//! and a single cursor per ion tracks them. A *ready* gate is the first
//! unexecuted gate of both its operands, which is what lets the §III-A
//! move score and the §III-C2 ion selection read only the few gates that
//! concern them instead of walking the whole pending queue.

use qccd_circuit::{Circuit, GateId};
use qccd_machine::IonId;

/// Each ion's two-qubit gates in program order, in one flat array, plus a
/// cursor to its first unexecuted gate.
#[derive(Debug, Clone)]
pub(crate) struct NextUse {
    /// `gates[starts[i]..starts[i + 1]]` are ion `i`'s gates.
    gates: Vec<GateId>,
    starts: Vec<u32>,
    /// Absolute index into `gates` of ion `i`'s first unexecuted gate.
    cursor: Vec<u32>,
}

impl NextUse {
    /// Indexes the two-qubit gates among `gates` for a machine of
    /// `num_ions` ions (ions beyond the circuit's qubits get empty lists).
    /// `gates` must list each ion's gates in program order — the circuit's
    /// own order, or any layer-sorted queue of them.
    pub(crate) fn new(
        circuit: &Circuit,
        num_ions: usize,
        gates: impl Iterator<Item = GateId> + Clone,
    ) -> Self {
        let operands = |gid: GateId| {
            circuit
                .gate(gid)
                .two_qubit_operands()
                .into_iter()
                .flat_map(|(a, b)| [IonId::from(a), IonId::from(b)])
        };
        let mut starts = vec![0u32; num_ions + 1];
        for ion in gates.clone().flat_map(operands) {
            starts[ion.index() + 1] += 1;
        }
        for i in 0..num_ions {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts[..num_ions].to_vec();
        let mut flat = vec![GateId(0); starts[num_ions] as usize];
        for gid in gates {
            for ion in operands(gid) {
                flat[cursor[ion.index()] as usize] = gid;
                cursor[ion.index()] += 1;
            }
        }
        cursor.copy_from_slice(&starts[..num_ions]);
        NextUse {
            gates: flat,
            starts,
            cursor,
        }
    }

    /// `ion`'s unexecuted two-qubit gates, in program order.
    pub(crate) fn remaining(&self, ion: IonId) -> &[GateId] {
        let i = ion.index();
        &self.gates[self.cursor[i] as usize..self.starts[i + 1] as usize]
    }

    /// Records that `gate` executed. Single-qubit gates are not indexed.
    pub(crate) fn advance(&mut self, circuit: &Circuit, gate: GateId) {
        let Some((a, b)) = circuit.gate(gate).two_qubit_operands() else {
            return;
        };
        for ion in [IonId::from(a), IonId::from(b)] {
            debug_assert_eq!(
                self.remaining(ion).first(),
                Some(&gate),
                "gates execute in program order on every ion"
            );
            self.cursor[ion.index()] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{Opcode, Qubit};

    #[test]
    fn lists_follow_program_order_and_advance_per_ion() {
        let mut c = Circuit::new(3);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // g0
        c.push_single_qubit(Opcode::Rx, Qubit(1)).unwrap(); // g1, not indexed
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap(); // g2
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // g3
        let mut index = NextUse::new(&c, 4, (0..4).map(GateId));
        assert_eq!(index.remaining(IonId(0)), [GateId(0), GateId(3)]);
        assert_eq!(index.remaining(IonId(1)), [GateId(0), GateId(2), GateId(3)]);
        assert_eq!(index.remaining(IonId(2)), [GateId(2)]);
        assert!(index.remaining(IonId(3)).is_empty(), "ion without gates");

        index.advance(&c, GateId(0));
        index.advance(&c, GateId(1));
        assert_eq!(index.remaining(IonId(0)), [GateId(3)]);
        assert_eq!(index.remaining(IonId(1)), [GateId(2), GateId(3)]);
        index.advance(&c, GateId(2));
        assert!(index.remaining(IonId(2)).is_empty());
        assert_eq!(index.remaining(IonId(1)), [GateId(3)]);
    }
}
