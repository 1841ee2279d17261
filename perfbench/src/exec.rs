//! The calls one benchmark operation makes: compile, analyze, check.
//! These are the library entry points behind `muzzle compile`,
//! `muzzle simulate` and `muzzle explain --fidelity`.

use crate::workload::{Arm, Item};
use qccd_core::{compile, CompileResult};
use qccd_machine::MachineSpec;
use qccd_pack::ClockStats;
use qccd_sim::{
    attribute_fidelity_timed, simulate_timed, FidelityAttribution, SimParams, SimReport,
};
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;

/// One compiled output.
pub struct Output {
    pub result: CompileResult,
    /// The clock pipeline's race record ([`Arm::Clock`] only).
    pub clock: Option<ClockStats>,
}

pub fn compile_arm(item: &Item, spec: &MachineSpec, arm: Arm) -> Result<Output, String> {
    compile_with(item, spec, arm, arm.config())
}

/// [`compile_arm`] under an explicit configuration (the `--jobs 1`
/// reference compile of the clock arm).
pub fn compile_with(
    item: &Item,
    spec: &MachineSpec,
    arm: Arm,
    config: qccd_core::CompilerConfig,
) -> Result<Output, String> {
    if arm == Arm::Clock {
        let (result, stats) =
            qccd_pack::compile_clock(&item.circuit, spec, &config).map_err(|e| e.to_string())?;
        Ok(Output {
            result,
            clock: Some(stats),
        })
    } else {
        let result = compile(&item.circuit, spec, &config).map_err(|e| e.to_string())?;
        Ok(Output {
            result,
            clock: None,
        })
    }
}

pub fn simulate(item: &Item, spec: &MachineSpec, out: &Output) -> Result<SimReport, String> {
    let r = &out.result;
    simulate_timed(
        &r.schedule,
        &r.transport,
        &item.circuit,
        spec,
        &SimParams::default(),
        &r.timing,
    )
    .map_err(|e| format!("simulate: {e}"))
}

pub fn attribute(
    item: &Item,
    spec: &MachineSpec,
    out: &Output,
) -> Result<FidelityAttribution, String> {
    let r = &out.result;
    attribute_fidelity_timed(
        &r.schedule,
        &r.transport,
        &item.circuit,
        spec,
        &SimParams::default(),
        &r.timing,
    )
    .map_err(|e| format!("attribute: {e}"))
}

/// Replays `out.schedule` against the circuit and machine.
pub fn check_schedule(item: &Item, spec: &MachineSpec, out: &Output) -> Result<(), String> {
    out.result
        .schedule
        .validate(&item.circuit, spec)
        .map_err(|e| format!("schedule: {e}"))
}

/// Replays the transport rounds: strictly where the arm keeps flat order
/// (serial and congestion routers), relaxed where lookahead or packing
/// may reorder hops inside a gate-free run (the clock pipeline).
pub fn check_transport(spec: &MachineSpec, arm: Arm, out: &Output) -> Result<(), String> {
    let r = &out.result;
    let checked = if arm == Arm::Clock {
        r.transport.validate_relaxed(&r.schedule, spec)
    } else {
        r.transport.validate(&r.schedule, spec)
    };
    checked.map_err(|e| format!("transport: {e}"))
}

pub fn check_timeline(out: &Output) -> Result<(), String> {
    out.result
        .timeline
        .validate()
        .map_err(|e| format!("timeline: {e}"))
}

/// The identities every analysed output must satisfy.
pub fn check_analysis(report: &SimReport, attr: &FidelityAttribution) -> Result<(), String> {
    if !attr.identity_holds() {
        return Err("fidelity attribution does not reproduce the simulator's log fidelity".into());
    }
    if attr.report.log_program_fidelity.to_bits() != report.log_program_fidelity.to_bits() {
        return Err("attribution replay and simulate_timed disagree".into());
    }
    Ok(())
}

/// A digest of everything a compile returns: schedule, transport rounds,
/// timeline, counters and race record. It hashes their `Debug` form, which
/// prints every float with round-trip precision, so equal digests mean
/// bit-for-bit equal outputs (up to a 64-bit collision).
pub fn fingerprint(out: &Output) -> u64 {
    struct Digest(DefaultHasher);
    impl fmt::Write for Digest {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let r = &out.result;
    let mut d = Digest(DefaultHasher::new());
    write!(
        d,
        "{:?}{:?}{:?}{:?}{:?}",
        r.schedule, r.transport, r.timeline, r.stats, out.clock
    )
    .expect("hashing cannot fail");
    d.0.finish()
}
