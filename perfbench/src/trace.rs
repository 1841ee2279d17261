//! The traced run: per-layer numbers, timed from the benchmark's side of
//! each crate's public functions.
//!
//! Each operation compiles its input twice — once plain, once with
//! `qccd_obs` recording — and reads the spans and counters the program
//! already records through `phase_stats`, `counters` and `histograms`.
//! It then re-times, on the same input and output, each public call
//! `compile()` makes (dependency DAG, initial mapping, schedule
//! validation, transport packing and validation, lowering), the analysis
//! calls, and for the clock pipeline each of its two arms. No span or
//! counter is added inside the program.

use crate::exec::{self, Output};
use crate::metrics::Values;
use crate::stats::{loglog_slope, ratio};
use crate::workload::{Arm, Item, Workload};
use crate::{guard, Measured, MAX_RUN};
use qccd_core::{initial_mapping, CompilerConfig, Objective, TransportSchedule};
use qccd_machine::MachineSpec;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` and returns its result with its wall time, ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Sums over every pass of the traced run.
#[derive(Default)]
struct Acc {
    /// Milliseconds per named layer call.
    ms: BTreeMap<&'static str, f64>,
    /// Span name → (inclusive, self) µs.
    spans: BTreeMap<String, (f64, f64)>,
    counters: BTreeMap<String, u64>,
    /// Tasks that ran inside pool shards (sum of `pool.shard_width`).
    sharded_tasks: u64,
    shuttles: usize,
    rebalance_shuttles: usize,
    gate_ops: usize,
    depth: usize,
    clock_compiles: usize,
    clock_wins: usize,
    replanned_runs: usize,
    /// Ladder points: (gates, compile ms, loop-estimate ms, transport
    /// validation ms).
    growth: Vec<(f64, f64, f64, f64)>,
}

impl Acc {
    fn add(&mut self, layer: &'static str, ms: f64) {
        *self.ms.entry(layer).or_default() += ms;
    }

    fn ms(&self, layer: &str) -> f64 {
        self.ms.get(layer).copied().unwrap_or(0.0)
    }

    fn span(&self, name: &str) -> (f64, f64) {
        self.spans.get(name).copied().unwrap_or((0.0, 0.0))
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Records what `qccd_obs` collected during one traced compile.
    fn absorb_trace(&mut self) {
        for p in qccd_obs::phase_stats() {
            let e = self.spans.entry(p.name).or_default();
            e.0 += p.total_us;
            e.1 += p.self_us;
        }
        for (name, v) in qccd_obs::counters() {
            *self.counters.entry(name).or_default() += v;
        }
        self.sharded_tasks += qccd_obs::histograms()
            .iter()
            .find(|h| h.name == "pool.shard_width")
            .map_or(0, |h| h.sum);
    }
}

pub fn run(wl: &Workload, seconds: Duration, generate_s: f64) -> Measured {
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut acc = Acc::default();
    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || (start.elapsed() < seconds && start.elapsed() < MAX_RUN) {
        for item in &wl.items {
            for &arm in item.arms {
                attempted += 1;
                if let Err(e) = guard(|| operate(&mut acc, item, &wl.machine, arm)) {
                    failed += 1;
                    eprintln!("FAILED {} [{}]: {e}", item.name, arm.name());
                }
            }
        }
        passes += 1;
    }
    eprintln!(
        "traced: {passes} passes in {:.1} s, {attempted} operations, {failed} failed",
        start.elapsed().as_secs_f64()
    );
    Measured {
        attempted,
        failed,
        values: values(&acc, passes as f64, generate_s),
    }
}

fn operate(acc: &mut Acc, item: &Item, spec: &MachineSpec, arm: Arm) -> Result<(), String> {
    let config = arm.config();
    let (out, compile_ms) = timed(|| exec::compile_arm(item, spec, arm));
    let out = out?;
    qccd_obs::reset();
    qccd_obs::enable();
    let (traced, traced_ms) = timed(|| exec::compile_arm(item, spec, arm));
    qccd_obs::disable();
    acc.absorb_trace();
    if exec::fingerprint(&out) != exec::fingerprint(&traced?) {
        return Err("traced compile differs from the plain compile".into());
    }
    acc.add("untraced", compile_ms);
    acc.add("traced", traced_ms);
    acc.add(compile_layer(arm), compile_ms);

    // The calls `compile()` makes around its loop, re-timed.
    let r = &out.result;
    let (_, dag) = timed(|| item.circuit.dependency_dag());
    let (_, mapping) = timed(|| initial_mapping(&item.circuit, spec, config.mapping));
    let (checked, sched_validate) = timed(|| exec::check_schedule(item, spec, &out));
    checked?;
    let (packed, packer) = timed(|| repack(arm, &r.schedule, spec));
    packed?;
    let (checked, transport_validate) = timed(|| exec::check_transport(spec, arm, &out));
    checked?;
    let (lowered, lower) = timed(|| {
        qccd_timing::lower(
            &r.schedule,
            Some(&r.transport),
            &item.circuit,
            spec,
            &r.timing,
        )
    });
    if lowered.map_err(|e| format!("lower: {e}"))? != r.timeline {
        return Err("re-lowered timeline differs from the compiled one".into());
    }
    exec::check_timeline(&out)?;
    acc.add("circuit.dag_ms", dag);
    acc.add("core.mapping_ms", mapping);
    acc.add("machine.schedule_validate_ms", sched_validate);
    acc.add(packer_layer(arm), packer);
    acc.add("route.transport_validate_ms", transport_validate);
    acc.add("timing.lower_ms", lower);

    let (report, simulate) = timed(|| exec::simulate(item, spec, &out));
    let (attr, attribute) = timed(|| exec::attribute(item, spec, &out));
    exec::check_analysis(&report?, &attr?)?;
    acc.add("sim.simulate_ms", simulate);
    acc.add("sim.attribute_ms", attribute);

    if arm == Arm::Clock {
        clock_arms(acc, item, spec, &config, &out)?;
    } else {
        let loop_est =
            compile_ms - (dag + mapping + sched_validate + packer + transport_validate + lower);
        acc.add("core.loop_ms_est", loop_est);
        if item.ladder {
            acc.growth.push((
                item.circuit.len() as f64,
                compile_ms,
                loop_est,
                transport_validate,
            ));
        }
    }
    if arm != Arm::Baseline {
        acc.shuttles += r.stats.shuttles;
        acc.rebalance_shuttles += r.stats.rebalance_shuttles;
        acc.gate_ops += r.stats.gate_ops;
        acc.depth += r.stats.transport_depth;
    }
    Ok(())
}

/// Times the clock pipeline's two arms one after the other: the
/// default-objective packed stack and the clock-objective candidate.
fn clock_arms(
    acc: &mut Acc,
    item: &Item,
    spec: &MachineSpec,
    config: &CompilerConfig,
    out: &Output,
) -> Result<(), String> {
    let compile_packed = |objective| {
        qccd_pack::compile_packed(&item.circuit, spec, &config.with_objective(objective))
            .map_err(|e| format!("compile_packed: {e}"))
    };
    let (base, base_ms) = timed(|| compile_packed(Objective::Shuttles));
    let (cand, cand_ms) = timed(|| compile_packed(Objective::Clock));
    let (base, cand) = (base?, cand?);
    acc.add("pack.arm_packed_ms", base_ms);
    acc.add("pack.arm_clock_ms", cand_ms);
    acc.replanned_runs += base.1.replanned_runs + cand.1.replanned_runs;
    acc.clock_compiles += 1;
    acc.clock_wins += usize::from(out.clock.is_some_and(|c| c.improved));
    Ok(())
}

fn compile_layer(arm: Arm) -> &'static str {
    match arm {
        Arm::Baseline => "core.compile_ms.baseline",
        Arm::Optimized => "core.compile_ms.optimized",
        Arm::Congestion => "core.compile_ms.congestion",
        Arm::Clock => "core.compile_ms.clock",
    }
}

fn packer_layer(arm: Arm) -> &'static str {
    match arm {
        Arm::Baseline | Arm::Optimized => "route.pack_serial_ms",
        Arm::Congestion => "route.pack_concurrent_ms",
        Arm::Clock => "route.pack_lookahead_ms",
    }
}

/// The transport packer the arm's compile runs, re-run on its schedule.
fn repack(arm: Arm, schedule: &qccd_machine::Schedule, spec: &MachineSpec) -> Result<(), String> {
    let packed = match arm {
        Arm::Baseline | Arm::Optimized => Ok(TransportSchedule::pack_serial(schedule)),
        Arm::Congestion => TransportSchedule::pack_concurrent(schedule, spec),
        Arm::Clock => TransportSchedule::pack_lookahead(schedule, spec),
    };
    packed
        .map(|_| ())
        .map_err(|e| format!("transport packing: {e}"))
}

fn values(acc: &Acc, passes: f64, generate_s: f64) -> Values {
    let mut v = Values::default();
    let per_pass = |x: f64| x / passes;
    for layer in [
        "circuit.dag_ms",
        "machine.schedule_validate_ms",
        "core.mapping_ms",
        "core.compile_ms.baseline",
        "core.compile_ms.optimized",
        "core.compile_ms.congestion",
        "core.compile_ms.clock",
        "core.loop_ms_est",
        "route.transport_validate_ms",
        "route.pack_concurrent_ms",
        "route.pack_lookahead_ms",
        "timing.lower_ms",
        "pack.arm_packed_ms",
        "pack.arm_clock_ms",
        "sim.simulate_ms",
        "sim.attribute_ms",
    ] {
        v.set(layer, per_pass(acc.ms(layer)));
    }
    v.set("circuit.generate_ms", generate_s * 1e3);

    let pts = |f: fn(&(f64, f64, f64, f64)) -> f64| -> Vec<(f64, f64)> {
        acc.growth.iter().map(|p| (p.0, f(p))).collect()
    };
    let (compile_exp, points) = loglog_slope(&pts(|p| p.1));
    v.set("core.compile_growth_exp", compile_exp);
    v.set("core.loop_growth_exp", loglog_slope(&pts(|p| p.2)).0);
    v.set(
        "route.transport_validate_growth_exp",
        loglog_slope(&pts(|p| p.3)).0,
    );
    v.set("core.growth_points", points as f64);

    let self_ms = |name| per_pass(acc.span(name).1 / 1e3);
    v.set("core.rebalance_self_ms", self_ms("rebalance"));
    v.set("core.scoring_self_ms", self_ms("scoring"));
    v.set("core.batching_self_ms", self_ms("batching"));
    v.set("route.backfill_self_ms", self_ms("backfill"));
    v.set("flow.self_ms", self_ms("flow"));
    v.set("pack.pack_ms", per_pass(acc.span("pack").0 / 1e3));
    let (compile_total, compile_self) = acc.span("compile");
    v.set("core.compile_self_frac", ratio(compile_self, compile_total));

    let shuttles = acc.shuttles as f64;
    v.set(
        "core.shuttles_per_gate",
        ratio(shuttles, acc.gate_ops as f64),
    );
    v.set(
        "core.rebalance_shuttle_frac",
        ratio(acc.rebalance_shuttles as f64, shuttles),
    );
    v.set("route.depth_per_shuttle", ratio(acc.depth as f64, shuttles));

    let c = |name| acc.counter(name);
    v.set(
        "core.candidates_scored",
        per_pass(c("core.candidates_scored")),
    );
    v.set("core.clock_ties", per_pass(c("core.clock_ties")));
    v.set(
        "route.backfill_accept_frac",
        ratio(c("route.backfill_accepts"), c("route.backfill_attempts")),
    );
    v.set("flow.solves", per_pass(c("flow.solves")));
    v.set(
        "flow.paths_per_solve",
        ratio(c("flow.augmenting_paths"), c("flow.solves")),
    );
    v.set(
        "flow.commodity_fallback_frac",
        ratio(c("flow.commodity_fallbacks"), c("flow.commodities_routed")),
    );
    let scored = c("timing.delta_hits") + c("timing.clone_fallbacks") + c("timing.full_scores");
    v.set(
        "timing.delta_hit_frac",
        ratio(c("timing.delta_hits"), scored),
    );
    v.set("timing.full_scores", per_pass(c("timing.full_scores")));
    v.set("timing.pool_tasks", per_pass(c("pool.tasks")));
    v.set(
        "timing.pool_shard_frac",
        ratio(acc.sharded_tasks as f64, c("pool.tasks")),
    );
    v.set(
        "pack.adopted_frac",
        ratio(c("pack.candidates_adopted"), c("pack.candidates_tried")),
    );

    v.set(
        "pack.race_overlap",
        ratio(
            acc.ms("pack.arm_packed_ms") + acc.ms("pack.arm_clock_ms"),
            acc.ms("core.compile_ms.clock"),
        ),
    );
    v.set("pack.replanned_runs", per_pass(acc.replanned_runs as f64));
    v.set(
        "pack.clock_win_frac",
        ratio(acc.clock_wins as f64, acc.clock_compiles as f64),
    );
    let analysis = acc.ms("sim.simulate_ms") + acc.ms("sim.attribute_ms");
    v.set(
        "sim.wall_frac",
        ratio(analysis, acc.ms("untraced") + analysis),
    );
    v.set(
        "obs.trace_overhead_frac",
        ratio(acc.ms("traced"), acc.ms("untraced")) - 1.0,
    );
    v
}
