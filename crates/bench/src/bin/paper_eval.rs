//! Regenerates every table and figure of the paper's evaluation (§IV).
//!
//! ```text
//! cargo run -p qccd-bench --release --bin paper_eval -- all [--per-size N]
//! ```
//!
//! Subcommands: `table2`, `fig8`, `table3`, `ablation`, `proximity`,
//! `mapping`, `routers`, `timing`, `lookahead`, `pack`, `objective`,
//! `delta`, `profile`, `explain`, `fidelity`, `jobs`, `all`, plus the
//! snapshot differ
//! `diff OLD.json NEW.json [--rel-tol X] [--json]` (exits 1 on any
//! quality regression).

use qccd_bench::{
    aggregate_random, delta_parity, lookahead_packing_gains, objective_gains, pack_gains,
    run_nisq_suite, run_random_suite, run_timing_sweep, run_topology_router_sweep,
    standard_topologies, timed_compile, ComparisonRow, RANDOM_SUITE_SEED,
};
use qccd_circuit::generators::{paper_suite, random_suite};
use qccd_core::{
    compile, CompilerConfig, DirectionPolicy, IonSelection, MappingPolicy, RebalancePolicy,
};
use qccd_machine::MachineSpec;
use qccd_sim::SimParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `diff` is a pure file-to-file comparison — no compiles, no header
    // (its `--json` output must be a clean document).
    if args.first().map(String::as_str) == Some("diff") {
        diff_cmd(&args[1..]);
        return;
    }
    let mut command = String::from("all");
    let mut per_size = 30usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--per-size" => {
                per_size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--per-size needs a number"));
                i += 2;
            }
            "table2" | "fig8" | "table3" | "ablation" | "proximity" | "mapping" | "routers"
            | "timing" | "lookahead" | "pack" | "objective" | "delta" | "profile" | "explain"
            | "fidelity" | "jobs" | "all" => {
                command = args[i].clone();
                i += 1;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let spec = MachineSpec::paper_l6();
    let params = SimParams::default();
    println!("# muzzle-shuttle paper evaluation");
    println!(
        "# machine: {spec}   random suite: {per_size} circuits/size, seed {RANDOM_SUITE_SEED:#x}"
    );
    println!();

    let needs_suite = matches!(command.as_str(), "table2" | "fig8" | "table3" | "all");
    let (nisq, random) = if needs_suite {
        qccd_obs::info("paper_eval", || "compiling NISQ suite...".to_owned());
        let nisq = run_nisq_suite(&spec, &params);
        qccd_obs::info("paper_eval", || {
            format!("compiling random suite ({} circuits)...", per_size * 4)
        });
        let random = run_random_suite(&spec, &params, per_size);
        (nisq, random)
    } else {
        (Vec::new(), Vec::new())
    };

    match command.as_str() {
        "table2" => table2(&nisq, &random),
        "fig8" => fig8(&nisq, &random),
        "table3" => table3(&nisq, &random),
        "ablation" => ablation(&spec),
        "proximity" => proximity(&spec),
        "mapping" => mapping_ablation(&spec),
        "routers" => routers(&params),
        "timing" => timing(&spec, &params),
        "lookahead" => lookahead(&spec),
        "pack" => pack(&spec),
        "objective" => objective(&spec),
        "delta" => delta(&spec),
        "profile" => profile(&spec, &params),
        "explain" => explain(&spec, &params),
        "fidelity" => fidelity(&spec, &params),
        "jobs" => jobs_determinism(&spec, &params),
        "all" => {
            table2(&nisq, &random);
            fig8(&nisq, &random);
            table3(&nisq, &random);
            ablation(&spec);
            proximity(&spec);
            mapping_ablation(&spec);
            routers(&params);
            timing(&spec, &params);
            lookahead(&spec);
            pack(&spec);
            objective(&spec);
            delta(&spec);
        }
        _ => unreachable!("validated above"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: paper_eval [table2|fig8|table3|ablation|proximity|mapping|routers|timing|lookahead|pack|objective|delta|profile|explain|fidelity|jobs|all] [--per-size N]\n       paper_eval diff OLD.json NEW.json [--rel-tol X] [--json]"
    );
    std::process::exit(2);
}

/// `paper_eval diff OLD.json NEW.json`: schema-aware comparison of two
/// BENCH snapshots. Quality metrics are classified by direction
/// (regression / improvement / unchanged); wall-clock and `profile` /
/// `explain` data is informational. Exits 1 iff the diff contains at
/// least one quality regression.
fn diff_cmd(args: &[String]) {
    let mut files: Vec<String> = Vec::new();
    let mut rel_tol = 0.0f64;
    let mut json_out = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rel-tol" => {
                let value = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage("--rel-tol needs a non-negative number"));
                rel_tol = value
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        usage(&format!(
                            "--rel-tol: `{value}` is not a valid non-negative number"
                        ))
                    });
                i += 2;
            }
            "--json" => {
                json_out = true;
                i += 1;
            }
            other if !other.starts_with('-') => {
                files.push(other.to_owned());
                i += 1;
            }
            other => usage(&format!("unknown diff argument `{other}`")),
        }
    }
    if files.len() != 2 {
        usage("diff needs exactly two snapshot files: OLD.json NEW.json");
    }
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        });
        qccd_bench::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: `{path}` is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let old = load(&files[0]);
    let new = load(&files[1]);
    let report = qccd_bench::diff::diff_snapshots(&old, &new, rel_tol);
    if json_out {
        println!("{}", report.to_json(&files[0], &files[1]));
    } else {
        print!("{}", report.to_markdown(&files[0], &files[1]));
    }
    let regressions = report.regressions();
    if !regressions.is_empty() {
        eprintln!(
            "error: {} quality regression(s) between `{}` and `{}`",
            regressions.len(),
            files[0],
            files[1]
        );
        std::process::exit(1);
    }
}

/// Schedule explanation over the paper suite: profiles every benchmark
/// (asserting the observes-never-decides parity `profile` asserts),
/// recompiles the clock pipeline's chosen schedule, attributes its
/// makespan along the critical path, and snapshots everything into
/// `BENCH_pr8.json`. Two identities gate the write: the attribution
/// segments must sum bit-for-bit to the timeline's makespan on every
/// benchmark, and the snapshot's quality rows (everything outside
/// `profile` / `explain` / `compile_seconds*`) must be bit-for-bit equal
/// to the committed `BENCH_pr7.json`.
fn explain(spec: &MachineSpec, params: &SimParams) {
    use qccd_bench::json::{parse, strip_keys, Json};

    println!("## Schedule explanation (paper suite, realistic timing)");
    qccd_obs::info("paper_eval", || "profiling paper suite...".to_owned());
    let model = qccd_core::TimingModel::realistic();
    let profiles = qccd_bench::profile::profile_paper_suite(spec, params, &model);
    println!(
        "{:<16} {:>13} {:>11} {:>11} {:>11} {:>10} {:>10} {:>10} {:>6}",
        "Benchmark",
        "Makespan(us)",
        "Gate(us)",
        "Flight(us)",
        "SplitM(us)",
        "Junc(us)",
        "Zone(us)",
        "Idle(us)",
        "Steps"
    );
    let mut explains: Vec<Json> = Vec::new();
    for (bench, p) in paper_suite().iter().zip(&profiles) {
        let explained = explain_benchmark(bench, p.row.clock_timed_makespan_us, spec, &model);
        let attribution = &explained.attribution;
        println!(
            "{:<16} {:>13.1} {:>11.1} {:>11.1} {:>11.1} {:>10.1} {:>10.1} {:>10.1} {:>6}",
            bench.name,
            attribution.makespan_us,
            attribution.gate_us,
            attribution.flight_us,
            attribution.split_merge_us,
            attribution.junction_us,
            attribution.zone_move_us,
            attribution.idle_wait_us,
            explained.steps
        );
        explains.push(explained.json);
    }

    let snapshot =
        qccd_bench::profile::render_snapshot_with(spec, "realistic", &profiles, &explains);
    // Parity gate: the explain snapshot only *adds* — its quality rows
    // must be bit-for-bit what the committed PR 7 trajectory pinned.
    let committed = std::fs::read_to_string("BENCH_pr7.json")
        .expect("BENCH_pr7.json is committed at the repo root (run from there)");
    let drop = |k: &str| k == "profile" || k == "explain" || k.starts_with("compile_seconds");
    let old = strip_keys(
        &parse(&committed).expect("committed BENCH_pr7.json parses"),
        &drop,
    );
    let new = strip_keys(&parse(&snapshot).expect("the fresh snapshot parses"), &drop);
    assert!(
        old == new,
        "BENCH_pr8.json quality rows diverged from the committed BENCH_pr7.json \
         (explain observes, never decides — this is a regression)"
    );
    std::fs::write("BENCH_pr8.json", &snapshot).expect("can write BENCH_pr8.json");
    println!("\nquality rows bit-for-bit equal to BENCH_pr7.json: yes");
    println!("wrote BENCH_pr8.json ({} bytes)", snapshot.len());
    println!();
}

/// One benchmark's recompiled clock artifact plus its critical-path
/// explanation, shared by the `explain` and `fidelity` subcommands.
struct ExplainedBenchmark {
    chosen: qccd_core::CompileResult,
    attribution: qccd_timing::MakespanAttribution,
    steps: usize,
    json: qccd_bench::json::Json,
}

/// Reproduces the clock pipeline's chosen schedule exactly as
/// `compare_timed` built it (same configs, same race), so the timeline
/// being explained is the one the snapshot's quality row describes, then
/// attributes its makespan along the critical path.
///
/// # Panics
///
/// Panics if the recompiled timeline diverges from the profiled row, if
/// the attribution segments do not sum bit-for-bit to the makespan, or if
/// the critical path is not contiguous.
fn explain_benchmark(
    bench: &qccd_circuit::generators::BenchmarkCircuit,
    row_makespan_us: f64,
    spec: &MachineSpec,
    model: &qccd_core::TimingModel,
) -> ExplainedBenchmark {
    use qccd_bench::json::Json;
    use qccd_timing::{attribute_path, critical_path};

    let (packed, _) = qccd_pack::compile_packed(
        &bench.circuit,
        spec,
        &CompilerConfig::optimized()
            .with_router(qccd_core::RouterPolicy::congestion())
            .with_timing(*model),
    )
    .expect("benchmark circuits compile and pack on the paper machine");
    let (chosen, _) = qccd_pack::race_clock(
        packed.clone(),
        &bench.circuit,
        spec,
        &CompilerConfig::optimized().with_timing(*model),
    )
    .expect("benchmark circuits compile under the clock objective");
    assert!(
        chosen.timeline.makespan_us.to_bits() == row_makespan_us.to_bits(),
        "{}: recompiled clock timeline diverged from the profiled row \
         ({} vs {})",
        bench.name,
        chosen.timeline.makespan_us,
        row_makespan_us
    );
    let path = critical_path(&chosen.timeline, &bench.circuit);
    let attribution = attribute_path(&chosen.timeline, model, &path);
    assert!(
        attribution.total_us().to_bits() == chosen.timeline.makespan_us.to_bits(),
        "{}: attribution identity violated ({} vs {})",
        bench.name,
        attribution.total_us(),
        chosen.timeline.makespan_us
    );
    assert!(
        path.is_contiguous(),
        "{}: critical path is not contiguous",
        bench.name
    );
    let json = Json::obj(vec![
        ("makespan_us", Json::Num(attribution.makespan_us)),
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
                ("gate_us", Json::Num(attribution.gate_us)),
                ("flight_us", Json::Num(attribution.flight_us)),
                ("split_merge_us", Json::Num(attribution.split_merge_us)),
                ("junction_us", Json::Num(attribution.junction_us)),
                ("zone_move_us", Json::Num(attribution.zone_move_us)),
                ("idle_wait_us", Json::Num(attribution.idle_wait_us)),
                ("total_us", Json::Num(attribution.total_us())),
                (
                    "identity",
                    Json::Bool(
                        attribution.total_us().to_bits() == attribution.makespan_us.to_bits(),
                    ),
                ),
            ]),
        ),
    ]);
    ExplainedBenchmark {
        chosen,
        attribution,
        steps: path.steps.len(),
        json,
    }
}

/// The per-benchmark `"fidelity"` snapshot value: the loss-decomposition
/// totals, the duration/motional shares, and the top-3 worst gates and
/// hottest traps by blamed heat loss.
fn fidelity_json(attr: &qccd_sim::FidelityAttribution) -> qccd_bench::json::Json {
    use qccd_bench::json::Json;
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
                        qccd_sim::LossTerm::Gate {
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
                        qccd_sim::LossTerm::Shuttle { .. } => None,
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

/// Fidelity attribution over the paper suite: profiles every benchmark
/// (asserting the observes-never-decides parity `profile` asserts),
/// recompiles the clock pipeline's chosen schedule, replays it under the
/// heat-provenance ledger, decomposes `log_program_fidelity` into
/// per-gate duration vs motional loss terms, and snapshots everything
/// into `BENCH_pr9.json`. Three identities gate the write on every
/// benchmark: the schedule-explain identity `explain` asserts, the
/// fidelity identity (loss terms and ledger reproduce
/// `log_program_fidelity` and every sampled n̄ bit for bit), and the
/// snapshot parity (quality rows outside `profile` / `explain` /
/// `fidelity` / `compile_seconds*` must be bit-for-bit equal to the
/// committed `BENCH_pr8.json`).
fn fidelity(spec: &MachineSpec, params: &SimParams) {
    use qccd_bench::json::{parse, strip_keys, Json};

    println!("## Fidelity attribution (paper suite, realistic timing)");
    qccd_obs::info("paper_eval", || "profiling paper suite...".to_owned());
    let model = qccd_core::TimingModel::realistic();
    let profiles = qccd_bench::profile::profile_paper_suite(spec, params, &model);
    println!(
        "{:<16} {:>12} {:>11} {:>11} {:>11} {:>11} {:>6} {:>6} {:>8}",
        "Benchmark", "-lnF", "Dur(Gt)", "Motional", "Heat", "Shuttle", "Dur%", "Mot%", "Identity"
    );
    let mut explains: Vec<Json> = Vec::new();
    let mut fidelities: Vec<Json> = Vec::new();
    for (bench, p) in paper_suite().iter().zip(&profiles) {
        let explained = explain_benchmark(bench, p.row.clock_timed_makespan_us, spec, &model);
        let attr = qccd_sim::attribute_fidelity_timed(
            &explained.chosen.schedule,
            &explained.chosen.transport,
            &bench.circuit,
            spec,
            params,
            &model,
        )
        .expect("benchmark schedules replay under the physics model");
        assert!(
            attr.identity_holds(),
            "{}: fidelity attribution identity violated (the loss terms and \
             heat ledger do not reproduce log_program_fidelity = {} bit for bit)",
            bench.name,
            attr.report.log_program_fidelity
        );
        assert!(
            attr.report.program_fidelity.to_bits() == p.row.clock_sim.program_fidelity.to_bits(),
            "{}: attribution replay diverged from the profiled clock row \
             ({} vs {})",
            bench.name,
            attr.report.program_fidelity,
            p.row.clock_sim.program_fidelity
        );
        println!(
            "{:<16} {:>12.4e} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e} {:>5.1}% {:>5.1}% {:>8}",
            bench.name,
            attr.total_loss(),
            attr.gate_duration_loss,
            attr.gate_motional_loss,
            attr.gate_heat_loss,
            attr.shuttle_pulse_loss,
            100.0 * attr.duration_share(),
            100.0 * attr.motional_share(),
            "yes"
        );
        explains.push(explained.json);
        fidelities.push(fidelity_json(&attr));
    }

    let snapshot = qccd_bench::profile::render_snapshot_full(
        spec,
        "realistic",
        &profiles,
        &explains,
        &fidelities,
    );
    // Parity gate: the fidelity snapshot only *adds* — its quality rows
    // must be bit-for-bit what the committed PR 8 trajectory pinned.
    let committed = std::fs::read_to_string("BENCH_pr8.json")
        .expect("BENCH_pr8.json is committed at the repo root (run from there)");
    let drop = |k: &str| {
        k == "profile" || k == "explain" || k == "fidelity" || k.starts_with("compile_seconds")
    };
    let old = strip_keys(
        &parse(&committed).expect("committed BENCH_pr8.json parses"),
        &drop,
    );
    let new = strip_keys(&parse(&snapshot).expect("the fresh snapshot parses"), &drop);
    assert!(
        old == new,
        "BENCH_pr9.json quality rows diverged from the committed BENCH_pr8.json \
         (fidelity attribution observes, never decides — this is a regression)"
    );
    std::fs::write("BENCH_pr9.json", &snapshot).expect("can write BENCH_pr9.json");
    println!(
        "\nfidelity identity holds on all {} benchmarks",
        profiles.len()
    );
    println!("quality rows bit-for-bit equal to BENCH_pr8.json: yes");
    println!("wrote BENCH_pr9.json ({} bytes)", snapshot.len());
    println!();
}

/// The clock pipeline's two-arm race over the paper suite: every
/// benchmark is compiled through the clock pipeline at `--jobs` widths
/// 1, 4 and 8, and the quality figures (chosen makespan bits, clock
/// stats, schedule, transport) must be bit-for-bit identical at every
/// width. Wall-clock
/// compile times (min over three runs) at jobs 1 and 4 ride into
/// `BENCH_pr10.json` per benchmark, gated on quality parity with the
/// committed `BENCH_pr9.json`.
///
/// The recorded speedup is whatever this host actually measures — the
/// `compile_seconds*` keys are informational by prefix, so single-core
/// machines record an honest ~1x rather than an aspirational figure.
fn jobs_determinism(spec: &MachineSpec, params: &SimParams) {
    use qccd_bench::json::{parse, strip_keys, Json};
    use std::time::Instant;

    const TIMING_RUNS: usize = 3;

    println!("## Clock pipeline race (--jobs): determinism + wall clock");
    let model = qccd_core::TimingModel::realistic();
    let clock_config = CompilerConfig::optimized().with_timing(model);
    println!(
        "{:<16} {:>14} {:>5} {:>11} {:>11} {:>8} {:>14}",
        "Benchmark", "Makespan(us)", "Ties", "jobs=1 (s)", "jobs=4 (s)", "Speedup", "Deterministic"
    );
    let mut jobs_values: Vec<Json> = Vec::new();
    let mut chosen_makespans: Vec<f64> = Vec::new();
    for bench in paper_suite().iter() {
        let run = |jobs: usize, runs: usize| {
            let config = clock_config.with_jobs(jobs);
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..runs {
                let start = Instant::now();
                let result = qccd_pack::compile_clock(&bench.circuit, spec, &config)
                    .expect("benchmark circuits compile under the clock objective");
                best = best.min(start.elapsed().as_secs_f64());
                last = Some(result);
            }
            (best, last.expect("at least one timing run"))
        };
        let (secs1, (chosen, stats)) = run(1, TIMING_RUNS);
        let (secs4, wide4) = run(4, TIMING_RUNS);
        let (_, wide8) = run(8, 1);
        for (jobs, (result, wide_stats)) in [(4usize, &wide4), (8, &wide8)] {
            assert!(
                *wide_stats == stats,
                "{}: clock stats diverged at jobs={jobs} ({wide_stats:?} vs {stats:?})",
                bench.name
            );
            assert!(
                result.timeline.makespan_us.to_bits() == chosen.timeline.makespan_us.to_bits(),
                "{}: chosen makespan diverged at jobs={jobs} ({} vs {})",
                bench.name,
                result.timeline.makespan_us,
                chosen.timeline.makespan_us
            );
            assert!(
                result.schedule == chosen.schedule && result.transport == chosen.transport,
                "{}: chosen schedule diverged at jobs={jobs}",
                bench.name
            );
        }
        println!(
            "{:<16} {:>14.1} {:>5} {:>11.3} {:>11.3} {:>7.2}x {:>14}",
            bench.name,
            chosen.timeline.makespan_us,
            stats.clock_ties,
            secs1,
            secs4,
            secs1 / secs4,
            "yes"
        );
        jobs_values.push(Json::obj(vec![
            ("compile_seconds_jobs1", Json::Num(secs1)),
            ("compile_seconds_jobs4", Json::Num(secs4)),
            ("compile_seconds_speedup_jobs4", Json::Num(secs1 / secs4)),
        ]));
        chosen_makespans.push(chosen.timeline.makespan_us);
    }

    qccd_obs::info("paper_eval", || "profiling paper suite...".to_owned());
    let profiles = qccd_bench::profile::profile_paper_suite(spec, params, &model);
    let mut explains: Vec<Json> = Vec::new();
    let mut fidelities: Vec<Json> = Vec::new();
    for ((bench, p), makespan) in paper_suite().iter().zip(&profiles).zip(&chosen_makespans) {
        assert!(
            p.row.clock_timed_makespan_us.to_bits() == makespan.to_bits(),
            "{}: profiled clock row diverged from the jobs determinism sweep \
             ({} vs {})",
            bench.name,
            p.row.clock_timed_makespan_us,
            makespan
        );
        let explained = explain_benchmark(bench, p.row.clock_timed_makespan_us, spec, &model);
        let attr = qccd_sim::attribute_fidelity_timed(
            &explained.chosen.schedule,
            &explained.chosen.transport,
            &bench.circuit,
            spec,
            params,
            &model,
        )
        .expect("benchmark schedules replay under the physics model");
        assert!(
            attr.identity_holds(),
            "{}: fidelity attribution identity violated",
            bench.name
        );
        explains.push(explained.json);
        fidelities.push(fidelity_json(&attr));
    }

    let snapshot = qccd_bench::profile::render_snapshot_jobs(
        spec,
        "realistic",
        &profiles,
        &explains,
        &fidelities,
        &jobs_values,
        Some(true),
    );
    // Parity gate: the jobs snapshot only *adds* — its quality rows must
    // be bit-for-bit what the committed PR 9 trajectory pinned.
    let committed = std::fs::read_to_string("BENCH_pr9.json")
        .expect("BENCH_pr9.json is committed at the repo root (run from there)");
    let drop = |k: &str| {
        k == "profile"
            || k == "explain"
            || k == "fidelity"
            || k == "jobs"
            || k == "all_jobs_deterministic"
            || k.starts_with("compile_seconds")
    };
    let old = strip_keys(
        &parse(&committed).expect("committed BENCH_pr9.json parses"),
        &drop,
    );
    let new = strip_keys(&parse(&snapshot).expect("the fresh snapshot parses"), &drop);
    assert!(
        old == new,
        "BENCH_pr10.json quality rows diverged from the committed BENCH_pr9.json \
         (parallel scoring is a pure wall-clock change — this is a regression)"
    );
    std::fs::write("BENCH_pr10.json", &snapshot).expect("can write BENCH_pr10.json");
    println!(
        "\nall {} benchmarks bit-for-bit identical at jobs 1, 4 and 8",
        profiles.len()
    );
    println!("quality rows bit-for-bit equal to BENCH_pr9.json: yes");
    println!("wrote BENCH_pr10.json ({} bytes)", snapshot.len());
    println!();
}

/// Topology × router sweep: the paper benchmarks on the L6-class machine
/// re-shaped as line, ring and grid, under the serial and congestion
/// routers.
fn routers(params: &SimParams) {
    println!("## Topology x router sweep (optimized policy stack, capacity 17, comm 2)");
    println!(
        "{:<16} {:>6} {:>24} {:>8} {:>6} {:>12}",
        "Benchmark", "Topo", "Router", "Shuttle", "Depth", "Makespan(us)"
    );
    qccd_obs::info("paper_eval", || "topology x router sweep...".to_owned());
    let rows = run_topology_router_sweep(&paper_suite(), &standard_topologies(6), 17, 2, params);
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>24} {:>8} {:>6} {:>12.1}",
            r.name, r.topology, r.router, r.shuttles, r.depth, r.makespan_us
        );
    }
    println!();
}

/// Timing-model sweep: how much of the uniform-hop makespan survives the
/// QCCDSim-style constants (finite segment speed, junction corner/swap
/// time, timed zone moves).
fn timing(spec: &MachineSpec, params: &SimParams) {
    println!("## Timing-model sweep (optimized policy stack)");
    println!(
        "{:<16} {:>24} {:>10} {:>6} {:>14} {:>6}",
        "Benchmark", "Router", "Timing", "Depth", "TMakespan(us)", "Junc"
    );
    qccd_obs::info("paper_eval", || "timing-model sweep...".to_owned());
    let rows = run_timing_sweep(&paper_suite(), spec, params);
    for r in &rows {
        println!(
            "{:<16} {:>24} {:>10} {:>6} {:>14.1} {:>6}",
            r.name, r.router, r.timing, r.depth, r.timed_makespan_us, r.junction_crossings
        );
    }
    println!();
}

/// Lookahead round packing: before/after transport depths.
fn lookahead(spec: &MachineSpec) {
    println!("## Lookahead round packing (congestion router) — transport depth");
    println!(
        "{:<16} {:>8} {:>10} {:>6}",
        "Benchmark", "Greedy", "Lookahead", "Gain"
    );
    qccd_obs::info("paper_eval", || "lookahead packing...".to_owned());
    let rows = lookahead_packing_gains(&paper_suite(), spec);
    let mut regressions = 0usize;
    for r in &rows {
        println!(
            "{:<16} {:>8} {:>10} {:>6}",
            r.name,
            r.greedy_depth,
            r.lookahead_depth,
            r.greedy_depth as i64 - r.lookahead_depth as i64
        );
        if r.lookahead_depth > r.greedy_depth {
            regressions += 1;
        }
    }
    // The never-deeper invariant holds by construction (pack_lookahead
    // falls back to greedy); debug builds re-assert it, release reports.
    debug_assert_eq!(regressions, 0, "lookahead packing must never deepen");
    if regressions > 0 {
        println!("WARNING: {regressions} benchmark(s) regressed under lookahead");
    }
    println!();
}

/// Timeline-driven packing: before/after transport depth and timed
/// makespan (realistic device model). This doubles as the PR 4 acceptance
/// gate: packed timed makespan must be ≤ lookahead on every paper
/// benchmark and *strictly* lower on QAOA.
fn pack(spec: &MachineSpec) {
    println!("## qccd-pack — cross-gate packing + batched layer planning (realistic timing)");
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>12} {:>12} {:>9} {:>6} {:>7}",
        "Benchmark",
        "Greedy",
        "Look",
        "Packed",
        "LookMk(us)",
        "PackMk(us)",
        "Gain(us)",
        "Hoist",
        "Replan"
    );
    qccd_obs::info("paper_eval", || "pack gains...".to_owned());
    let rows = pack_gains(&paper_suite(), spec);
    for r in &rows {
        println!(
            "{:<16} {:>7} {:>7} {:>7} {:>12.1} {:>12.1} {:>9.1} {:>6} {:>7}",
            r.name,
            r.greedy_depth,
            r.lookahead_depth,
            r.packed_depth,
            r.lookahead_makespan_us,
            r.packed_makespan_us,
            r.lookahead_makespan_us - r.packed_makespan_us,
            r.hoisted_hops,
            r.replanned_runs
        );
        assert!(
            r.packed_makespan_us <= r.lookahead_makespan_us,
            "{}: packing regressed the timed makespan",
            r.name
        );
    }
    let qaoa = rows.iter().find(|r| r.name == "QAOA").expect("QAOA row");
    assert!(
        qaoa.packed_makespan_us < qaoa.lookahead_makespan_us,
        "QAOA packed makespan must strictly beat lookahead"
    );
    println!();
}

/// Timed compile-loop objective: the clock-objective pipeline against the
/// default-objective packed stack (realistic device model). This doubles
/// as the PR 5 acceptance gate: the chosen makespan must be <= packed on
/// every paper benchmark (never-regress, by construction) and the clock
/// candidate *strictly* lower on at least one — QAOA is the target.
fn objective(spec: &MachineSpec) {
    println!("## Timed compile-loop objective — clock vs packed (realistic timing)");
    println!(
        "{:<16} {:>12} {:>12} {:>9} {:>6} {:>7} {:>7} {:>9}",
        "Benchmark", "PackMk(us)", "ClockMk(us)", "Gain(us)", "Ties", "Batch", "BHops", "Improved"
    );
    qccd_obs::info("paper_eval", || "objective gains...".to_owned());
    let rows = objective_gains(&paper_suite(), spec);
    for r in &rows {
        println!(
            "{:<16} {:>12.1} {:>12.1} {:>9.1} {:>6} {:>7} {:>7} {:>9}",
            r.name,
            r.packed_makespan_us,
            r.clock_makespan_us,
            r.packed_makespan_us - r.clock_makespan_us,
            r.clock_ties,
            r.batched_layers,
            r.batched_hops,
            r.improved
        );
        assert!(
            r.chosen_makespan_us <= r.packed_makespan_us,
            "{}: the clock pipeline regressed the packed stack",
            r.name
        );
    }
    assert!(
        rows.iter().any(|r| r.improved),
        "the clock objective must strictly beat the packed stack on at least one benchmark"
    );
    println!();
}

/// Score-mode parity: the clock pipeline under the delta scorer against
/// the same pipeline under the O(suffix) re-lower oracle. This is the
/// PR 6 acceptance gate — every quality figure must match bit-for-bit on
/// every paper benchmark; the compile-second columns show what the delta
/// scorer buys.
fn delta(spec: &MachineSpec) {
    println!("## Score-mode parity — delta scorer vs full re-lower oracle (realistic timing)");
    println!(
        "{:<16} {:>12} {:>12} {:>6} {:>7} {:>9} {:>9} {:>8} {:>7}",
        "Benchmark",
        "DeltaMk(us)",
        "FullMk(us)",
        "Ties",
        "Batch",
        "Delta(s)",
        "Full(s)",
        "Speedup",
        "Match"
    );
    qccd_obs::info("paper_eval", || "score-mode parity...".to_owned());
    let rows = delta_parity(&paper_suite(), spec);
    for r in &rows {
        println!(
            "{:<16} {:>12.1} {:>12.1} {:>6} {:>7} {:>9.3} {:>9.3} {:>7.1}x {:>7}",
            r.name,
            r.delta_makespan_us,
            r.full_makespan_us,
            r.delta_ties,
            r.delta_batched_layers,
            r.delta_compile_s,
            r.full_compile_s,
            r.speedup(),
            r.matches()
        );
        assert!(
            r.matches(),
            "{}: delta and full scoring diverged (delta {:?} vs full {:?} makespan, \
             {}/{} shuttles, {}/{} depth, {}/{} ties, {}/{} layers, {}/{} hops)",
            r.name,
            r.delta_makespan_us,
            r.full_makespan_us,
            r.delta_shuttles,
            r.full_shuttles,
            r.delta_depth,
            r.full_depth,
            r.delta_ties,
            r.full_ties,
            r.delta_batched_layers,
            r.full_batched_layers,
            r.delta_batched_hops,
            r.full_batched_hops
        );
    }
    println!();
}

/// Profiled BENCH trajectory: runs the paper suite under the realistic
/// timing model with the `qccd-obs` recorder on, asserts every quality
/// figure is bit-for-bit equal to an uninstrumented reference run, and
/// snapshots the rows plus per-phase breakdowns and hot-path counters
/// into `BENCH_pr7.json`.
fn profile(spec: &MachineSpec, params: &SimParams) {
    println!("## Profiled compile trajectory (paper suite, realistic timing)");
    qccd_obs::info("paper_eval", || "profiling paper suite...".to_owned());
    let model = qccd_core::TimingModel::realistic();
    let profiles = qccd_bench::profile::profile_paper_suite(spec, params, &model);
    println!(
        "{:<16} {:>12} {:>14} {:>16} {:>10} {:>10}",
        "Benchmark", "Wall(ms)", "Hottest phase", "Cand. scored", "DeltaHit%", "Backfills"
    );
    for p in &profiles {
        let hottest = p
            .phases
            .first()
            .map_or("-", |ph| ph.name.as_str())
            .to_owned();
        let scored = p
            .counters
            .iter()
            .find(|(n, _)| n == "core.candidates_scored")
            .map_or(0, |&(_, v)| v);
        let backfills = p
            .counters
            .iter()
            .find(|(n, _)| n == "route.backfill_attempts")
            .map_or(0, |&(_, v)| v);
        println!(
            "{:<16} {:>12.1} {:>14} {:>16} {:>9.1}% {:>10}",
            p.row.name,
            p.wall_us / 1_000.0,
            hottest,
            scored,
            100.0 * p.delta_hit_rate,
            backfills
        );
    }
    let snapshot = qccd_bench::profile::render_snapshot(spec, "realistic", &profiles);
    std::fs::write("BENCH_pr7.json", &snapshot).expect("can write BENCH_pr7.json");
    println!("\nwrote BENCH_pr7.json ({} bytes)", snapshot.len());
    println!();
}

/// Table II: reduction in the number of shuttles.
fn table2(nisq: &[ComparisonRow], random: &[ComparisonRow]) {
    println!("## Table II — Reduction in the number of shuttles");
    println!(
        "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>8}",
        "Benchmark", "Qubits", "2Q gates", "[7]", "This Work", "D(dn)", "%D"
    );
    for r in nisq {
        println!(
            "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.2}%",
            r.name,
            r.qubits,
            r.two_qubit_gates,
            r.baseline_shuttles,
            r.optimized_shuttles,
            r.delta(),
            r.delta_percent()
        );
    }
    if !random.is_empty() {
        let a = aggregate_random(random);
        println!(
            "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.2}%   (means; s in parens below)",
            "Random",
            "60-75",
            format!("{:.0}", a.gates.0),
            format!("{:.0}", a.baseline.0),
            format!("{:.0}", a.optimized.0),
            format!("{:.0}", a.delta.0),
            a.delta_percent.0
        );
        println!(
            "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.0}",
            "  (std dev)",
            "",
            format!("({:.0})", a.gates.1),
            format!("({:.0})", a.baseline.1),
            format!("({:.0})", a.optimized.1),
            format!("({:.0})", a.delta.1),
            a.delta_percent.1
        );
    }
    println!();
}

/// Fig. 8: improvement in program fidelity.
fn fig8(nisq: &[ComparisonRow], random: &[ComparisonRow]) {
    println!("## Fig. 8 — Program fidelity improvement (optimized / baseline)");
    println!(
        "{:<14} {:>12} {:>14} {:>14}",
        "Benchmark", "Improvement", "F(baseline)", "F(this work)"
    );
    for r in nisq {
        println!(
            "{:<14} {:>11.2}X {:>14.3e} {:>14.3e}",
            r.name,
            r.fidelity_improvement(),
            r.baseline_sim.program_fidelity,
            r.optimized_sim.program_fidelity
        );
    }
    if !random.is_empty() {
        let a = aggregate_random(random);
        println!(
            "{:<14} {:>11.2}X {:>14} {:>14}   (geometric mean)",
            "Random", a.fidelity_improvement_geomean, "-", "-"
        );
    }
    println!();
}

/// Table III: compilation time overhead.
fn table3(nisq: &[ComparisonRow], random: &[ComparisonRow]) {
    println!("## Table III — Compilation time overhead");
    println!(
        "{:<14} {:>18} {:>14} {:>10}",
        "Benchmark", "This work (sec)", "[7] (sec)", "D(up)"
    );
    for r in nisq {
        println!(
            "{:<14} {:>18.4} {:>14.4} {:>10.4}",
            r.name,
            r.optimized_compile_s,
            r.baseline_compile_s,
            r.compile_overhead_s()
        );
    }
    if !random.is_empty() {
        let a = aggregate_random(random);
        println!(
            "{:<14} {:>18.4} {:>14.4} {:>10.4}   (means)",
            "Random",
            a.compile_s.1,
            a.compile_s.0,
            a.compile_s.1 - a.compile_s.0
        );
    }
    println!();
}

/// Ablation: each heuristic toggled independently (§III design choices).
fn ablation(spec: &MachineSpec) {
    println!("## Ablation — shuttle count per enabled heuristic");
    let baseline = CompilerConfig::baseline();
    let mut dir_only = baseline;
    dir_only.direction = DirectionPolicy::FutureOps {
        proximity: CompilerConfig::DEFAULT_PROXIMITY,
    };
    let mut dir_reorder = dir_only;
    dir_reorder.reorder = true;
    let mut rebalance_only = baseline;
    rebalance_only.rebalance = RebalancePolicy::NearestNeighbor;
    rebalance_only.ion_selection = IonSelection::MaxScore { wd: 0.5, ws: 0.5 };
    let mut literal_gate_distance = CompilerConfig::optimized();
    literal_gate_distance.direction = DirectionPolicy::FutureOpsGateDistance {
        proximity: CompilerConfig::DEFAULT_PROXIMITY,
    };
    let configs: [(&str, CompilerConfig); 6] = [
        ("baseline", baseline),
        ("+direction", dir_only),
        ("+dir+reorder", dir_reorder),
        ("+rebalance", rebalance_only),
        ("full(optimized)", CompilerConfig::optimized()),
        ("full(gate-dist)", literal_gate_distance),
    ];
    print!("{:<14}", "Benchmark");
    for (name, _) in &configs {
        print!(" {:>16}", name);
    }
    println!();
    for bench in paper_suite() {
        print!("{:<14}", bench.name);
        for (_, config) in &configs {
            let shuttles = compile(&bench.circuit, spec, config)
                .expect("paper benchmarks compile on the paper machine")
                .stats
                .shuttles;
            print!(" {:>16}", shuttles);
        }
        println!();
    }
    println!();
}

/// §IV-E3 initial-mapping exploration: how much of the result depends on
/// the shared greedy placement.
fn mapping_ablation(spec: &MachineSpec) {
    println!("## Initial-mapping ablation — optimized-compiler shuttles per placement policy");
    let policies: [(&str, MappingPolicy); 3] = [
        ("greedy[14]", MappingPolicy::GreedyInteraction),
        ("round-robin", MappingPolicy::RoundRobin),
        ("random", MappingPolicy::RandomBalanced { seed: 7 }),
    ];
    print!("{:<14}", "Benchmark");
    for (name, _) in &policies {
        print!(" {:>14}", format!("base/{name}"));
        print!(" {:>14}", format!("opt/{name}"));
    }
    println!();
    for bench in paper_suite() {
        print!("{:<14}", bench.name);
        for (_, mapping) in &policies {
            for mut config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
                config.mapping = *mapping;
                let shuttles = compile(&bench.circuit, spec, &config)
                    .expect("paper benchmarks compile on the paper machine")
                    .stats
                    .shuttles;
                print!(" {:>14}", shuttles);
            }
        }
        println!();
    }
    println!();
}

/// §III-A3 proximity design-parameter sweep.
fn proximity(spec: &MachineSpec) {
    println!("## Proximity sweep — shuttles vs design parameter (paper picks 6)");
    let proxies = [1u32, 2, 3, 4, 6, 8, 12, 16, 24];
    print!("{:<14} {:>9}", "Benchmark", "baseline");
    for p in proxies {
        print!(" {:>7}", format!("p={p}"));
    }
    println!();
    let mut suite = paper_suite();
    suite.extend(random_suite(2, RANDOM_SUITE_SEED));
    for bench in suite {
        let (base, _) = timed_compile(&bench.circuit, spec, &CompilerConfig::baseline());
        print!("{:<14} {:>9}", bench.name, base.stats.shuttles);
        for p in proxies {
            let cfg = CompilerConfig::optimized_with_proximity(p);
            let (r, _) = timed_compile(&bench.circuit, spec, &cfg);
            print!(" {:>7}", r.stats.shuttles);
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use qccd_bench::compare;
    use qccd_machine::MachineSpec;
    use qccd_sim::SimParams;

    #[test]
    fn comparison_row_delta_math() {
        let spec = MachineSpec::linear(2, 6, 2).unwrap();
        let params = SimParams::default();
        let bench = qccd_circuit::generators::BenchmarkCircuit {
            name: "t".into(),
            circuit: qccd_circuit::generators::random_circuit(8, 40, 1),
        };
        let row = compare(&bench, &spec, &params);
        assert_eq!(
            row.delta(),
            row.baseline_shuttles as i64 - row.optimized_shuttles as i64
        );
    }
}
