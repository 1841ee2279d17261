//! The two seeded workloads: which circuits, on which machines, under
//! which compiler arms.

use qccd_circuit::generators::{paper_suite, qaoa, random_circuit, random_suite, supremacy};
use qccd_circuit::Circuit;
use qccd_core::{CompilerConfig, Objective, RouterPolicy, TimingModel};
use qccd_machine::{MachineSpec, TrapTopology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["paper-125", "scale-g4x4"];

/// Default `--seed` of every workload: `paper_eval`'s `RANDOM_SUITE_SEED`,
/// with which paper-125 is exactly the random suite the paper-evaluation
/// tables report.
pub const DEFAULT_SEED: u64 = 0xDA7E_2022;

/// A second seed, kept out of tuning, for held-out checks of a claimed
/// gain.
pub const HELD_OUT_SEED: u64 = 7;

/// One compiler configuration the benchmark runs, as the CLI spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `muzzle compile` under the paper's reference compiler.
    Baseline,
    /// `muzzle compile` under the optimized compiler (serial router, ideal
    /// timing).
    Optimized,
    /// `--router congestion`: MCMF-priced routes packed into concurrent
    /// rounds, no lookahead.
    Congestion,
    /// `--objective clock --timing realistic --jobs 2`: the clock compile
    /// loop raced against the packed stack (`qccd_pack::compile_clock`).
    Clock,
}

impl Arm {
    pub fn name(self) -> &'static str {
        match self {
            Arm::Baseline => "baseline",
            Arm::Optimized => "optimized",
            Arm::Congestion => "congestion",
            Arm::Clock => "clock",
        }
    }

    pub fn config(self) -> CompilerConfig {
        match self {
            Arm::Baseline => CompilerConfig::baseline(),
            Arm::Optimized => CompilerConfig::optimized(),
            Arm::Congestion => CompilerConfig::optimized().with_router(RouterPolicy::congestion()),
            Arm::Clock => CompilerConfig::optimized()
                .with_timing(TimingModel::realistic())
                .with_objective(Objective::Clock)
                .with_jobs(2),
        }
    }
}

/// One input circuit and the arms it is compiled under.
pub struct Item {
    pub name: String,
    pub circuit: Circuit,
    pub arms: &'static [Arm],
    /// Part of a size ladder that the growth exponents are fitted over.
    pub ladder: bool,
}

pub struct Workload {
    pub name: &'static str,
    /// The machine every input is compiled for.
    pub machine: MachineSpec,
    pub items: Vec<Item>,
}

impl Workload {
    /// Compiles one pass makes.
    pub fn compiles_per_pass(&self) -> usize {
        self.items.iter().map(|i| i.arms.len()).sum()
    }
}

/// The 4×4 grid the large inputs run on: 16 traps of 20 ions, 2 of them
/// kept free for incoming shuttles.
fn grid_g4x4() -> MachineSpec {
    MachineSpec::new(TrapTopology::grid(4, 4), 20, 2).expect("a 4x4 grid of 20-ion traps is valid")
}

/// Largest ladder circuit of scale-g4x4 that also runs the clock arm.
const CLOCK_MAX_GATES: usize = 1500;

/// `count` random 256-qubit circuits on a log-spaced size ladder from
/// `lo` to `hi` gates; the seed draws each circuit's gates. Every seed
/// spans the same sizes, so throughput and growth exponents compare
/// across seeds.
fn random_ladder(rng: &mut StdRng, count: usize, lo: f64, hi: f64) -> Vec<Item> {
    (0..count)
        .map(|k| {
            let gates = (lo * (hi / lo).powf(k as f64 / (count - 1) as f64)).round() as usize;
            Item {
                name: format!("Random-256q-{gates}g"),
                circuit: random_circuit(256, gates, rng.gen::<u64>()),
                arms: &[],
                ladder: true,
            }
        })
        .collect()
}

/// Builds workload `name` from `seed`. The same seed gives the same
/// circuits.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        // The paper's own traffic: Table II plus the 120-circuit random
        // suite on L6 (cap 17, comm 2), baseline vs optimized.
        "paper-125" => {
            const ARMS: &[Arm] = &[Arm::Baseline, Arm::Optimized];
            let items = paper_suite()
                .into_iter()
                .chain(random_suite(30, seed))
                .map(|b| Item {
                    name: b.name,
                    circuit: b.circuit,
                    arms: ARMS,
                    ladder: false,
                })
                .collect();
            Ok(Workload {
                name: NAMES[0],
                machine: MachineSpec::paper_l6(),
                items,
            })
        }
        // Large compiles, where complexity bugs show: a 500–4000-gate size
        // ladder plus two structured 256-qubit circuits, each compiled
        // under both routers. The ladder's circuits up to
        // `CLOCK_MAX_GATES` also go through the full clock-objective
        // pipeline under `--jobs 2`.
        "scale-g4x4" => {
            const ROUTERS: &[Arm] = &[Arm::Optimized, Arm::Congestion];
            const WITH_CLOCK: &[Arm] = &[Arm::Optimized, Arm::Congestion, Arm::Clock];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut items = random_ladder(&mut rng, 24, 500.0, 4000.0);
            for item in &mut items {
                item.arms = if item.circuit.len() <= CLOCK_MAX_GATES {
                    WITH_CLOCK
                } else {
                    ROUTERS
                };
            }
            items.push(Item {
                name: "QAOA-256x10".into(),
                circuit: qaoa(256, 10, rng.gen::<u64>()),
                arms: ROUTERS,
                ladder: false,
            });
            items.push(Item {
                name: "Supremacy-16x16x20".into(),
                circuit: supremacy(16, 16, 20),
                arms: ROUTERS,
                ladder: false,
            });
            Ok(Workload {
                name: NAMES[1],
                machine: grid_g4x4(),
                items,
            })
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of: {})",
            NAMES.join(", ")
        )),
    }
}
