//! The benchmark's workloads: each is a `miniamr` flag string, parsed by
//! the application's own scenario parser, plus a seeded jitter of the
//! input objects.

use amr_mesh::Object;
use miniamr::cli::ScenarioArgs;
use miniamr::{Config, Variant};
use vmpi::{FabricParams, NetworkModel};

/// Rank layout shared by every workload: 2 ranks, and 1 worker per rank
/// for the hybrid variants, so all three variants run 2 compute threads
/// and send the same messages.
const LAYOUT: &str = "--npx 2 --npy 1 --npz 1 --workers 1";

/// One benchmark workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Scenario flags (without [`LAYOUT`]).
    pub flags: &'static str,
    /// How far the seed may move the input objects.
    jitter: Jitter,
}

/// Largest seeded perturbation of the input objects.
#[derive(Clone, Copy)]
struct Jitter {
    /// Shift of an object centre per axis.
    centre: f64,
    /// Relative change of an object radius.
    radius: f64,
    /// Relative slow-down of an object. Objects only ever slow down, so no
    /// jittered object travels farther than its unjittered original.
    slow: f64,
}

/// Placement, size and speed jitter small enough that the four-spheres
/// refinement (and so the work) does not change between seeds.
const PLACEMENT: Jitter = Jitter {
    centre: 0.01,
    radius: 0.01,
    slow: 0.02,
};

/// Speed only: the single sphere's refinement is discontinuous in its
/// centre and radius (a 0.5% change already moves the stencil work
/// between three levels 12% apart), which would make the seed, not the
/// code, dominate the spread between runs.
const SPEED_ONLY: Jitter = Jitter {
    centre: 0.0,
    radius: 0.0,
    slow: 0.02,
};

/// The workloads. Why each was chosen is recorded in `README.md` next to
/// this crate; the timestep counts keep one variant run between 0.2 and
/// 4 s on a 2-core machine while keeping each workload's defining
/// behaviour (replay freezing on `amr_paper` needs 4 timesteps).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "amr_paper",
        flags: "--input four_spheres --nx 12 --ny 12 --nz 12 --num_vars 20 \
                --num_refine 2 --refine_freq 4 --num_tsteps 4",
        jitter: PLACEMENT,
    },
    Workload {
        name: "fine_faces",
        flags: "--nx 4 --ny 4 --nz 4 --num_vars 8 --comm_vars 2 --send_faces \
                --separate_buffers --num_refine 2 --refine_freq 4 --num_tsteps 4",
        jitter: PLACEMENT,
    },
    Workload {
        name: "regrid_churn",
        flags: "--input single_sphere --nx 8 --ny 8 --nz 8 --num_vars 8 \
                --num_refine 3 --refine_freq 1 --stages_per_ts 2 --num_tsteps 8",
        jitter: SPEED_ONLY,
    },
];

/// A workload instantiated for one seed.
pub struct Scenario {
    /// Workload name.
    pub name: &'static str,
    /// The full `miniamr` flag string of the scenario.
    pub flags: String,
    /// Validated configuration (variant set per run).
    pub cfg: Config,
    /// The network model `miniamr` builds from the same flags.
    pub net: NetworkModel,
}

impl Scenario {
    /// Builds workload `name` with objects jittered by `seed`.
    pub fn new(name: &str, seed: u64) -> Result<Scenario, String> {
        let w = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (expected one of {names:?})")
        })?;
        let flags = format!(
            "{LAYOUT} {}",
            w.flags.split_whitespace().collect::<Vec<_>>().join(" ")
        );
        let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        while i < args.len() {
            if !sc.consume(&args, &mut i)? {
                return Err(format!("{}: not a scenario flag", args[i]));
            }
            i += 1;
        }
        let mut cfg = sc.config()?;
        let base = cfg.objects.clone();
        cfg.objects = jitter(&base, w.jitter, seed);
        check_inside(&base, &cfg.objects, cfg.num_tsteps)?;
        let net = network(&cfg)?;
        Ok(Scenario {
            name: w.name,
            flags,
            cfg,
            net,
        })
    }

    /// The configuration of one variant.
    pub fn config(&self, variant: Variant) -> Config {
        let mut cfg = self.cfg.clone();
        cfg.variant = variant;
        cfg
    }

    /// The objects as `centre/radius/rate` triples, for the reproducer
    /// line (the flag string cannot carry jittered objects).
    pub fn objects_desc(&self) -> String {
        self.cfg
            .objects
            .iter()
            .map(|o| {
                format!(
                    "c=[{:.4},{:.4},{:.4}] r={:.4} v=[{:.5},{:.5},{:.5}]",
                    o.center[0],
                    o.center[1],
                    o.center[2],
                    o.size[0],
                    o.move_rate[0],
                    o.move_rate[1],
                    o.move_rate[2]
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// The network model exactly as the `miniamr` binary derives it from its
/// defaults and the scenario flags.
fn network(cfg: &Config) -> Result<NetworkModel, String> {
    let mut fab = FabricParams::cluster();
    fab.ranks_per_node = cfg.ranks_per_node;
    fab.eager_threshold = cfg.eager_bytes;
    if cfg.ranks_per_node == 0 {
        fab.intra_node_factor = 1.0;
    }
    fab.validate()?;
    Ok(NetworkModel::from_fabric(&fab)
        .with_coll(cfg.coll)
        .with_fabric(fab))
}

/// SplitMix64: a small, well-mixed generator, so a seed fixes the inputs
/// on every platform.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-a, a)`.
    fn sym(&mut self, a: f64) -> f64 {
        a * (2.0 * self.unit() - 1.0)
    }
}

fn jitter(objects: &[Object], j: Jitter, seed: u64) -> Vec<Object> {
    let mut rng = SplitMix(seed);
    objects
        .iter()
        .map(|o| {
            let mut o = o.clone();
            for c in o.center.iter_mut() {
                *c += rng.sym(j.centre);
            }
            let scale = 1.0 + rng.sym(j.radius);
            for s in o.size.iter_mut() {
                *s *= scale;
            }
            let slow = 1.0 - j.slow * rng.unit();
            for v in o.move_rate.iter_mut() {
                *v *= slow;
            }
            o
        })
        .collect()
}

/// Objects that start inside the unit cube must stay inside it for the
/// whole run (objects that enter from outside, like the single sphere,
/// keep their unjittered trajectory's shape).
fn check_inside(base: &[Object], objects: &[Object], steps: usize) -> Result<(), String> {
    let inside = |o: &Object| o.center.iter().all(|&c| c > 0.0 && c < 1.0);
    for (b, o) in base.iter().zip(objects) {
        if !inside(b) {
            continue;
        }
        let mut o = o.clone();
        for _ in 0..=steps {
            if !inside(&o) {
                return Err(format!("jittered object left the mesh: {:?}", o.center));
            }
            o.step();
        }
    }
    Ok(())
}
