//! One variant run through the public API, as `miniamr::run_world` does
//! it, split into world construction, the ranks' `run_rank`, and
//! teardown; plus the correctness gate every run passes through.

use crate::spans::Spans;
use miniamr::{Config, RunStats, Variant};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use vmpi::{NetworkModel, World};

/// The three variants, in the order every round runs them.
pub const VARIANTS: [Variant; 3] = [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow];

/// Metric-name prefix of a variant.
pub fn vname(v: Variant) -> &'static str {
    match v {
        Variant::MpiOnly => "mpi",
        Variant::ForkJoin => "forkjoin",
        Variant::DataFlow => "dataflow",
    }
}

/// Result of one variant run.
pub struct Outcome {
    /// Wall time of construction, run and teardown, seconds.
    pub wall: f64,
    /// Per-rank statistics, or why the run failed.
    pub stats: Result<Vec<RunStats>, String>,
}

/// Runs `cfg` once on a fresh world. A rank panic is caught and reported
/// as a failed run. Spans are recorded under run id `run`.
pub fn run_once(cfg: &Config, net: &NetworkModel, spans: &Spans, run: usize) -> Outcome {
    let n = cfg.params.num_ranks();
    let root = spans.begin(run, 0, format!("run.{}", vname(cfg.variant)));
    let t0 = Instant::now();
    let world = spans.time(run, root, "vmpi.world_construct", || {
        World::new(n, net.clone())
    });
    let ranks = spans.begin(run, root, "vmpi.world_run");
    let res = catch_unwind(AssertUnwindSafe(|| {
        world.run(|comm| {
            let id = spans.begin(run, ranks, format!("core.run_rank.{}", comm.rank()));
            let stats = miniamr::run_rank(cfg, comm);
            spans.end(id);
            stats
        })
    }));
    spans.end(ranks);
    spans.time(run, root, "vmpi.world_teardown", || drop(world));
    let wall = t0.elapsed().as_secs_f64();
    spans.end(root);
    let stats = res.map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("rank panicked: {msg}")
    });
    Outcome { wall, stats }
}

/// What every variant of one scenario must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `checksum_digest` of rank 0 (all ranks record the same history).
    pub digest: u64,
    /// Messages sent, all ranks.
    pub msgs_sent: u64,
    /// Blocks moved, all ranks.
    pub blocks_moved: u64,
    /// Blocks owned at the end, all ranks.
    pub final_blocks: usize,
    /// Stencil flops, all ranks.
    pub flops: u64,
}

impl Fingerprint {
    /// The fingerprint of one run's statistics.
    pub fn of(stats: &[RunStats]) -> Fingerprint {
        Fingerprint {
            digest: stats.first().map_or(0, RunStats::checksum_digest),
            msgs_sent: stats.iter().map(|s| s.msgs_sent).sum(),
            blocks_moved: stats.iter().map(|s| s.blocks_moved).sum(),
            final_blocks: stats.iter().map(|s| s.final_blocks).sum(),
            flops: stats.iter().map(|s| s.flops).sum(),
        }
    }
}

/// The correctness gate: no failed checksum validation, and the same
/// fingerprint as every earlier run of the same schedule (the first run
/// sets it). Comparing every run against one reference checks
/// three-variant parity and, in the traced process, traced-vs-untraced
/// parity.
pub struct Gate {
    /// Reference fingerprint per schedule (the full run; the set-up-only
    /// run with no timesteps).
    references: BTreeMap<&'static str, Fingerprint>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed, with the reasons.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate with no reference yet.
    pub fn new() -> Gate {
        Gate {
            references: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one outcome of schedule `schedule`; returns its statistics
    /// if it passed.
    pub fn check<'a>(
        &mut self,
        schedule: &'static str,
        label: &str,
        out: &'a Outcome,
    ) -> Option<&'a [RunStats]> {
        self.attempted += 1;
        let verdict = match &out.stats {
            Err(e) => Err(e.clone()),
            Ok(stats) => {
                let failed: usize = stats.iter().map(|s| s.checksums_failed).sum();
                let fp = Fingerprint::of(stats);
                let reference = *self.references.entry(schedule).or_insert(fp);
                if failed > 0 {
                    Err(format!("{failed} checksum validations failed"))
                } else if fp != reference {
                    Err(format!("fingerprint {fp:x?} differs from {reference:x?}"))
                } else {
                    Ok(stats.as_slice())
                }
            }
        };
        verdict
            .map_err(|e| {
                eprintln!("e2ebench: FAILED {label}: {e}");
                self.failures.push(format!("{label}: {e}"));
            })
            .ok()
    }

    /// Failed runs.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The reference fingerprint of `schedule`, once a run has set it.
    pub fn reference(&self, schedule: &str) -> Option<Fingerprint> {
        self.references.get(schedule).copied()
    }
}
