//! Elastic execution: malleable rank counts over the checkpoint
//! substrate.
//!
//! A run is split into *spans* of whole timesteps. At a span boundary
//! every rank is quiescent (the data-flow variant drains its task graph
//! there), so the world can be torn down, the block directory
//! re-partitioned onto a different rank count with the regular
//! partitioners, and a fresh world respawned that resumes exactly where
//! the old one stopped — the resize protocol of DESIGN.md §16:
//!
//! ```text
//! quiescence → checkpoint → repartition → respawn
//! ```
//!
//! Because the global checksum combination is ownership-independent
//! ([`crate::variant`]'s per-block gather folded in global block-id
//! order) and a resize moves block *data* without touching a single cell,
//! the final [`crate::stats::RunStats::checksum_digest`] of an elastic
//! run is **bitwise identical** to the fixed-rank run of the same
//! scenario. That is the invariant the elastic soak tests pin.
//!
//! Two entry points feed the same machinery:
//!
//! * **Planned resizes** — [`ResizePlan`] / `--resize_at ts:N`
//!   (repeatable; grow or shrink).
//! * **Shrink on failure** — [`PeerLostPolicy::Shrink`] /
//!   `--on_peer_lost shrink`: when the reliability layer declares a peer
//!   unrecoverable, the world is poisoned instead of exiting the process
//!   ([`vmpi::PeerLostAction::AbortWorld`]); the driver collects the
//!   surviving ranks, restores the latest *coordinated* boundary
//!   snapshot common to every rank, shrinks onto the survivors, and
//!   resumes fault-free.

use crate::checkpoint::{self, RankCheckpoint};
use crate::config::Config;
use crate::rank::RankState;
use crate::stats::RunStats;
use crate::variant::Checkpoint;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use vmpi::{Comm, NetworkModel, PeerLostReport, World};

/// How many boundary snapshots per rank the shrink registry retains;
/// recovery only ever needs the newest snapshot *common to all ranks*,
/// and ranks run at most a few timesteps apart.
const BOUNDARY_HISTORY: usize = 4;

/// Planned resize events: before computing timestep `ts`, resize the
/// world to `n` ranks (`--resize_at ts:N`, repeatable).
#[derive(Debug, Clone, Default)]
pub struct ResizePlan {
    /// `(timestep, new rank count)` pairs; a timestep listed twice keeps
    /// the last entry.
    pub events: Vec<(usize, usize)>,
}

impl ResizePlan {
    /// Builder-style: adds a resize to `n` ranks before timestep `ts`.
    pub fn at(mut self, ts: usize, n: usize) -> ResizePlan {
        self.events.push((ts, n));
        self
    }

    /// Parses one `--resize_at` operand of the form `ts:N`. The timestep
    /// must be at least 1 (the initial world size is fixed by the rank
    /// grid) and the new count at least 1.
    pub fn parse_event(s: &str) -> Result<(usize, usize), String> {
        let (ts, n) = s
            .split_once(':')
            .ok_or_else(|| format!("--resize_at wants ts:N, got '{s}'"))?;
        let ts: usize = ts
            .parse()
            .map_err(|_| format!("--resize_at: bad timestep '{ts}'"))?;
        let n: usize = n
            .parse()
            .map_err(|_| format!("--resize_at: bad rank count '{n}'"))?;
        if ts == 0 {
            return Err("--resize_at: the first resize point is ts 1 \
                        (the initial world matches the rank grid)"
                .to_string());
        }
        if n == 0 {
            return Err("--resize_at: cannot resize to 0 ranks".to_string());
        }
        Ok((ts, n))
    }
}

/// What to do when the reliability layer gives up on a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerLostPolicy {
    /// Structured report, then process exit 88 (the PR-7 behavior).
    #[default]
    Abort,
    /// Poison the world, shrink onto the surviving ranks from the latest
    /// coordinated boundary snapshot, and resume.
    Shrink,
}

/// Everything the elastic driver needs beyond the base [`Config`].
#[derive(Debug, Clone, Default)]
pub struct ElasticOpts {
    /// Planned resizes.
    pub plan: ResizePlan,
    /// Failure policy.
    pub on_peer_lost: PeerLostPolicy,
}

/// Where a rank's span resumes from (the unit the driver carries across
/// world teardown). `None` at [`crate::run_rank`]'s entry means "initial
/// conditions": build the state, run the initial refinement.
pub struct SpanStart {
    pub(crate) state: RankState,
    pub(crate) stats: RunStats,
    pub(crate) stage_counter: usize,
    pub(crate) mesh_epoch: u64,
    /// `(means, epoch)` of the last validation baseline (the
    /// `variant::Checkpoint`, flattened to keep that type crate-private).
    pub(crate) prev_checksum: Option<(Vec<f64>, u64)>,
    pub(crate) ts_start: usize,
}

impl SpanStart {
    /// Unpacks an optional resume point into the variant loop's working
    /// set: `(state, stats, stage_counter, mesh_epoch, prev_checksum,
    /// ts_start, resumed)`. A `None` start means initial conditions.
    #[allow(clippy::type_complexity)]
    pub(crate) fn unpack(
        start: Option<SpanStart>,
        cfg: &Config,
        comm: &Comm,
    ) -> (
        RankState,
        RunStats,
        usize,
        u64,
        Option<Checkpoint>,
        usize,
        bool,
    ) {
        match start {
            Some(s) => {
                let prev = s
                    .prev_checksum
                    .map(|(means, epoch)| Checkpoint { means, epoch });
                (
                    s.state,
                    s.stats,
                    s.stage_counter,
                    s.mesh_epoch,
                    prev,
                    s.ts_start,
                    true,
                )
            }
            None => {
                let state = RankState::init(cfg, comm.rank(), comm.size());
                let stats = RunStats {
                    rank: state.rank,
                    ..Default::default()
                };
                (state, stats, 0, 0, None, 0, false)
            }
        }
    }
}

/// What a span hands back at its end, alongside the stats: everything a
/// follow-up span (possibly on a different rank count) resumes from.
pub struct SpanCarry {
    pub(crate) state: RankState,
    pub(crate) stage_counter: usize,
    pub(crate) mesh_epoch: u64,
    pub(crate) prev_checksum: Option<(Vec<f64>, u64)>,
    pub(crate) next_ts: usize,
}

/// Per-run elastic context threaded into the variant loops.
pub(crate) struct ElasticCtx {
    /// The owning job (keys the boundary-snapshot registry).
    pub job: u64,
    /// Publish a coordinated boundary snapshot at the top of every
    /// timestep (only needed when a shrink-on-failure recovery may have
    /// to rewind; requires the variant to be quiescent there).
    pub publish_boundaries: bool,
}

impl ElasticCtx {
    /// Publishes this rank's boundary snapshot for the timestep about to
    /// run. The caller guarantees quiescence (the data-flow variant
    /// drains its graph and flushes the delayed checksum first).
    pub(crate) fn boundary(
        &self,
        state: &RankState,
        stats: &RunStats,
        stage_counter: usize,
        mesh_epoch: u64,
        prev_checksum: &Option<Checkpoint>,
        next_ts: usize,
    ) {
        if !self.publish_boundaries {
            return;
        }
        let ck = Arc::new(RankCheckpoint::take(
            state,
            next_ts,
            stage_counter,
            mesh_epoch,
        ));
        let snap = BoundarySnap {
            ck,
            stats: stats.clone(),
            stage_counter,
            prev_checksum: prev_checksum.as_ref().map(|c| (c.means.clone(), c.epoch)),
            next_ts,
        };
        let reg = boundaries();
        let mut reg = reg.lock();
        let snaps = reg.entry((self.job, state.rank)).or_default();
        snaps.push(snap);
        if snaps.len() > BOUNDARY_HISTORY {
            snaps.remove(0);
        }
    }
}

/// A coordinated per-rank snapshot published at the top of a timestep:
/// the recovery point a shrink-on-failure rewinds to.
#[derive(Clone)]
struct BoundarySnap {
    ck: Arc<RankCheckpoint>,
    stats: RunStats,
    stage_counter: usize,
    prev_checksum: Option<(Vec<f64>, u64)>,
    next_ts: usize,
}

/// The job-keyed boundary-snapshot registry (`(job, rank)` → history).
type BoundaryReg = Mutex<HashMap<(u64, usize), Vec<BoundarySnap>>>;

fn boundaries() -> &'static BoundaryReg {
    static REG: OnceLock<BoundaryReg> = OnceLock::new();
    REG.get_or_init(Default::default)
}

/// Drops every boundary snapshot of a job (run start and end).
fn clear_boundaries(job: u64) {
    boundaries().lock().retain(|(j, _), _| *j != job);
}

/// The newest boundary snapshot *common to all `n` ranks* of a job: one
/// snapshot per rank, all taken at the top of the same timestep. Ranks
/// progress at different speeds around a fault, so the newest common
/// timestep is the coordinated recovery point.
fn common_boundary(job: u64, n: usize) -> Option<Vec<BoundarySnap>> {
    let reg = boundaries().lock();
    let per_rank: Vec<&Vec<BoundarySnap>> = (0..n)
        .map(|r| reg.get(&(job, r)))
        .collect::<Option<Vec<_>>>()?;
    let common_ts = per_rank
        .iter()
        .map(|snaps| snaps.iter().map(|s| s.next_ts).collect::<BTreeSet<_>>())
        .reduce(|a, b| a.intersection(&b).copied().collect())?
        .into_iter()
        .next_back()?;
    Some(
        per_rank
            .iter()
            .map(|snaps| {
                snaps
                    .iter()
                    .find(|s| s.next_ts == common_ts)
                    .expect("timestep is common to all ranks")
                    .clone()
            })
            .collect(),
    )
}

/// Runs one world segment of `[..ts_end)` and returns per-rank
/// `(stats, carry)`, or the peer-lost reports if the world aborted.
fn run_segment(
    cfg: &Config,
    n: usize,
    net: &NetworkModel,
    starts: Vec<Option<SpanStart>>,
    ts_end: usize,
    ctx: &ElasticCtx,
) -> Result<Vec<(RunStats, SpanCarry)>, Vec<PeerLostReport>> {
    assert_eq!(starts.len(), n, "one resume point per rank");
    let world = match cfg.chaos.clone() {
        Some(chaos) => {
            checkpoint::install_recovery_hook();
            World::with_chaos(n, net.clone(), Some(chaos))
        }
        None => World::new(n, net.clone()),
    };
    let slots = Mutex::new(starts);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run(|comm| {
            let start = slots.lock()[comm.rank()].take();
            crate::run_rank_span(cfg, comm, start, ts_end, Some(ctx))
        })
    }));
    match run {
        Ok(results) => Ok(results),
        Err(payload) => {
            let reports = world.peer_lost_reports();
            if reports.is_empty() {
                // Not a peer-lost abort — an ordinary bug; don't mask it.
                std::panic::resume_unwind(payload);
            }
            Err(reports)
        }
    }
}

/// Runs the configured variant elastically: the world starts at
/// `n_ranks` (the `npx*npy*npz` rank grid) and is resized at each
/// [`ResizePlan`] event and/or shrunk onto the survivors of a lost peer.
/// Returns the final world's per-rank statistics. With an empty plan and
/// the [`PeerLostPolicy::Abort`] policy this is exactly
/// [`crate::run_world`] (same code path, byte for byte).
pub fn run(cfg: &Config, n_ranks: usize, net: NetworkModel, opts: &ElasticOpts) -> Vec<RunStats> {
    if opts.plan.events.is_empty()
        && opts.on_peer_lost == PeerLostPolicy::Abort
        && cfg.job.is_none()
    {
        return crate::run_world(cfg, n_ranks, net);
    }
    assert_eq!(
        n_ranks,
        cfg.params.num_ranks(),
        "the initial world size must match the npx*npy*npz rank grid"
    );
    for &(ts, _) in &opts.plan.events {
        assert!(
            ts >= 1,
            "resize points start at ts 1 (the initial world matches the rank grid)"
        );
    }
    let job = cfg.job_id();
    clear_boundaries(job);
    let shrink = opts.on_peer_lost == PeerLostPolicy::Shrink;
    let mut ctx = ElasticCtx {
        job,
        publish_boundaries: shrink && cfg.chaos.is_some(),
    };
    let mut seg_cfg = cfg.clone();
    if let Some(chaos) = seg_cfg.chaos.as_mut() {
        // Recovery hooks and checkpoint stores dispatch per job.
        chaos.job = job;
        if shrink {
            // A lost peer must poison the world (so the driver regains
            // control) instead of exiting the process.
            chaos.on_peer_lost = vmpi::PeerLostAction::AbortWorld;
        }
    }

    let mut n = n_ranks;
    let mut ts = 0usize;
    let mut starts: Vec<Option<SpanStart>> = (0..n).map(|_| None).collect();
    loop {
        let seg_end = opts
            .plan
            .events
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| t > ts && t < cfg.num_tsteps)
            .min()
            .unwrap_or(cfg.num_tsteps);
        match run_segment(&seg_cfg, n, &net, starts, seg_end, &ctx) {
            Ok(results) => {
                if seg_end >= cfg.num_tsteps {
                    clear_boundaries(job);
                    return results.into_iter().map(|(stats, _)| stats).collect();
                }
                // Planned resize: quiescence → checkpoint → repartition
                // → respawn.
                let new_n = opts
                    .plan
                    .events
                    .iter()
                    .filter(|&&(t, _)| t == seg_end)
                    .map(|&(_, m)| m)
                    .next_back()
                    .expect("segment ended at a resize point");
                let (stats_v, carries): (Vec<RunStats>, Vec<SpanCarry>) =
                    results.into_iter().unzip();
                assert!(
                    carries.iter().all(|c| c.next_ts == seg_end),
                    "every rank must stop exactly at the resize point"
                );
                let ckpts: Vec<Arc<RankCheckpoint>> = carries
                    .iter()
                    .map(|c| {
                        Arc::new(RankCheckpoint::take(
                            &c.state,
                            seg_end,
                            c.stage_counter,
                            c.mesh_epoch,
                        ))
                    })
                    .collect();
                let states = checkpoint::redistribute(&ckpts, new_n, cfg.balance);
                starts = states
                    .into_iter()
                    .enumerate()
                    .map(|(r, state)| {
                        // Grown ranks inherit the replicated counters
                        // (checksums history) from the last old rank.
                        let src = r.min(n - 1);
                        let mut stats = stats_v[src].clone();
                        stats.rank = r;
                        Some(SpanStart {
                            state,
                            stats,
                            stage_counter: carries[src].stage_counter,
                            mesh_epoch: carries[src].mesh_epoch,
                            prev_checksum: carries[src].prev_checksum.clone(),
                            ts_start: seg_end,
                        })
                    })
                    .collect();
                ts = seg_end;
                n = new_n;
            }
            Err(reports) => {
                assert!(
                    shrink,
                    "world aborted on peer loss without the shrink policy"
                );
                let dead: BTreeSet<usize> = reports.iter().map(|r| r.peer).collect();
                let new_n = n - dead.len();
                assert!(new_n >= 1, "no surviving ranks to shrink onto");
                eprintln!(
                    "elastic: job {job}: lost {:?}; shrinking {n} -> {new_n} ranks",
                    dead
                );
                // A peer that dies before every rank published its first
                // boundary (e.g. during initial refinement) leaves no
                // coordinated recovery point: fall back to the abort
                // policy's exit code rather than resuming from nowhere.
                let Some(snaps) = common_boundary(job, n) else {
                    eprintln!(
                        "elastic: job {job}: no coordinated boundary snapshot \
                         predates the failure; cannot shrink"
                    );
                    std::process::exit(vmpi::PEER_LOST_EXIT_CODE);
                };
                let resume_ts = snaps[0].next_ts;
                let ckpts: Vec<Arc<RankCheckpoint>> =
                    snaps.iter().map(|s| Arc::clone(&s.ck)).collect();
                let states = checkpoint::redistribute(&ckpts, new_n, cfg.balance);
                starts = states
                    .into_iter()
                    .enumerate()
                    .map(|(r, state)| {
                        let src = r.min(n - 1);
                        let mut stats = snaps[src].stats.clone();
                        stats.rank = r;
                        Some(SpanStart {
                            state,
                            stats,
                            stage_counter: snaps[src].stage_counter,
                            mesh_epoch: snaps[src].ck.mesh_epoch,
                            prev_checksum: snaps[src].prev_checksum.clone(),
                            ts_start: resume_ts,
                        })
                    })
                    .collect();
                ts = resume_ts;
                n = new_n;
                // The chaos plan fired; the survivors resume fault-free
                // and no further rewind can be needed.
                seg_cfg.chaos = None;
                ctx.publish_boundaries = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_resize_events() {
        assert_eq!(ResizePlan::parse_event("3:8"), Ok((3, 8)));
        assert!(ResizePlan::parse_event("0:8").is_err());
        assert!(ResizePlan::parse_event("3:0").is_err());
        assert!(ResizePlan::parse_event("3").is_err());
        assert!(ResizePlan::parse_event("x:8").is_err());
    }

    #[test]
    fn common_boundary_picks_newest_shared_timestep() {
        let cfg = crate::Config::smoke_test();
        let s0 = crate::rank::RankState::init(&cfg, 0, 2);
        let s1 = crate::rank::RankState::init(&cfg, 1, 2);
        let job = 0xe1a5_71c0;
        clear_boundaries(job);
        let ctx = ElasticCtx {
            job,
            publish_boundaries: true,
        };
        let stats = RunStats::default();
        // Rank 0 reaches ts 1..=3, rank 1 only ts 1..=2.
        for t in 1..=3usize {
            ctx.boundary(&s0, &stats, t * 4, 0, &None, t);
        }
        for t in 1..=2usize {
            ctx.boundary(&s1, &stats, t * 4, 0, &None, t);
        }
        let snaps = common_boundary(job, 2).expect("common timestep exists");
        assert_eq!(snaps.len(), 2);
        assert!(snaps.iter().all(|s| s.next_ts == 2));
        assert_eq!(snaps[0].ck.rank, 0);
        assert_eq!(snaps[1].ck.rank, 1);
        // A third rank never published: no coordinated point.
        assert!(common_boundary(job, 3).is_none());
        clear_boundaries(job);
        assert!(common_boundary(job, 2).is_none());
    }

    #[test]
    fn boundary_history_is_bounded() {
        let cfg = crate::Config::smoke_test();
        let s0 = crate::rank::RankState::init(&cfg, 0, 2);
        let job = 0xb0d3_d111u64;
        clear_boundaries(job);
        let ctx = ElasticCtx {
            job,
            publish_boundaries: true,
        };
        let stats = RunStats::default();
        for t in 1..=10usize {
            ctx.boundary(&s0, &stats, t, 0, &None, t);
        }
        let reg = boundaries().lock();
        let snaps = &reg[&(job, 0)];
        assert_eq!(snaps.len(), BOUNDARY_HISTORY);
        assert_eq!(snaps.last().unwrap().next_ts, 10);
        drop(reg);
        clear_boundaries(job);
    }
}
