//! The three parallelization variants and the one span driver they
//! share.
//!
//! [`run_span`] owns Algorithm 1's timestep schedule: resume or initial
//! refinement, the stage/group loop, the checksum, checkpoint and regrid
//! cadences, elastic boundary snapshots, timestep marks and the phase
//! stopwatches. A variant only says how each phase runs, through the
//! [`Exec`] hooks: [`mpi_only`] serially (Algorithm 2), [`fork_join`] as
//! barriered parallel loops, [`dataflow`] as dependent tasks
//! (Algorithms 3 and 4).

pub mod dataflow;
pub mod fork_join;
pub mod mpi_only;

use crate::checkpoint::maybe_checkpoint;
use crate::comm_plan::CommPlan;
use crate::config::Config;
use crate::elastic::{ElasticCtx, SpanCarry, SpanStart};
use crate::exchange::{run_refinement, BlockMover, RefineJob};
use crate::rank::RankState;
use crate::stats::{RunStats, Stopwatch};
use amr_mesh::data::BlockData;
use amr_mesh::BlockId;
use obs::span::{timed, Phase};
use shmem::SharedBuffer;
use std::ops::Range;
use std::sync::Arc;
use taskrt::{ObjId, Runtime};
use vmpi::Comm;

/// How one variant runs the phases of a span. The work of each hook is
/// the variant's own; when it runs is [`run_span`]'s.
pub(crate) trait Exec: Sized {
    /// The refinement block exchange's mover.
    type Mover: BlockMover;

    /// Ghost-face exchange of one variable group.
    fn communicate(
        &mut self,
        state: &RankState,
        comm: &Arc<Comm>,
        plan: &CommPlan,
        bufs: &Buffers,
        vars: Range<usize>,
        stats: &mut RunStats,
    );

    /// Stencil sweep of one variable group.
    fn stencil(&mut self, state: &RankState, vars: Range<usize>, stats: &mut RunStats);

    /// Local per-block sums for a checksum taken now under `epoch`, ready
    /// for the global combination. A variant that delays validation keeps
    /// the fresh sums pending and hands back the previous checksum's.
    fn checksum(&mut self, state: &RankState, epoch: u64) -> Option<LocalSums>;

    /// Waits until block data is quiescent. Variants that end every phase
    /// in a barrier are always quiescent.
    fn drain(&mut self) {}

    /// Sums still pending from a delayed checksum (called drained).
    fn take_pending(&mut self) -> Option<LocalSums> {
        None
    }

    /// A mover for one refinement.
    fn mover(&self) -> Self::Mover;

    /// Runs split/merge data jobs, returning the new blocks in id order.
    fn run_jobs(&self, state: &RankState, jobs: Vec<RefineJob>) -> Vec<BlockData>;

    /// Adds the executor's own counters (tasks spawned, flops counted off
    /// the main thread) to the span's stats.
    fn finish(self, _stats: &mut RunStats) {}
}

/// One rank's local checksum contribution: per-block sums in block-id
/// order, plus the global cell count and mesh epoch at the time they
/// were taken (a delayed validation runs after both may have changed).
pub(crate) struct LocalSums {
    pub ids: Vec<BlockId>,
    pub per_block: Vec<Vec<f64>>,
    pub total_cells: f64,
    pub epoch: u64,
}

impl LocalSums {
    /// Sums taken now from `state` under `epoch`.
    pub fn new(
        state: &RankState,
        epoch: u64,
        (ids, per_block): (Vec<BlockId>, Vec<Vec<f64>>),
    ) -> LocalSums {
        LocalSums {
            ids,
            per_block,
            total_cells: (state.dir.len() * state.cfg.params.cells_per_block()) as f64,
            epoch,
        }
    }
}

/// The task runtime a tasked variant runs a rank on.
fn runtime(cfg: &Config, rank: usize) -> Runtime {
    let rt = Runtime::with_config(taskrt::RuntimeConfig {
        workers: cfg.workers.max(1),
        immediate_successor: cfg.immediate_successor,
    });
    rt.set_obs_rank(cfg.obs_rank(rank));
    rt
}

/// Runs one *span* of Algorithm 1 on one rank, with `exec` running each
/// phase: from `start` (or initial conditions) up to — not including —
/// timestep `ts_end`. Returns the stats so far and the carry an elastic
/// resume continues from. The span ends drained (including the delayed
/// checksum), so its carry is a quiescent resize point.
pub(crate) fn run_span<E: Exec>(
    cfg: &Config,
    comm: Comm,
    mut exec: E,
    start: Option<SpanStart>,
    ts_end: usize,
    elastic: Option<&ElasticCtx>,
) -> (RunStats, SpanCarry) {
    let comm = Arc::new(comm);
    let resumed = start.is_some();
    let SpanStart {
        mut state,
        mut stats,
        mut stage_counter,
        mut mesh_epoch,
        mut prev_checksum,
        ts_start,
    } = start.unwrap_or_else(|| {
        let state = RankState::init(cfg, comm.rank(), comm.size());
        let stats = RunStats {
            rank: state.rank,
            ..Default::default()
        };
        SpanStart {
            state,
            stats,
            stage_counter: 0,
            mesh_epoch: 0,
            prev_checksum: None,
            ts_start: 0,
        }
    });
    let gmax = cfg.var_group(0).len();

    let total_sw = Stopwatch::start();
    // Initial refinement phase: the mesh was refined locally during init;
    // load-balance it before the main loop starts (the block exchanges at
    // the left of the paper's Fig. 1). A resumed span restores an
    // already-balanced mesh.
    if !resumed {
        let sw = Stopwatch::start();
        stats.blocks_moved += refine(&exec, &mut state, &comm);
        sw.stop(&mut stats.times.refine);
    }
    let mut plan = CommPlan::build(cfg, &state.dir, state.n_ranks);
    let mut bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
    for ts in ts_start..ts_end {
        // Boundary snapshots need quiescent blocks and a flushed delayed
        // checksum. Only taken when a shrink recovery may need to rewind
        // (the flush merely records the delayed validation a little
        // earlier — same values, same order — so the digest is
        // unaffected).
        if let Some(e) = elastic.filter(|e| e.publish_boundaries) {
            exec.drain();
            if let Some(sums) = exec.take_pending() {
                record_validation(&comm, cfg, sums, &mut stats, &mut prev_checksum);
            }
            e.boundary(
                &state,
                &stats,
                stage_counter,
                mesh_epoch,
                &prev_checksum,
                ts,
            );
        }
        // Rank-0 marks delimit the perf analyzer's per-timestep windows.
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                state.rank as u32,
                obs::EventData::TimestepMark { tstep: ts as u32 },
            );
        }
        for _stage in 0..cfg.stages_per_ts {
            stage_counter += 1;
            for g in 0..cfg.num_groups() {
                let vars = cfg.var_group(g);
                let sw = Stopwatch::start();
                exec.communicate(&state, &comm, &plan, &bufs, vars.clone(), &mut stats);
                sw.stop(&mut stats.times.communicate);

                let sw = Stopwatch::start();
                exec.stencil(&state, vars, &mut stats);
                sw.stop(&mut stats.times.stencil);
            }
            if stage_counter.is_multiple_of(cfg.checksum_freq) {
                let sw = Stopwatch::start();
                if let Some(sums) = exec.checksum(&state, mesh_epoch) {
                    record_validation(&comm, cfg, sums, &mut stats, &mut prev_checksum);
                }
                sw.stop(&mut stats.times.checksum);
            }
            // Checkpoints need quiescent block data; drain only when one
            // is due, so data-flow's no-barrier property is otherwise
            // untouched.
            maybe_checkpoint(&state, &mut stats, stage_counter, ts, mesh_epoch, || {
                exec.drain()
            });
        }
        if (ts + 1) % cfg.refine_freq == 0 {
            let sw = Stopwatch::start();
            // Explicit barrier before refinement (Algorithm 4). A delayed
            // checksum stays pending across the regrid.
            exec.drain();
            state.move_objects();
            stats.blocks_moved += refine(&exec, &mut state, &comm);
            mesh_epoch += 1;
            plan = CommPlan::build(cfg, &state.dir, state.n_ranks);
            bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
            sw.stop(&mut stats.times.refine);
        }
    }
    exec.drain();
    if let Some(sums) = exec.take_pending() {
        record_validation(&comm, cfg, sums, &mut stats, &mut prev_checksum);
    }
    total_sw.stop(&mut stats.times.total);
    exec.finish(&mut stats);
    stats.final_blocks = state.blocks.len();
    stats.pool = state.pool.stats();
    let carry = SpanCarry {
        state,
        stage_counter,
        mesh_epoch,
        prev_checksum,
        next_ts: ts_end,
    };
    (stats, carry)
}

/// Per-direction send/receive communication buffers plus their dependency
/// object ids.
///
/// With `--separate_buffers` each direction gets its own allocation (and
/// its own dependency object), so communication tasks of different
/// directions are independent. Without it, one allocation (sized for the
/// largest direction) is shared — reproducing the reference behavior
/// where reusing the buffer space serializes the directions through a
/// *false dependency* (§IV-A).
pub(crate) struct Buffers {
    pub send: [Arc<SharedBuffer<f64>>; 3],
    pub recv: [Arc<SharedBuffer<f64>>; 3],
    pub send_obj: [ObjId; 3],
    pub recv_obj: [ObjId; 3],
}

impl Buffers {
    /// Allocates buffers for the current plan. `gmax` is the largest
    /// variable-group size.
    pub fn alloc(plan: &CommPlan, rank: usize, gmax: usize, separate: bool) -> Buffers {
        let (send_elems, recv_elems) = plan.buffer_elems(rank, separate);
        let mk = |elems: [usize; 3]| -> ([Arc<SharedBuffer<f64>>; 3], [ObjId; 3]) {
            if separate {
                let bufs = [
                    SharedBuffer::new(elems[0] * gmax),
                    SharedBuffer::new(elems[1] * gmax),
                    SharedBuffer::new(elems[2] * gmax),
                ];
                let objs = [ObjId::fresh(), ObjId::fresh(), ObjId::fresh()];
                for (buf, obj) in bufs.iter().zip(&objs) {
                    buf.bind_obj(obj.0);
                }
                (bufs, objs)
            } else {
                let buf = SharedBuffer::new(elems[0] * gmax);
                let obj = ObjId::fresh();
                buf.bind_obj(obj.0);
                ([Arc::clone(&buf), Arc::clone(&buf), buf], [obj, obj, obj])
            }
        };
        let (send, send_obj) = mk(send_elems);
        let (recv, recv_obj) = mk(recv_elems);
        Buffers {
            send,
            recv,
            send_obj,
            recv_obj,
        }
    }
}

/// One refinement (split/merge, then load balance) with the variant's
/// mover and job runner. Returns the number of blocks moved.
fn refine<E: Exec>(exec: &E, state: &mut RankState, comm: &Arc<Comm>) -> u64 {
    run_refinement(state, comm, &mut exec.mover(), &mut |state, jobs| {
        exec.run_jobs(state, jobs)
    })
}

/// Packs a block id into one sortable word (the same packing the
/// checkpoint digest uses): the global combination order below.
fn packed_id(id: &BlockId) -> u64 {
    ((id.level as u64) << 48) | ((id.x as u64) << 32) | ((id.y as u64) << 16) | id.z as u64
}

/// The global checksum combination, *ownership-independent*: every rank
/// contributes its per-block partial sums tagged with the block id; rank
/// 0 sorts all contributions into global block-id order and folds them in
/// that order, then broadcasts the totals.
///
/// Because the floating-point fold order is a property of the mesh alone
/// — never of which rank owns which block — the recorded checksums (and
/// therefore [`crate::stats::RunStats::checksum_digest`]) are bitwise
/// identical across rank counts, load balancers, and elastic resizes.
/// That invariance is the backbone of the elastic-mode digest guarantee.
fn checksum_remote_blocks(comm: &Comm, local: &LocalSums, nv: usize) -> Vec<f64> {
    debug_assert_eq!(local.ids.len(), local.per_block.len());
    // Wire format: per block, one id word (as raw f64 bits) followed by
    // the `nv` per-variable sums.
    let mut flat = Vec::with_capacity(local.ids.len() * (nv + 1));
    for (id, sums) in local.ids.iter().zip(&local.per_block) {
        debug_assert_eq!(sums.len(), nv);
        flat.push(f64::from_bits(packed_id(id)));
        flat.extend_from_slice(sums);
    }
    let gathered = comm.gather(&flat, 0).expect("checksum gather");
    let totals = gathered.map(|parts| {
        let mut entries: Vec<(u64, &[f64])> = parts
            .iter()
            .flat_map(|part| {
                part.chunks_exact(nv + 1)
                    .map(|chunk| (chunk[0].to_bits(), &chunk[1..]))
            })
            .collect();
        entries.sort_by_key(|(key, _)| *key);
        let mut acc = vec![0.0f64; nv];
        for (_, sums) in entries {
            for (a, s) in acc.iter_mut().zip(sums) {
                *a += s;
            }
        }
        acc
    });
    comm.bcast(totals.as_deref(), 0).expect("checksum bcast")
}

/// The previous checkpoint a fresh checksum is validated against.
#[derive(Clone)]
pub(crate) struct Checkpoint {
    /// Per-cell means at the previous checkpoint.
    pub means: Vec<f64>,
    /// Mesh epoch (refinement counter) the means were taken under.
    pub epoch: u64,
}

/// Combines local sums through the global reduction and validates the
/// total against the previous checkpoint, updating counters.
///
/// Refinement changes the cell population (splitting a block multiplies
/// its cells by eight) and re-weights the per-cell mean, so checksums are
/// only comparable between checkpoints of the same *mesh epoch*. Within
/// an epoch the averaging stencil keeps the per-cell mean nearly
/// constant; corruption (a race, a lost message) shifts it by whole
/// cells. A checkpoint taken under a new epoch resets the baseline —
/// exactly the role of miniAMR's periodic validation. The raw sums are
/// recorded unconditionally (they are the cross-variant bitwise
/// fingerprint).
fn record_validation(
    comm: &Comm,
    cfg: &Config,
    local: LocalSums,
    stats: &mut RunStats,
    prev: &mut Option<Checkpoint>,
) {
    let current = timed(Phase::ChecksumRemote, || {
        checksum_remote_blocks(comm, &local, cfg.params.num_vars)
    });
    let means: Vec<f64> = current.iter().map(|s| s / local.total_cells).collect();
    let (epoch, tol) = (local.epoch, cfg.validate_tol);
    match prev.as_ref() {
        Some(p) if p.epoch == epoch => match amr_mesh::checksum::validate(&p.means, &means, tol) {
            amr_mesh::checksum::Validation::Ok => stats.checksums_passed += 1,
            amr_mesh::checksum::Validation::Failed { var, rel_err } => {
                stats.checksums_failed += 1;
                eprintln!(
                    "rank {}: checksum validation FAILED: var {var} drifted {rel_err:.3e}",
                    stats.rank
                );
            }
        },
        _ => stats.checksums_passed += 1,
    }
    stats.checksums.push(current);
    *prev = Some(Checkpoint { means, epoch });
}
