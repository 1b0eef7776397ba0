//! The MPI + fork-join hybrid variant.
//!
//! This mirrors the experimental hybrid in the miniAMR repository that
//! the paper evaluates (§V): computation phases — stencil, local
//! checksum, face pack/unpack, intra-process copies, refinement
//! split/merge copies — are parallelized across worker threads, but every
//! phase ends in a barrier and **all MPI communication stays on the main
//! thread**. Phases never overlap; communication is serialized. That is
//! precisely the structural limitation the data-flow variant removes.
//!
//! Parallel loops whose iterations may touch the same block (local
//! copies, unpack) run as dependency-protected tasks instead of a raw
//! static `for` — same barrier semantics, but safe under this runtime's
//! dynamic race checking.

use crate::comm_plan::{CommPlan, MsgPlan};
use crate::config::Config;
use crate::exchange::{BlockingMover, RefineJob};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, unpack_transfer, RankState,
};
use crate::stats::RunStats;
use crate::variant::{Buffers, Exec, LocalSums};
use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockData;
use amr_mesh::BlockId;
use obs::span::{timed, Phase};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taskrt::{Region, Runtime};
use vmpi::{Comm, RequestSet};

/// The fork-join executor: parallel loops on the rank's task runtime,
/// each closed by a barrier.
pub(crate) struct ForkJoin {
    rt: Runtime,
}

impl ForkJoin {
    /// A fork-join executor for `rank`.
    pub(crate) fn new(cfg: &Config, rank: usize) -> ForkJoin {
        ForkJoin {
            rt: super::runtime(cfg, rank),
        }
    }
}

impl Exec for ForkJoin {
    type Mover = BlockingMover;

    /// Master-thread MPI with parallel pack/copy/unpack sub-phases, each
    /// closed by a barrier.
    fn communicate(
        &mut self,
        state: &RankState,
        comm: &Arc<Comm>,
        plan: &CommPlan,
        bufs: &Buffers,
        vars: Range<usize>,
        stats: &mut RunStats,
    ) {
        let g = vars.len();
        for dir in Dir::ALL {
            let d = dir.index();
            let inbound: Vec<MsgPlan> = plan
                .inbound(state.rank)
                .filter(|m| m.dir == dir)
                .cloned()
                .collect();
            let mut reqs = Vec::with_capacity(inbound.len());
            for m in &inbound {
                let lo = m.recv_offset * g;
                let slice = bufs.recv[d].slice(lo..lo + m.elems_per_var * g);
                reqs.push(
                    comm.irecv_into(slice, m.src_rank as i32, m.tag)
                        .expect("post recv"),
                );
            }

            // Parallel pack (read-only on blocks, disjoint buffer sections).
            let outbound: Vec<MsgPlan> = plan
                .outbound(state.rank)
                .filter(|m| m.dir == dir)
                .cloned()
                .collect();
            for m in &outbound {
                for t in m.transfers.clone() {
                    let src = state.block(&t.src_block).clone();
                    let layout = state.layout;
                    let vars = vars.clone();
                    let slice = {
                        let lo = (m.send_offset + t.offset_in_msg) * g;
                        bufs.send[d].slice(lo..lo + t.elems_per_var * g)
                    };
                    self.rt
                        .task()
                        .kind(Phase::Pack)
                        .body(move || {
                            slice.with_write(|dst| {
                                pack_transfer_into(&layout, &src, &t, vars.clone(), dst)
                            })
                        })
                        .spawn();
                }
            }
            self.rt.taskwait();

            // Master sends.
            for m in &outbound {
                let lo = m.send_offset * g;
                let slice = bufs.send[d].slice(lo..lo + m.elems_per_var * g);
                let req = comm
                    .isend_from(&slice, m.dst_rank, m.tag)
                    .expect("send faces");
                stats.msgs_sent += 1;
                stats.elems_sent += (m.elems_per_var * g) as u64;
                // Keep the request alive; completion is awaited below.
                reqs.push(req);
            }
            let n_recvs = inbound.len();

            // Intra-process copies: dependency-protected parallel loop.
            for t in plan
                .locals
                .iter()
                .filter(|t| t.dir == dir && t.src_rank == state.rank)
            {
                let src = state.block(&t.src_block).clone();
                let dst = state.block(&t.dst_block).clone();
                let layout = state.layout;
                let vars2 = vars.clone();
                let t = t.clone();
                let deps = vec![
                    taskrt::Access::read(Region::new(
                        crate::block_obj(src.uid),
                        layout.var_elem_range(vars2.clone()),
                    )),
                    taskrt::Access::read_write(Region::new(
                        crate::block_obj(dst.uid),
                        layout.var_elem_range(vars2.clone()),
                    )),
                ];
                let pool = Arc::clone(&state.pool);
                self.rt
                    .task()
                    .kind(Phase::LocalCopy)
                    .accesses(deps)
                    .body(move || {
                        apply_local_transfer(&layout, &src, &dst, &t, vars2.clone(), &pool)
                    })
                    .spawn();
            }
            // Boundary fills join the same protected loop.
            for (block, bdir, side) in plan
                .boundaries
                .iter()
                .filter(|(b, bd, _)| *bd == dir && state.dir.owner(b) == Some(state.rank))
            {
                let b = state.block(block).clone();
                let layout = state.layout;
                let vars2 = vars.clone();
                let (bdir, side) = (*bdir, *side);
                let deps = vec![taskrt::Access::read_write(Region::new(
                    crate::block_obj(b.uid),
                    layout.var_elem_range(vars2.clone()),
                ))];
                self.rt
                    .task()
                    .kind(Phase::Boundary)
                    .accesses(deps)
                    .body(move || apply_boundary(&layout, &b, bdir, side, vars2.clone()))
                    .spawn();
            }
            self.rt.taskwait();

            // Master waits for arrivals; unpack is a protected parallel loop
            // per arrived message.
            let mut set = RequestSet::new(reqs);
            let mut arrived = 0usize;
            while arrived < n_recvs {
                let Some((idx, _)) = timed(Phase::Wait, || set.waitany()) else {
                    break;
                };
                if idx >= n_recvs {
                    continue; // a send completed
                }
                arrived += 1;
                let m = &inbound[idx];
                for t in m.transfers.clone() {
                    let dst = state.block(&t.dst_block).clone();
                    let layout = state.layout;
                    let vars2 = vars.clone();
                    let lo = (m.recv_offset + t.offset_in_msg) * g;
                    let slice = bufs.recv[d].slice(lo..lo + t.elems_per_var * g);
                    let deps = vec![
                        taskrt::Access::read(Region::new(
                            bufs.recv_obj[d],
                            lo..lo + t.elems_per_var * g,
                        )),
                        taskrt::Access::read_write(Region::new(
                            crate::block_obj(dst.uid),
                            layout.var_elem_range(vars2.clone()),
                        )),
                    ];
                    self.rt
                        .task()
                        .kind(Phase::Unpack)
                        .accesses(deps)
                        .body(move || {
                            slice.with_read(|payload| {
                                unpack_transfer(&layout, &dst, &t, vars2.clone(), payload)
                            })
                        })
                        .spawn();
                }
            }
            self.rt.taskwait();
            // Drain the remaining (send) requests before the next direction.
            set.waitall();
        }
    }

    /// Parallel stencil sweep with a closing barrier.
    fn stencil(&mut self, state: &RankState, vars: Range<usize>, stats: &mut RunStats) {
        let flops = Arc::new(AtomicU64::new(0));
        for block in state.blocks.values() {
            let block = block.clone();
            let layout = state.layout;
            let kind = state.cfg.stencil;
            let vars = vars.clone();
            let flops = Arc::clone(&flops);
            self.rt
                .task()
                .kind(Phase::Stencil)
                .body(move || {
                    amr_mesh::stencil::apply_stencil(&block, &layout, kind, vars.clone());
                    let f = layout.cells() as u64 * vars.len() as u64 * kind.flops_per_cell();
                    flops.fetch_add(f, Ordering::Relaxed);
                })
                .spawn();
        }
        self.rt.taskwait();
        stats.flops += flops.load(Ordering::Relaxed);
    }

    /// Parallel local reduction into per-block slots; the master then
    /// performs the global reduction.
    fn checksum(&mut self, state: &RankState, epoch: u64) -> Option<LocalSums> {
        Some(LocalSums::new(
            state,
            epoch,
            parallel_local_checksum(&self.rt, state),
        ))
    }

    fn mover(&self) -> BlockingMover {
        BlockingMover::default()
    }

    fn run_jobs(&self, state: &RankState, jobs: Vec<RefineJob>) -> Vec<BlockData> {
        run_jobs_parallel(&self.rt, state, jobs)
    }

    fn finish(self, stats: &mut RunStats) {
        stats.tasks_spawned += self.rt.stats().spawned;
    }
}

/// Runs split/merge data jobs as a parallel loop with a closing barrier.
fn run_jobs_parallel(rt: &Runtime, state: &RankState, jobs: Vec<RefineJob>) -> Vec<BlockData> {
    let results: Arc<Mutex<Vec<BlockData>>> = Arc::new(Mutex::new(Vec::new()));
    let params = state.cfg.params.clone();
    for job in jobs {
        let results = Arc::clone(&results);
        let params = params.clone();
        rt.task()
            .kind(Phase::RefineCopy)
            .body(move || {
                let out = job.run(&params);
                results.lock().extend(out);
            })
            .spawn();
    }
    rt.taskwait();
    // Deterministic insertion order regardless of task completion order.
    let mut out = std::mem::take(&mut *results.lock());
    out.sort_by_key(|b| b.id);
    out
}

/// Parallel per-block checksum reduction; slots stay in block-id order,
/// feeding the ownership-independent global combination.
fn parallel_local_checksum(rt: &Runtime, state: &RankState) -> (Vec<BlockId>, Vec<Vec<f64>>) {
    let nv = state.cfg.params.num_vars;
    let ids: Vec<BlockId> = state.blocks.keys().copied().collect();
    let blocks: Vec<BlockData> = state.local_blocks();
    let slots: Arc<Mutex<Vec<Option<Vec<f64>>>>> = Arc::new(Mutex::new(vec![None; blocks.len()]));
    for (i, block) in blocks.into_iter().enumerate() {
        let layout = state.layout;
        let slots = Arc::clone(&slots);
        rt.task()
            .kind(Phase::ChecksumLocal)
            .body(move || {
                slots.lock()[i] = Some(amr_mesh::checksum::block_sums(&block, &layout, 0..nv));
            })
            .spawn();
    }
    rt.taskwait();
    let slots = slots.lock();
    let per_block: Vec<Vec<f64>> = slots
        .iter()
        .map(|s| s.clone().expect("all slots filled"))
        .collect();
    (ids, per_block)
}
