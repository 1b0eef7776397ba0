//! The data-flow variant: the paper's contribution (Algorithms 3 and 4).
//!
//! Every phase is decomposed into tasks connected through region
//! dependencies:
//!
//! * **communicate** (Algorithm 3) — per direction: *receive* tasks post
//!   task-aware receives into buffer sections (`out` on the section);
//!   *pack* tasks copy block faces into send-buffer sections (`in` block,
//!   `out` section); *send* tasks ship sections through the task-aware
//!   layer (`in` on all the sections of the message — multideps);
//!   *local-copy* tasks handle intra-rank neighbors; *unpack* tasks wait
//!   on the receive section and write the ghost plane (`inout` block).
//!   Since a receive task's dependencies only release when the payload
//!   has arrived, unpackers start exactly when their data is ready — no
//!   `waitany` loop exists anywhere (§IV-A).
//! * **stencil** tasks (`inout` block/vars) chain naturally behind the
//!   unpackers and in front of the next stage's packers; stages overlap
//!   without any barrier.
//! * **checksum** (Algorithm 4) — per-block local reductions write slots
//!   of a checksum structure; with `--delayed_checksum` the global
//!   validation of checkpoint *k* happens at checkpoint *k+1* behind an
//!   OmpSs-2-style `taskwait_on` (§IV-C), so even checksums do not drain
//!   the task graph.
//! * **refinement** (§IV-B) — split/coarsen copies run as dependent
//!   tasks; the block exchange sends control messages from the main
//!   thread while pack/send/receive/unpack of block data are tasks bound
//!   through the task-aware layer.

use crate::comm_plan::CommPlan;
use crate::config::Config;
use crate::elaborate::{ElabCtx, Work};
use crate::exchange::{BlockMover, RefineJob};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, unpack_transfer, RankState,
};
use crate::stats::RunStats;
use crate::variant::{Buffers, Exec, LocalSums};
use amr_mesh::data::{BlockData, BlockLayout};
use amr_mesh::BlockId;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taskrt::{Access, BarrierKind, ObjId, Phase, Region, Runtime, Submitter, TaskSpec};
use vmpi::Comm;

/// The data-flow executor: every phase is spawned as dependent tasks and
/// the graph drains only where the schedule needs quiescent blocks.
pub(crate) struct DataFlow {
    rt: Arc<Runtime>,
    /// Stencil flops, counted inside the task bodies.
    flops: Arc<AtomicU64>,
    /// One persistent dependency object for every checkpoint's checksum
    /// slots. Because it is shared, a delayed validation waits before
    /// the next checkpoint's local sums are spawned.
    checksum_obj: ObjId,
    /// The delayed-validation pipeline: local sums of the previous
    /// checkpoint, still possibly being produced by in-flight tasks.
    pending: Option<PendingChecksum>,
}

impl DataFlow {
    /// A data-flow executor for `rank`.
    pub(crate) fn new(cfg: &Config, rank: usize) -> DataFlow {
        DataFlow {
            rt: Arc::new(super::runtime(cfg, rank)),
            flops: Arc::new(AtomicU64::new(0)),
            checksum_obj: ObjId::fresh(),
            pending: None,
        }
    }

    /// Spawns the per-block local reduction tasks of one checkpoint.
    fn spawn_local_checksum(&self, state: &RankState, epoch: u64) -> PendingChecksum {
        let slots = Arc::new(Mutex::new(vec![Vec::new(); state.blocks.len()]));
        let mut sub = LiveSub {
            slots: Some(&slots),
            ..LiveSub::new(&self.rt, state, 0..state.cfg.params.num_vars)
        };
        elab_ctx(state).checksum_locals(self.checksum_obj, &mut live_obj_of(state), &mut sub);
        let ids = state.blocks.keys().copied().collect();
        PendingChecksum {
            slots,
            sums: LocalSums::new(state, epoch, (ids, Vec::new())),
        }
    }
}

impl Exec for DataFlow {
    type Mover = TaskMover;

    /// Algorithm 3: the fully taskified communicate, driven through the
    /// shared elaboration (see [`crate::elaborate::ElabCtx::communicate`]
    /// for the spawn-order and offset-stride invariants).
    fn communicate(
        &mut self,
        state: &RankState,
        comm: &Arc<Comm>,
        plan: &CommPlan,
        bufs: &Buffers,
        vars: Range<usize>,
        stats: &mut RunStats,
    ) {
        let mut sub = LiveSub {
            comm: Some(comm),
            plan: Some(plan),
            bufs: Some(bufs),
            stats: Some(stats),
            ..LiveSub::new(&self.rt, state, vars.clone())
        };
        elab_ctx(state).communicate(
            plan,
            bufs.send_obj,
            bufs.recv_obj,
            vars,
            &mut live_obj_of(state),
            &mut sub,
        );
    }

    /// Stencil tasks chain behind the unpackers via block dependencies;
    /// no barrier.
    fn stencil(&mut self, state: &RankState, vars: Range<usize>, _stats: &mut RunStats) {
        let mut sub = LiveSub {
            flops: Some(&self.flops),
            ..LiveSub::new(&self.rt, state, vars.clone())
        };
        elab_ctx(state).stencils(vars, &mut live_obj_of(state), &mut sub);
    }

    fn checksum(&mut self, state: &RankState, epoch: u64) -> Option<LocalSums> {
        if !state.cfg.delayed_checksum {
            let fresh = self.spawn_local_checksum(state, epoch);
            self.rt.taskwait();
            return Some(fresh.into_sums());
        }
        // Hand back the *previous* checkpoint's sums; only its slots must
        // be quiescent (taskwait with dependencies). This waits before
        // the new checkpoint's local sums are spawned: the slots object
        // is shared, so the waiter must only see the previous writers.
        let prev = self.pending.take().map(|prev| {
            self.rt.taskwait_on(&[Region::whole(self.checksum_obj)]);
            prev.into_sums()
        });
        self.pending = Some(self.spawn_local_checksum(state, epoch));
        prev
    }

    fn drain(&mut self) {
        self.rt.taskwait();
    }

    fn take_pending(&mut self) -> Option<LocalSums> {
        self.pending.take().map(PendingChecksum::into_sums)
    }

    fn mover(&self) -> TaskMover {
        TaskMover {
            rt: Arc::clone(&self.rt),
        }
    }

    fn run_jobs(&self, state: &RankState, jobs: Vec<RefineJob>) -> Vec<BlockData> {
        run_jobs_tasked(&self.rt, state, jobs)
    }

    fn finish(self, stats: &mut RunStats) {
        stats.flops += self.flops.load(Ordering::Relaxed);
        stats.tasks_spawned += self.rt.stats().spawned;
    }
}

fn block_region(layout: &BlockLayout, block: &BlockData, vars: Range<usize>) -> Region {
    Region::new(crate::block_obj(block.uid), layout.var_elem_range(vars))
}

/// The live consumer of the shared elaboration stream
/// ([`crate::elaborate`]): materializes each [`TaskSpec`] into a real
/// task body and spawns it. The static verifier consumes the *same*
/// stream with `dfcheck`'s recorder, so declared accesses, endpoints
/// and spawn order cannot drift between execution and analysis.
///
/// Buffer slices are derived from the spec's declared regions — the
/// "slice == declaration" invariant holds by construction.
struct LiveSub<'a> {
    rt: &'a Runtime,
    state: &'a RankState,
    /// Communicate phase only (Recv/Pack/Send/LocalCopy/Boundary/Unpack).
    comm: Option<&'a Arc<Comm>>,
    plan: Option<&'a CommPlan>,
    bufs: Option<&'a Buffers>,
    vars: Range<usize>,
    stats: Option<&'a mut RunStats>,
    /// Stencil phase only.
    flops: Option<&'a Arc<AtomicU64>>,
    /// Checksum phase only.
    slots: Option<&'a Arc<Mutex<Vec<Vec<f64>>>>>,
}

impl<'a> LiveSub<'a> {
    /// A submitter for `vars` with no phase-specific fields set.
    fn new(rt: &'a Runtime, state: &'a RankState, vars: Range<usize>) -> LiveSub<'a> {
        LiveSub {
            rt,
            state,
            comm: None,
            plan: None,
            bufs: None,
            vars,
            stats: None,
            flops: None,
            slots: None,
        }
    }

    fn plan(&self) -> &'a CommPlan {
        self.plan.expect("communicate phase has a plan")
    }

    fn bufs(&self) -> &'a Buffers {
        self.bufs.expect("communicate phase has buffers")
    }

    fn comm(&self) -> &'a Arc<Comm> {
        self.comm.expect("communicate phase has a communicator")
    }
}

impl Submitter<Work> for LiveSub<'_> {
    fn submit(&mut self, spec: TaskSpec<Work>) {
        let builder = self.rt.task().kind(spec.kind).priority(spec.priority);
        let layout = self.state.layout;
        match spec.work {
            Work::Recv { msg } => {
                let d = self.plan().msgs[msg].dir.index();
                let r = &spec.accesses[0].region;
                let slice = self.bufs().recv[d].slice(r.start..r.end);
                let intent = spec.comm.as_ref().expect("recv spec has an endpoint");
                let (src, tag) = (intent.peer, intent.tag);
                let comm = Arc::clone(self.comm());
                builder
                    .accesses(spec.accesses.clone())
                    .body(move || {
                        tampi::irecv_into(&comm, slice, src as i32, tag).expect("recv task")
                    })
                    .spawn();
            }
            Work::Pack { msg, transfer } => {
                let m = &self.plan().msgs[msg];
                let d = m.dir.index();
                let t = m.transfers[transfer].clone();
                let r = &spec.accesses[1].region;
                let slice = self.bufs().send[d].slice(r.start..r.end);
                let src = self.state.block(&t.src_block).clone();
                let vars2 = self.vars.clone();
                builder
                    .accesses(spec.accesses.clone())
                    .body(move || {
                        slice.with_write(|dst| {
                            pack_transfer_into(&layout, &src, &t, vars2.clone(), dst)
                        });
                    })
                    .spawn();
            }
            Work::Send { msg } => {
                let d = self.plan().msgs[msg].dir.index();
                // The message span is the union of its packed sections
                // (they tile it contiguously).
                let lo = spec.accesses.iter().map(|a| a.region.start).min().unwrap();
                let hi = spec.accesses.iter().map(|a| a.region.end).max().unwrap();
                let slice = self.bufs().send[d].slice(lo..hi);
                let intent = spec.comm.as_ref().expect("send spec has an endpoint");
                let (dst, tag, elems) = (intent.peer, intent.tag, intent.elems);
                let comm = Arc::clone(self.comm());
                builder
                    .accesses(spec.accesses.clone())
                    .body(move || tampi::isend_from(&comm, &slice, dst, tag).expect("send task"))
                    .spawn();
                let stats = self.stats.as_mut().expect("communicate phase has stats");
                stats.msgs_sent += 1;
                stats.elems_sent += elems as u64;
            }
            Work::LocalCopy { transfer } => {
                let t = self.plan().locals[transfer].clone();
                let src = self.state.block(&t.src_block).clone();
                let dst = self.state.block(&t.dst_block).clone();
                let vars2 = self.vars.clone();
                let pool = Arc::clone(&self.state.pool);
                builder
                    .accesses(spec.accesses)
                    .body(move || {
                        apply_local_transfer(&layout, &src, &dst, &t, vars2.clone(), &pool)
                    })
                    .spawn();
            }
            Work::Boundary { boundary } => {
                let (block, bdir, side) = self.plan().boundaries[boundary];
                let b = self.state.block(&block).clone();
                let vars2 = self.vars.clone();
                builder
                    .accesses(spec.accesses)
                    .body(move || apply_boundary(&layout, &b, bdir, side, vars2.clone()))
                    .spawn();
            }
            Work::Unpack { msg, transfer } => {
                let m = &self.plan().msgs[msg];
                let d = m.dir.index();
                let t = m.transfers[transfer].clone();
                let r = &spec.accesses[0].region;
                let slice = self.bufs().recv[d].slice(r.start..r.end);
                let dst = self.state.block(&t.dst_block).clone();
                let vars2 = self.vars.clone();
                builder
                    .accesses(spec.accesses.clone())
                    .body(move || {
                        slice.with_read(|payload| {
                            unpack_transfer(&layout, &dst, &t, vars2.clone(), payload)
                        });
                    })
                    .spawn();
            }
            Work::Stencil { block } => {
                let block = self.state.block(&block).clone();
                let kind = self.state.cfg.stencil;
                let vars2 = self.vars.clone();
                let flops = Arc::clone(self.flops.expect("stencil phase has a flop counter"));
                builder
                    .accesses(spec.accesses)
                    .body(move || {
                        amr_mesh::stencil::apply_stencil(&block, &layout, kind, vars2.clone());
                        let f = layout.cells() as u64 * vars2.len() as u64 * kind.flops_per_cell();
                        flops.fetch_add(f, Ordering::Relaxed);
                    })
                    .spawn();
            }
            Work::ChecksumLocal { slot, block } => {
                let block = self.state.block(&block).clone();
                let nv = self.state.cfg.params.num_vars;
                let slots = Arc::clone(self.slots.expect("checksum phase has slots"));
                builder
                    .accesses(spec.accesses)
                    .body(move || {
                        slots.lock()[slot] = amr_mesh::checksum::block_sums(&block, &layout, 0..nv);
                    })
                    .spawn();
            }
        }
    }

    fn barrier(&mut self, kind: BarrierKind) {
        // The live driver issues its barriers directly on the runtime;
        // elaboration emits none. Kept for trait completeness.
        match kind {
            BarrierKind::Taskwait => self.rt.taskwait(),
            BarrierKind::TaskwaitOn(regions) => self.rt.taskwait_on(&regions),
        }
    }
}

fn live_obj_of<'a>(state: &'a RankState) -> impl FnMut(&BlockId) -> ObjId + 'a {
    |id| crate::block_obj(state.block(id).uid)
}

/// The elaboration context of a live rank.
fn elab_ctx(state: &RankState) -> ElabCtx<'_> {
    ElabCtx {
        cfg: &state.cfg,
        layout: state.layout,
        dir: &state.dir,
        rank: state.rank,
    }
}

/// In-flight local checksum: per-block slots written by tasks that
/// depend on the executor's `checksum_obj`.
struct PendingChecksum {
    /// The i-th slot is the i-th local block in id order (see
    /// [`crate::elaborate::ElabCtx::checksum_locals`]).
    slots: Arc<Mutex<Vec<Vec<f64>>>>,
    /// Ids, cell count and epoch at checkpoint time; the per-block sums
    /// come from the slots once they are quiescent.
    sums: LocalSums,
}

impl PendingChecksum {
    /// The sums, once the slots' writers are done.
    fn into_sums(self) -> LocalSums {
        LocalSums {
            per_block: std::mem::take(&mut *self.slots.lock()),
            ..self.sums
        }
    }
}

/// Split/merge data operations as dependent tasks.
fn run_jobs_tasked(rt: &Runtime, state: &RankState, jobs: Vec<RefineJob>) -> Vec<BlockData> {
    let results: Arc<Mutex<Vec<BlockData>>> = Arc::new(Mutex::new(Vec::new()));
    let params = state.cfg.params.clone();
    let layout = state.layout;
    let nv = params.num_vars;
    for job in jobs {
        let deps: Vec<Access> = match &job {
            RefineJob::Split(parent) => vec![Access::read(block_region(&layout, parent, 0..nv))],
            RefineJob::Merge(children) => children
                .iter()
                .map(|c| Access::read(block_region(&layout, c, 0..nv)))
                .collect(),
        };
        let results = Arc::clone(&results);
        let params = params.clone();
        rt.task()
            .kind(Phase::RefineCopy)
            .accesses(deps)
            .body(move || {
                let out = job.run(&params);
                results.lock().extend(out);
            })
            .spawn();
    }
    rt.taskwait();
    let mut out = std::mem::take(&mut *results.lock());
    out.sort_by_key(|b| b.id);
    out
}

/// The taskified block mover of §IV-B: pack/send and receive/unpack are
/// tasks bound through the task-aware layer; `finish` closes the
/// parallelism before the exchange function returns.
pub(crate) struct TaskMover {
    rt: Arc<Runtime>,
}

impl BlockMover for TaskMover {
    fn send_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        block: BlockData,
        to: usize,
        tag: i32,
    ) {
        let comm = Arc::clone(comm);
        let layout = state.layout;
        let nv = state.cfg.params.num_vars;
        let reg = block_region(&layout, &block, 0..nv);
        let pool = Arc::clone(&state.pool);
        self.rt
            .task()
            .kind(Phase::RefineExchange)
            .input(reg)
            .body(move || {
                // Pooled staging buffer, recycled when the task drops it.
                let mut payload = pool.take(nv * layout.cells());
                block.pack_interior_into(&layout, 0..nv, &mut payload);
                tampi::isend(&comm, &payload, to, tag).expect("exchange send");
            })
            .spawn();
    }

    fn recv_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        id: amr_mesh::BlockId,
        from: usize,
        tag: i32,
    ) -> BlockData {
        let comm = Arc::clone(comm);
        let layout = state.layout;
        let nv = state.cfg.params.num_vars;
        let block = BlockData::empty(id, &state.cfg.params);
        let handle = block.clone();
        let reg = block_region(&layout, &block, 0..nv);
        self.rt
            .task()
            .kind(Phase::RefineExchange)
            .out(reg)
            .body(move || {
                tampi::irecv_with::<f64, _>(&comm, from as i32, tag, move |payload| {
                    handle.unpack_interior(&layout, 0..nv, &payload);
                })
                .expect("exchange recv");
            })
            .spawn();
        block
    }

    fn finish(&mut self, _comm: &Arc<Comm>) {
        self.rt.taskwait();
    }
}
