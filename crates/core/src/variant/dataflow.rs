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
use crate::elastic::{ElasticCtx, SpanCarry, SpanStart};
use crate::exchange::{run_refinement, BlockMover, RefineJob};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, unpack_transfer, RankState,
};
use crate::stats::{RunStats, Stopwatch};
use crate::variant::{checksum_remote_blocks, record_validation, Buffers, Checkpoint};
use amr_mesh::data::{BlockData, BlockLayout};
use amr_mesh::BlockId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taskrt::{Access, BarrierKind, ObjId, Phase, Region, Runtime, Submitter, TaskSpec};
use vmpi::Comm;

/// Runs the data-flow variant on one rank, start to finish.
pub fn run(cfg: &Config, comm: Comm) -> RunStats {
    run_span(cfg, comm, None, cfg.num_tsteps, None).0
}

/// Runs one *span* of the data-flow variant: from `start` (or initial
/// conditions) up to — not including — timestep `ts_end`, returning the
/// stats so far and the carry an elastic resume continues from. The span
/// ends fully drained (taskwait + delayed-checksum flush), so its carry
/// is a quiescent resize point.
pub(crate) fn run_span(
    cfg: &Config,
    comm: Comm,
    start: Option<SpanStart>,
    ts_end: usize,
    elastic: Option<&ElasticCtx>,
) -> (RunStats, SpanCarry) {
    let rt = Arc::new(Runtime::with_config(taskrt::RuntimeConfig {
        workers: cfg.workers.max(1),
        immediate_successor: cfg.immediate_successor,
    }));
    let comm = Arc::new(comm);
    rt.set_obs_rank(cfg.obs_rank(comm.rank()));
    let (
        mut state,
        mut stats,
        mut stage_counter,
        mut mesh_epoch,
        mut prev_checksum,
        ts_start,
        resumed,
    ) = SpanStart::unpack(start, cfg, &comm);
    let gmax = cfg.var_group(0).len();
    let spawned_before = stats.tasks_spawned;
    let flops_before = stats.flops;

    let total_sw = Stopwatch::start();
    // Initial refinement phase with load balancing, taskified like every
    // other refinement (the colorful region at the left of Fig. 1's lower
    // trace). A resumed span restores an already-balanced mesh.
    if !resumed {
        let sw = Stopwatch::start();
        let mut mover = TaskMover {
            rt: Arc::clone(&rt),
        };
        let rt2 = Arc::clone(&rt);
        stats.blocks_moved += run_refinement(&mut state, &comm, &mut mover, &mut |state, jobs| {
            run_jobs_tasked(&rt2, state, jobs)
        });
        sw.stop(&mut stats.times.refine);
    }
    let mut plan = Arc::new(CommPlan::build(cfg, &state.dir, state.n_ranks));
    let mut bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
    // The delayed-validation pipeline: local sums of the previous
    // checkpoint, still possibly being produced by in-flight tasks.
    let mut pending: Option<PendingChecksum> = None;
    // One persistent dependency object for every checkpoint's checksum
    // slots. Because it is shared, the delayed validation below waits
    // before the next checkpoint's local sums are spawned.
    let checksum_obj = ObjId::fresh();
    let flops = Arc::new(AtomicU64::new(0));

    for ts in ts_start..ts_end {
        // Boundary snapshots need quiescent blocks and a flushed delayed
        // checksum: drain the graph first. Only taken when a shrink
        // recovery may need to rewind (the flush merely records the
        // delayed validation a little earlier — same values, same order —
        // so the digest is unaffected).
        if let Some(e) = elastic {
            if e.publish_boundaries {
                rt.taskwait();
                if let Some(prev) = pending.take() {
                    validate_pending(
                        prev,
                        &comm,
                        &mut stats,
                        &mut prev_checksum,
                        cfg.validate_tol,
                    );
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
                spawn_communicate(&rt, &state, &comm, &plan, &bufs, vars.clone(), &mut stats);
                sw.stop(&mut stats.times.communicate);

                // Stencil tasks chain behind the unpackers via block
                // dependencies; no barrier.
                let sw = Stopwatch::start();
                spawn_stencils(&rt, &state, vars.clone(), &flops);
                sw.stop(&mut stats.times.stencil);
            }
            if stage_counter.is_multiple_of(cfg.checksum_freq) {
                let sw = Stopwatch::start();
                if cfg.delayed_checksum {
                    // Validate the *previous* checkpoint; only its slots
                    // must be quiescent (taskwait with dependencies).
                    // This runs before the new checkpoint's local sums
                    // are spawned: the slots object is shared, so the
                    // waiter must only see the previous writers.
                    if let Some(prev) = pending.take() {
                        rt.taskwait_on(&[Region::whole(prev.obj)]);
                        validate_pending(
                            prev,
                            &comm,
                            &mut stats,
                            &mut prev_checksum,
                            cfg.validate_tol,
                        );
                    }
                    pending = Some(spawn_local_checksum(
                        &rt,
                        &state,
                        cfg,
                        mesh_epoch,
                        checksum_obj,
                    ));
                } else {
                    let fresh = spawn_local_checksum(&rt, &state, cfg, mesh_epoch, checksum_obj);
                    rt.taskwait();
                    validate_pending(
                        fresh,
                        &comm,
                        &mut stats,
                        &mut prev_checksum,
                        cfg.validate_tol,
                    );
                }
                sw.stop(&mut stats.times.checksum);
            }
            // Checkpoints need quiescent block data; only drain the task
            // graph when one is actually due (off by default, so the
            // no-barrier property of the variant is otherwise untouched).
            if cfg.ckpt_freq != 0 && stage_counter.is_multiple_of(cfg.ckpt_freq) {
                rt.taskwait();
                crate::checkpoint::maybe_checkpoint(
                    &state,
                    &mut stats,
                    stage_counter,
                    ts,
                    mesh_epoch,
                );
            }
        }
        if (ts + 1) % cfg.refine_freq == 0 {
            let sw = Stopwatch::start();
            // Explicit barrier before refinement (Algorithm 4).
            rt.taskwait();
            state.move_objects();
            let mut mover = TaskMover {
                rt: Arc::clone(&rt),
            };
            let rt2 = Arc::clone(&rt);
            let moved = run_refinement(&mut state, &comm, &mut mover, &mut |state, jobs| {
                run_jobs_tasked(&rt2, state, jobs)
            });
            stats.blocks_moved += moved;
            mesh_epoch += 1;
            plan = Arc::new(CommPlan::build(cfg, &state.dir, state.n_ranks));
            bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
            sw.stop(&mut stats.times.refine);
        }
    }
    // Drain the graph and the delayed checksum pipeline.
    rt.taskwait();

    if let Some(prev) = pending.take() {
        validate_pending(
            prev,
            &comm,
            &mut stats,
            &mut prev_checksum,
            cfg.validate_tol,
        );
    }
    total_sw.stop(&mut stats.times.total);
    stats.flops = flops_before + flops.load(Ordering::Relaxed);
    stats.tasks_spawned = spawned_before + rt.stats().spawned;
    stats.final_blocks = state.blocks.len();
    stats.pool = state.pool.stats();
    let carry = SpanCarry {
        stage_counter,
        mesh_epoch,
        prev_checksum: prev_checksum.as_ref().map(|c| (c.means.clone(), c.epoch)),
        next_ts: ts_end,
        state,
    };
    (stats, carry)
}

/// Combines a checkpoint's (now quiescent) per-block slots through the
/// ownership-independent global combination and records the validation.
fn validate_pending(
    prev: PendingChecksum,
    comm: &Arc<Comm>,
    stats: &mut RunStats,
    prev_checksum: &mut Option<Checkpoint>,
    tol: f64,
) {
    let per_block = prev.per_block();
    let total = checksum_remote_blocks(comm, &prev.ids, &per_block, prev.num_vars);
    record_validation(
        stats,
        prev_checksum,
        total,
        prev.total_cells,
        prev.epoch,
        tol,
    );
}

fn block_region(layout: &BlockLayout, block: &BlockData, vars: std::ops::Range<usize>) -> Region {
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
    vars: std::ops::Range<usize>,
    stats: Option<&'a mut RunStats>,
    /// Stencil phase only.
    flops: Option<&'a Arc<AtomicU64>>,
    /// Checksum phase only.
    slots: Option<&'a Arc<Mutex<Vec<Vec<f64>>>>>,
}

impl<'a> LiveSub<'a> {
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

fn spawn_stencils(
    rt: &Runtime,
    state: &RankState,
    vars: std::ops::Range<usize>,
    flops: &Arc<AtomicU64>,
) {
    let ctx = ElabCtx {
        cfg: &state.cfg,
        layout: state.layout,
        dir: &state.dir,
        rank: state.rank,
    };
    let mut sub = LiveSub {
        rt,
        state,
        comm: None,
        plan: None,
        bufs: None,
        vars: vars.clone(),
        stats: None,
        flops: Some(flops),
        slots: None,
    };
    ctx.stencils(vars, &mut live_obj_of(state), &mut sub);
}

/// Algorithm 3: the fully taskified communicate, driven through the
/// shared elaboration (see [`crate::elaborate::ElabCtx::communicate`]
/// for the spawn-order and offset-stride invariants).
#[allow(clippy::too_many_arguments)]
fn spawn_communicate(
    rt: &Runtime,
    state: &RankState,
    comm: &Arc<Comm>,
    plan: &Arc<CommPlan>,
    bufs: &Buffers,
    vars: std::ops::Range<usize>,
    stats: &mut RunStats,
) {
    let ctx = ElabCtx {
        cfg: &state.cfg,
        layout: state.layout,
        dir: &state.dir,
        rank: state.rank,
    };
    let mut sub = LiveSub {
        rt,
        state,
        comm: Some(comm),
        plan: Some(plan),
        bufs: Some(bufs),
        vars: vars.clone(),
        stats: Some(stats),
        flops: None,
        slots: None,
    };
    ctx.communicate(
        plan,
        bufs.send_obj,
        bufs.recv_obj,
        vars,
        &mut live_obj_of(state),
        &mut sub,
    );
}

/// In-flight local checksum: per-block slots plus the structure's
/// dependency object.
struct PendingChecksum {
    obj: ObjId,
    /// Owning block ids, in the same order as the slots (the i-th slot is
    /// the i-th local block in id order — see
    /// [`crate::elaborate::ElabCtx::checksum_locals`]).
    ids: Vec<BlockId>,
    slots: Arc<Mutex<Vec<Vec<f64>>>>,
    num_vars: usize,
    /// Global cell count at the time the checkpoint was taken (the
    /// normalization denominator; refinement may change it before the
    /// delayed validation runs).
    total_cells: f64,
    /// Mesh epoch at checkpoint time.
    epoch: u64,
}

impl PendingChecksum {
    /// The (quiescent) per-block sums, slot order == id order.
    fn per_block(&self) -> Vec<Vec<f64>> {
        self.slots.lock().clone()
    }
}

/// Spawns the per-block local reduction tasks of one checkpoint.
fn spawn_local_checksum(
    rt: &Runtime,
    state: &RankState,
    cfg: &Config,
    epoch: u64,
    obj: ObjId,
) -> PendingChecksum {
    let nv = cfg.params.num_vars;
    let slots = Arc::new(Mutex::new(vec![Vec::new(); state.blocks.len()]));
    let ctx = ElabCtx {
        cfg: &state.cfg,
        layout: state.layout,
        dir: &state.dir,
        rank: state.rank,
    };
    let mut sub = LiveSub {
        rt,
        state,
        comm: None,
        plan: None,
        bufs: None,
        vars: 0..nv,
        stats: None,
        flops: None,
        slots: Some(&slots),
    };
    ctx.checksum_locals(obj, &mut live_obj_of(state), &mut sub);
    let total_cells = (state.dir.len() * cfg.params.cells_per_block()) as f64;
    PendingChecksum {
        obj,
        ids: state.blocks.keys().copied().collect(),
        slots,
        num_vars: nv,
        total_cells,
        epoch,
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
struct TaskMover {
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
