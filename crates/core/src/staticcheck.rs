//! Static pre-flight verification of a scenario (`--staticcheck`, the
//! `dfcheck` binary, and the library entry [`check`]).
//!
//! A scenario — mesh parameters, variant, communication configuration —
//! is *symbolically elaborated* into a [`dfcheck::Model`]: the mesh
//! directory is evolved through the same planning code the live run
//! uses (`MeshDirectory::plan_refinement`, [`crate::exchange`]'s move
//! planners, [`crate::comm_plan::CommPlan::build`]), and each rank's
//! task stream is produced by the *same* [`crate::elaborate`] code that
//! drives the live runtime — recorded through the [`taskrt::Submitter`]
//! seam instead of spawned. No field data is allocated, no worker or
//! delivery thread starts, and no message is sent.
//!
//! Model bounds (soundness caveats, see `DESIGN.md` §15): the schedule
//! skeleton (which stages run, where barriers fall) is *mirrored* from
//! `variant::dataflow::run`, not shared with it; at most
//! [`MAX_EPOCHS`] mesh epochs and a few stages per epoch are modeled
//! (tags and buffer regions repeat identically every stage, so ordering
//! proofs extend inductively); the refinement block exchange is modeled
//! as a full barrier, not as endpoints; and MPI collectives (checksum
//! reductions) are not modeled at all.

use crate::comm_plan::CommPlan;
use crate::config::{Config, Variant};
use crate::elaborate::{ElabCtx, Work};
use crate::exchange::{balance_moves, data_tag, merge_gather_moves};
use amr_mesh::data::BlockLayout;
use amr_mesh::directory::MeshDirectory;
use amr_mesh::{BlockId, Object};
use dfcheck::{Finding, Model, NodeKind, Recorder, Report};
use std::collections::BTreeMap;
use taskrt::{Access, BarrierKind, CommIntent, ObjId, Phase, Region, Submitter, TaskSpec};

/// Mesh epochs modeled (initial mesh + up to three regrids). Beyond
/// this the stream repeats structurally: every epoch rebuilds the plan
/// from the same planner and resets tags the same way.
pub const MAX_EPOCHS: usize = 4;

/// Per-rank static state that persists across epochs.
struct StaticRank {
    /// Block id → dependency object (the static stand-in for
    /// [`crate::block_obj`], which needs live block uids).
    objs: BTreeMap<BlockId, ObjId>,
    /// The one persistent checksum-slots object (mirrors the live
    /// variant's single `checksum_obj`).
    ck_obj: ObjId,
    /// Whether a delayed checkpoint's slots are still in flight.
    pending: bool,
    /// Program-order object for the serialized variants: every endpoint
    /// takes `inout` on it, so the chain reflects blocking main-thread
    /// posting order.
    prog_obj: ObjId,
}

impl StaticRank {
    fn new() -> StaticRank {
        StaticRank {
            objs: BTreeMap::new(),
            ck_obj: ObjId::fresh(),
            pending: false,
            prog_obj: ObjId::fresh(),
        }
    }

    fn obj_of(&mut self, id: &BlockId) -> ObjId {
        *self.objs.entry(*id).or_insert_with(ObjId::fresh)
    }
}

/// Statically verifies a scenario. Returns the full report; the check
/// passed iff [`dfcheck::Report::clean`].
pub fn check(cfg: &Config) -> Report {
    let (model, slot_findings, max_move_seq) = build_model(cfg);
    let mut report = dfcheck::check(&model);
    for f in slot_findings {
        report.push_warning(f);
    }
    // The exchange protocol derives its tags from move sequence numbers;
    // a scenario with enough moves would walk out of the transport's tag
    // range. (Three tags per move: ACK, control, data.)
    if max_move_seq > 0 && !vmpi::valid_user_tag(data_tag(max_move_seq - 1)) {
        report.push_error(Finding {
            code: "tag-out-of-range",
            message: format!(
                "block exchange needs {} move tags and walks past the transport's tag range [0, {})",
                max_move_seq,
                vmpi::TAG_UB
            ),
            sites: vec![],
            chain: vec![],
        });
    }
    report
}

/// Elaborates a scenario into its static model. Also returns the
/// buffer-slot lint findings and the number of block-exchange move tags
/// the scenario needs.
fn build_model(cfg: &Config) -> (Model, Vec<Finding>, usize) {
    let n_ranks = cfg.params.num_ranks();
    let layout = BlockLayout::of(&cfg.params);
    let mut model = Model::default();
    let mut ranks: Vec<StaticRank> = (0..n_ranks).map(|_| StaticRank::new()).collect();
    let mut max_move_seq = 0usize;
    let mut slot_findings: Vec<Finding> = Vec::new();

    // --- Static mesh evolution, mirroring RankState::init + the initial
    // run_refinement (directory effects only; no block data).
    let mut dir = MeshDirectory::initial(cfg.params.clone());
    let mut objects = cfg.objects.clone();
    for _ in 0..=cfg.params.num_refine {
        let plan = dir.plan_refinement(&objects);
        if plan.is_empty() {
            break;
        }
        dir.apply_plan(&plan);
    }
    evolve_epoch(cfg, &mut dir, &objects, n_ranks, &mut max_move_seq);

    // --- Model the timestep loop: per epoch, a bounded number of stages
    // through the shared elaboration; barriers where the live schedule
    // has them. `stage` is the modeled (not wall-clock) stage counter
    // driving the checksum/checkpoint cadence.
    let stages_per_epoch = stages_to_model(cfg);
    let mut epoch = 0usize;
    let mut stage = 0u32;
    let mut epochs_done = false;
    let mut ts = 0usize;
    while !epochs_done && epoch < MAX_EPOCHS {
        let plan = CommPlan::build(cfg, &dir, n_ranks);
        record_epoch(
            cfg,
            &layout,
            &dir,
            &plan,
            &mut ranks,
            &mut model,
            epoch as u32,
            &mut stage,
            stages_per_epoch,
        );
        lint_buffer_slots(cfg, &plan, epoch, &mut slot_findings);
        // Advance the mesh to the next epoch (or finish).
        loop {
            if ts >= cfg.num_tsteps {
                epochs_done = true;
                break;
            }
            ts += 1;
            if ts.is_multiple_of(cfg.refine_freq) {
                for o in objects.iter_mut() {
                    o.step();
                }
                evolve_epoch(cfg, &mut dir, &objects, n_ranks, &mut max_move_seq);
                epoch += 1;
                break;
            }
        }
    }
    model.epochs = epoch.min(MAX_EPOCHS - 1) + 1;
    (model, slot_findings, max_move_seq)
}

/// Replicates one `run_refinement` call's directory effects.
fn evolve_epoch(
    cfg: &Config,
    dir: &mut MeshDirectory,
    objects: &[Object],
    n_ranks: usize,
    max_move_seq: &mut usize,
) {
    for _ in 0..cfg.params.block_change.max(1) {
        let plan = dir.plan_refinement(objects);
        if plan.is_empty() {
            break;
        }
        let gathers = merge_gather_moves(dir, &plan, 0);
        for m in &gathers {
            dir.set_owner(m.block, m.to);
            *max_move_seq = (*max_move_seq).max(m.seq + 1);
        }
        dir.apply_plan(&plan);
    }
    let moves = balance_moves(dir, cfg.balance, n_ranks, 0);
    for m in &moves {
        dir.set_owner(m.block, m.to);
        *max_move_seq = (*max_move_seq).max(m.seq + 1);
    }
}

/// How many stages of an epoch to model: enough to include one checksum
/// boundary (the `taskwait`/`taskwait_on` cadence) plus one stage after
/// it, and at least two stages so every cross-stage same-tag ordering
/// chain appears. Tags and buffer regions repeat identically every
/// stage, so two consecutive instances prove the induction step.
fn stages_to_model(cfg: &Config) -> u32 {
    let total = cfg.num_tsteps.saturating_mul(cfg.stages_per_ts).max(1);
    let want = (cfg.checksum_freq + 1).clamp(2, 16);
    want.min(total) as u32
}

/// Records one mesh epoch's modeled stages for every rank.
#[allow(clippy::too_many_arguments)]
fn record_epoch(
    cfg: &Config,
    layout: &BlockLayout,
    dir: &MeshDirectory,
    plan: &CommPlan,
    ranks: &mut [StaticRank],
    model: &mut Model,
    epoch: u32,
    stage: &mut u32,
    stages: u32,
) {
    let nv = cfg.params.num_vars;
    let start_stage = *stage;
    for (rank, st) in ranks.iter_mut().enumerate() {
        let mut rec: Recorder<Work> = Recorder::new();
        rec.ctx.epoch = epoch;
        // Fresh per-epoch buffer objects, with the same sharing the live
        // `Buffers::alloc` applies: separate buffers give each direction
        // its own dependency object; shared buffers reuse one.
        let (send_obj, recv_obj) = if cfg.separate_buffers {
            (
                [ObjId::fresh(), ObjId::fresh(), ObjId::fresh()],
                [ObjId::fresh(), ObjId::fresh(), ObjId::fresh()],
            )
        } else {
            let (s, r) = (ObjId::fresh(), ObjId::fresh());
            ([s, s, s], [r, r, r])
        };
        let ctx = ElabCtx {
            cfg,
            layout: *layout,
            dir,
            rank,
        };
        let mut local_stage = start_stage;
        for _ in 0..stages {
            local_stage += 1;
            rec.ctx.stage = local_stage;
            for g in 0..cfg.num_groups() {
                rec.ctx.group = g as u32;
                let vars = cfg.var_group(g);
                match cfg.variant {
                    Variant::DataFlow => {
                        ctx.communicate(
                            plan,
                            send_obj,
                            recv_obj,
                            vars.clone(),
                            &mut |id| st.obj_of(id),
                            &mut rec,
                        );
                        ctx.stencils(vars, &mut |id| st.obj_of(id), &mut rec);
                    }
                    Variant::MpiOnly | Variant::ForkJoin => {
                        record_serialized_endpoints(plan, rank, st.prog_obj, vars.len(), &mut rec);
                    }
                }
            }
            if cfg.variant == Variant::DataFlow {
                if (local_stage as usize).is_multiple_of(cfg.checksum_freq) {
                    if cfg.delayed_checksum {
                        if st.pending {
                            rec.barrier(BarrierKind::TaskwaitOn(vec![Region::whole(st.ck_obj)]));
                        }
                        ctx.checksum_locals(st.ck_obj, &mut |id| st.obj_of(id), &mut rec);
                        st.pending = true;
                    } else {
                        ctx.checksum_locals(st.ck_obj, &mut |id| st.obj_of(id), &mut rec);
                        rec.barrier(BarrierKind::Taskwait);
                    }
                }
                if cfg.ckpt_freq != 0 && (local_stage as usize).is_multiple_of(cfg.ckpt_freq) {
                    rec.barrier(BarrierKind::Taskwait);
                }
            }
        }
        if cfg.variant == Variant::DataFlow {
            // The pre-refinement (and final) drain: `run` issues a full
            // taskwait before every regrid and before exiting. The block
            // exchange itself is modeled as this barrier, not as
            // endpoints (soundness caveat).
            rec.barrier(BarrierKind::Taskwait);
        }
        model.ingest(rank, rec.stream, &|w| describe(w, plan, nv));
    }
    *stage = start_stage + stages;
    // Derive comm-path footprints exactly as the live submitter derives
    // its buffer slices from the declared regions: recv/pack/unpack use
    // a declared section verbatim; send reads the span of its sections.
    // Coverage then proves the sections tile the span.
    for node in &mut model.nodes {
        let NodeKind::Task(kind) = node.kind else {
            continue;
        };
        match kind {
            Phase::Recv => node.footprint = vec![node.accesses[0].clone()],
            Phase::Pack | Phase::Unpack if node.accesses.len() == 2 => {
                node.footprint = vec![node.accesses[0].clone(), node.accesses[1].clone()];
            }
            Phase::Send if !node.accesses.is_empty() => {
                let obj = node.accesses[0].region.obj;
                let lo = node.accesses.iter().map(|a| a.region.start).min().unwrap();
                let hi = node.accesses.iter().map(|a| a.region.end).max().unwrap();
                node.footprint = vec![Access::read(Region::new(obj, lo..hi))];
            }
            _ => {}
        }
    }
}

/// The serialized variants (MPI-only, fork-join) post communication
/// blocking from the main thread; every endpoint chains through the
/// rank's program object, so the model reflects the factual total order.
fn record_serialized_endpoints(
    plan: &CommPlan,
    rank: usize,
    prog_obj: ObjId,
    g: usize,
    rec: &mut Recorder<Work>,
) {
    for dir in amr_mesh::block_id::Dir::ALL {
        for (mi, m) in plan.msgs.iter().enumerate() {
            if m.dir != dir {
                continue;
            }
            if m.dst_rank == rank {
                rec.submit(TaskSpec {
                    kind: Phase::Recv,
                    priority: 0,
                    accesses: vec![Access::read_write(Region::whole(prog_obj))],
                    comm: Some(CommIntent::recv(m.src_rank, m.tag, m.elems_per_var * g)),
                    work: Work::Recv { msg: mi },
                });
            }
            if m.src_rank == rank {
                rec.submit(TaskSpec {
                    kind: Phase::Send,
                    priority: 0,
                    accesses: vec![Access::read_write(Region::whole(prog_obj))],
                    comm: Some(CommIntent::send(m.dst_rank, m.tag, m.elems_per_var * g)),
                    work: Work::Send { msg: mi },
                });
            }
        }
    }
}

/// Buffer-slot lint: every message owns a reserved slot of the
/// per-direction buffer, `[offset * gmax, offset * gmax + elems * gmax)`
/// (the allocation stride is the largest group size). A group whose
/// base offset is computed with a *different* stride escapes its slot
/// and aliases a neighbor's — the `--legacy_group_offsets` bug class.
/// Reported as a warning: the hard failures it causes (lost ordering
/// edges → tag collisions) are caught by the matching pass as errors.
fn lint_buffer_slots(cfg: &Config, plan: &CommPlan, epoch: usize, out: &mut Vec<Finding>) {
    let gmax = cfg.var_group(0).len();
    for g in 0..cfg.num_groups() {
        let glen = cfg.var_group(g).len();
        let gb = cfg.group_offset_stride(glen);
        for m in &plan.msgs {
            for (offset, side) in [(m.send_offset, "send"), (m.recv_offset, "recv")] {
                let (lo, hi) = (offset * gb, offset * gb + m.elems_per_var * glen);
                let (rlo, rhi) = (offset * gmax, offset * gmax + m.elems_per_var * gmax);
                if lo < rlo || hi > rhi {
                    out.push(Finding {
                        code: "buffer-slot-overlap",
                        message: format!(
                            "epoch {}: group {} of tag {} ({} side, rank {} -> rank {}) occupies \
                             [{}, {}) outside its reserved buffer slot [{}, {}) — it aliases a \
                             neighboring message's slot and loses the ordering edges that \
                             serialize same-tag communication",
                            epoch, g, m.tag, side, m.src_rank, m.dst_rank, lo, hi, rlo, rhi
                        ),
                        sites: vec![],
                        chain: vec![],
                    });
                    return; // one exemplar per epoch; the rest are echoes
                }
            }
        }
    }
}

/// Human site description of a task's work payload.
fn describe(w: &Work, plan: &CommPlan, nv: usize) -> String {
    match w {
        Work::Recv { msg } => {
            let m = &plan.msgs[*msg];
            format!("{:?} msg {} from rank {}", m.dir, msg, m.src_rank)
        }
        Work::Send { msg } => {
            let m = &plan.msgs[*msg];
            format!("{:?} msg {} to rank {}", m.dir, msg, m.dst_rank)
        }
        Work::Pack { msg, transfer } => {
            let m = &plan.msgs[*msg];
            format!(
                "{:?} msg {} section {} of block {:?}",
                m.dir, msg, transfer, m.transfers[*transfer].src_block
            )
        }
        Work::Unpack { msg, transfer } => {
            let m = &plan.msgs[*msg];
            format!(
                "{:?} msg {} section {} into block {:?}",
                m.dir, msg, transfer, m.transfers[*transfer].dst_block
            )
        }
        Work::LocalCopy { transfer } => {
            let t = &plan.locals[*transfer];
            format!("{:?} {:?} -> {:?}", t.dir, t.src_block, t.dst_block)
        }
        Work::Boundary { boundary } => {
            let (b, d, s) = &plan.boundaries[*boundary];
            format!("{:?} {:?} block {:?}", d, s, b)
        }
        Work::Stencil { block } => format!("block {:?} ({} vars)", block, nv),
        Work::ChecksumLocal { slot, block } => format!("slot {} block {:?}", slot, block),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legacy_cfg() -> Config {
        let mut cfg = Config::smoke_test();
        cfg.params.num_vars = 8;
        cfg.comm_vars = 3; // uneven groups: 3, 3, 2
        cfg.send_faces = true;
        cfg.variant = Variant::DataFlow;
        cfg.legacy_group_offsets = true;
        cfg
    }

    #[test]
    fn clean_scenario_passes_all_variants() {
        for variant in [Variant::DataFlow, Variant::MpiOnly, Variant::ForkJoin] {
            let mut cfg = Config::smoke_test();
            cfg.variant = variant;
            let report = check(&cfg);
            assert!(
                report.clean(),
                "{variant:?} flagged a clean scenario:\n{}",
                report.render_human()
            );
            assert!(report.stats.nodes > 0);
        }
    }

    #[test]
    fn every_comm_node_gets_a_footprint() {
        let mut cfg = Config::smoke_test();
        cfg.params.npy = 2; // the 4-rank smoke
        cfg.variant = Variant::DataFlow;
        assert!(check(&cfg).clean());
        let (model, ..) = build_model(&cfg);
        let mut seen = std::collections::BTreeSet::new();
        for node in &model.nodes {
            if let NodeKind::Task(
                kind @ (Phase::Recv | Phase::Pack | Phase::Unpack | Phase::Send),
            ) = node.kind
            {
                assert!(
                    !node.footprint.is_empty(),
                    "{kind:?} node without a footprint: rank {} seq {} {}",
                    node.rank,
                    node.seq,
                    node.detail
                );
                seen.insert(kind.name());
            }
        }
        assert_eq!(seen.len(), 4, "every comm kind must occur: {seen:?}");
    }

    #[test]
    fn clean_uneven_groups_pass() {
        let mut cfg = legacy_cfg();
        cfg.legacy_group_offsets = false;
        let report = check(&cfg);
        assert!(report.clean(), "{}", report.render_human());
    }

    #[test]
    fn legacy_offsets_flagged_as_tag_collision() {
        let report = check(&legacy_cfg());
        assert!(!report.clean());
        let collision = report
            .errors
            .iter()
            .find(|f| f.code == "tag-collision")
            .expect("legacy offsets must produce a tag collision");
        assert!(
            collision.sites.len() >= 2,
            "collision must name both aliased endpoints"
        );
        assert!(report
            .warnings
            .iter()
            .any(|f| f.code == "buffer-slot-overlap"));
    }

    #[test]
    fn delayed_checksum_and_ckpt_barriers_stay_clean() {
        let mut cfg = Config::smoke_test();
        cfg.variant = Variant::DataFlow;
        cfg.delayed_checksum = true;
        cfg.checksum_freq = 2;
        cfg.ckpt_freq = 3;
        cfg.separate_buffers = true;
        let report = check(&cfg);
        assert!(report.clean(), "{}", report.render_human());
    }
}
