//! The reference MPI-only variant (Algorithms 1 and 2).
//!
//! One rank per core, everything serial inside a rank. The communicate
//! function processes the three directions sequentially over shared
//! buffers: post receives, pack and send, do the intra-process copies
//! while messages fly, then a `waitany` loop unpacks faces as they
//! arrive, and a final `waitall` drains the sends (§II-A, Algorithm 2).

use crate::comm_plan::{CommPlan, MsgPlan};
use crate::config::Config;
use crate::elastic::{ElasticCtx, SpanCarry, SpanStart};
use crate::exchange::{run_refinement, BlockingMover};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, transfer_payload_elems,
    unpack_transfer, RankState,
};
use crate::stats::{RunStats, Stopwatch};
use crate::variant::{checksum_remote_blocks, record_validation, Buffers};
use amr_mesh::block_id::Dir;
use obs::span::{timed, Phase};
use vmpi::{Comm, RequestSet};

/// Runs the MPI-only variant on one rank, start to finish.
pub fn run(cfg: &Config, comm: Comm) -> RunStats {
    run_span(cfg, comm, None, cfg.num_tsteps, None).0
}

/// Runs one *span* of the MPI-only variant: from `start` (or initial
/// conditions) up to — not including — timestep `ts_end`, returning the
/// stats so far and the carry an elastic resume continues from.
pub(crate) fn run_span(
    cfg: &Config,
    comm: Comm,
    start: Option<SpanStart>,
    ts_end: usize,
    elastic: Option<&ElasticCtx>,
) -> (RunStats, SpanCarry) {
    let comm = std::sync::Arc::new(comm);
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

    let total_sw = Stopwatch::start();
    // Initial refinement phase: the mesh was refined locally during init;
    // load-balance it before the main loop starts (the block exchanges
    // visible at the left of the paper's Fig. 1). A resumed span restores
    // an already-balanced mesh.
    if !resumed {
        let sw = Stopwatch::start();
        let mut mover = BlockingMover::default();
        stats.blocks_moved += run_refinement(&mut state, &comm, &mut mover, &mut |state, jobs| {
            jobs.iter().flat_map(|j| j.run(&state.cfg.params)).collect()
        });
        sw.stop(&mut stats.times.refine);
    }
    let mut plan = CommPlan::build(cfg, &state.dir, state.n_ranks);
    let mut bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
    for ts in ts_start..ts_end {
        // Serial execution: the rank is quiescent at every timestep top.
        if let Some(e) = elastic {
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
                communicate(&state, &comm, &plan, &bufs, vars.clone(), &mut stats);
                sw.stop(&mut stats.times.communicate);

                let sw = Stopwatch::start();
                for block in state.blocks.values() {
                    stats.flops +=
                        timed(Phase::Stencil, || state.stencil_block(block, vars.clone()));
                }
                sw.stop(&mut stats.times.stencil);
            }
            if stage_counter.is_multiple_of(cfg.checksum_freq) {
                let sw = Stopwatch::start();
                let nv = cfg.params.num_vars;
                let (ids, per_block) = state.block_checksums(0..nv);
                let total = timed(Phase::ChecksumRemote, || {
                    checksum_remote_blocks(&comm, &ids, &per_block, nv)
                });
                let cells = (state.dir.len() * cfg.params.cells_per_block()) as f64;
                record_validation(
                    &mut stats,
                    &mut prev_checksum,
                    total,
                    cells,
                    mesh_epoch,
                    cfg.validate_tol,
                );
                sw.stop(&mut stats.times.checksum);
            }
            // Serial execution: the rank is quiescent between stages, so
            // a checkpoint can be taken directly.
            crate::checkpoint::maybe_checkpoint(&state, &mut stats, stage_counter, ts, mesh_epoch);
        }
        if (ts + 1) % cfg.refine_freq == 0 {
            let sw = Stopwatch::start();
            state.move_objects();
            let mut mover = BlockingMover::default();
            let moved = run_refinement(&mut state, &comm, &mut mover, &mut |state, jobs| {
                jobs.iter().flat_map(|j| j.run(&state.cfg.params)).collect()
            });
            stats.blocks_moved += moved;
            mesh_epoch += 1;
            plan = CommPlan::build(cfg, &state.dir, state.n_ranks);
            bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
            sw.stop(&mut stats.times.refine);
        }
    }
    total_sw.stop(&mut stats.times.total);
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

/// Algorithm 2: per-direction exchange with a waitany consume loop.
fn communicate(
    state: &RankState,
    comm: &Comm,
    plan: &CommPlan,
    bufs: &Buffers,
    vars: std::ops::Range<usize>,
    stats: &mut RunStats,
) {
    let g = vars.len();
    for dir in Dir::ALL {
        let d = dir.index();
        // Post all receives for this direction.
        let inbound: Vec<&MsgPlan> = plan.inbound(state.rank).filter(|m| m.dir == dir).collect();
        let mut reqs = Vec::with_capacity(inbound.len());
        for m in &inbound {
            let lo = m.recv_offset * g;
            let hi = lo + m.elems_per_var * g;
            let slice = bufs.recv[d].slice(lo..hi);
            reqs.push(
                comm.irecv_into(slice, m.src_rank as i32, m.tag)
                    .expect("post recv"),
            );
        }

        // Pack straight into the send buffer sections and send — no
        // intermediate payload vector.
        let mut send_reqs = Vec::new();
        for m in plan.outbound(state.rank).filter(|m| m.dir == dir) {
            for t in &m.transfers {
                let lo = (m.send_offset + t.offset_in_msg) * g;
                let slice = bufs.send[d].slice(lo..lo + transfer_payload_elems(t, g));
                timed(Phase::Pack, || {
                    slice.with_write(|dst| {
                        pack_transfer_into(
                            &state.layout,
                            state.block(&t.src_block),
                            t,
                            vars.clone(),
                            dst,
                        )
                    })
                });
            }
            let lo = m.send_offset * g;
            let hi = lo + m.elems_per_var * g;
            let slice = bufs.send[d].slice(lo..hi);
            send_reqs.push(
                comm.isend_from(&slice, m.dst_rank, m.tag)
                    .expect("send faces"),
            );
            stats.msgs_sent += 1;
            stats.elems_sent += (m.elems_per_var * g) as u64;
        }

        // Intra-process copies and domain-boundary fills while messages
        // are in flight.
        for t in plan
            .locals
            .iter()
            .filter(|t| t.dir == dir && t.src_rank == state.rank)
        {
            let src = state.block(&t.src_block);
            let dst = state.block(&t.dst_block);
            timed(Phase::LocalCopy, || {
                apply_local_transfer(&state.layout, src, dst, t, vars.clone(), &state.pool)
            });
        }
        for (block, bdir, side) in plan
            .boundaries
            .iter()
            .filter(|(b, bd, _)| *bd == dir && state.dir.owner(b) == Some(state.rank))
        {
            apply_boundary(
                &state.layout,
                state.block(block),
                *bdir,
                *side,
                vars.clone(),
            );
        }

        // Waitany loop: unpack each message as it arrives.
        let mut set = RequestSet::new(reqs);
        while let Some((idx, _status)) = timed(Phase::Wait, || set.waitany()) {
            let m = inbound[idx];
            for t in &m.transfers {
                let lo = (m.recv_offset + t.offset_in_msg) * g;
                let slice = bufs.recv[d].slice(lo..lo + transfer_payload_elems(t, g));
                let dst = state.block(&t.dst_block);
                timed(Phase::Unpack, || {
                    slice.with_read(|payload| {
                        unpack_transfer(&state.layout, dst, t, vars.clone(), payload)
                    })
                });
            }
        }

        // Wait for the sends before reusing the buffers for the next
        // direction.
        for r in send_reqs {
            timed(Phase::Wait, || r.wait());
        }
    }
}
