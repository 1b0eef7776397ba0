//! The reference MPI-only variant (Algorithms 1 and 2).
//!
//! One rank per core, everything serial inside a rank. The communicate
//! function processes the three directions sequentially over shared
//! buffers: post receives, pack and send, do the intra-process copies
//! while messages fly, then a `waitany` loop unpacks faces as they
//! arrive, and a final `waitall` drains the sends (§II-A, Algorithm 2).

use crate::comm_plan::{CommPlan, MsgPlan};
use crate::exchange::{BlockingMover, RefineJob};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, transfer_payload_elems,
    unpack_transfer, RankState,
};
use crate::stats::RunStats;
use crate::variant::{Buffers, Exec, LocalSums};
use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockData;
use obs::span::{timed, Phase};
use std::ops::Range;
use std::sync::Arc;
use vmpi::{Comm, RequestSet};

/// The MPI-only executor: every phase runs on the rank's main thread.
pub(crate) struct MpiOnly;

impl Exec for MpiOnly {
    type Mover = BlockingMover;

    /// Algorithm 2: per-direction exchange with a waitany consume loop.
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
            // Post all receives for this direction.
            let inbound: Vec<&MsgPlan> =
                plan.inbound(state.rank).filter(|m| m.dir == dir).collect();
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
                timed(Phase::Boundary, || {
                    apply_boundary(
                        &state.layout,
                        state.block(block),
                        *bdir,
                        *side,
                        vars.clone(),
                    )
                });
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

    fn stencil(&mut self, state: &RankState, vars: Range<usize>, stats: &mut RunStats) {
        for block in state.blocks.values() {
            stats.flops += timed(Phase::Stencil, || state.stencil_block(block, vars.clone()));
        }
    }

    fn checksum(&mut self, state: &RankState, epoch: u64) -> Option<LocalSums> {
        let nv = state.cfg.params.num_vars;
        Some(LocalSums::new(state, epoch, state.block_checksums(0..nv)))
    }

    fn mover(&self) -> BlockingMover {
        BlockingMover::default()
    }

    fn run_jobs(&self, state: &RankState, jobs: Vec<RefineJob>) -> Vec<BlockData> {
        jobs.iter().flat_map(|j| j.run(&state.cfg.params)).collect()
    }
}
