//! # miniamr — the proxy application, in three parallelizations
//!
//! A Rust reimplementation of the **miniAMR** adaptive-mesh-refinement
//! proxy application and of the data-flow taskification the CLUSTER 2020
//! paper *"Towards Data-Flow Parallelization for Adaptive Mesh Refinement
//! Applications"* (Sala, Rico, Beltran) builds on top of it.
//!
//! Each timestep runs several *stages* (ghost-face communication followed
//! by a stencil sweep, Algorithm 1), periodic *checksum* validation, and
//! periodic *refinement* — objects move through the unit-cube mesh,
//! blocks split/merge around their boundaries, and a load-balancing pass
//! redistributes blocks across ranks with an ACK-based exchange protocol
//! (§IV-B).
//!
//! Three variants share the identical numerical kernels and communication
//! plan, differing only in how work is orchestrated:
//!
//! * [`variant::mpi_only`] — the reference: one rank per core, serial
//!   execution inside each rank, non-blocking sends/receives with the
//!   `waitany` consume loop of Algorithm 2.
//! * [`variant::fork_join`] — MPI + OpenMP-style: computation phases are
//!   parallel loops over blocks/faces; all communication stays on the
//!   main thread.
//! * [`variant::dataflow`] — the paper's contribution (Algorithms 3, 4):
//!   every phase is decomposed into tasks connected by region
//!   dependencies; communication tasks bind in-flight transfers through
//!   the task-aware layer (`tampi`), so phases overlap naturally. The
//!   paper's new options `--separate_buffers`, `--send_faces` and
//!   `--max_comm_tasks` control communication-task granularity, and the
//!   OmpSs-2 `taskwait_on` trick delays checksum validation by one
//!   checkpoint (§IV-C).
//!
//! All variants produce **bitwise-identical checksums** for the same
//! configuration — the backbone of this repo's correctness argument.
//!
//! ```
//! use miniamr::{Config, Variant};
//! use vmpi::NetworkModel;
//!
//! let mut cfg = Config::smoke_test();
//! cfg.variant = Variant::DataFlow;
//! let stats = miniamr::run_world(&cfg, 2, NetworkModel::instant());
//! assert!(stats[0].checksums_passed > 0);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod comm_plan;
pub mod config;
pub mod elaborate;
pub mod elastic;
pub mod exchange;
pub mod rank;
pub mod staticcheck;
pub mod stats;
pub mod variant;

pub use config::{BalanceKind, Config, JobCtx, Variant};
pub use elastic::{ElasticOpts, PeerLostPolicy, ResizePlan};
pub use stats::{PhaseTimes, RunStats};

use vmpi::{Comm, NetworkModel, World};

/// Task-dependency object id of a mesh block.
///
/// Block uids come from `amr_mesh`'s own counter, which is independent
/// of the `taskrt::ObjId::fresh` counter backing communication-buffer
/// and checksum objects. The mesh counter starts at the high bit so the
/// two id spaces stay disjoint — an aliased id would invent dependency
/// edges between unrelated tasks and phantom races under depsan.
pub fn block_obj(uid: u64) -> taskrt::ObjId {
    debug_assert!(uid >> 63 == 1, "block uids live in the high id namespace");
    taskrt::ObjId(uid)
}

/// Runs one rank of the configured variant (call from inside
/// [`vmpi::World::run`] or an equivalent harness).
pub fn run_rank(cfg: &Config, comm: Comm) -> RunStats {
    run_rank_span(cfg, comm, None, cfg.num_tsteps, None).0
}

/// Runs one *span* of the configured variant on one rank: from `start`
/// (or initial conditions) up to — not including — timestep `ts_end`.
/// The span primitive behind both [`run_rank`] (one span covering the
/// whole run) and [`elastic::run`] (a span per world segment).
pub(crate) fn run_rank_span(
    cfg: &Config,
    comm: Comm,
    start: Option<elastic::SpanStart>,
    ts_end: usize,
    ectx: Option<&elastic::ElasticCtx>,
) -> (RunStats, elastic::SpanCarry) {
    obs::set_thread_rank(cfg.obs_rank(comm.rank()));
    match cfg.variant {
        Variant::MpiOnly => variant::mpi_only::run_span(cfg, comm, start, ts_end, ectx),
        Variant::ForkJoin => variant::fork_join::run_span(cfg, comm, start, ts_end, ectx),
        Variant::DataFlow => variant::dataflow::run_span(cfg, comm, start, ts_end, ectx),
    }
}

/// Convenience: builds a world of `n_ranks` and runs the configured
/// variant on every rank, returning per-rank statistics.
///
/// With [`Config::chaos`] set, the world runs over the fault-injecting
/// reliability transport and the checkpoint recovery hook is registered,
/// so an unrecoverable peer produces a structured report (including the
/// restore-and-verify outcome of the latest checkpoint) before the
/// process exits with [`vmpi::PEER_LOST_EXIT_CODE`].
pub fn run_world(cfg: &Config, n_ranks: usize, net: NetworkModel) -> Vec<RunStats> {
    assert_eq!(
        n_ranks,
        cfg.params.num_ranks(),
        "world size must match the npx*npy*npz rank grid"
    );
    let world = match cfg.chaos.clone() {
        Some(chaos) => {
            checkpoint::install_recovery_hook();
            World::with_chaos(n_ranks, net, Some(chaos))
        }
        None => World::new(n_ranks, net),
    };
    world.run(|comm| run_rank(cfg, comm))
}
