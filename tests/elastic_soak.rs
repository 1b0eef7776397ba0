//! Elastic service mode, end to end: malleable rank counts must never
//! change the physics.
//!
//! The hard guarantee under test: a run that grows or shrinks its world
//! mid-flight — by plan (`--resize_at`) or by failure (`--on_peer_lost
//! shrink`) — produces a final checksum digest **bitwise identical** to
//! the fixed-rank, fault-free run of the same scenario. The digest is
//! ownership-invariant (per-block sums folded in global block-id order),
//! a resize moves block data without touching a cell, and recovery
//! rewinds to a coordinated timestep boundary; any divergence means one
//! of those three pillars cracked.
//!
//! The multi-job tests run several complete, concurrently-resizing
//! scenario instances in one process, which is what forces the
//! checkpoint store, recovery hooks and boundary snapshots to stay keyed
//! per job.

use amr_mesh::MeshParams;
use miniamr::{Config, ElasticOpts, JobCtx, PeerLostPolicy, ResizePlan, Variant};
use std::time::Duration;
use vmpi::{ChaosConfig, NetworkModel};

/// 2-rank base scenario (the smoke mesh): small enough to run many
/// elastic permutations, refining enough to exercise regrids.
fn base_cfg() -> Config {
    let mut cfg = Config::smoke_test();
    cfg.num_tsteps = 6;
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg
}

/// 4-rank scenario for the shrink-on-failure tests (a crash needs
/// survivors worth shrinking onto).
fn quad_cfg() -> Config {
    let params = MeshParams {
        npx: 2,
        npy: 2,
        npz: 1,
        init_x: 1,
        init_y: 1,
        init_z: 2,
        nx: 4,
        ny: 4,
        nz: 4,
        num_vars: 2,
        num_refine: 1,
        block_change: 1,
    };
    let mut cfg = Config::single_sphere(params, 6);
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg
}

fn fixed_digest(cfg: &Config, variant: Variant) -> u64 {
    let mut cfg = cfg.clone();
    cfg.variant = variant;
    let stats = miniamr::run_world(&cfg, cfg.params.num_ranks(), NetworkModel::instant());
    assert!(stats.iter().all(|s| s.checksums_failed == 0));
    stats[0].checksum_digest()
}

fn elastic_digest(cfg: &Config, variant: Variant, opts: &ElasticOpts) -> u64 {
    let mut cfg = cfg.clone();
    cfg.variant = variant;
    let stats = miniamr::elastic::run(&cfg, cfg.params.num_ranks(), NetworkModel::instant(), opts);
    assert!(
        stats.iter().all(|s| s.checksums_failed == 0),
        "elastic run failed validation"
    );
    // The final world's ranks must agree on the digest (it is broadcast).
    for s in &stats[1..] {
        assert_eq!(s.checksum_digest(), stats[0].checksum_digest());
    }
    stats[0].checksum_digest()
}

#[test]
fn grow_and_shrink_match_fixed_run_all_variants() {
    let base = base_cfg();
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let reference = fixed_digest(&base, variant);
        // Grow 2->6, shrink 6->3, shrink 3->2: exercises both directions
        // and a final world smaller than the start.
        let opts = ElasticOpts {
            plan: ResizePlan::default().at(2, 6).at(4, 3).at(5, 2),
            on_peer_lost: PeerLostPolicy::Abort,
        };
        let got = elastic_digest(&base, variant, &opts);
        assert_eq!(
            got, reference,
            "variant {variant:?}: elastic digest diverged from fixed-rank run"
        );
    }
}

#[test]
fn every_single_resize_point_is_digest_neutral() {
    // Property over the resize point: wherever the boundary falls
    // relative to regrids (refine_freq = 2 puts regrids at ts 2 and 4),
    // the digest must not move. This pins the checkpoint/restore
    // machinery across *changed* mesh epochs: resizing right after a
    // regrid restores a mesh that differs structurally from the initial
    // one.
    let base = base_cfg();
    let reference = fixed_digest(&base, Variant::DataFlow);
    for ts in 1..base.num_tsteps {
        for n in [3, 4] {
            let opts = ElasticOpts {
                plan: ResizePlan::default().at(ts, n),
                on_peer_lost: PeerLostPolicy::Abort,
            };
            let got = elastic_digest(&base, Variant::DataFlow, &opts);
            assert_eq!(
                got, reference,
                "resize to {n} ranks before ts {ts} changed the digest"
            );
        }
    }
}

#[test]
fn job_scoped_resize_across_regrid_boundary_matches_fixed_digest() {
    // A job-scoped run resizing across a regrid boundary (each resize
    // renames every block uid) must still land on the fixed-run digest.
    let base = base_cfg();
    let reference = fixed_digest(&base, Variant::DataFlow);
    let mut cfg = base.clone();
    cfg.job = Some(JobCtx::new(7, 0));
    let opts = ElasticOpts {
        // ts 3 is right after the ts-2 regrid: the restored mesh differs
        // from the initial one.
        plan: ResizePlan::default().at(3, 4),
        on_peer_lost: PeerLostPolicy::Abort,
    };
    let got = elastic_digest(&cfg, Variant::DataFlow, &opts);
    assert_eq!(got, reference);
}

#[test]
fn four_concurrent_resizing_jobs_agree() {
    // The soak harness core: >= 4 complete scenario instances resizing
    // concurrently in one process. Per-job keying of the checkpoint
    // store and boundary registry is exactly what this breaks without.
    let base = base_cfg();
    let reference = fixed_digest(&base, Variant::DataFlow);
    let n_ranks = base.params.num_ranks();
    let handles: Vec<_> = (0..4u64)
        .map(|j| {
            let mut cfg = base.clone();
            cfg.variant = Variant::DataFlow;
            cfg.job = Some(JobCtx::new(j, (j as u32) * n_ranks as u32));
            // Different jobs resize at different points (and one not at
            // all) so their worlds are permanently out of lockstep.
            let plan = match j {
                0 => ResizePlan::default(),
                1 => ResizePlan::default().at(2, 4),
                2 => ResizePlan::default().at(3, 5).at(5, 2),
                _ => ResizePlan::default().at(1, 3).at(4, 6),
            };
            std::thread::spawn(move || {
                let opts = ElasticOpts {
                    plan,
                    on_peer_lost: PeerLostPolicy::Abort,
                };
                let stats = miniamr::elastic::run(&cfg, n_ranks, NetworkModel::instant(), &opts);
                assert!(stats.iter().all(|s| s.checksums_failed == 0));
                stats[0].checksum_digest()
            })
        })
        .collect();
    for (j, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("job thread panicked");
        assert_eq!(got, reference, "job {j} diverged from the fixed-rank run");
    }
}

#[test]
fn shrink_on_failure_reproduces_fixed_digest() {
    // Kill rank 3's NIC mid-run; the shrink policy must rewind the
    // survivors to the latest coordinated boundary and still land on the
    // fault-free fixed-rank digest, for every variant (the data-flow
    // variant additionally exercises the poisoned-runtime unwind through
    // tampi holds and taskwait).
    let base = quad_cfg();
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let reference = fixed_digest(&base, variant);
        let mut cfg = base.clone();
        cfg.variant = variant;
        cfg.chaos = Some(ChaosConfig {
            seed: 7,
            crash_rank: Some(3),
            // Past the initial refinement exchange (so at least one
            // coordinated boundary exists) and well before the run ends
            // (rank 3 sends ~80 frames total in this scenario).
            crash_after: 40,
            retry_budget: 4,
            rto: Duration::from_millis(2),
            ..ChaosConfig::default()
        });
        let opts = ElasticOpts {
            plan: ResizePlan::default(),
            on_peer_lost: PeerLostPolicy::Shrink,
        };
        let stats =
            miniamr::elastic::run(&cfg, cfg.params.num_ranks(), NetworkModel::instant(), &opts);
        // The world shrank: fewer ranks than the grid came back.
        assert!(
            stats.len() < cfg.params.num_ranks(),
            "variant {variant:?}: the world never shrank (crash too late?)"
        );
        assert!(stats.iter().all(|s| s.checksums_failed == 0));
        assert_eq!(
            stats[0].checksum_digest(),
            reference,
            "variant {variant:?}: shrink-on-failure diverged from the fixed-rank run"
        );
    }
}

#[test]
fn disabled_path_is_the_fixed_run() {
    // No plan, abort policy, no job: elastic::run must short-circuit to
    // the plain fixed-rank path (this is the "disabled path parity" the
    // benchmark gate also checks — zero overhead when off).
    let base = base_cfg();
    let opts = ElasticOpts::default();
    for variant in [Variant::MpiOnly, Variant::DataFlow] {
        assert_eq!(
            elastic_digest(&base, variant, &opts),
            fixed_digest(&base, variant)
        );
    }
}
