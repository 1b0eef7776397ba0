//! Phase intervals reach the event bus from every variant with no switch
//! other than the bus itself: each rank of an MPI-only, fork-join and
//! data-flow smoke shows up in the span graph with busy time and
//! stencil/pack/unpack intervals, and the run's checksum digest is the
//! one the same run produces with the bus off. Every task of the tasked
//! variants carries a typed kind, so fork-join's critical path sees its
//! compute. The metrics registry's task count is the runtimes' own: one
//! counter per quantity.
//!
//! Lives in its own integration-test binary: enabling the bus is
//! process-global and sticky, so it must not leak into other tests.

use miniamr::{Config, RunStats, Variant};
use obs::report::{Collector, PerfReport};
use obs::span::{Phase, SpanGraph};
use vmpi::NetworkModel;

fn smoke(variant: Variant) -> Config {
    let mut cfg = Config::smoke_test();
    cfg.variant = variant;
    cfg.num_tsteps = 2;
    cfg
}

fn run(cfg: &Config) -> Vec<RunStats> {
    let stats = miniamr::run_world(cfg, cfg.params.num_ranks(), NetworkModel::instant());
    assert!(stats.iter().all(|s| s.checksums_failed == 0));
    stats
}

#[test]
fn every_variant_emits_phase_spans_for_every_rank() {
    let variants = [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow];
    let bus_off: Vec<u64> = variants
        .iter()
        .map(|&v| run(&smoke(v))[0].checksum_digest())
        .collect();
    assert!(
        bus_off.windows(2).all(|w| w[0] == w[1]),
        "variants disagree with the bus off: {bus_off:x?}"
    );

    let bus = obs::enable_with_capacity(1 << 16);
    for (&variant, &expected) in variants.iter().zip(&bus_off) {
        let cfg = smoke(variant);
        obs::metrics().reset();
        let collector = Collector::start(bus, None, 1);
        let stats = run(&cfg);
        let (events, dropped) = collector.finish();
        assert_eq!(dropped, 0, "{variant:?}: ring overflow");
        assert_eq!(
            stats[0].checksum_digest(),
            expected,
            "{variant:?}: the bus changed the digest"
        );
        let registry_spawned = obs::metrics()
            .snapshot()
            .into_iter()
            .find(|&(name, _)| name == "taskrt.tasks_spawned")
            .map_or(0, |(_, v)| v as u64);
        assert_eq!(
            registry_spawned,
            stats.iter().map(|s| s.tasks_spawned).sum::<u64>(),
            "{variant:?}: registry taskrt.tasks_spawned disagrees with RunStats"
        );

        let graph = SpanGraph::build(&events);
        if variant != Variant::MpiOnly {
            assert!(!graph.tasks.is_empty(), "{variant:?}: no task nodes");
            let untyped: Vec<u64> = graph
                .tasks
                .values()
                .filter(|t| t.kind == Some(Phase::Other))
                .map(|t| t.id)
                .collect();
            assert!(
                untyped.is_empty(),
                "{variant:?}: tasks spawned without a kind: {untyped:?}"
            );
        }
        if variant == Variant::ForkJoin {
            let report = PerfReport::from_events(&events, dropped);
            let compute_us: u64 = report
                .timesteps
                .iter()
                .map(|t| t.breakdown.compute_us)
                .sum();
            assert!(compute_us > 0, "fork-join: no compute on the critical path");
        }
        let ranks = graph.rank_stats();
        assert_eq!(
            ranks.iter().map(|r| r.rank).collect::<Vec<_>>(),
            (0..cfg.params.num_ranks() as u32).collect::<Vec<_>>(),
            "{variant:?}: every rank must be attributed"
        );
        for r in &ranks {
            assert!(r.busy_us > 0, "{variant:?} rank {}: no busy time", r.rank);
            let totals = graph.phase_totals(r.rank);
            for phase in [Phase::Stencil, Phase::Pack, Phase::Unpack] {
                assert!(
                    totals.iter().any(|&(p, us)| p == phase && us > 0),
                    "{variant:?} rank {}: no {phase:?} time in {totals:?}",
                    r.rank
                );
            }
        }
    }
}
