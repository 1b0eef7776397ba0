//! Figures 1–3: execution trace analysis of MPI-only versus data-flow on
//! two (simulated) nodes — **real execution** on the in-process runtime,
//! with the `obs` event bus standing in for Extrae/Paraver: every number
//! below comes from the phase spans of one drained event stream per
//! variant, folded through `obs::span::SpanGraph`.
//!
//! Reported per variant:
//! * per-kind busy time (the task palette of Figs. 1 and 3),
//! * non-refinement wall time and the data-flow speedup over MPI-only
//!   (the paper observes ≈1.3× on this small input),
//! * the fraction of busy time with ≥2 different task kinds running
//!   simultaneously (the overlap that Fig. 3 visualizes; near zero for
//!   MPI-only, substantial for data-flow),
//! * the largest idle gap (the paper bounds the data-flow gaps at ~3 ms).
//!
//! Paper setup scaled to this container: the four-spheres problem, 9
//! timesteps × 20 stages, 12³-cell blocks, 20 variables, refinement every
//! 5 timesteps, checksum every 10 stages. For raw timelines, run the
//! same scenario through `miniamr --trace-json`.
//!
//! Usage: `trace_figs [--quick]`

use miniamr::{Config, RunStats, Variant};
use obs::report::Collector;
use obs::span::SpanGraph;
use vmpi::NetworkModel;

/// Per-stripe ring capacity; the collector drains the rings every few
/// milliseconds, so this only has to absorb bursts.
const RING_CAPACITY: usize = 1 << 18;

/// Runs one variant with the event bus on and folds its drained stream
/// into a span graph. The bus is shared across runs, so each run gets its
/// own collector (rank ids restart at 0 per run).
fn traced_run(cfg: &Config, ranks: usize, net: NetworkModel) -> (Vec<RunStats>, SpanGraph) {
    let collector = Collector::start(obs::enable_with_capacity(RING_CAPACITY), None, 1);
    let stats = miniamr::run_world(cfg, ranks, net);
    let (events, dropped) = collector.finish();
    assert_eq!(dropped, 0, "event ring overflow: raise RING_CAPACITY");
    (stats, SpanGraph::build(&events))
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");

    // Two "nodes" of 4 cores each on this container; the paper used two
    // 48-core nodes.
    let cores_per_node = 4usize;
    let nodes = 2usize;
    let (tsteps, stages, cells, num_vars) = if quick { (4, 6, 8, 4) } else { (9, 20, 12, 20) };

    let net = || {
        NetworkModel::new(std::time::Duration::from_micros(50), 2.0e9).with_intra_node_factor(0.2)
    };

    println!("# Figures 1-3: trace analysis on {nodes} nodes x {cores_per_node} cores");

    // MPI-only: one rank per core.
    let mpi_ranks = nodes * cores_per_node;
    let mesh = amr_bench::mesh_for((4, 2, 2), cells, num_vars, 1, mpi_ranks);
    let mut cfg = Config::new(mesh);
    cfg.objects = amr_bench::four_spheres(tsteps);
    cfg.num_tsteps = tsteps;
    cfg.stages_per_ts = stages;
    cfg.checksum_freq = 10;
    cfg.refine_freq = 5;
    cfg.variant = Variant::MpiOnly;
    let (mpi_stats, mpi_graph) =
        traced_run(&cfg, mpi_ranks, net().with_ranks_per_node(cores_per_node));

    // Data-flow: one rank per node, cores-1 workers (one core drives the
    // main thread).
    let df_ranks = nodes;
    let mesh = amr_bench::mesh_for((4, 2, 2), cells, num_vars, 1, df_ranks);
    let mut cfg_df = Config::new(mesh);
    cfg_df.objects = amr_bench::four_spheres(tsteps);
    cfg_df.num_tsteps = tsteps;
    cfg_df.stages_per_ts = stages;
    cfg_df.checksum_freq = 10;
    cfg_df.refine_freq = 5;
    cfg_df.variant = Variant::DataFlow;
    cfg_df.workers = cores_per_node;
    cfg_df.send_faces = true;
    cfg_df.separate_buffers = true;
    cfg_df.max_comm_tasks = 8;
    cfg_df.delayed_checksum = true;
    let (df_stats, df_graph) = traced_run(&cfg_df, df_ranks, net().with_ranks_per_node(1));

    let report = |name: &str, stats: &[RunStats], graph: &SpanGraph| -> (f64, f64) {
        println!("\n## {name}");
        println!("timeline (rank 0):\n{}", graph.render_ascii(0, 96));
        let total = stats
            .iter()
            .map(|s| s.times.total.as_secs_f64())
            .fold(0.0, f64::max);
        let refine = stats
            .iter()
            .map(|s| s.times.refine.as_secs_f64())
            .fold(0.0, f64::max);
        println!(
            "total_s\t{total:.3}\trefine_s\t{refine:.3}\tno_refine_s\t{:.3}",
            total - refine
        );
        println!("kind\tbusy_ms (rank 0)");
        for (phase, us) in graph.phase_totals(0) {
            println!("{phase:?}\t{:.2}", us as f64 / 1e3);
        }
        let ranks = graph.rank_stats();
        if let Some(r0) = ranks.iter().find(|r| r.rank == 0) {
            println!(
                "overlap_fraction\t{:.3}\tlargest_gap_ms\t{:.2}",
                r0.overlap_fraction,
                r0.largest_gap_us as f64 / 1e3
            );
        }
        println!("checksum_digest\t{:016x}", stats[0].checksum_digest());
        let overlap_max = ranks.iter().map(|r| r.overlap_fraction).fold(0.0, f64::max);
        (total - refine, overlap_max)
    };

    let (mpi_nr, _mpi_ov) = report("MPI-only (Figs. 1 upper, 2)", &mpi_stats, &mpi_graph);
    let (df_nr, df_ov) = report("Data-flow (Figs. 1 lower, 3)", &df_stats, &df_graph);

    println!("\n## Comparison");
    println!("non_refine_speedup_dataflow_vs_mpi\t{:.2}", mpi_nr / df_nr);
    let mut ok = true;
    ok &= amr_bench::shape_check(
        "data-flow overlaps phases (overlap fraction > 0.15)",
        df_ov > 0.15,
    );
    ok &= amr_bench::shape_check(
        "checksums pass in both variants",
        mpi_stats.iter().all(|s| s.checksums_failed == 0)
            && df_stats.iter().all(|s| s.checksums_failed == 0),
    );
    ok &= amr_bench::shape_check(
        "both variants produce the same checksum digest",
        mpi_stats[0].checksum_digest() == df_stats[0].checksum_digest(),
    );
    if !ok {
        std::process::exit(1);
    }
}
