//! End-to-end causal-analyzer test: a 4-rank data-flow run must produce
//! a schema-valid perf report whose per-timestep critical paths explain
//! wall-clock exactly, which attributes every rank, and whose message
//! nodes stitch sends to deliveries across ranks (the Perfetto flow
//! arrows).
//!
//! Lives in its own integration-test binary: enabling the bus is
//! process-global and sticky, so it must not leak into other tests.

use miniamr::{Config, Variant};
use obs::report::PerfReport;
use obs::span::SpanGraph;
use vmpi::NetworkModel;

#[test]
fn four_rank_dataflow_perf_report_is_schema_valid_and_consistent() {
    // Size the rings so nothing is dropped — the telescoping and flow
    // assertions below need the whole stream.
    obs::enable_with_capacity(1 << 18);

    let mut cfg = Config::smoke_test();
    cfg.params.npx = 2;
    cfg.params.npy = 2;
    cfg.params.npz = 1;
    cfg.variant = Variant::DataFlow;
    cfg.num_tsteps = 2;
    let n_ranks = cfg.params.num_ranks();
    assert_eq!(n_ranks, 4);

    let stats = miniamr::run_world(&cfg, n_ranks, NetworkModel::instant());
    assert!(stats.iter().all(|s| s.checksums_failed == 0));

    let drained = obs::bus().expect("bus enabled").drain();
    assert_eq!(drained.dropped, 0, "smoke run must fit in the sized rings");

    // --- Cross-rank flow edges -----------------------------------------
    let graph = SpanGraph::build(&drained.events);
    let delivered: Vec<_> = graph
        .messages
        .values()
        .filter(|m| m.delivered_us > 0)
        .collect();
    assert!(!delivered.is_empty(), "no matched messages in a 4-rank run");
    assert!(
        delivered.iter().any(|m| m.src != m.dst),
        "expected cross-rank message nodes"
    );
    for m in &delivered {
        assert!(
            m.delivered_us >= m.posted_us,
            "delivery precedes post on match {}",
            m.match_id
        );
    }
    // The same matches become Perfetto flow arrows in the Chrome export.
    let chrome = obs::export_chrome(&drained.events);
    obs::json::validate(&chrome).expect("chrome export must be valid JSON");
    assert_eq!(
        chrome.matches("\"ph\":\"s\"").count(),
        chrome.matches("\"ph\":\"f\"").count(),
        "every flow start needs its finish"
    );
    assert!(
        chrome.contains("\"ph\":\"s\""),
        "flow arrows missing from export"
    );

    // --- Report schema round-trip --------------------------------------
    let report = PerfReport::from_events(&drained.events, drained.dropped);
    let json = report.to_json();
    obs::json::validate(&json).expect("perf report must be valid JSON");
    assert!(json.contains("\"schema\":\"miniamr-perf-report\""));
    assert!(json.contains("\"version\":1"));
    assert!(json.contains("\"largest_gap_us\""));
    assert!(!report.human_summary().is_empty());

    // --- Critical path explains wall-clock -----------------------------
    // One window per traced timestep (rank-0 marks), each decomposed into
    // categories that sum to the window span exactly — the 5% acceptance
    // bound is structural here.
    assert_eq!(
        report.timesteps.len(),
        cfg.num_tsteps,
        "one window per timestep"
    );
    for ts in &report.timesteps {
        let bd = &ts.breakdown;
        assert_eq!(
            bd.total(),
            ts.end_us - ts.start_us,
            "timestep {} categories must telescope to its wall-clock",
            ts.tstep
        );
        assert!(ts.nodes > 0, "timestep {} walked no nodes", ts.tstep);
    }

    // --- Every rank attributed ------------------------------------------
    assert_eq!(report.ranks_detail.len(), n_ranks);
}
