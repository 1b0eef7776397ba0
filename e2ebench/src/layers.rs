//! Per-layer metrics of one variant, from the counters the public API
//! returns (`RunStats`, the `obs` metrics registry, `PerfReport`) and the
//! event stream of its traced run.

use crate::exec::vname;
use crate::report::{median, percentile, ratio, Metrics};
use miniamr::{RunStats, Variant};
use obs::report::PerfReport;
use obs::{Event, EventData, HistogramSnapshot};
use std::collections::BTreeMap;

/// One untraced run of a variant.
pub struct Sample {
    /// Wall time, seconds.
    pub wall: f64,
    /// Per-rank statistics.
    pub stats: Vec<RunStats>,
    /// Durations of the ranks' `run_rank` spans, seconds.
    pub rank_s: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor stole during the run.
    pub stolen: f64,
    /// Peak resident memory of the process during the run, MiB.
    pub peak_rss_mb: f64,
}

/// Wall time less the time the hypervisor's stealing cost the run, an
/// estimate of its wall time on a host of its own. `stolen` is the share
/// of the machine's CPU time stolen during the run. The two ranks run in
/// near lockstep on the machine's two CPUs, so time stolen from one also
/// stalls the other: the loss lies between the stolen time per CPU
/// (`wall * stolen`, steal on both CPUs at once) and the stolen time of
/// both CPUs (`2 * wall * stolen`, never at once). The estimate takes the
/// middle of that range. Runs measured on the 2-CPU development host at
/// 10-55% stolen lost between 1.2 and 2.1 times `wall * stolen`.
pub fn unstolen(wall: f64, stolen: f64) -> f64 {
    wall * (1.0 - LOCKSTEP_LOSS * stolen)
}

/// Lost wall time per unit of `wall * stolen`; see [`unstolen`].
const LOCKSTEP_LOSS: f64 = 1.5;

/// The wall times the end-to-end medians are taken over: [`steady`] of
/// the samples' wall times and stolen shares.
pub fn steady_walls(samples: &[Sample]) -> Vec<f64> {
    steady(samples.iter().map(|s| (s.wall, s.stolen)))
}

/// Of `(wall, stolen share)` runs, the wall times, each less its stolen
/// time ([`unstolen`]), of every run during which the hypervisor stole
/// less than [`QUIET_STEAL`] of the CPU time, and of at least the
/// least-disturbed half (and [`MIN_STEADY`]) of them. On a shared host,
/// runs during which the hypervisor steals CPU time from this guest are
/// slower for reasons outside the program.
pub fn steady(runs: impl Iterator<Item = (f64, f64)>) -> Vec<f64> {
    let mut by_steal: Vec<(f64, f64)> = runs.collect();
    by_steal.sort_by(|a, b| a.1.total_cmp(&b.1));
    let quiet = by_steal.iter().filter(|r| r.1 < QUIET_STEAL).count();
    let keep = quiet
        .max(by_steal.len().div_ceil(2))
        .max(MIN_STEADY)
        .min(by_steal.len());
    by_steal[..keep]
        .iter()
        .map(|&(wall, stolen)| unstolen(wall, stolen))
        .collect()
}

/// Stolen share of the CPU time below which a sample counts as quiet.
const QUIET_STEAL: f64 = 0.05;
/// Fewest samples an end-to-end median is taken over.
const MIN_STEADY: usize = 3;

/// The traced run of a variant.
pub struct Traced {
    /// Wall time less its stolen time ([`unstolen`]), seconds.
    pub wall: f64,
    /// Merged event stream.
    pub events: Vec<Event>,
    /// The report built from `events`.
    pub report: PerfReport,
    /// Registry scalars after the run (the registry is reset before it).
    pub registry: BTreeMap<&'static str, i64>,
    /// Registry histograms after the run.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl Traced {
    fn reg(&self, name: &str) -> f64 {
        self.registry.get(name).copied().unwrap_or(0) as f64
    }
}

fn sum(stats: &[RunStats], f: impl Fn(&RunStats) -> u64) -> f64 {
    stats.iter().map(f).sum::<u64>() as f64
}

/// Median over samples of a per-sample value.
fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&mut samples.iter().map(f).collect::<Vec<_>>())
}

/// Appends every per-layer metric of variant `v`.
pub fn variant_metrics(v: Variant, samples: &[Sample], t: &Traced, m: &mut Metrics) {
    let p = vname(v);
    let first = &samples[0].stats;

    // miniamr (crates/core). Dataflow's phase timers only time task
    // submission, so they are left out.
    if v != Variant::DataFlow {
        let phase = |f: fn(&miniamr::PhaseTimes) -> std::time::Duration| {
            med(samples, |s| {
                s.stats
                    .iter()
                    .map(|r| f(&r.times).as_secs_f64())
                    .fold(0.0, f64::max)
            })
        };
        m.push(format!("{p}.core.stencil_s"), phase(|t| t.stencil), "s");
        m.push(format!("{p}.core.comm_s"), phase(|t| t.communicate), "s");
        m.push(format!("{p}.core.refine_s"), phase(|t| t.refine), "s");
        m.push(format!("{p}.core.checksum_s"), phase(|t| t.checksum), "s");
    }
    let imbalance = med(samples, |s| {
        let max = s.rank_s.iter().copied().fold(0.0, f64::max);
        ratio(max, s.rank_s.iter().sum::<f64>() / s.rank_s.len() as f64)
    });
    m.push(format!("{p}.core.rank_imbalance"), imbalance, "ratio");

    // shmem
    let hit_rate = med(samples, |s| {
        let hits = sum(&s.stats, |r| r.pool.hits);
        ratio(hits, hits + sum(&s.stats, |r| r.pool.misses))
    });
    m.push(format!("{p}.shmem.pool_hit_rate"), hit_rate, "frac");

    // taskrt
    if v != Variant::MpiOnly {
        m.push(
            format!("{p}.taskrt.tasks_spawned"),
            sum(first, |r| r.tasks_spawned),
            "count",
        );
    }
    if v == Variant::DataFlow {
        let spawned = sum(first, |r| r.tasks_spawned);
        m.push(
            "dataflow.taskrt.replayed_frac",
            ratio(sum(first, |r| r.tasks_replayed), spawned),
            "frac",
        );
        m.push(
            "dataflow.taskrt.trace_hits",
            sum(first, |r| r.trace_hits),
            "count",
        );
        m.push(
            "dataflow.taskrt.trace_invalidations",
            sum(first, |r| r.trace_invalidations),
            "count",
        );
        m.push(
            "dataflow.taskrt.trace_divergences",
            t.reg("taskrt.trace_divergences"),
            "count",
        );
        m.push(
            "dataflow.taskrt.dep_edges_per_task",
            ratio(t.reg("taskrt.dep_edges"), t.reg("taskrt.tasks_spawned")),
            "ratio",
        );
        m.push(
            "dataflow.taskrt.live_tasks_hwm",
            t.reg("taskrt.live_tasks_hwm"),
            "count",
        );
        m.push(
            "dataflow.taskrt.blocked_on_events",
            t.reg("taskrt.tasks_blocked_on_events"),
            "count",
        );
        // tampi
        m.push(
            "dataflow.tampi.bound_requests",
            t.reg("tampi.bound_requests"),
            "count",
        );
    }

    // vmpi
    let sends = t.reg("vmpi.sends_posted");
    m.push(format!("{p}.vmpi.sends_posted"), sends, "count");
    m.push(
        format!("{p}.vmpi.bytes_sent"),
        t.reg("vmpi.bytes_sent"),
        "bytes",
    );
    m.push(
        format!("{p}.vmpi.eager_frac"),
        ratio(t.reg("vmpi.eager_sends"), sends),
        "frac",
    );
    let at_recv = t.reg("vmpi.matched_at_recv");
    m.push(
        format!("{p}.vmpi.unexpected_frac"),
        ratio(at_recv, at_recv + t.reg("vmpi.matched_at_send")),
        "frac",
    );
    let transit = t
        .histograms
        .iter()
        .find(|(n, _)| *n == "vmpi.transit_us")
        .map(|(_, h)| h);
    m.push(
        format!("{p}.vmpi.transit_us_p50"),
        transit.map_or(0, |h| h.p50) as f64,
        "us",
    );
    m.push(
        format!("{p}.vmpi.transit_us_p99"),
        transit.map_or(0, |h| h.p99) as f64,
        "us",
    );

    // obs: critical path and trace
    let mut cp = obs::critpath::Breakdown::default();
    for ts in &t.report.timesteps {
        let b = &ts.breakdown;
        cp.compute_us += b.compute_us;
        cp.pack_us += b.pack_us;
        cp.transit_us += b.transit_us;
        cp.wait_us += b.wait_us;
        cp.runtime_us += b.runtime_us;
    }
    let total = cp.total() as f64;
    for (cat, us) in [
        ("compute", cp.compute_us),
        ("pack", cp.pack_us),
        ("transit", cp.transit_us),
        ("wait", cp.wait_us),
        ("runtime", cp.runtime_us),
    ] {
        m.push(
            format!("{p}.critpath.{cat}_frac"),
            ratio(us as f64, total),
            "frac",
        );
    }
    m.push(
        format!("{p}.overlap_fraction"),
        t.report.overlap_fraction,
        "frac",
    );
    let idle: u64 = t.report.ranks_detail.iter().map(|r| r.idle_us).sum();
    let busy: u64 = t.report.ranks_detail.iter().map(|r| r.busy_us).sum();
    m.push(
        format!("{p}.ranks.idle_frac"),
        ratio(idle as f64, (idle + busy) as f64),
        "frac",
    );
    let mut ts_ms = timestep_ms(&t.events);
    m.push(format!("{p}.ts_p50_ms"), percentile(&mut ts_ms, 0.5), "ms");
    m.push(format!("{p}.ts_p90_ms"), percentile(&mut ts_ms, 0.9), "ms");
    let untraced = median(&mut steady_walls(samples));
    m.push(
        format!("{p}.obs.overhead_frac"),
        ratio(t.wall, untraced) - 1.0,
        "frac",
    );
}

/// Durations between consecutive `TimestepMark`s of each rank, pooled.
fn timestep_ms(events: &[Event]) -> Vec<f64> {
    let mut marks: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
    for e in events {
        if let EventData::TimestepMark { tstep } = e.data {
            marks.entry(e.rank).or_default().push((tstep, e.t_us));
        }
    }
    let mut out = Vec::new();
    for v in marks.values_mut() {
        v.sort_unstable();
        out.extend(
            v.windows(2)
                .map(|w| w[1].1.saturating_sub(w[0].1) as f64 / 1e3),
        );
    }
    out
}
