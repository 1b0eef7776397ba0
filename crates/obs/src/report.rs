//! Machine-readable performance report and the online event collector.
//!
//! [`PerfReport::from_events`] folds one event stream through
//! [`crate::span::SpanGraph`] and [`crate::critpath::analyze`] into the
//! `miniamr-perf-report` document: per-timestep critical paths split by
//! category, per-rank busy/idle/overlap attribution, message-matching
//! totals, and the registry's latency histograms. [`PerfReport::to_json`]
//! renders it by hand (no serde in this offline workspace — same policy
//! as the Chrome exporter); [`PerfReport::human_summary`] renders the
//! terminal digest.
//!
//! [`Collector`] is the online half: a background thread that drains the
//! bus every ~2 ms (back-to-back during emit storms) so long runs do
//! not overflow the rings, optionally
//! streaming an interim report line to a JSONL file every
//! `report_interval` timesteps. [`Collector::finish`] returns the merged
//! seq-sorted event stream, which the caller can hand to *both*
//! [`crate::export_chrome`] and [`PerfReport::from_events`] — one drain,
//! two exports.

use crate::critpath::{self, TimestepPath};
use crate::event::Event;
use crate::metrics::HistogramSnapshot;
use crate::span::{RankStats, SpanGraph};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Schema identifier of the JSON document.
pub const SCHEMA: &str = "miniamr-perf-report";
/// Schema version; bump on any incompatible field change.
pub const VERSION: u32 = 1;

/// Aggregate message-matching statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MessageStats {
    /// Messages with a send-side match id observed.
    pub matched: u64,
    /// Of those, messages whose delivery was also observed.
    pub delivered: u64,
    /// Total delivered payload bytes.
    pub bytes: u64,
}

/// The assembled report.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Ranks that produced any attributable work.
    pub ranks: u64,
    /// Events folded into the report.
    pub events: u64,
    /// Events lost to ring overflow before collection.
    pub dropped: u64,
    /// Observed wall-clock span, microseconds.
    pub wall_us: u64,
    /// Per-timestep critical paths.
    pub timesteps: Vec<TimestepPath>,
    /// Per-rank attribution.
    pub ranks_detail: Vec<RankStats>,
    /// Message totals.
    pub messages: MessageStats,
    /// Latency histograms from the metrics registry.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Mean per-rank overlap fraction.
    pub overlap_fraction: f64,
    /// Total wait time on the critical paths, microseconds.
    pub critical_path_wait_us: u64,
}

impl PerfReport {
    /// Builds a report from a seq-sorted event stream. `dropped` is the
    /// ring-overflow count reported by the drains that produced
    /// `events`. Histograms are snapshotted from the global metrics
    /// registry at call time.
    pub fn from_events(events: &[Event], dropped: u64) -> PerfReport {
        let graph = SpanGraph::build(events);
        let timesteps = critpath::analyze(&graph);
        let ranks_detail = graph.rank_stats();
        let overlap_fraction = if ranks_detail.is_empty() {
            0.0
        } else {
            ranks_detail.iter().map(|r| r.overlap_fraction).sum::<f64>() / ranks_detail.len() as f64
        };
        let mut messages = MessageStats {
            matched: graph.messages.len() as u64,
            ..Default::default()
        };
        for m in graph.messages.values() {
            if m.delivered_us > 0 {
                messages.delivered += 1;
                messages.bytes += m.bytes;
            }
        }
        PerfReport {
            ranks: ranks_detail.len() as u64,
            events: events.len() as u64,
            dropped,
            wall_us: graph.max_us.saturating_sub(graph.min_us),
            critical_path_wait_us: timesteps.iter().map(|t| t.breakdown.wait_us).sum(),
            timesteps,
            ranks_detail,
            messages,
            histograms: crate::metrics().histogram_snapshots(),
            overlap_fraction,
        }
    }

    /// Renders the report as one compact JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"schema\":\"{SCHEMA}\",\"version\":{VERSION},\"ranks\":{},\"events\":{},\"dropped\":{},\"wall_us\":{}",
            self.ranks, self.events, self.dropped, self.wall_us
        );
        out.push_str(",\"timesteps\":[");
        for (i, t) in self.timesteps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tstep = if t.tstep == u32::MAX {
                -1i64
            } else {
                t.tstep as i64
            };
            let b = &t.breakdown;
            let _ = write!(
                out,
                "{{\"tstep\":{tstep},\"start_us\":{},\"end_us\":{},\"wall_us\":{},\
                 \"critical_path\":{{\"total_us\":{},\"compute_us\":{},\"pack_us\":{},\
                 \"transit_us\":{},\"wait_us\":{},\"runtime_us\":{},\"nodes\":{}}}}}",
                t.start_us,
                t.end_us,
                t.end_us - t.start_us,
                b.total(),
                b.compute_us,
                b.pack_us,
                b.transit_us,
                b.wait_us,
                b.runtime_us,
                t.nodes,
            );
        }
        out.push_str("],\"ranks_detail\":[");
        for (i, r) in self.ranks_detail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"busy_us\":{},\"idle_us\":{},\"overlap_fraction\":{},\
                 \"tasks\":{},\"waits\":{},\"wait_us\":{},\"largest_gap_us\":{}}}",
                r.rank,
                r.busy_us,
                r.idle_us,
                fmt_f64(r.overlap_fraction),
                r.tasks,
                r.waits,
                r.wait_us,
                r.largest_gap_us,
            );
        }
        let _ = write!(
            out,
            "],\"messages\":{{\"matched\":{},\"delivered\":{},\"bytes\":{}}}",
            self.messages.matched, self.messages.delivered, self.messages.bytes
        );
        out.push_str(",\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                esc(name),
                h.count,
                h.sum,
                h.p50,
                h.p95,
                h.p99
            );
            for (j, (lo, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{c}]");
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "}},\"overlap_fraction\":{},\"critical_path_wait_us\":{}}}",
            fmt_f64(self.overlap_fraction),
            self.critical_path_wait_us
        );
        debug_assert!(
            crate::json::validate(&out).is_ok(),
            "report JSON must be valid"
        );
        out
    }

    /// Renders the terminal digest.
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf report: {} rank(s), {} events ({} dropped), wall {:.1} ms",
            self.ranks,
            self.events,
            self.dropped,
            self.wall_us as f64 / 1e3
        );
        let mut total = crate::critpath::Breakdown::default();
        for t in &self.timesteps {
            total.compute_us += t.breakdown.compute_us;
            total.pack_us += t.breakdown.pack_us;
            total.transit_us += t.breakdown.transit_us;
            total.wait_us += t.breakdown.wait_us;
            total.runtime_us += t.breakdown.runtime_us;
        }
        let sum = total.total().max(1) as f64;
        let _ = writeln!(
            out,
            "  critical path ({} window(s)): compute {:.1}% pack {:.1}% transit {:.1}% wait {:.1}% runtime {:.1}%",
            self.timesteps.len(),
            100.0 * total.compute_us as f64 / sum,
            100.0 * total.pack_us as f64 / sum,
            100.0 * total.transit_us as f64 / sum,
            100.0 * total.wait_us as f64 / sum,
            100.0 * total.runtime_us as f64 / sum,
        );
        let _ = writeln!(
            out,
            "  overlap fraction (mean over ranks): {:.3}; messages {}/{} delivered, {} bytes",
            self.overlap_fraction,
            self.messages.delivered,
            self.messages.matched,
            self.messages.bytes
        );
        for r in &self.ranks_detail {
            let _ = writeln!(
                out,
                "  rank {}: busy {:.1} ms idle {:.1} ms overlap {:.3} largest gap {:.3} ms \
                 tasks {} waits {} ({:.1} ms)",
                r.rank,
                r.busy_us as f64 / 1e3,
                r.idle_us as f64 / 1e3,
                r.overlap_fraction,
                r.largest_gap_us as f64 / 1e3,
                r.tasks,
                r.waits,
                r.wait_us as f64 / 1e3,
            );
        }
        for (name, h) in &self.histograms {
            if h.count > 0 {
                let _ = writeln!(
                    out,
                    "  {}: count {} p50 {} p95 {} p99 {} (us)",
                    name, h.count, h.p50, h.p95, h.p99
                );
            }
        }
        out
    }
}

/// Finite float as a JSON number (6 decimal places; NaN/inf collapse to
/// 0 — they cannot occur from the fraction math but JSON forbids them).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        String::from("0")
    }
}

/// Minimal string escape for JSON keys (metric names are identifiers,
/// but quoting/control bytes must never corrupt the document).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Online event collector: drains the bus periodically on a background
/// thread so week-long rings never overflow, and optionally streams an
/// interim [`PerfReport`] line to a JSONL file every `report_interval`
/// rank-0 timesteps.
pub struct Collector {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<(Vec<Event>, u64)>>,
}

impl Collector {
    /// Starts collecting from `bus`. When `metrics_jsonl` is set, an
    /// interim report is appended to the file each time rank 0 enters a
    /// timestep that is a multiple of `report_interval` (clamped to at
    /// least 1).
    pub fn start(
        bus: &'static crate::EventBus,
        metrics_jsonl: Option<PathBuf>,
        report_interval: u32,
    ) -> Collector {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_in = Arc::clone(&stop);
        let interval = report_interval.max(1) as u64;
        let handle = std::thread::Builder::new()
            .name("obs-perf-collector".into())
            .spawn(move || {
                let mut events: Vec<Event> = Vec::new();
                let mut dropped = 0u64;
                let mut next_report = interval;
                let mut jsonl = metrics_jsonl;
                loop {
                    let stopping = stop_in.load(Ordering::Acquire);
                    // Unsorted drain: sorting here would stall the poll
                    // loop long enough for emit storms to overflow the
                    // rings. `finish` (and interim reports) sort once.
                    let d = bus.drain_unsorted();
                    dropped += d.dropped;
                    let drained_now = d.events.len();
                    events.extend(d.events);
                    if let Some(path) = &jsonl {
                        // Stream an interim line when rank 0 crosses the
                        // next multiple of the interval (its mark fires at
                        // the top of the timestep, so tstep >= k·interval
                        // means k·interval timesteps have completed).
                        let max_ts = events
                            .iter()
                            .filter(|e| e.rank == 0)
                            .filter_map(|e| match e.data {
                                crate::EventData::TimestepMark { tstep } => Some(tstep as u64),
                                _ => None,
                            })
                            .max();
                        if max_ts.is_some_and(|t| t >= next_report) {
                            while max_ts.is_some_and(|t| t >= next_report) {
                                next_report += interval;
                            }
                            let mut sorted = events.clone();
                            sorted.sort_by_key(|e| e.seq);
                            let line = PerfReport::from_events(&sorted, dropped).to_json();
                            if let Err(e) = append_line(path, &line) {
                                eprintln!("obs: metrics_jsonl write failed: {e}");
                                jsonl = None;
                            }
                        }
                    }
                    if stopping {
                        // One last drain already ran above with the stop
                        // flag set, so nothing emitted before the flag can
                        // be missed.
                        return (events, dropped);
                    }
                    // Adaptive cadence: spawn storms (DepEdge bursts) can
                    // emit faster than a slow fixed poll empties the
                    // rings. When a drain comes back substantially full,
                    // go straight back for more; only idle when the bus
                    // is quiet (an empty-ish drain is 32 uncontended
                    // mutex grabs, so a 2 ms cadence costs nothing).
                    if drained_now < 4096 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            })
            .expect("spawn obs-perf-collector");
        Collector {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread, performs the final drain, and returns the
    /// merged seq-sorted events plus the total ring-overflow count.
    pub fn finish(mut self) -> (Vec<Event>, u64) {
        self.stop.store(true, Ordering::Release);
        let (mut events, dropped) = self
            .handle
            .take()
            .expect("finish called once")
            .join()
            .unwrap_or_default();
        // Sequence numbers are unique, so the in-place unstable sort
        // gives the same order without the stable sort's n/2 buffer.
        events.sort_unstable_by_key(|e| e.seq);
        (events, dropped)
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            let _ = handle.join();
        }
    }
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;
    use crate::span::Phase;

    fn ev(seq: u64, t_us: u64, rank: u32, data: EventData) -> Event {
        Event {
            seq,
            t_us,
            rank,
            worker: 0,
            data,
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(1, 0, 0, EventData::TimestepMark { tstep: 0 }),
            ev(
                2,
                5,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::Pack,
                },
            ),
            ev(
                3,
                20,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Pack,
                },
            ),
            ev(4, 20, 0, EventData::TaskCompleted { id: 1 }),
            ev(
                5,
                18,
                0,
                EventData::SendPosted {
                    dst: 1,
                    tag: 3,
                    comm: 0,
                    bytes: 256,
                    eager: false,
                    match_id: 11,
                    task: 1,
                },
            ),
            ev(
                6,
                40,
                1,
                EventData::TaskStart {
                    id: 2,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                7,
                40,
                1,
                EventData::MsgDelivered {
                    src: 0,
                    tag: 3,
                    comm: 0,
                    bytes: 256,
                    match_id: 11,
                    recv_task: 2,
                    queue_us: 22,
                },
            ),
            ev(
                8,
                70,
                1,
                EventData::TaskEnd {
                    id: 2,
                    kind: Phase::Stencil,
                },
            ),
            ev(9, 70, 1, EventData::TaskCompleted { id: 2 }),
            ev(
                10,
                70,
                1,
                EventData::WaitSpan {
                    kind: "taskwait",
                    start_us: 60,
                    end_us: 70,
                },
            ),
        ]
    }

    #[test]
    fn report_json_is_valid_and_exact() {
        let report = PerfReport::from_events(&sample_events(), 0);
        assert_eq!(report.ranks, 2);
        assert_eq!(report.messages.matched, 1);
        assert_eq!(report.messages.delivered, 1);
        assert_eq!(report.messages.bytes, 256);
        // Category sums equal window wall-clock exactly.
        for t in &report.timesteps {
            assert_eq!(t.breakdown.total(), t.end_us - t.start_us);
        }
        let json = report.to_json();
        crate::json::validate(&json).expect("valid JSON");
        assert!(json.contains("\"schema\":\"miniamr-perf-report\""));
        assert!(json.contains("\"version\":1"));
        assert!(json.contains("\"critical_path\""));
        assert!(json.contains("\"transit_us\":22"));
    }

    #[test]
    fn empty_report_is_valid() {
        let report = PerfReport::from_events(&[], 0);
        assert_eq!(report.ranks, 0);
        assert_eq!(report.wall_us, 0);
        let json = report.to_json();
        crate::json::validate(&json).expect("valid JSON");
        let summary = report.human_summary();
        assert!(summary.contains("0 events"), "{summary}");
    }

    #[test]
    fn human_summary_mentions_categories_and_ranks() {
        let s = PerfReport::from_events(&sample_events(), 2).human_summary();
        assert!(s.contains("critical path"), "{s}");
        assert!(s.contains("rank 0:"), "{s}");
        assert!(s.contains("rank 1:"), "{s}");
        assert!(s.contains("2 dropped"), "{s}");
    }

    #[test]
    fn fmt_f64_rejects_non_finite() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(0.5), "0.500000");
    }

    #[test]
    fn esc_handles_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\u{1}"), "a\\\"b\\\\c\\u0001");
    }

    #[test]
    fn collector_accumulates_and_streams() {
        let bus = crate::enable();
        // Unique-ish temp path from the pid (tests may run concurrently
        // in one process but this test runs once per process).
        let path = std::env::temp_dir().join(format!("obs-report-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let collector = Collector::start(bus, Some(path.clone()), 1);
        bus.emit_for_rank(0, EventData::TimestepMark { tstep: 0 });
        bus.emit_for_rank(
            0,
            EventData::TaskStart {
                id: 900_001,
                kind: Phase::Stencil,
            },
        );
        bus.emit_for_rank(
            0,
            EventData::TaskEnd {
                id: 900_001,
                kind: Phase::Stencil,
            },
        );
        bus.emit_for_rank(0, EventData::TaskCompleted { id: 900_001 });
        bus.emit_for_rank(0, EventData::TimestepMark { tstep: 1 });
        // Give the 20 ms poll loop a couple of cycles to stream.
        std::thread::sleep(Duration::from_millis(120));
        let (events, _dropped) = collector.finish();
        assert!(events.len() >= 5, "collected {}", events.len());
        assert!(events.windows(2).all(|w| w[0].seq <= w[1].seq));
        let body = std::fs::read_to_string(&path).expect("jsonl written");
        let lines: Vec<&str> = body.lines().collect();
        assert!(!lines.is_empty(), "at least one interim report line");
        for line in lines {
            crate::json::validate(line).expect("each line is valid JSON");
            assert!(line.contains("miniamr-perf-report"));
        }
        let _ = std::fs::remove_file(&path);
    }
}
