//! Causal span graph — the analyzer's node/edge model.
//!
//! [`SpanGraph::build`] folds a seq-sorted event stream (one
//! [`crate::bus::EventBus::drain`] worth, or several concatenated) into
//! three node kinds:
//!
//! * **task nodes** — `[TaskStart, TaskEnd]` intervals, with an
//!   *effective finish* extended to `TaskCompleted` for tasks that ended
//!   blocked on event holds (the TAMPI_Iwait state);
//! * **message nodes** — `[SendPosted, MsgDelivered]` intervals keyed by
//!   the process-unique `match_id`, carrying both endpoints' task
//!   attribution (the cross-rank causal edges);
//! * **wait nodes** — `WaitSpan` intervals where a thread actually
//!   parked (request waits, waitany slow paths, taskwaits).
//!
//! Edges are predecessor lists: `DepEdge` for task → task, the message's
//! `recv_task` for message → task, and the send-side `task` for
//! task → message. [`crate::critpath`] walks these backwards to decompose
//! per-timestep critical paths; [`crate::report`] folds the same graph
//! into per-rank busy/idle/overlap attribution.
//!
//! The module also owns the one task-kind taxonomy: [`Phase`] names the
//! kinds of work of the paper's Figs. 1–3, every task carries one from
//! spawn to its `TaskStart`/`TaskEnd` events, and [`Phase::category`]
//! maps it to its critical-path [`Category`]. Work outside any task is
//! recorded by [`timed`] as an `EventData::Span` of the same kinds. The
//! graph keeps one list of phase intervals per rank — task bodies by
//! kind plus those spans, each unit of work once — and
//! [`SpanGraph::phase_totals`], [`SpanGraph::render_ascii`] and
//! [`RankStats`] (overlap via the sweep-line [`overlap_fraction`],
//! largest idle gap) read that list. One stream, one set of readers: the
//! CLI report and the `trace_figs` harness print the same numbers.

use crate::event::{Event, EventData};
use std::collections::HashMap;

/// Critical-path cost category — the five-way split of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Useful numerical work: stencil sweeps, checksums, refinement
    /// copies.
    Compute,
    /// Marshalling: face pack/unpack and intra-rank copies.
    Pack,
    /// Message time on the wire (send post → delivery), fabric queueing
    /// included.
    Transit,
    /// Blocked time: parked waits and causal gaps on the critical path.
    Wait,
    /// Runtime overhead: send/recv issue tasks, exchange bookkeeping,
    /// the runtime's own waiter tasks, and kind-less tasks.
    Runtime,
}

impl Category {
    /// Stable lowercase name, used as the report's JSON key stem.
    pub fn name(&self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Pack => "pack",
            Category::Transit => "transit",
            Category::Wait => "wait",
            Category::Runtime => "runtime",
        }
    }
}

/// Kind of a unit of work: the one task-kind taxonomy, mirroring the
/// task palette of Figs. 1 and 3. Every task carries one from spawn
/// (`taskrt::TaskBuilder::kind`) to analysis; work outside any task
/// (MPI-only, fork-join's main-thread waits) records it via [`timed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Stencil sweep over one block.
    Stencil,
    /// Face pack into a send buffer.
    Pack,
    /// Face unpack from a receive buffer.
    Unpack,
    /// Send operation (issue + in-flight binding).
    Send,
    /// Receive operation.
    Recv,
    /// Intra-process neighbor copy.
    LocalCopy,
    /// Physical-boundary ghost fill of one block face.
    Boundary,
    /// Local checksum reduction.
    ChecksumLocal,
    /// Global checksum reduction + validation.
    ChecksumRemote,
    /// Refinement: split/coarsen data copies.
    RefineCopy,
    /// Refinement: block exchange (pack/send/recv/unpack of whole
    /// blocks).
    RefineExchange,
    /// Waitany/waitall progress loops (MPI-only and fork-join's main
    /// thread; the green regions of Fig. 2).
    Wait,
    /// The runtime's own `taskwait_on` waiter task.
    TaskwaitOn,
    /// A task spawned without a kind (`Runtime::spawn`, or a builder
    /// without `.kind`).
    Other,
}

impl Phase {
    /// Every phase, in timeline lane order.
    pub const ALL: [Phase; 14] = [
        Phase::Stencil,
        Phase::Pack,
        Phase::Unpack,
        Phase::Send,
        Phase::Recv,
        Phase::LocalCopy,
        Phase::Boundary,
        Phase::ChecksumLocal,
        Phase::ChecksumRemote,
        Phase::RefineCopy,
        Phase::RefineExchange,
        Phase::Wait,
        Phase::TaskwaitOn,
        Phase::Other,
    ];

    /// Short stable name: what reports, sanitizer diagnostics and the
    /// Chrome export print for a task or span of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Stencil => "stencil",
            Phase::Pack => "pack",
            Phase::Unpack => "unpack",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::LocalCopy => "local_copy",
            Phase::Boundary => "boundary",
            Phase::ChecksumLocal => "checksum_local",
            Phase::ChecksumRemote => "checksum_remote",
            Phase::RefineCopy => "refine_copy",
            Phase::RefineExchange => "refine_exchange",
            Phase::Wait => "wait",
            Phase::TaskwaitOn => "taskwait_on",
            Phase::Other => "other",
        }
    }

    /// The critical-path category this kind of work is charged to.
    pub fn category(&self) -> Category {
        match self {
            Phase::Stencil
            | Phase::ChecksumLocal
            | Phase::ChecksumRemote
            | Phase::Boundary
            | Phase::RefineCopy => Category::Compute,
            Phase::Pack | Phase::Unpack | Phase::LocalCopy => Category::Pack,
            Phase::Wait => Category::Wait,
            Phase::Send
            | Phase::Recv
            | Phase::RefineExchange
            | Phase::TaskwaitOn
            | Phase::Other => Category::Runtime,
        }
    }

    /// Timeline glyph of [`SpanGraph::render_ascii`].
    fn glyph(&self) -> char {
        match self {
            Phase::Stencil => 'S',
            Phase::Pack => 'p',
            Phase::Unpack => 'u',
            Phase::Send => '>',
            Phase::Recv => '<',
            Phase::LocalCopy => 'c',
            Phase::Boundary => 'b',
            Phase::ChecksumLocal => 'k',
            Phase::ChecksumRemote => 'K',
            Phase::RefineCopy => 'r',
            Phase::RefineExchange => 'x',
            Phase::Wait => 'w',
            Phase::TaskwaitOn => 'T',
            Phase::Other => '?',
        }
    }
}

/// Runs `f` as one interval of `phase` outside any task. With the bus
/// enabled the interval is emitted as an `EventData::Span` in bus time,
/// attributed to the calling thread's rank and lane; disabled, this is
/// one relaxed load and a branch around `f`. Task bodies need no
/// wrapper: their `TaskStart`/`TaskEnd` already carry the kind.
#[inline]
pub fn timed<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    let Some(bus) = crate::bus() else {
        return f();
    };
    let start_us = bus.now_us();
    let out = f();
    let end_us = bus.now_us();
    bus.emit(EventData::Span {
        kind: phase,
        start_us,
        end_us,
    });
    out
}

/// One task's lifetime as seen by the analyzer.
#[derive(Debug, Clone, Default)]
pub struct TaskNode {
    /// taskrt task id.
    pub id: u64,
    /// Task kind; `None` until its `TaskStart` (or, if that was
    /// dropped, its `TaskEnd`) is seen.
    pub kind: Option<Phase>,
    /// Rank the task executed on.
    pub rank: u32,
    /// Worker lane the task executed on (tasks on one lane run in
    /// program order — the analyzer's resource-dependency fallback edge).
    pub worker: u32,
    /// Body start, bus microseconds.
    pub start_us: u64,
    /// Body end, bus microseconds.
    pub end_us: u64,
    /// Full release (TaskCompleted) — exceeds `end_us` for tasks that
    /// ended blocked on event holds. 0 if never observed.
    pub finish_us: u64,
    /// Time the body returned still holding event holds (TaskBlocked);
    /// 0 = never blocked. A task with `blocked_us > 0` and
    /// `finish_us == 0` is *currently* blocked — the watchdog's
    /// blocked-chain diagnosis starts from these.
    pub blocked_us: u64,
    /// Predecessor task ids (DepEdge).
    pub preds: Vec<u64>,
    /// Match ids of messages delivered into this task's receives.
    pub msg_preds: Vec<u64>,
}

impl TaskNode {
    /// The instant this task stopped holding up successors: body end, or
    /// the deferred release for blocked tasks.
    pub fn end_eff(&self) -> u64 {
        self.end_us.max(self.finish_us)
    }
}

/// One matched message's flight, keyed by `match_id`.
#[derive(Debug, Clone, Default)]
pub struct MessageNode {
    /// Process-unique match id (always > 0 here).
    pub match_id: u64,
    /// Task that posted the send (0 = outside any task).
    pub send_task: u64,
    /// Task whose receive it satisfied (0 = outside any task).
    pub recv_task: u64,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Send-post time, bus microseconds.
    pub posted_us: u64,
    /// Delivery time, bus microseconds (0 = still in flight).
    pub delivered_us: u64,
}

/// One parked-thread interval (request wait / waitany / taskwait).
#[derive(Debug, Clone)]
pub struct WaitNode {
    /// Rank whose thread parked.
    pub rank: u32,
    /// Wait kind name.
    pub kind: &'static str,
    /// Start, bus microseconds.
    pub start_us: u64,
    /// End, bus microseconds.
    pub end_us: u64,
}

/// Per-rank attribution summary derived from the graph.
#[derive(Debug, Clone)]
pub struct RankStats {
    /// Rank id.
    pub rank: u32,
    /// Union length of this rank's busy intervals, microseconds.
    pub busy_us: u64,
    /// Rank wall span minus busy, microseconds.
    pub idle_us: u64,
    /// Sweep-line overlap fraction over the rank's phase intervals.
    pub overlap_fraction: f64,
    /// Tasks executed on this rank.
    pub tasks: u64,
    /// Parked waits observed on this rank.
    pub waits: u64,
    /// Total parked time, microseconds.
    pub wait_us: u64,
    /// Largest hole between this rank's busy intervals, microseconds
    /// (the "blank spaces" of Fig. 3, which the paper bounds at ~3 ms).
    /// Idle time before the first and after the last interval is not a
    /// gap.
    pub largest_gap_us: u64,
}

/// The assembled cross-rank span graph.
#[derive(Debug, Default)]
pub struct SpanGraph {
    /// Task nodes by taskrt id.
    pub tasks: HashMap<u64, TaskNode>,
    /// Message nodes by match id.
    pub messages: HashMap<u64, MessageNode>,
    /// Parked-wait intervals.
    pub waits: Vec<WaitNode>,
    /// Phase intervals `(kind, start_us, end_us)` per rank: each task
    /// body by its kind, plus the `Span` events of work outside tasks.
    /// Every unit of work appears once.
    pub phases: HashMap<u32, Vec<(Phase, u64, u64)>>,
    /// Rank-0 timestep marks `(tstep, t_us)`, sorted by time. These
    /// delimit the analyzer's per-timestep windows.
    pub timesteps: Vec<(u32, u64)>,
    /// Earliest observed timestamp, microseconds.
    pub min_us: u64,
    /// Latest observed timestamp, microseconds.
    pub max_us: u64,
}

impl SpanGraph {
    /// Folds a seq-sorted event slice into a graph. Tolerates ring
    /// overflow: a task whose `TaskStart` was dropped still gets a node
    /// from its later events, and a delivery without its send-post gets
    /// a zero-length message node.
    pub fn build(events: &[Event]) -> SpanGraph {
        let mut g = SpanGraph {
            min_us: u64::MAX,
            ..Default::default()
        };
        for ev in events {
            g.min_us = g.min_us.min(ev.t_us);
            g.max_us = g.max_us.max(ev.t_us);
            match &ev.data {
                EventData::TaskStart { id, kind } => {
                    let t = g.tasks.entry(*id).or_default();
                    t.id = *id;
                    t.kind = Some(*kind);
                    t.rank = ev.rank;
                    t.worker = ev.worker;
                    t.start_us = ev.t_us;
                }
                EventData::TaskEnd { id, kind } => {
                    let t = g.tasks.entry(*id).or_default();
                    t.id = *id;
                    t.end_us = ev.t_us;
                    if t.kind.is_some() {
                        // Start seen: the body interval is known.
                        let phases = g.phases.entry(t.rank).or_default();
                        phases.push((*kind, t.start_us, t.end_us));
                    } else {
                        t.kind = Some(*kind);
                        t.rank = ev.rank;
                        t.worker = ev.worker;
                    }
                }
                EventData::TaskCompleted { id } => {
                    let t = g.tasks.entry(*id).or_default();
                    t.id = *id;
                    t.finish_us = ev.t_us;
                }
                EventData::TaskBlocked { id, .. } => {
                    let t = g.tasks.entry(*id).or_default();
                    t.id = *id;
                    t.blocked_us = ev.t_us;
                }
                EventData::DepEdge { pred, succ } => {
                    let t = g.tasks.entry(*succ).or_default();
                    t.id = *succ;
                    t.preds.push(*pred);
                }
                EventData::SendPosted {
                    dst,
                    bytes,
                    match_id,
                    task,
                    ..
                } if *match_id > 0 => {
                    let m = g.messages.entry(*match_id).or_default();
                    m.match_id = *match_id;
                    m.send_task = *task;
                    m.src = ev.rank;
                    m.dst = *dst;
                    m.bytes = *bytes;
                    m.posted_us = ev.t_us;
                }
                EventData::MsgDelivered {
                    src,
                    bytes,
                    match_id,
                    recv_task,
                    ..
                } if *match_id > 0 => {
                    let m = g.messages.entry(*match_id).or_default();
                    m.match_id = *match_id;
                    m.recv_task = *recv_task;
                    m.dst = ev.rank;
                    m.bytes = *bytes;
                    m.delivered_us = ev.t_us;
                    if m.posted_us == 0 {
                        // Send-post dropped by ring overflow: degrade to a
                        // zero-length node so the edge survives.
                        m.posted_us = ev.t_us;
                        m.src = *src;
                    }
                    if *recv_task > 0 {
                        let t = g.tasks.entry(*recv_task).or_default();
                        t.id = *recv_task;
                        t.msg_preds.push(*match_id);
                    }
                }
                EventData::WaitSpan {
                    kind,
                    start_us,
                    end_us,
                } => {
                    g.max_us = g.max_us.max(*end_us);
                    g.waits.push(WaitNode {
                        rank: ev.rank,
                        kind,
                        start_us: *start_us,
                        end_us: *end_us,
                    });
                }
                EventData::Span {
                    kind,
                    start_us,
                    end_us,
                } => {
                    g.min_us = g.min_us.min(*start_us);
                    g.max_us = g.max_us.max(*end_us);
                    let phases = g.phases.entry(ev.rank).or_default();
                    phases.push((*kind, *start_us, *end_us));
                }
                EventData::TimestepMark { tstep } if ev.rank == 0 => {
                    g.timesteps.push((*tstep, ev.t_us));
                }
                _ => {}
            }
        }
        for t in g.tasks.values() {
            g.max_us = g.max_us.max(t.end_eff());
        }
        g.timesteps.sort_by_key(|&(_, t)| t);
        g.timesteps.dedup_by_key(|&mut (ts, _)| ts);
        if g.min_us == u64::MAX {
            g.min_us = 0;
        }
        g
    }

    /// Per-rank busy/idle/overlap attribution, sorted by rank.
    pub fn rank_stats(&self) -> Vec<RankStats> {
        let mut tasks_per: HashMap<u32, u64> = HashMap::new();
        for t in self.tasks.values() {
            if t.end_us > t.start_us {
                *tasks_per.entry(t.rank).or_default() += 1;
            }
        }
        let mut ranks: Vec<u32> = self.phases.keys().copied().collect();
        ranks.sort_unstable();
        let mut out = Vec::with_capacity(ranks.len());
        for rank in ranks {
            // Zero-length intervals are sub-µs work: they add no busy
            // time but do close gaps.
            let intervals: Vec<(u64, u64)> =
                self.phases[&rank].iter().map(|&(_, s, e)| (s, e)).collect();
            let lo = intervals.iter().map(|&(s, _)| s).min().unwrap_or(0);
            let hi = intervals.iter().map(|&(_, e)| e).max().unwrap_or(0);
            let (busy_us, largest_gap_us) = union_and_gap(intervals);
            let (waits, wait_us) = self
                .waits
                .iter()
                .filter(|w| w.rank == rank)
                .fold((0u64, 0u64), |(n, us), w| {
                    (n + 1, us + w.end_us.saturating_sub(w.start_us))
                });
            out.push(RankStats {
                rank,
                busy_us,
                idle_us: (hi - lo).saturating_sub(busy_us),
                overlap_fraction: self.rank_overlap(rank),
                tasks: tasks_per.get(&rank).copied().unwrap_or(0),
                waits,
                wait_us,
                largest_gap_us,
            });
        }
        out
    }

    /// One rank's phase intervals (empty if it recorded none).
    fn rank_phases(&self, rank: u32) -> &[(Phase, u64, u64)] {
        self.phases.get(&rank).map_or(&[], Vec::as_slice)
    }

    /// Total phase time per kind on one rank, in [`Phase::ALL`] order;
    /// kinds with no interval on the rank are omitted.
    pub fn phase_totals(&self, rank: u32) -> Vec<(Phase, u64)> {
        let phases = self.rank_phases(rank);
        Phase::ALL
            .iter()
            .filter_map(|&p| {
                let lens: Vec<u64> = phases
                    .iter()
                    .filter(|&&(k, ..)| k == p)
                    .map(|&(_, s, e)| e.saturating_sub(s))
                    .collect();
                (!lens.is_empty()).then(|| (p, lens.iter().sum()))
            })
            .collect()
    }

    /// Renders one rank's phase intervals as a Paraver-style ASCII
    /// timeline: one lane per [`Phase`] that occurs, a glyph per time
    /// bucket in which at least one interval of that phase was active,
    /// over the rank's first-start..last-end range. The textual
    /// counterpart of the paper's Figs. 1–3.
    pub fn render_ascii(&self, rank: u32, width: usize) -> String {
        let phases = self.rank_phases(rank);
        let lo = phases.iter().map(|&(_, s, _)| s).min().unwrap_or(0);
        let hi = phases.iter().map(|&(.., e)| e).max().unwrap_or(0);
        if hi <= lo || width == 0 {
            return String::from("(empty trace)\n");
        }
        // Integer bucket math: bucket b covers the half-open time range
        // [lo + b*total/width, lo + (b+1)*total/width). An interval
        // ending exactly on a bucket boundary does not spill into the
        // next bucket, and a zero-length interval inside the range still
        // gets one glyph.
        let total = (hi - lo) as u128;
        let mut out = String::new();
        for phase in Phase::ALL {
            let mut lane = vec![' '; width];
            let mut any = false;
            for &(_, s, e) in phases.iter().filter(|&&(k, ..)| k == phase) {
                let b = ((s - lo) as u128 * width as u128 / total) as usize;
                if b >= width {
                    continue;
                }
                let end = (((e - lo) as u128 * width as u128).div_ceil(total) as usize)
                    .clamp(b + 1, width);
                lane[b..end].fill(phase.glyph());
                any = true;
            }
            if any {
                out.push_str(&format!("{:>14} |", format!("{phase:?}")));
                out.extend(lane);
                out.push_str("|\n");
            }
        }
        out.push_str(&format!(
            "{:>14} |{}|\n",
            "",
            (0..width)
                .map(|i| if i % 10 == 0 { '+' } else { '-' })
                .collect::<String>()
        ));
        out
    }

    /// Sweep-line overlap fraction of one rank's phase intervals.
    pub fn rank_overlap(&self, rank: u32) -> f64 {
        let spans: Vec<(u32, u64, u64)> = self
            .rank_phases(rank)
            .iter()
            .map(|&(k, s, e)| (k as u32, s, e))
            .collect();
        overlap_fraction(&spans)
    }
}

/// Total length of the union of half-open intervals, and the largest
/// hole between them (leading and trailing idle excluded). `None` is the
/// "nothing seen yet" state: a zero-length interval at t = 0 still sets
/// the horizon.
fn union_and_gap(mut intervals: Vec<(u64, u64)>) -> (u64, u64) {
    intervals.sort_unstable();
    let (mut total, mut gap) = (0u64, 0u64);
    let mut horizon: Option<u64> = None;
    for (s, e) in intervals {
        let from = match horizon {
            Some(h) if s <= h => h,
            Some(h) => {
                gap = gap.max(s - h);
                s
            }
            None => s,
        };
        total += e.saturating_sub(from);
        horizon = Some(from.max(e));
    }
    (total, gap)
}

/// Fraction of busy time during which at least two spans of *different*
/// kinds were active — the "phases overlap" measure of the paper's
/// Fig. 3. Spans are `(kind_id, start, end)` in any consistent time
/// unit; returns 0 for fewer than two spans or zero busy time.
pub fn overlap_fraction(spans: &[(u32, u64, u64)]) -> f64 {
    if spans.len() < 2 {
        return 0.0;
    }
    // Edge ordering: ends sort before starts at equal timestamps, so
    // back-to-back spans of different kinds do not count as overlap.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Edge {
        End,
        Start,
    }
    let mut points: Vec<(u64, Edge, u32)> = Vec::with_capacity(spans.len() * 2);
    for &(kind, start, end) in spans {
        // Zero-measure spans contribute nothing, and their end edge would
        // sort *before* their start edge (see ordering above), leaving the
        // kind's active count wedged at one for the rest of the sweep.
        // Micro-second clocks produce these constantly for tiny intervals.
        if end <= start {
            continue;
        }
        points.push((start, Edge::Start, kind));
        points.push((end, Edge::End, kind));
    }
    if points.is_empty() {
        return 0.0;
    }
    points.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut active: HashMap<u32, usize> = HashMap::new();
    let mut overlap = 0u64;
    let mut busy = 0u64;
    let mut prev = points[0].0;
    for (t, edge, kind) in points {
        let span = t.saturating_sub(prev);
        let kinds_active = active.values().filter(|&&c| c > 0).count();
        if kinds_active >= 1 {
            busy += span;
        }
        if kinds_active >= 2 {
            overlap += span;
        }
        match edge {
            Edge::Start => *active.entry(kind).or_insert(0) += 1,
            Edge::End => {
                if let Some(c) = active.get_mut(&kind) {
                    *c = c.saturating_sub(1);
                }
            }
        }
        prev = t;
    }
    if busy == 0 {
        0.0
    } else {
        overlap as f64 / busy as f64
    }
}

/// Diagnoses a stall with the analyzer's own machinery: finds tasks
/// whose body returned still holding event holds (the TAMPI_Iwait
/// state) and that never completed, pairs each with the receives it
/// still has outstanding, and follows the awaited-sender links rank to
/// rank to render the longest currently-blocked causal chain
/// (task → awaited message → sender rank → its blocked task → …).
/// Returns an empty string when nothing is blocked, which the watchdog
/// treats as "no causal diagnosis available".
pub fn blocked_chain_report(events: &[Event]) -> String {
    use std::fmt::Write as _;

    let graph = SpanGraph::build(events);
    // Outstanding receives per task: posted minus delivered. Wildcard
    // receives (src -1 / tag -2) match any delivery.
    let mut pending: HashMap<u64, Vec<(i32, i32)>> = HashMap::new();
    for ev in events {
        match &ev.data {
            EventData::RecvPosted { src, tag, task, .. } if *task > 0 => {
                pending.entry(*task).or_default().push((*src, *tag));
            }
            EventData::MsgDelivered {
                src,
                tag,
                recv_task,
                ..
            } if *recv_task > 0 => {
                if let Some(v) = pending.get_mut(recv_task) {
                    if let Some(pos) = v
                        .iter()
                        .position(|&(s, t)| (s < 0 || s as u32 == *src) && (t == -2 || t == *tag))
                    {
                        v.swap_remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    let mut blocked: Vec<&TaskNode> = graph
        .tasks
        .values()
        .filter(|t| t.blocked_us > 0 && t.finish_us == 0)
        .collect();
    if blocked.is_empty() {
        return String::new();
    }
    blocked.sort_by_key(|t| (t.blocked_us, t.id));
    // Per rank, the oldest still-blocked task: the hop target when a
    // chain crosses to that rank.
    let mut oldest_by_rank: HashMap<u32, &TaskNode> = HashMap::new();
    for t in &blocked {
        oldest_by_rank.entry(t.rank).or_insert(t);
    }

    // Greedy walk from every blocked task; keep the longest chain.
    // Each rank is visited at most once per walk, so revisiting one
    // means the chain closed on itself — the deadlock cycle.
    let mut best: Vec<(u64, Option<(i32, i32)>)> = Vec::new();
    for start in &blocked {
        let mut chain: Vec<(u64, Option<(i32, i32)>)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur: &TaskNode = start;
        loop {
            if !seen.insert(cur.rank) {
                break;
            }
            let awaiting = pending.get(&cur.id).and_then(|v| v.first()).copied();
            chain.push((cur.id, awaiting));
            let Some((src, _)) = awaiting else { break };
            let Some(next) = (src >= 0)
                .then(|| oldest_by_rank.get(&(src as u32)))
                .flatten()
            else {
                break;
            };
            cur = next;
        }
        if chain.len() > best.len() {
            best = chain;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "longest blocked chain ({} link(s); {} task(s) blocked on event holds):",
        best.len(),
        blocked.len()
    );
    for (i, (id, awaiting)) in best.iter().enumerate() {
        let t = &graph.tasks[id];
        let label = t.kind.map_or("?", |k| k.name());
        let arrow = if i == 0 { "  " } else { "  -> " };
        let _ = write!(
            out,
            "{arrow}rank {} task {} `{label}` blocked since t+{} us",
            t.rank, t.id, t.blocked_us
        );
        match awaiting {
            Some((src, tag)) => {
                let _ = writeln!(out, ", awaiting recv(src={src}, tag={tag})");
            }
            None => {
                let _ = writeln!(out, " (no outstanding receive attributed)");
            }
        }
    }
    if let Some(&(_, Some((src, _)))) = best.last() {
        if src >= 0
            && best.len() > 1
            && best
                .iter()
                .any(|(id, _)| graph.tasks[id].rank == src as u32)
        {
            let _ = writeln!(out, "  (the awaited sender is itself in the chain — cycle)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t_us: u64, rank: u32, data: EventData) -> Event {
        Event {
            seq,
            t_us,
            rank,
            worker: 0,
            data,
        }
    }

    #[test]
    fn overlap_serial_is_zero() {
        assert_eq!(overlap_fraction(&[(0, 0, 10), (1, 10, 20)]), 0.0);
    }

    #[test]
    fn overlap_identical_is_one() {
        let f = overlap_fraction(&[(0, 1, 9), (1, 1, 9)]);
        assert!((f - 1.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn overlap_zero_length_and_short_inputs() {
        assert_eq!(overlap_fraction(&[]), 0.0);
        assert_eq!(overlap_fraction(&[(0, 0, 100)]), 0.0);
        assert_eq!(overlap_fraction(&[(0, 5, 5), (1, 5, 5)]), 0.0);
    }

    #[test]
    fn overlap_same_kind_concurrency_does_not_count() {
        // Two spans of the SAME kind overlapping: busy but not "overlap".
        assert_eq!(overlap_fraction(&[(0, 0, 10), (0, 0, 10)]), 0.0);
    }

    #[test]
    fn overlap_partial() {
        // Kind 0 over [0,10], kind 1 over [5,15]: overlap 5 of busy 15.
        let f = overlap_fraction(&[(0, 0, 10), (1, 5, 15)]);
        assert!((f - 5.0 / 15.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn category_pins_the_former_label_prefix_mapping() {
        // The string-prefix classifier that `Phase::category` replaced,
        // kept here as the reference it must agree with for every kind.
        fn by_prefix(label: &str) -> Category {
            const COMPUTE: [&str; 5] = [
                "stencil",
                "checksum_local",
                "checksum_remote",
                "boundary",
                "refine_copy",
            ];
            const PACK: [&str; 3] = ["pack", "unpack", "local_copy"];
            if label.starts_with("wait") {
                Category::Wait
            } else if COMPUTE.iter().any(|p| label.starts_with(p)) {
                Category::Compute
            } else if PACK.iter().any(|p| label.starts_with(p)) {
                Category::Pack
            } else {
                Category::Runtime
            }
        }
        for p in Phase::ALL {
            assert_eq!(p.category(), by_prefix(p.name()), "{p:?}");
        }
        // Names are distinct, so every kind is its own lane.
        let names: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::ALL.len());
        // The former labels of the refinement exchange tasks and of
        // kind-less tasks were runtime overhead too.
        for old in ["exchange_send", "exchange_recv"] {
            assert_eq!(by_prefix(old), Phase::RefineExchange.category());
        }
        assert_eq!(by_prefix(""), Phase::Other.category());
    }

    #[test]
    fn graph_builds_tasks_messages_and_edges() {
        let events = vec![
            ev(
                1,
                10,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::Pack,
                },
            ),
            ev(
                2,
                20,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Pack,
                },
            ),
            ev(3, 21, 0, EventData::TaskCompleted { id: 1 }),
            ev(4, 22, 0, EventData::DepEdge { pred: 1, succ: 2 }),
            ev(
                5,
                25,
                0,
                EventData::SendPosted {
                    dst: 1,
                    tag: 7,
                    comm: 0,
                    bytes: 64,
                    eager: true,
                    match_id: 9,
                    task: 1,
                },
            ),
            ev(
                6,
                30,
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
                    tag: 7,
                    comm: 0,
                    bytes: 64,
                    match_id: 9,
                    recv_task: 2,
                    queue_us: 15,
                },
            ),
            ev(
                8,
                55,
                1,
                EventData::TaskEnd {
                    id: 2,
                    kind: Phase::Stencil,
                },
            ),
            ev(9, 5, 0, EventData::TimestepMark { tstep: 0 }),
        ];
        let g = SpanGraph::build(&events);
        assert_eq!(g.tasks.len(), 2);
        assert_eq!(g.messages.len(), 1);
        let t1 = &g.tasks[&1];
        assert_eq!((t1.start_us, t1.end_us, t1.finish_us), (10, 20, 21));
        assert_eq!(t1.end_eff(), 21);
        let t2 = &g.tasks[&2];
        assert_eq!(t2.preds, vec![1]);
        assert_eq!(t2.msg_preds, vec![9]);
        let m = &g.messages[&9];
        assert_eq!((m.send_task, m.recv_task), (1, 2));
        assert_eq!((m.src, m.dst), (0, 1));
        assert_eq!((m.posted_us, m.delivered_us), (25, 40));
        assert_eq!(g.timesteps, vec![(0, 5)]);
        assert_eq!(g.min_us, 5);
        assert_eq!(g.max_us, 55);
    }

    #[test]
    fn graph_tolerates_dropped_send_post() {
        let events = vec![ev(
            1,
            40,
            1,
            EventData::MsgDelivered {
                src: 0,
                tag: 7,
                comm: 0,
                bytes: 8,
                match_id: 3,
                recv_task: 0,
                queue_us: 0,
            },
        )];
        let g = SpanGraph::build(&events);
        let m = &g.messages[&3];
        assert_eq!((m.posted_us, m.delivered_us), (40, 40));
        assert_eq!(m.src, 0);
    }

    #[test]
    fn blocked_task_extends_to_completion() {
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 5,
                    kind: Phase::Send,
                },
            ),
            ev(
                2,
                10,
                0,
                EventData::TaskEnd {
                    id: 5,
                    kind: Phase::Send,
                },
            ),
            ev(3, 10, 0, EventData::TaskBlocked { id: 5, holds: 1 }),
            ev(4, 90, 0, EventData::TaskCompleted { id: 5 }),
        ];
        let g = SpanGraph::build(&events);
        assert_eq!(g.tasks[&5].end_eff(), 90);
        assert_eq!(g.max_us, 90);
    }

    #[test]
    fn rank_stats_busy_and_waits() {
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                2,
                50,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                3,
                60,
                0,
                EventData::TaskStart {
                    id: 2,
                    kind: Phase::Pack,
                },
            ),
            ev(
                4,
                80,
                0,
                EventData::TaskEnd {
                    id: 2,
                    kind: Phase::Pack,
                },
            ),
            ev(
                5,
                80,
                0,
                EventData::WaitSpan {
                    kind: "taskwait",
                    start_us: 50,
                    end_us: 60,
                },
            ),
        ];
        let g = SpanGraph::build(&events);
        let stats = g.rank_stats();
        assert_eq!(stats.len(), 1);
        let r = &stats[0];
        assert_eq!(r.rank, 0);
        assert_eq!(r.busy_us, 70);
        assert_eq!(r.idle_us, 10);
        assert_eq!(r.tasks, 2);
        assert_eq!((r.waits, r.wait_us), (1, 10));
        // Serial tasks of different kinds: no overlap.
        assert_eq!(r.overlap_fraction, 0.0);
    }

    #[test]
    fn phase_list_merges_task_kinds_and_spans() {
        let events = vec![
            // A stencil task and an unpack span (work outside any task)
            // over the same interval: one list, full overlap.
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                2,
                100,
                0,
                EventData::Span {
                    kind: Phase::Unpack,
                    start_us: 0,
                    end_us: 100,
                },
            ),
            ev(
                3,
                100,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            // A task whose TaskStart was dropped still gets its kind and
            // rank from TaskEnd, but no interval: its start is unknown.
            ev(
                4,
                150,
                1,
                EventData::TaskEnd {
                    id: 2,
                    kind: Phase::Pack,
                },
            ),
        ];
        let g = SpanGraph::build(&events);
        assert_eq!(
            g.phases[&0],
            vec![(Phase::Unpack, 0, 100), (Phase::Stencil, 0, 100)]
        );
        assert!((g.rank_overlap(0) - 1.0).abs() < 1e-9);
        let t2 = &g.tasks[&2];
        assert_eq!((t2.kind, t2.rank, t2.end_us), (Some(Phase::Pack), 1, 150));
        assert!(!g.phases.contains_key(&1));
        assert_eq!(
            g.phase_totals(0),
            vec![(Phase::Stencil, 100), (Phase::Unpack, 100)]
        );
    }

    #[test]
    fn union_merges_and_measures_gaps() {
        assert_eq!(union_and_gap(vec![(0, 10), (5, 15), (20, 25)]), (20, 5));
        assert_eq!(union_and_gap(vec![]), (0, 0));
        assert_eq!(union_and_gap(vec![(3, 3)]), (0, 0));
        // Out of order, as concurrent workers emit them.
        assert_eq!(union_and_gap(vec![(20, 22), (1, 4)]), (5, 16));
        // Identical and instantaneous intervals leave no gap.
        assert_eq!(union_and_gap(vec![(1, 9), (1, 9)]), (8, 0));
        assert_eq!(union_and_gap(vec![(5, 5), (5, 5)]), (0, 0));
    }

    #[test]
    fn gap_ignores_leading_idle_and_contained_intervals() {
        // Idle before the first interval is not a gap; an interval fully
        // contained in another does not shrink the horizon.
        let (_, gap) = union_and_gap(vec![(10, 30), (12, 14), (35, 36)]);
        assert_eq!(gap, 5);
    }

    #[test]
    fn gap_after_zero_length_interval_at_time_zero() {
        // Regression: with `horizon == 0` standing for "nothing seen
        // yet", a zero-length interval at t = 0 followed by a 10 ms gap
        // reported no gap at all.
        assert_eq!(union_and_gap(vec![(0, 0), (10_000, 10_010)]), (10, 10_000));
    }

    fn span(seq: u64, rank: u32, phase: Phase, start_us: u64, end_us: u64) -> Event {
        ev(
            seq,
            end_us,
            rank,
            EventData::Span {
                kind: phase,
                start_us,
                end_us,
            },
        )
    }

    #[test]
    fn phase_totals_and_rank_gap_come_from_spans() {
        let g = SpanGraph::build(&[
            span(1, 0, Phase::Stencil, 0, 5_000),
            span(2, 0, Phase::Pack, 5_000, 7_000),
            span(3, 0, Phase::Stencil, 17_000, 18_000),
            span(4, 1, Phase::Unpack, 0, 1),
        ]);
        assert_eq!(
            g.phase_totals(0),
            vec![(Phase::Stencil, 6_000), (Phase::Pack, 2_000)]
        );
        assert_eq!(g.phase_totals(1), vec![(Phase::Unpack, 1)]);
        let stats = g.rank_stats();
        assert_eq!(stats[0].largest_gap_us, 10_000);
        assert_eq!(stats[0].busy_us, 8_000);
        assert_eq!(stats[1].largest_gap_us, 0);
    }

    #[test]
    fn ascii_timeline_shows_active_phases_only() {
        let g = SpanGraph::build(&[
            span(1, 0, Phase::Stencil, 0, 4_000),
            span(2, 0, Phase::Pack, 4_000, 8_000),
        ]);
        let art = g.render_ascii(0, 40);
        assert!(art.contains("Stencil") && art.contains("Pack"), "{art}");
        assert!(art.contains('S') && art.contains('p'));
        assert!(!art.contains("RefineCopy"));
        assert!(g.render_ascii(1, 40).contains("empty"));
        assert!(SpanGraph::default().render_ascii(0, 40).contains("empty"));
    }

    #[test]
    fn ascii_buckets_stay_in_range() {
        // A span covering exactly the last tenth fills only the final
        // column; one ending on a bucket boundary does not spill into the
        // next; a zero-length span inside the range draws one glyph.
        let g = SpanGraph::build(&[
            span(1, 0, Phase::Stencil, 9_000, 10_000),
            span(2, 0, Phase::Pack, 0, 1_000),
            span(3, 0, Phase::Send, 5_000, 5_000),
        ]);
        let art = g.render_ascii(0, 10);
        let lane = |name: &str| {
            art.lines()
                .find(|l| l.contains(name))
                .map(|l| l.split('|').nth(1).unwrap().to_string())
                .unwrap()
        };
        assert_eq!(lane("Stencil"), "         S");
        assert_eq!(lane("Pack"), "p         ");
        assert_eq!(lane("Send"), "     >    ");
    }

    #[test]
    fn blocked_chain_follows_awaited_senders_and_flags_cycles() {
        // Rank 0's exchange task awaits a recv from rank 1 whose own
        // exchange task awaits a recv from rank 0: the classic deadlock.
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::RefineExchange,
                },
            ),
            ev(
                2,
                5,
                0,
                EventData::RecvPosted {
                    src: 1,
                    tag: 7,
                    comm: 0,
                    task: 1,
                },
            ),
            ev(
                3,
                10,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::RefineExchange,
                },
            ),
            ev(4, 10, 0, EventData::TaskBlocked { id: 1, holds: 1 }),
            ev(
                5,
                1,
                1,
                EventData::TaskStart {
                    id: 2,
                    kind: Phase::RefineExchange,
                },
            ),
            ev(
                6,
                6,
                1,
                EventData::RecvPosted {
                    src: 0,
                    tag: 7,
                    comm: 0,
                    task: 2,
                },
            ),
            ev(
                7,
                12,
                1,
                EventData::TaskEnd {
                    id: 2,
                    kind: Phase::RefineExchange,
                },
            ),
            ev(8, 12, 1, EventData::TaskBlocked { id: 2, holds: 1 }),
        ];
        let report = blocked_chain_report(&events);
        assert!(report.contains("2 link(s)"), "{report}");
        assert!(report.contains("rank 0 task 1"), "{report}");
        assert!(report.contains("rank 1 task 2"), "{report}");
        assert!(report.contains("awaiting recv(src=1, tag=7)"), "{report}");
        assert!(report.contains("cycle"), "{report}");
    }

    #[test]
    fn blocked_chain_ignores_completed_and_satisfied_tasks() {
        // A task that blocked but then completed, and one whose awaited
        // message was delivered, must not appear.
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::Send,
                },
            ),
            ev(
                2,
                5,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Send,
                },
            ),
            ev(3, 5, 0, EventData::TaskBlocked { id: 1, holds: 1 }),
            ev(4, 9, 0, EventData::TaskCompleted { id: 1 }),
            ev(
                5,
                0,
                1,
                EventData::TaskStart {
                    id: 2,
                    kind: Phase::Recv,
                },
            ),
            ev(
                6,
                2,
                1,
                EventData::RecvPosted {
                    src: 0,
                    tag: 3,
                    comm: 0,
                    task: 2,
                },
            ),
            ev(
                7,
                6,
                1,
                EventData::TaskEnd {
                    id: 2,
                    kind: Phase::Recv,
                },
            ),
            ev(8, 6, 1, EventData::TaskBlocked { id: 2, holds: 1 }),
            ev(
                9,
                8,
                1,
                EventData::MsgDelivered {
                    src: 0,
                    tag: 3,
                    comm: 0,
                    bytes: 8,
                    match_id: 4,
                    recv_task: 2,
                    queue_us: 0,
                },
            ),
        ];
        // Task 1 completed; task 2 is still "blocked" (no TaskCompleted)
        // but its receive was satisfied, so the chain stops at it with no
        // outstanding receive.
        let report = blocked_chain_report(&events);
        assert!(!report.contains("task 1 "), "{report}");
        assert!(report.contains("no outstanding receive"), "{report}");

        // Nothing blocked at all → empty diagnosis.
        assert_eq!(blocked_chain_report(&events[..4]), String::new());
    }

    #[test]
    fn zero_length_spans_do_not_wedge_the_sweep() {
        // Regression: a zero-measure span's end edge sorts before its
        // start edge, so the decrement saturated at zero and the start
        // left the kind "active" for the rest of the sweep — every later
        // disjoint span then counted as overlap. Common with micro-second
        // clocks where short intervals round to zero length.
        let spans = vec![(0u32, 5u64, 5u64), (1, 10, 20), (2, 30, 40)];
        assert_eq!(overlap_fraction(&spans), 0.0);
        // Purely zero-measure input degenerates to "no busy time".
        assert_eq!(overlap_fraction(&[(0, 1, 1), (1, 2, 2)]), 0.0);
    }
}
