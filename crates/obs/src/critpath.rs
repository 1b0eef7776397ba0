//! Per-timestep critical-path extraction over the [`crate::span`] graph.
//!
//! For each timestep window (delimited by rank-0 `TimestepMark` events;
//! one window covering everything when no marks were traced) the
//! analyzer picks the latest-finishing node in the window and walks its
//! predecessor edges backwards, attributing every microsecond of
//! `[window start, terminal finish]` to exactly one category:
//!
//! * time inside the current node → the node's [`Category`] (the task
//!   kind's [`crate::span::Phase::category`], or `transit` for messages);
//! * causal gaps — the stretch between a predecessor's finish and the
//!   current node's start — → `wait` (the node existed but could not
//!   run: dependency released late, or scheduler delay);
//! * the stretch before the chain's first node → `wait` (ramp-up).
//!
//! Besides the explicit causal edges (`DepEdge`, message delivery, send
//! post) the walk uses two *resource* fallback edges so a chain does not
//! die on a node with no recorded predecessor: a task's previous task on
//! the same `(rank, worker)` lane (one lane runs in program order), and
//! — for messages posted outside any task (main-thread exchanges,
//! `task = 0`) — the latest task on the sending rank finishing before
//! the post. Both are real serialization, not guesses: the lane edge is
//! the worker being busy, the rank edge approximates the taskwait that
//! main-thread sends follow.
//!
//! Because each step hands the cursor to `min(pred finish, cursor)` and
//! contributes the difference, the per-category sums telescope to
//! exactly `window end − window start` — the report's "critical path
//! explains wall-clock" property is structural, not approximate.

use crate::span::{Category, SpanGraph};
use std::collections::{HashMap, HashSet};

/// Critical-path time split by category, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Useful numerical work on the path.
    pub compute_us: u64,
    /// Pack/unpack/local-copy marshalling on the path.
    pub pack_us: u64,
    /// Message flight time on the path.
    pub transit_us: u64,
    /// Blocked/causal-gap time on the path.
    pub wait_us: u64,
    /// Runtime overhead on the path.
    pub runtime_us: u64,
}

impl Breakdown {
    /// Adds `us` to the bucket for `cat`.
    pub fn add(&mut self, cat: Category, us: u64) {
        match cat {
            Category::Compute => self.compute_us += us,
            Category::Pack => self.pack_us += us,
            Category::Transit => self.transit_us += us,
            Category::Wait => self.wait_us += us,
            Category::Runtime => self.runtime_us += us,
        }
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.compute_us + self.pack_us + self.transit_us + self.wait_us + self.runtime_us
    }
}

/// One timestep window's critical path.
#[derive(Debug, Clone)]
pub struct TimestepPath {
    /// Timestep index (`u32::MAX` for the no-marks fallback window).
    pub tstep: u32,
    /// Window start, bus microseconds.
    pub start_us: u64,
    /// Window end, bus microseconds.
    pub end_us: u64,
    /// Category split; `breakdown.total() == end_us - start_us` exactly.
    pub breakdown: Breakdown,
    /// Nodes visited on the walk (tasks + messages).
    pub nodes: u64,
}

/// A node reference during the walk: a task id or a message match id.
#[derive(Debug, Clone, Copy)]
enum NodeRef {
    Task(u64),
    Msg(u64),
}

/// One lane-index entry: `(start_us, end_us, task id)`.
type LaneEntry = (u64, u64, u64);

/// Sorted indexes for the resource-dependency fallback edges.
struct Lanes {
    /// `(rank, worker)` → tasks by [`LaneEntry`], start-sorted. One lane
    /// executes sequentially, so the task starting last before a given
    /// start is its program-order predecessor.
    by_lane: HashMap<(u32, u32), Vec<LaneEntry>>,
    /// rank → tasks by `(end_eff, id)`, end-sorted — for messages posted
    /// outside any task (the main-thread exchange after a taskwait).
    by_rank: HashMap<u32, Vec<(u64, u64)>>,
}

impl Lanes {
    fn build(graph: &SpanGraph) -> Lanes {
        let mut by_lane: HashMap<(u32, u32), Vec<LaneEntry>> = HashMap::new();
        let mut by_rank: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for t in graph.tasks.values() {
            if t.end_us > t.start_us {
                by_lane
                    .entry((t.rank, t.worker))
                    .or_default()
                    .push((t.start_us, t.end_us, t.id));
                by_rank.entry(t.rank).or_default().push((t.end_eff(), t.id));
            }
        }
        for v in by_lane.values_mut() {
            v.sort_unstable();
        }
        for v in by_rank.values_mut() {
            v.sort_unstable();
        }
        Lanes { by_lane, by_rank }
    }

    /// The task that started last on `(rank, worker)` strictly before
    /// `start`, excluding `id` itself. Its body end is when the worker
    /// freed up (a blocked task releases the worker at body end, not at
    /// its deferred completion).
    fn lane_pred(&self, rank: u32, worker: u32, start: u64, id: u64) -> Option<(u64, u64)> {
        let lane = self.by_lane.get(&(rank, worker))?;
        let mut i = lane.partition_point(|&(s, ..)| s < start);
        while i > 0 {
            i -= 1;
            let (_, end, pid) = lane[i];
            if pid != id {
                return Some((pid, end));
            }
        }
        None
    }

    /// The task on `rank` with the greatest effective finish at or before
    /// `at`.
    fn rank_pred(&self, rank: u32, at: u64) -> Option<(u64, u64)> {
        let tail = self.by_rank.get(&rank)?;
        let i = tail.partition_point(|&(e, _)| e <= at);
        i.checked_sub(1).map(|i| {
            let (end, id) = tail[i];
            (id, end)
        })
    }
}

/// Decomposes the graph into per-timestep critical paths. Windows are
/// `[mark_i, mark_{i+1})` with the last window closed at the graph's
/// latest timestamp; with no marks, a single `u32::MAX` window spans the
/// whole graph.
pub fn analyze(graph: &SpanGraph) -> Vec<TimestepPath> {
    let mut windows: Vec<(u32, u64, u64)> = Vec::new();
    if graph.timesteps.is_empty() {
        if graph.max_us > graph.min_us {
            windows.push((u32::MAX, graph.min_us, graph.max_us));
        }
    } else {
        for (i, &(tstep, start)) in graph.timesteps.iter().enumerate() {
            let end = graph
                .timesteps
                .get(i + 1)
                .map(|&(_, t)| t)
                .unwrap_or(graph.max_us)
                .max(start);
            windows.push((tstep, start, end));
        }
    }
    let lanes = Lanes::build(graph);
    windows
        .into_iter()
        .filter(|&(_, s, e)| e > s)
        .map(|(tstep, start, end)| walk_window(graph, &lanes, tstep, start, end))
        .collect()
}

/// Walks one window backwards from its latest-finishing node.
fn walk_window(
    graph: &SpanGraph,
    lanes: &Lanes,
    tstep: u32,
    floor: u64,
    ceil: u64,
) -> TimestepPath {
    let mut bd = Breakdown::default();
    let mut nodes = 0u64;

    // Terminal: the node with the greatest effective finish inside
    // (floor, ceil]. Nodes are binned by *finish* time, so work spilling
    // past a mark charges to the window it completed in.
    let in_window = |t: u64| t > floor && t <= ceil;
    let mut terminal: Option<(NodeRef, u64)> = None;
    for t in graph.tasks.values() {
        let e = t.end_eff();
        if in_window(e) && terminal.map(|(_, best)| e > best).unwrap_or(true) {
            terminal = Some((NodeRef::Task(t.id), e));
        }
    }
    for m in graph.messages.values() {
        if m.delivered_us > 0
            && in_window(m.delivered_us)
            && terminal
                .map(|(_, best)| m.delivered_us > best)
                .unwrap_or(true)
        {
            terminal = Some((NodeRef::Msg(m.match_id), m.delivered_us));
        }
    }

    let Some((mut node, terminal_end)) = terminal else {
        // Nothing finished in this window: all of it is unexplained
        // blocked time.
        bd.wait_us = ceil - floor;
        return TimestepPath {
            tstep,
            start_us: floor,
            end_us: ceil,
            breakdown: bd,
            nodes,
        };
    };

    // Trailing idle between the last finish and the window edge.
    bd.wait_us += ceil - terminal_end;

    let mut cur = terminal_end;
    // Each node is visited at most once (the walk follows a DAG path);
    // the set turns a malformed cyclic edge set into a clean stop with
    // the unaccounted remainder charged to `wait`.
    let mut visited: HashSet<(bool, u64)> = HashSet::new();
    loop {
        let key = match node {
            NodeRef::Task(id) => (false, id),
            NodeRef::Msg(id) => (true, id),
        };
        if !visited.insert(key) {
            bd.wait_us += cur - floor;
            break;
        }
        nodes += 1;
        let (cat, node_start) = match node {
            NodeRef::Task(id) => {
                let t = &graph.tasks[&id];
                (
                    t.kind.map_or(Category::Runtime, |k| k.category()),
                    t.start_us,
                )
            }
            NodeRef::Msg(id) => (Category::Transit, graph.messages[&id].posted_us),
        };
        let start = node_start.clamp(floor, cur);
        match best_pred(graph, lanes, node, cur) {
            Some((pred, pred_end)) => {
                let pe = pred_end.min(cur).max(floor);
                bd.add(cat, cur - start.max(pe));
                if pe < start {
                    // The node's inputs were ready at `pe` but it only
                    // started at `start`: scheduling/queueing delay.
                    bd.wait_us += start - pe;
                }
                if pe <= floor {
                    break;
                }
                cur = pe;
                node = pred;
            }
            None => {
                bd.add(cat, cur - start);
                // Ramp-up before the chain's first node.
                bd.wait_us += start - floor;
                break;
            }
        }
    }
    debug_assert_eq!(
        bd.total(),
        ceil - floor,
        "walk must telescope to the window span"
    );
    TimestepPath {
        tstep,
        start_us: floor,
        end_us: ceil,
        breakdown: bd,
        nodes,
    }
}

/// The predecessor with the greatest effective finish *at or before*
/// `cur` — the edge that actually gated `node`. Candidates finishing
/// after `cur` are excluded outright: they cannot explain time before
/// the cursor, and clamping them used to send the walk wandering
/// sideways through zero-width steps until the revisit guard wrote the
/// whole window off as wait. (Deliveries that gate a blocked task
/// mid-body still qualify — they precede the task's end, which is where
/// the cursor sits when the task is first visited.)
fn best_pred(graph: &SpanGraph, lanes: &Lanes, node: NodeRef, cur: u64) -> Option<(NodeRef, u64)> {
    let mut best: Option<(NodeRef, u64)> = None;
    let mut consider = |cand: NodeRef, end: u64| {
        if end == 0 || end > cur {
            return;
        }
        if best.map(|(_, b)| end > b).unwrap_or(true) {
            best = Some((cand, end));
        }
    };
    match node {
        NodeRef::Task(id) => {
            let t = &graph.tasks[&id];
            for &p in &t.preds {
                if let Some(pt) = graph.tasks.get(&p) {
                    consider(NodeRef::Task(p), pt.end_eff());
                }
            }
            for &m in &t.msg_preds {
                if let Some(mn) = graph.messages.get(&m) {
                    consider(NodeRef::Msg(m), mn.delivered_us);
                }
            }
            // Resource edge: the worker ran something else right before
            // this task. Competes with the causal edges; whichever
            // released last is what actually gated the start.
            if let Some((pid, end)) = lanes.lane_pred(t.rank, t.worker, t.start_us, id) {
                consider(NodeRef::Task(pid), end);
            }
        }
        NodeRef::Msg(id) => {
            let m = &graph.messages[&id];
            let mut have_sender = false;
            if m.send_task > 0 {
                if let Some(st) = graph.tasks.get(&m.send_task) {
                    // The send post gates the message, and the post
                    // happens inside the sending task's body — use the
                    // post time, not the task's (possibly later) end.
                    consider(NodeRef::Task(m.send_task), m.posted_us.min(st.end_eff()));
                    have_sender = true;
                }
            }
            if !have_sender {
                // Posted outside any task (or the send task's events were
                // dropped): chain to whatever the sending rank finished
                // last before the post — main-thread exchanges follow a
                // taskwait, so this is the releasing dependency.
                if let Some((pid, end)) = lanes.rank_pred(m.src, m.posted_us) {
                    consider(NodeRef::Task(pid), end);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventData};
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

    fn task(seq: u64, rank: u32, id: u64, kind: Phase, s: u64, e: u64) -> Vec<Event> {
        vec![
            ev(seq, s, rank, EventData::TaskStart { id, kind }),
            ev(seq + 1, e, rank, EventData::TaskEnd { id, kind }),
            ev(seq + 2, e, rank, EventData::TaskCompleted { id }),
        ]
    }

    #[test]
    fn chain_decomposes_exactly() {
        // pack [0,10] -> dep -> stencil [15,40]; window [0,40].
        let mut events = task(1, 0, 1, Phase::Pack, 0, 10);
        events.extend(task(10, 0, 2, Phase::Stencil, 15, 40));
        events.push(ev(20, 0, 0, EventData::DepEdge { pred: 1, succ: 2 }));
        let g = SpanGraph::build(&events);
        let paths = analyze(&g);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.tstep, u32::MAX);
        assert_eq!((p.start_us, p.end_us), (0, 40));
        // stencil [15,40] = 25 compute; gap [10,15] = 5 wait;
        // pack [0,10] = 10 pack.
        assert_eq!(p.breakdown.compute_us, 25);
        assert_eq!(p.breakdown.wait_us, 5);
        assert_eq!(p.breakdown.pack_us, 10);
        assert_eq!(p.breakdown.total(), 40);
        assert_eq!(p.nodes, 2);
    }

    #[test]
    fn message_edge_contributes_transit() {
        // Rank 0: pack [0,10] posts msg at 8, delivered at 30 on rank 1,
        // consumed by stencil [30,50] (msg_pred edge). Window [0,50].
        let mut events = task(1, 0, 1, Phase::Pack, 0, 10);
        events.push(ev(
            4,
            8,
            0,
            EventData::SendPosted {
                dst: 1,
                tag: 0,
                comm: 0,
                bytes: 128,
                eager: false,
                match_id: 7,
                task: 1,
            },
        ));
        events.push(ev(
            5,
            30,
            1,
            EventData::TaskStart {
                id: 2,
                kind: Phase::Stencil,
            },
        ));
        events.push(ev(
            6,
            30,
            1,
            EventData::MsgDelivered {
                src: 0,
                tag: 0,
                comm: 0,
                bytes: 128,
                match_id: 7,
                recv_task: 2,
                queue_us: 22,
            },
        ));
        events.push(ev(
            7,
            50,
            1,
            EventData::TaskEnd {
                id: 2,
                kind: Phase::Stencil,
            },
        ));
        events.push(ev(8, 50, 1, EventData::TaskCompleted { id: 2 }));
        let g = SpanGraph::build(&events);
        let paths = analyze(&g);
        let p = &paths[0];
        // stencil [30,50] = 20 compute; msg [8,30] = 22 transit;
        // pack [0,8] = 8 pack (cursor handed at post time).
        assert_eq!(p.breakdown.compute_us, 20);
        assert_eq!(p.breakdown.transit_us, 22);
        assert_eq!(p.breakdown.pack_us, 8);
        assert_eq!(p.breakdown.wait_us, 0);
        assert_eq!(p.breakdown.total(), 50);
        assert_eq!(p.nodes, 3);
    }

    #[test]
    fn timestep_marks_split_windows() {
        let mut events = vec![
            ev(1, 0, 0, EventData::TimestepMark { tstep: 0 }),
            ev(2, 100, 0, EventData::TimestepMark { tstep: 1 }),
        ];
        events.extend(task(10, 0, 1, Phase::Stencil, 10, 90));
        events.extend(task(20, 0, 2, Phase::Stencil, 110, 200));
        let g = SpanGraph::build(&events);
        let paths = analyze(&g);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].tstep, 0);
        assert_eq!((paths[0].start_us, paths[0].end_us), (0, 100));
        // stencil [10,90] = 80 compute; ramp-up 10 + trailing 10 = wait.
        assert_eq!(paths[0].breakdown.compute_us, 80);
        assert_eq!(paths[0].breakdown.wait_us, 20);
        assert_eq!(paths[1].tstep, 1);
        assert_eq!((paths[1].start_us, paths[1].end_us), (100, 200));
        assert_eq!(paths[1].breakdown.compute_us, 90);
        assert_eq!(paths[1].breakdown.wait_us, 10);
        for p in &paths {
            assert_eq!(p.breakdown.total(), p.end_us - p.start_us);
        }
    }

    #[test]
    fn empty_window_is_all_wait() {
        let events = vec![
            ev(1, 0, 0, EventData::TimestepMark { tstep: 0 }),
            ev(2, 50, 0, EventData::TimestepMark { tstep: 1 }),
            ev(
                3,
                60,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                4,
                80,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            ev(5, 80, 0, EventData::TaskCompleted { id: 1 }),
        ];
        let g = SpanGraph::build(&events);
        let paths = analyze(&g);
        assert_eq!(paths[0].breakdown.wait_us, 50);
        assert_eq!(paths[0].breakdown.total(), 50);
        assert_eq!(paths[0].nodes, 0);
    }

    #[test]
    fn cycle_terminates_and_stays_exact() {
        // Mutual DepEdges (cannot happen in a real run) must not hang;
        // the revisit guard charges the remainder to wait.
        let mut events = task(1, 0, 1, Phase::Stencil, 0, 10);
        events.extend(task(10, 0, 2, Phase::Stencil, 5, 20));
        events.push(ev(20, 0, 0, EventData::DepEdge { pred: 1, succ: 2 }));
        events.push(ev(21, 0, 0, EventData::DepEdge { pred: 2, succ: 1 }));
        let g = SpanGraph::build(&events);
        let paths = analyze(&g);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].breakdown.total(), 20);
        assert_eq!(paths[0].nodes, 2);
    }

    #[test]
    fn blocked_sender_gates_at_post_time() {
        // Sender task blocked until 100 (end_eff 100) but posted at 8;
        // the message edge hands the cursor to 8, not 100.
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
                10,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Send,
                },
            ),
            ev(
                3,
                8,
                0,
                EventData::SendPosted {
                    dst: 1,
                    tag: 0,
                    comm: 0,
                    bytes: 8,
                    eager: false,
                    match_id: 4,
                    task: 1,
                },
            ),
            ev(4, 100, 0, EventData::TaskCompleted { id: 1 }),
            ev(
                5,
                40,
                1,
                EventData::TaskStart {
                    id: 2,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                6,
                40,
                1,
                EventData::MsgDelivered {
                    src: 0,
                    tag: 0,
                    comm: 0,
                    bytes: 8,
                    match_id: 4,
                    recv_task: 2,
                    queue_us: 32,
                },
            ),
            ev(
                7,
                60,
                1,
                EventData::TaskEnd {
                    id: 2,
                    kind: Phase::Stencil,
                },
            ),
            ev(8, 60, 1, EventData::TaskCompleted { id: 2 }),
        ];
        let g = SpanGraph::build(&events);
        // Window is the full graph [0,100]; terminal is the blocked
        // sender (end_eff 100). Its own span runs [0,100] as runtime.
        let paths = analyze(&g);
        assert_eq!(paths[0].breakdown.total(), 100);
        // Now restrict to the consumer chain: window [0,60] excludes the
        // late completion, so the terminal is the stencil at 60.
        let p = super::walk_window(&g, &Lanes::build(&g), 0, 0, 60);
        assert_eq!(p.breakdown.compute_us, 20); // stencil [40,60]
        assert_eq!(p.breakdown.transit_us, 32); // msg [8,40]
        assert_eq!(p.breakdown.runtime_us, 8); // send [0,8]
        assert_eq!(p.breakdown.total(), 60);
    }

    #[test]
    fn main_thread_send_falls_back_to_rank_tail() {
        // stencil [0,20] on rank 0, then a task-less send (task = 0) at
        // 25, delivered at 40 on rank 1. The terminal message must chain
        // to the stencil instead of writing the whole window off as wait.
        let mut events = task(1, 0, 1, Phase::Stencil, 0, 20);
        events.push(ev(
            10,
            25,
            0,
            EventData::SendPosted {
                dst: 1,
                tag: 0,
                comm: 0,
                bytes: 8,
                eager: true,
                match_id: 9,
                task: 0,
            },
        ));
        events.push(ev(
            11,
            40,
            1,
            EventData::MsgDelivered {
                src: 0,
                tag: 0,
                comm: 0,
                bytes: 8,
                match_id: 9,
                recv_task: 0,
                queue_us: 15,
            },
        ));
        let g = SpanGraph::build(&events);
        let paths = analyze(&g);
        let p = &paths[0];
        assert_eq!(p.nodes, 2);
        assert_eq!(p.breakdown.transit_us, 15); // msg [25,40]
        assert_eq!(p.breakdown.wait_us, 5); // gap [20,25]
        assert_eq!(p.breakdown.compute_us, 20); // stencil [0,20]
        assert_eq!(p.breakdown.total(), 40);
    }

    #[test]
    fn lane_order_links_tasks_without_dep_edges() {
        // Two tasks on the same worker lane, no DepEdge recorded (e.g.
        // dropped by ring overflow). The lane edge keeps the chain alive.
        let mut events = task(1, 0, 1, Phase::Pack, 0, 10);
        events.extend(task(10, 0, 2, Phase::Stencil, 20, 30));
        let g = SpanGraph::build(&events);
        let paths = analyze(&g);
        let p = &paths[0];
        assert_eq!(p.nodes, 2);
        assert_eq!(p.breakdown.compute_us, 10); // stencil [20,30]
        assert_eq!(p.breakdown.wait_us, 10); // gap [10,20]
        assert_eq!(p.breakdown.pack_us, 10); // pack [0,10]
        assert_eq!(p.breakdown.total(), 30);
    }
}
