//! Chrome `trace_event` JSON exporter.
//!
//! Produces one Perfetto-loadable timeline merging every rank: processes
//! are ranks (`pid` = rank), threads are lanes within a rank (`tid` 0 =
//! the rank's main thread, `tid` 1.. = task workers, a high `tid` = the
//! delivery/"network" lane). Task executions and phase spans become
//! duration (`"ph":"X"`) slices, message/lifecycle transitions become
//! instants (`"ph":"i"`), and derived counter tracks (`"ph":"C"`) plot
//! tasks ready/running, requests in flight, and bytes queued — the same
//! quantities the paper reads off its Extrae/Paraver timelines.

use crate::event::{Event, EventData, LANE_MAIN, LANE_NET, UNKNOWN_RANK};
use crate::span::Phase;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// `tid` used for the delivery/"network" lane.
const TID_NET: u32 = 999;
/// `tid` used for events with no lane attribution.
const TID_OTHER: u32 = 998;

fn tid_of(worker: u32) -> u32 {
    match worker {
        LANE_MAIN => 0,
        LANE_NET => TID_NET,
        w => w.saturating_add(1).min(TID_OTHER - 1),
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn push(&mut self, record: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(&record);
    }

    fn meta(&mut self, name: &str, pid: u32, tid: Option<u32>, value: &str) {
        let tid_field = tid.map(|t| format!(",\"tid\":{t}")).unwrap_or_default();
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"M\",\"pid\":{pid}{tid_field},\"args\":{{\"name\":\"{}\"}}}}",
            esc(name),
            esc(value)
        ));
    }

    fn slice(&mut self, name: &str, pid: u32, tid: u32, ts: u64, dur: u64, args: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    fn instant(&mut self, name: &str, pid: u32, tid: u32, ts: u64, args: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    fn counter(&mut self, name: &str, pid: u32, ts: u64, series: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"args\":{{{series}}}}}",
            esc(name)
        ));
    }

    /// Perfetto flow arrow start (`"ph":"s"`) at a send-post site.
    fn flow_start(&mut self, id: u64, pid: u32, tid: u32, ts: u64) {
        self.push(format!(
            "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}"
        ));
    }

    /// Perfetto flow arrow finish (`"ph":"f"`, binding to the enclosing
    /// slice's end) at the matching delivery site.
    fn flow_finish(&mut self, id: u64, pid: u32, tid: u32, ts: u64) {
        self.push(format!(
            "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}"
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn norm_rank(rank: u32) -> u32 {
    // Perfetto groups by pid; fold unattributed events into a synthetic
    // high pid rather than u32::MAX (which some viewers render poorly).
    if rank == UNKNOWN_RANK {
        9999
    } else {
        rank
    }
}

/// Renders `events` (any order; they are sorted internally) as a Chrome
/// `trace_event` JSON document.
pub fn export_chrome(events: &[Event]) -> String {
    let mut events: Vec<&Event> = events.iter().collect();
    events.sort_by_key(|e| (e.t_us, e.seq));

    let mut em = Emitter::new();

    // Process/thread metadata first: one process per rank, named lanes.
    let mut lanes: BTreeSet<(u32, u32)> = BTreeSet::new();
    for e in &events {
        lanes.insert((norm_rank(e.rank), tid_of(e.worker)));
    }
    let ranks: BTreeSet<u32> = lanes.iter().map(|&(r, _)| r).collect();
    for &r in &ranks {
        let pname = if r == 9999 {
            "unattributed".to_string()
        } else {
            format!("rank {r}")
        };
        em.meta("process_name", r, None, &pname);
    }
    for &(r, tid) in &lanes {
        let tname = match tid {
            0 => "main".to_string(),
            TID_NET => "net".to_string(),
            t => format!("worker {}", t - 1),
        };
        em.meta("thread_name", r, Some(tid), &tname);
    }

    // Derived counter state, per rank.
    #[derive(Default, Clone)]
    struct RankCounters {
        ready: i64,
        running: i64,
    }
    let mut counters: BTreeMap<u32, RankCounters> = BTreeMap::new();
    // Open task executions: (rank, worker, task id) -> (start ts, kind).
    let mut open: BTreeMap<(u32, u32, u64), (u64, Phase)> = BTreeMap::new();

    for e in &events {
        let pid = norm_rank(e.rank);
        let tid = tid_of(e.worker);
        let ts = e.t_us;
        match &e.data {
            EventData::TaskCreated { id, kind, preds } => {
                em.instant(
                    "task_created",
                    pid,
                    tid,
                    ts,
                    &format!(
                        "\"id\":{id},\"label\":\"{}\",\"preds\":{preds}",
                        kind.name()
                    ),
                );
            }
            EventData::TaskReady { id } => {
                em.instant("task_ready", pid, tid, ts, &format!("\"id\":{id}"));
                let c = counters.entry(pid).or_default();
                c.ready += 1;
                let ready = c.ready;
                em.counter("tasks_ready", pid, ts, &format!("\"ready\":{ready}"));
            }
            EventData::TaskStart { id, kind } => {
                open.insert((pid, tid, *id), (ts, *kind));
                let c = counters.entry(pid).or_default();
                c.ready = (c.ready - 1).max(0);
                c.running += 1;
                let (ready, running) = (c.ready, c.running);
                em.counter("tasks_ready", pid, ts, &format!("\"ready\":{ready}"));
                em.counter("tasks_running", pid, ts, &format!("\"running\":{running}"));
            }
            EventData::TaskEnd { id, kind } => {
                let (start, kind) = open.remove(&(pid, tid, *id)).unwrap_or((ts, *kind));
                em.slice(
                    kind.name(),
                    pid,
                    tid,
                    start,
                    ts.saturating_sub(start),
                    &format!("\"id\":{id}"),
                );
                let c = counters.entry(pid).or_default();
                c.running = (c.running - 1).max(0);
                let running = c.running;
                em.counter("tasks_running", pid, ts, &format!("\"running\":{running}"));
            }
            EventData::TaskBlocked { id, holds } => {
                em.instant(
                    "task_blocked",
                    pid,
                    tid,
                    ts,
                    &format!("\"id\":{id},\"holds\":{holds}"),
                );
            }
            EventData::TaskCompleted { id } => {
                em.instant("task_completed", pid, tid, ts, &format!("\"id\":{id}"));
            }
            EventData::DepEdge { pred, succ } => {
                em.instant(
                    "dep_edge",
                    pid,
                    tid,
                    ts,
                    &format!("\"pred\":{pred},\"succ\":{succ}"),
                );
            }
            EventData::HoldAcquire { task } => {
                em.instant("hold_acquire", pid, tid, ts, &format!("\"task\":{task}"));
            }
            EventData::HoldRelease { task } => {
                em.instant("hold_release", pid, tid, ts, &format!("\"task\":{task}"));
            }
            EventData::SendPosted {
                dst,
                tag,
                comm,
                bytes,
                eager,
                match_id,
                task,
            } => {
                em.instant(
                    "send_posted",
                    pid,
                    tid,
                    ts,
                    &format!("\"dst\":{dst},\"tag\":{tag},\"comm\":{comm},\"bytes\":{bytes},\"eager\":{eager},\"match_id\":{match_id},\"task\":{task}"),
                );
                if *match_id > 0 {
                    em.flow_start(*match_id, pid, tid, ts);
                }
            }
            EventData::RecvPosted {
                src,
                tag,
                comm,
                task,
            } => {
                em.instant(
                    "recv_posted",
                    pid,
                    tid,
                    ts,
                    &format!("\"src\":{src},\"tag\":{tag},\"comm\":{comm},\"task\":{task}"),
                );
            }
            EventData::MsgMatched {
                src,
                tag,
                comm,
                bytes,
                at_send,
                match_id,
                recv_task,
            } => {
                em.instant(
                    "msg_matched",
                    pid,
                    tid,
                    ts,
                    &format!("\"src\":{src},\"tag\":{tag},\"comm\":{comm},\"bytes\":{bytes},\"at_send\":{at_send},\"match_id\":{match_id},\"recv_task\":{recv_task}"),
                );
            }
            EventData::MsgDelivered {
                src,
                tag,
                comm,
                bytes,
                match_id,
                recv_task,
                queue_us,
            } => {
                em.instant(
                    "msg_delivered",
                    pid,
                    tid,
                    ts,
                    &format!("\"src\":{src},\"tag\":{tag},\"comm\":{comm},\"bytes\":{bytes},\"match_id\":{match_id},\"recv_task\":{recv_task},\"queue_us\":{queue_us}"),
                );
                if *match_id > 0 {
                    em.flow_finish(*match_id, pid, tid, ts);
                }
            }
            EventData::WaitanyWake { index } => {
                em.instant("waitany_wake", pid, tid, ts, &format!("\"index\":{index}"));
            }
            EventData::QueueDepth {
                mailbox,
                msgs,
                recvs,
                bytes,
            } => {
                let in_flight = u64::from(*msgs) + u64::from(*recvs);
                em.counter(
                    "requests_in_flight",
                    *mailbox,
                    ts,
                    &format!("\"in_flight\":{in_flight}"),
                );
                em.counter("bytes_queued", *mailbox, ts, &format!("\"bytes\":{bytes}"));
            }
            EventData::FabricDepth {
                node,
                up_flows,
                down_flows,
                queued_bytes,
            } => {
                // One counter process per fabric node would collide with
                // rank pids; plot on the emitting rank's process instead,
                // with the node index in the series name.
                let flows = u64::from(*up_flows) + u64::from(*down_flows);
                em.counter(
                    &format!("fabric_flows_node{node}"),
                    pid,
                    ts,
                    &format!("\"flows\":{flows}"),
                );
                em.counter(
                    &format!("fabric_uplink_bytes_node{node}"),
                    pid,
                    ts,
                    &format!("\"bytes\":{queued_bytes}"),
                );
            }
            EventData::SanViolation {
                kind,
                task,
                obj,
                detail,
            } => {
                em.instant(
                    "san_violation",
                    pid,
                    tid,
                    ts,
                    &format!(
                        "\"kind\":\"{}\",\"task\":{task},\"obj\":{obj},\"detail\":\"{}\"",
                        esc(kind),
                        esc(detail)
                    ),
                );
            }
            EventData::FaultInjected {
                kind,
                src,
                dst,
                tag,
                seq,
            } => {
                em.instant(
                    "fault_injected",
                    pid,
                    tid,
                    ts,
                    &format!(
                        "\"kind\":\"{}\",\"src\":{src},\"dst\":{dst},\"tag\":{tag},\"seq\":{seq}",
                        esc(kind)
                    ),
                );
            }
            EventData::Retransmit {
                src,
                dst,
                tag,
                seq,
                attempt,
            } => {
                em.instant(
                    "retransmit",
                    pid,
                    tid,
                    ts,
                    &format!("\"src\":{src},\"dst\":{dst},\"tag\":{tag},\"seq\":{seq},\"attempt\":{attempt}"),
                );
            }
            EventData::CheckpointTaken {
                rank,
                tstep,
                stage,
                blocks,
                bytes,
            } => {
                em.instant(
                    "checkpoint_taken",
                    pid,
                    tid,
                    ts,
                    &format!(
                        "\"rank\":{rank},\"tstep\":{tstep},\"stage\":{stage},\"blocks\":{blocks},\"bytes\":{bytes}"
                    ),
                );
            }
            EventData::RankRecovered { peer, retries } => {
                em.instant(
                    "rank_recovered",
                    pid,
                    tid,
                    ts,
                    &format!("\"peer\":{peer},\"retries\":{retries}"),
                );
            }
            EventData::Span {
                kind,
                start_us,
                end_us,
            } => {
                em.slice(
                    kind.name(),
                    pid,
                    tid,
                    *start_us,
                    end_us.saturating_sub(*start_us),
                    "",
                );
            }
            EventData::WaitSpan {
                kind,
                start_us,
                end_us,
            } => {
                em.slice(
                    &format!("wait:{kind}"),
                    pid,
                    tid,
                    *start_us,
                    end_us.saturating_sub(*start_us),
                    "\"wait\":true",
                );
            }
            EventData::TimestepMark { tstep } => {
                em.instant("timestep", pid, tid, ts, &format!("\"tstep\":{tstep}"));
            }
        }
    }

    // Close any task execution that never saw its end event (ring
    // overflow or a crash mid-task) so the slice is still visible.
    let mut leftovers: Vec<_> = open.into_iter().collect();
    leftovers.sort_unstable_by_key(|&((pid, tid, id), _)| (pid, tid, id));
    let horizon = events.last().map(|e| e.t_us).unwrap_or(0);
    for ((pid, tid, id), (start, kind)) in leftovers {
        em.slice(
            kind.name(),
            pid,
            tid,
            start,
            horizon.saturating_sub(start),
            &format!("\"id\":{id},\"truncated\":true"),
        );
    }

    em.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(seq: u64, t_us: u64, rank: u32, worker: u32, data: EventData) -> Event {
        Event {
            seq,
            t_us,
            rank,
            worker,
            data,
        }
    }

    #[test]
    fn export_is_valid_json_with_processes_and_counters() {
        let events = vec![
            ev(
                0,
                10,
                0,
                LANE_MAIN,
                EventData::TaskCreated {
                    id: 1,
                    kind: Phase::Stencil,
                    preds: 0,
                },
            ),
            ev(1, 12, 0, 0, EventData::TaskReady { id: 1 }),
            ev(
                2,
                15,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                3,
                40,
                0,
                0,
                EventData::TaskEnd {
                    id: 1,
                    kind: Phase::Stencil,
                },
            ),
            ev(
                4,
                41,
                1,
                LANE_MAIN,
                EventData::SendPosted {
                    dst: 0,
                    tag: 7,
                    comm: 0,
                    bytes: 64,
                    eager: true,
                    match_id: 5,
                    task: 0,
                },
            ),
            ev(
                5,
                42,
                0,
                LANE_NET,
                EventData::MsgDelivered {
                    src: 1,
                    tag: 7,
                    comm: 0,
                    bytes: 64,
                    match_id: 5,
                    recv_task: 0,
                    queue_us: 1,
                },
            ),
            ev(
                6,
                43,
                1,
                LANE_MAIN,
                EventData::QueueDepth {
                    mailbox: 1,
                    msgs: 2,
                    recvs: 1,
                    bytes: 128,
                },
            ),
        ];
        let json = export_chrome(&events);
        crate::json::validate(&json).expect("exporter must emit valid JSON");
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
        assert!(
            json.contains("\"ph\":\"X\""),
            "task execution slice missing"
        );
        assert!(json.contains("requests_in_flight"));
        assert!(json.contains("bytes_queued"));
        assert!(
            json.contains("\"name\":\"net\""),
            "delivery lane metadata missing"
        );
        assert!(json.contains("\"ph\":\"s\""), "flow arrow start missing");
        assert!(json.contains("\"ph\":\"f\""), "flow arrow finish missing");
    }

    #[test]
    fn unattributed_send_emits_no_flow_arrow() {
        let events = vec![
            ev(
                0,
                1,
                0,
                LANE_MAIN,
                EventData::SendPosted {
                    dst: 1,
                    tag: 0,
                    comm: 0,
                    bytes: 8,
                    eager: true,
                    match_id: 0,
                    task: 0,
                },
            ),
            ev(
                1,
                2,
                1,
                LANE_NET,
                EventData::MsgDelivered {
                    src: 0,
                    tag: 0,
                    comm: 0,
                    bytes: 8,
                    match_id: 0,
                    recv_task: 0,
                    queue_us: 0,
                },
            ),
        ];
        let json = export_chrome(&events);
        crate::json::validate(&json).unwrap();
        assert!(
            !json.contains("\"ph\":\"s\""),
            "match_id 0 must not start a flow"
        );
        assert!(
            !json.contains("\"ph\":\"f\""),
            "match_id 0 must not finish a flow"
        );
    }

    #[test]
    fn wait_span_and_timestep_render() {
        let events = vec![
            ev(0, 0, 0, LANE_MAIN, EventData::TimestepMark { tstep: 3 }),
            ev(
                1,
                10,
                0,
                0,
                EventData::WaitSpan {
                    kind: "waitany",
                    start_us: 2,
                    end_us: 10,
                },
            ),
        ];
        let json = export_chrome(&events);
        crate::json::validate(&json).unwrap();
        assert!(json.contains("wait:waitany"));
        assert!(json.contains("\"tstep\":3"));
    }

    #[test]
    fn unpaired_task_start_still_produces_slice() {
        let events = vec![
            ev(
                0,
                5,
                0,
                0,
                EventData::TaskStart {
                    id: 9,
                    kind: Phase::Pack,
                },
            ),
            ev(1, 30, 0, 0, EventData::TaskReady { id: 10 }),
        ];
        let json = export_chrome(&events);
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"truncated\":true"));
    }

    #[test]
    fn merged_ranks_sorted_by_time() {
        // Events deliberately passed out of order.
        let events = vec![
            ev(5, 100, 1, 0, EventData::TaskReady { id: 2 }),
            ev(2, 50, 0, 0, EventData::TaskReady { id: 1 }),
        ];
        let json = export_chrome(&events);
        crate::json::validate(&json).unwrap();
        let first = json.find("\"ts\":50").expect("early event present");
        let second = json.find("\"ts\":100").expect("late event present");
        assert!(first < second, "events must be emitted in timestamp order");
    }
}
