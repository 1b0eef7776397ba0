//! Task objects and their lifecycle.
//!
//! A task moves through: *created* → (all predecessor dependencies
//! released) *ready* → *running* → (body finished **and** event count
//! zero) *released*. Release removes the task's accesses from the
//! dependency registry, decrements successors' pending counts, and wakes
//! `taskwait`ers.

use crate::region::Access;
use crate::runtime::RtInner;
use crate::Phase;
use parking_lot::Mutex;
use smallvec::SmallVec;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub(crate) type TaskBody = Box<dyn FnOnce() + Send>;

/// Inline capacity for per-task access lists: miniAMR tasks declare 1–4
/// accesses almost always (multidep send tasks spill, and that is fine).
pub(crate) type AccessList = SmallVec<[Access; 4]>;
/// Inline capacity for successor lists: spares the heap allocation that
/// a plain `Vec` would make on the first successor push of every task.
pub(crate) type SuccessorList = SmallVec<[Arc<TaskShared>; 4]>;

pub(crate) struct TaskShared {
    pub id: u64,
    /// depsan task id (0 while the sanitizer is disabled).
    pub san_id: u64,
    pub priority: i32,
    pub kind: Phase,
    pub accesses: AccessList,
    pub body: Mutex<Option<TaskBody>>,
    /// Predecessors not yet released, plus one registration guard.
    pub pending: AtomicUsize,
    /// Body (counted as 1) plus outstanding event holds.
    pub events: AtomicUsize,
    pub state: Mutex<TaskLinks>,
    pub rt: Arc<RtInner>,
}

pub(crate) struct TaskLinks {
    pub released: bool,
    pub successors: SuccessorList,
}

impl TaskShared {
    /// Called when a predecessor releases; enqueues the task when its last
    /// dependency (or the registration guard) clears.
    pub(crate) fn dep_satisfied(self: &Arc<Self>, local_hint: bool) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(bus) = obs::bus() {
                bus.emit_for_rank(self.rt.rank(), obs::EventData::TaskReady { id: self.id });
            }
            self.rt.enqueue_ready(Arc::clone(self), local_hint);
        }
    }

    /// Drops one event hold; the final drop (after the body finished)
    /// releases the task's dependencies.
    pub(crate) fn event_done(self: &Arc<Self>) {
        if self.events.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.release();
        }
    }

    /// Releases the task: removes its accesses from the registry, readies
    /// unblocked successors, and signals scope completion.
    fn release(self: &Arc<Self>) {
        let successors = {
            let mut links = self.state.lock();
            debug_assert!(!links.released, "task released twice");
            links.released = true;
            std::mem::take(&mut links.successors)
        };
        // Registry removal happens after the `released` flag is visible,
        // and never while holding the task's own state lock (see the lock
        // ordering note in registry.rs).
        self.rt.registry.remove_task(self);
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                self.rt.rank(),
                obs::EventData::TaskCompleted { id: self.id },
            );
        }
        let n = successors.len();
        for (i, succ) in successors.into_iter().enumerate() {
            // The first unblocked successor is offered to the local worker
            // (immediate-successor locality policy); the rest go wherever
            // the scheduler decides.
            succ.dep_satisfied(i + 1 == n);
        }
        self.rt.task_released(self.id);
    }

    /// Runs the task body on the current thread.
    pub(crate) fn execute(self: Arc<Self>) {
        let body = self.body.lock().take().unwrap_or_else(|| {
            panic!(
                "task '{}' (id {}) executed twice",
                self.kind.name(),
                self.id
            )
        });
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(&self))));
        // Publish the task id to the obs thread-task context so layers
        // below taskrt (vmpi message posts) can attribute events to it.
        // Gated like every other emit so the disabled path stays free.
        let prev_obs_task = obs::is_enabled().then(|| obs::set_thread_task(self.id));
        if let Some(bus) = obs::bus() {
            // Adopt the owning runtime's rank for the duration of the
            // body, so events emitted from inside it (message posts,
            // phase spans) attribute to this rank even on worker threads.
            obs::set_thread_rank(self.rt.rank());
            bus.emit_for_rank(
                self.rt.rank(),
                obs::EventData::TaskStart {
                    id: self.id,
                    kind: self.kind,
                },
            );
        }
        {
            // Sanitizer scope: buffer accesses made by the body attribute
            // to this task (guard restores the previous scope on drop,
            // panic-safe).
            let _san = (self.san_id != 0).then(|| depsan::enter_scope(self.san_id));
            // A panicking body must not kill the worker thread: the graph
            // has to keep draining so taskwait wakes and can rethrow on
            // the rank's main thread (elastic shrink relies on this for a
            // clean unwind when the world is torn down mid-timestep).
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "non-string panic payload"
                };
                self.rt.poison(format!(
                    "task '{}' (id {}) panicked: {msg}",
                    self.kind.name(),
                    self.id
                ));
            }
        }
        if let Some(bus) = obs::bus() {
            let rank = self.rt.rank();
            bus.emit_for_rank(
                rank,
                obs::EventData::TaskEnd {
                    id: self.id,
                    kind: self.kind,
                },
            );
            // Holds acquired by the body (tampi-bound requests) outlive it:
            // the task is now blocked-on-events rather than completed.
            let holds = self.events.load(Ordering::Acquire).saturating_sub(1);
            if holds > 0 {
                bus.emit_for_rank(
                    rank,
                    obs::EventData::TaskBlocked {
                        id: self.id,
                        holds: holds as u32,
                    },
                );
                if let Some(m) = &self.rt.obs_metrics {
                    m.blocked.inc();
                }
            }
        }
        if let Some(p) = prev_obs_task {
            obs::set_thread_task(p);
        }
        CURRENT.with(|c| *c.borrow_mut() = prev);
        self.event_done();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<TaskShared>>> = const { RefCell::new(None) };
}

/// Id of the task currently executing on this thread, if any.
pub fn current_task_id() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|t| t.id))
}

pub(crate) fn current_task() -> Option<Arc<TaskShared>> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn current_event_hold() -> Option<crate::events::EventHold> {
    current_task().map(crate::events::EventHold::acquire)
}
