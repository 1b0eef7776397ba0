//! The runtime: spawning, task building, taskwait.

use crate::region::{Access, Region};
use crate::registry::Registry;
use crate::scheduler::Scheduler;
use crate::task::{AccessList, SuccessorList, TaskBody, TaskLinks, TaskShared};
use crate::Phase;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Tuning knobs for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads executing tasks.
    pub workers: usize,
    /// Whether a finishing task's first unblocked successor is executed
    /// next on the same worker (cache-locality policy). Disable for
    /// ablation studies.
    pub immediate_successor: bool,
}

impl RuntimeConfig {
    /// Default configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            immediate_successor: true,
        }
    }
}

/// Counters accumulated over the runtime's lifetime.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Tasks spawned.
    pub spawned: u64,
    /// Dependency edges created at registration.
    pub edges: u64,
    /// Tasks that were ready immediately at spawn (no predecessors).
    pub ready_at_spawn: u64,
    /// Tasks not yet released (0 after a `taskwait`).
    pub live_tasks: u64,
    /// Event holds acquired over the runtime's lifetime.
    pub holds_acquired: u64,
    /// Holds acquired but not yet released (a nonzero value at shutdown
    /// means a leaked `EventHold`).
    pub outstanding_holds: u64,
}

/// Cached metric handles (a registry lookup takes a lock; the handles are
/// lock-free). Present only when observability was enabled before the
/// runtime was built, so the disabled path carries no atomics at all.
pub(crate) struct ObsMetrics {
    pub(crate) blocked: obs::Counter,
    pub(crate) live_hwm: obs::Gauge,
}

const LIVE_SHARDS: usize = 8;

/// Sharded id → task map of unreleased tasks, kept only for the
/// watchdog's pending-task dump. Absent entirely in release builds
/// without observability, so the spawn/release hot path pays no lock
/// for it.
struct LiveSet {
    shards: Vec<Mutex<HashMap<u64, Weak<TaskShared>>>>,
}

impl LiveSet {
    fn new() -> LiveSet {
        LiveSet {
            shards: (0..LIVE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    #[inline]
    fn insert(&self, id: u64, task: Weak<TaskShared>) {
        self.shards[id as usize % LIVE_SHARDS]
            .lock()
            .insert(id, task);
    }

    #[inline]
    fn remove(&self, id: u64) {
        self.shards[id as usize % LIVE_SHARDS].lock().remove(&id);
    }

    /// Live tasks sorted by id (diagnostics only).
    fn snapshot(&self) -> Vec<Arc<TaskShared>> {
        let mut tasks: Vec<Arc<TaskShared>> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .values()
                    .filter_map(Weak::upgrade)
                    .collect::<Vec<_>>()
            })
            .collect();
        tasks.sort_unstable_by_key(|t| t.id);
        tasks
    }
}

pub(crate) struct RtInner {
    pub registry: Registry,
    pub scheduler: Scheduler,
    next_id: AtomicU64,
    live: AtomicUsize,
    live_set: Option<LiveSet>,
    wait_lock: Mutex<()>,
    wait_cond: Condvar,
    stat_spawned: AtomicU64,
    stat_edges: AtomicU64,
    stat_ready_at_spawn: AtomicU64,
    pub(crate) stat_holds_acquired: AtomicU64,
    pub(crate) stat_holds_released: AtomicU64,
    /// Virtual rank this runtime serves, for event attribution
    /// ([`obs::UNKNOWN_RANK`] until [`Runtime::set_obs_rank`]).
    pub(crate) obs_rank: AtomicU32,
    pub(crate) obs_metrics: Option<ObsMetrics>,
    /// depsan runtime id (0 while the sanitizer is disabled).
    pub(crate) san_rt: u64,
    /// First task-body panic, captured by [`TaskShared::execute`] so the
    /// worker survives and the graph keeps draining; rethrown on the
    /// rank's main thread by the next [`Runtime::taskwait`] /
    /// [`Runtime::taskwait_on`].
    pub(crate) poisoned: Mutex<Option<String>>,
}

impl RtInner {
    pub(crate) fn enqueue_ready(&self, task: Arc<TaskShared>, local_hint: bool) {
        self.scheduler.push(task, local_hint);
    }

    /// Rank to attribute this runtime's events to.
    #[inline]
    pub(crate) fn rank(&self) -> u32 {
        self.obs_rank.load(Ordering::Relaxed)
    }

    /// Human-readable snapshot of unreleased tasks with their declared
    /// accesses — the watchdog's view into a stuck task graph. Empty when
    /// the graph is quiescent.
    fn dump_pending(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let Some(live_set) = &self.live_set else {
            return out;
        };
        for task in live_set.snapshot() {
            let pending = task.pending.load(Ordering::Relaxed);
            let events = task.events.load(Ordering::Relaxed);
            let _ = write!(
                out,
                "task {} '{}' pending_preds={} event_holds={} accesses=[",
                task.id,
                task.kind.name(),
                pending,
                events.saturating_sub(1),
            );
            for (i, a) in task.accesses.iter().enumerate() {
                let mode = match a.mode {
                    crate::region::AccessMode::In => "in",
                    crate::region::AccessMode::Out => "out",
                    crate::region::AccessMode::InOut => "inout",
                };
                let _ = write!(
                    out,
                    "{}{} {}",
                    if i > 0 { ", " } else { "" },
                    mode,
                    a.region
                );
            }
            out.push_str("]\n");
        }
        // Longest currently-blocked causal chain: a task still holding a
        // TAMPI event (its awaited message has not arrived) transitively
        // blocks every successor downstream of it. Walking successor
        // edges from each hold-blocked task names the chain the stall
        // propagates through; the awaited message itself shows up in the
        // "vmpi mailboxes" diag section, whose pending receives name
        // their posting task — together: task → awaited message →
        // sender rank.
        fn longest_chain(
            task: &Arc<TaskShared>,
            memo: &mut HashMap<u64, Vec<(u64, Phase)>>,
        ) -> Vec<(u64, Phase)> {
            if let Some(c) = memo.get(&task.id) {
                return c.clone();
            }
            // Placeholder guards against revisiting mid-walk (the live
            // graph is a DAG, but diagnostics must never recurse forever).
            memo.insert(task.id, Vec::new());
            let succs: SuccessorList = {
                let links = task.state.lock();
                if links.released {
                    return Vec::new();
                }
                links.successors.clone()
            };
            let mut best: Vec<(u64, Phase)> = Vec::new();
            for s in &succs {
                let c = longest_chain(s, memo);
                if c.len() > best.len() {
                    best = c;
                }
            }
            let mut chain = vec![(task.id, task.kind)];
            chain.append(&mut best);
            memo.insert(task.id, chain.clone());
            chain
        }
        let blocked: Vec<Arc<TaskShared>> = live_set
            .snapshot()
            .into_iter()
            .filter(|t| t.events.load(Ordering::Relaxed) > 1)
            .collect();
        let mut memo: HashMap<u64, Vec<(u64, Phase)>> = HashMap::new();
        let mut best: Vec<(u64, Phase)> = Vec::new();
        let mut best_holds = 0usize;
        for t in &blocked {
            let chain = longest_chain(t, &mut memo);
            if chain.len() > best.len() {
                best = chain;
                best_holds = t.events.load(Ordering::Relaxed).saturating_sub(1);
            }
        }
        if !best.is_empty() {
            out.push_str("longest blocked chain: ");
            for (i, (id, kind)) in best.iter().enumerate() {
                let name = kind.name();
                if i == 0 {
                    let _ = write!(
                        out,
                        "task {id} '{name}' [awaiting {best_holds} event hold(s)]"
                    );
                } else {
                    let _ = write!(out, " -> task {id} '{name}'");
                }
            }
            out.push('\n');
        }
        out
    }

    pub(crate) fn task_released(&self, id: u64) {
        if let Some(live_set) = &self.live_set {
            live_set.remove(id);
        }
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.wait_lock.lock();
            self.wait_cond.notify_all();
        }
    }

    /// Records a fatal failure observed inside the graph (task-body panic,
    /// failed event hold). First message wins; it is rethrown by the next
    /// `taskwait`/`taskwait_on` on the rank's main thread.
    pub(crate) fn poison(&self, msg: String) {
        let mut p = self.poisoned.lock();
        if p.is_none() {
            *p = Some(msg);
        }
        drop(p);
        let _guard = self.wait_lock.lock();
        self.wait_cond.notify_all();
    }

    /// Rethrows a stored poison message (no-op on a healthy runtime).
    pub(crate) fn rethrow_poison(&self) {
        let poisoned = self.poisoned.lock().clone();
        if let Some(msg) = poisoned {
            panic!("taskrt: {msg}");
        }
    }
}

/// A data-flow task runtime: an OmpSs-2-like pool of workers executing
/// dependency-ordered tasks. See the crate docs for the model.
///
/// Dropping the runtime shuts the workers down; tasks still pending at
/// that point are abandoned — call [`Runtime::taskwait`] first.
pub struct Runtime {
    inner: Arc<RtInner>,
    workers: Vec<JoinHandle<()>>,
    /// Keeps the watchdog diagnostic callback registered for the
    /// runtime's lifetime (None when observability is disabled).
    _diag: Option<obs::DiagGuard>,
}

impl Runtime {
    /// Creates a runtime with `workers` worker threads and default
    /// configuration.
    pub fn new(workers: usize) -> Runtime {
        Runtime::with_config(RuntimeConfig::with_workers(workers))
    }

    /// Creates a runtime from an explicit configuration.
    pub fn with_config(config: RuntimeConfig) -> Runtime {
        assert!(config.workers >= 1, "runtime needs at least one worker");
        let (scheduler, locals) = Scheduler::new(config.workers, config.immediate_successor);
        // The live-task map exists for the watchdog's dump only; in
        // release builds without observability it is skipped entirely so
        // spawning pays no global lock for it.
        let track_live = cfg!(debug_assertions) || obs::is_enabled();
        let inner = Arc::new(RtInner {
            registry: Registry::new(),
            scheduler,
            next_id: AtomicU64::new(1),
            live: AtomicUsize::new(0),
            live_set: track_live.then(LiveSet::new),
            wait_lock: Mutex::new(()),
            wait_cond: Condvar::new(),
            stat_spawned: AtomicU64::new(0),
            stat_edges: AtomicU64::new(0),
            stat_ready_at_spawn: AtomicU64::new(0),
            stat_holds_acquired: AtomicU64::new(0),
            stat_holds_released: AtomicU64::new(0),
            obs_rank: AtomicU32::new(obs::UNKNOWN_RANK),
            obs_metrics: obs::is_enabled().then(|| ObsMetrics {
                blocked: obs::metrics().counter("taskrt.tasks_blocked_on_events"),
                live_hwm: obs::metrics().gauge("taskrt.live_tasks_hwm"),
            }),
            san_rt: if depsan::is_enabled() {
                depsan::runtime_created()
            } else {
                0
            },
            poisoned: Mutex::new(None),
        });
        let diag = obs::is_enabled().then(|| {
            let weak = Arc::downgrade(&inner);
            obs::diagnostics().register("taskrt pending tasks", move || {
                weak.upgrade()
                    .map(|rt| rt.dump_pending())
                    .unwrap_or_default()
            })
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let rt = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("taskrt-worker-{i}"))
                    .spawn(move || rt.scheduler.worker_loop(local, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            inner,
            workers,
            _diag: diag,
        }
    }

    /// Attributes this runtime's observability events to a virtual rank
    /// (one runtime serves one rank in the miniAMR variants). Idempotent;
    /// cheap; a no-op in effect while observability is disabled.
    pub fn set_obs_rank(&self, rank: u32) {
        self.inner.obs_rank.store(rank, Ordering::Relaxed);
    }

    /// Starts building a task; finish with [`TaskBuilder::spawn`].
    pub fn task(&self) -> TaskBuilder<'_> {
        TaskBuilder {
            rt: self,
            accesses: AccessList::new(),
            priority: 0,
            kind: Phase::Other,
            body: None,
        }
    }

    /// Spawns a task of kind [`Phase::Other`] with explicit accesses
    /// (convenience for the builder).
    pub fn spawn(&self, accesses: Vec<Access>, body: impl FnOnce() + Send + 'static) {
        self.spawn_boxed(accesses.into(), 0, Phase::Other, Box::new(body));
    }

    /// Returns the task's depsan id (0 while the sanitizer is disabled).
    fn spawn_boxed(&self, accesses: AccessList, priority: i32, kind: Phase, body: TaskBody) -> u64 {
        let inner = &self.inner;
        // Register with the sanitizer first: spawn order is a topological
        // order of the declared graph, which is what lets depsan compute
        // happens-before closures at spawn time.
        let san_id = if inner.san_rt != 0 {
            let decls: Vec<depsan::DeclAccess> = accesses
                .iter()
                .map(|a| depsan::DeclAccess {
                    obj: a.region.obj.0,
                    start: a.region.start,
                    end: a.region.end,
                    write: a.mode.is_write(),
                })
                .collect();
            depsan::task_spawned(inner.san_rt, kind.name(), inner.rank(), &decls)
        } else {
            0
        };
        let task = Arc::new(TaskShared {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            san_id,
            priority,
            kind,
            accesses,
            body: Mutex::new(Some(body)),
            // One guard count held through registration so the task cannot
            // become ready while its edges are still being created.
            pending: AtomicUsize::new(1),
            events: AtomicUsize::new(1),
            state: Mutex::new(TaskLinks {
                released: false,
                successors: SuccessorList::new(),
            }),
            rt: Arc::clone(inner),
        });
        let live_now = inner.live.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(live_set) = &inner.live_set {
            live_set.insert(task.id, Arc::downgrade(&task));
        }
        let edges = inner.registry.register(&task);
        inner.stat_spawned.fetch_add(1, Ordering::Relaxed);
        inner.stat_edges.fetch_add(edges as u64, Ordering::Relaxed);
        if edges == 0 {
            inner.stat_ready_at_spawn.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                inner.rank(),
                obs::EventData::TaskCreated {
                    id: task.id,
                    kind: task.kind,
                    preds: edges as u32,
                },
            );
            if let Some(m) = &inner.obs_metrics {
                m.live_hwm.fetch_max(live_now as i64);
            }
        }
        // Drop the registration guard; enqueues if no predecessor is live.
        task.dep_satisfied(false);
        san_id
    }

    /// Blocks until every spawned task (including tasks spawned by tasks)
    /// has released its dependencies.
    ///
    /// Must be called from outside task bodies (the main thread of a
    /// rank); calling it from inside a task would stall a worker.
    pub fn taskwait(&self) {
        debug_assert!(
            crate::task::current_task_id().is_none(),
            "taskwait called from inside a task body"
        );
        let mut guard = self.inner.wait_lock.lock();
        // Only a taskwait that actually blocks becomes a wait span.
        let wait_from = if self.inner.live.load(Ordering::Acquire) != 0 {
            obs::bus().map(|b| b.now_us())
        } else {
            None
        };
        while self.inner.live.load(Ordering::Acquire) != 0 {
            self.inner.wait_cond.wait(&mut guard);
        }
        drop(guard);
        self.inner.rethrow_poison();
        if let (Some(start_us), Some(bus)) = (wait_from, obs::bus()) {
            bus.emit_for_rank(
                self.inner.rank(),
                obs::EventData::WaitSpan {
                    kind: "taskwait",
                    start_us,
                    end_us: bus.now_us(),
                },
            );
        }
        if self.inner.san_rt != 0 {
            // Everything spawned so far (including event holds, which keep
            // tasks live) happens-before everything spawned from now on.
            depsan::taskwait_joined(self.inner.san_rt);
        }
    }

    /// OmpSs-2 *taskwait with dependencies*: blocks until all live tasks
    /// conflicting with an `inout` access on `regions` have released —
    /// without draining the rest of the task graph.
    pub fn taskwait_on(&self, regions: &[Region]) {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&done);
        let accesses: AccessList = regions.iter().cloned().map(Access::read_write).collect();
        let waiter_san = self.spawn_boxed(
            accesses,
            // Jump the queue: the waiter should run as soon as its inputs
            // are quiescent.
            i32::MAX,
            Phase::TaskwaitOn,
            Box::new(move || {
                let (lock, cond) = &*signal;
                *lock.lock() = true;
                cond.notify_all();
            }),
        );
        let (lock, cond) = &*done;
        let mut flag = lock.lock();
        while !*flag {
            cond.wait(&mut flag);
        }
        drop(flag);
        self.inner.rethrow_poison();
        if waiter_san != 0 {
            // The waiter (and transitively its whole ancestor closure)
            // happens-before everything spawned from now on.
            depsan::taskwait_on_joined(self.inner.san_rt, waiter_san);
        }
    }

    /// Fork-join helper: runs `f` over `range` split into `chunks`
    /// contiguous pieces (static schedule, like an OpenMP `for`), then
    /// waits for completion. Spawned chunks carry no data dependencies;
    /// note that the final wait is a full [`Runtime::taskwait`].
    pub fn parallel_for<F>(&self, range: std::ops::Range<usize>, chunks: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Send + Sync + 'static,
    {
        let n = range.len();
        if n == 0 {
            return;
        }
        let chunks = chunks.max(1).min(n);
        let f = Arc::new(f);
        let base = range.start;
        for c in 0..chunks {
            let lo = base + n * c / chunks;
            let hi = base + n * (c + 1) / chunks;
            let f = Arc::clone(&f);
            self.spawn(Vec::new(), move || f(lo..hi));
        }
        self.taskwait();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of lifetime counters.
    pub fn stats(&self) -> RuntimeStats {
        let acquired = self.inner.stat_holds_acquired.load(Ordering::Relaxed);
        let released = self.inner.stat_holds_released.load(Ordering::Relaxed);
        RuntimeStats {
            spawned: self.inner.stat_spawned.load(Ordering::Relaxed),
            edges: self.inner.stat_edges.load(Ordering::Relaxed),
            ready_at_spawn: self.inner.stat_ready_at_spawn.load(Ordering::Relaxed),
            live_tasks: self.inner.live.load(Ordering::Acquire) as u64,
            holds_acquired: acquired,
            outstanding_holds: acquired.saturating_sub(released),
        }
    }

    /// Number of objects with live accesses (diagnostics; 0 after a
    /// `taskwait`).
    pub fn live_objects(&self) -> usize {
        self.inner.registry.live_objects()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.scheduler.shutdown.store(true, Ordering::Release);
        self.inner.scheduler.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The registry's spawn and edge totals are this runtime's own
        // counters, added once here instead of on every spawn.
        if self.inner.obs_metrics.is_some() {
            let registry = obs::metrics();
            registry
                .counter("taskrt.tasks_spawned")
                .add(self.inner.stat_spawned.load(Ordering::Relaxed));
            registry
                .counter("taskrt.dep_edges")
                .add(self.inner.stat_edges.load(Ordering::Relaxed));
        }
        // Sanitizer finalize lint (all builds, when enabled): leaked
        // tasks/holds become a reported violation instead of silence.
        if self.inner.san_rt != 0 && !std::thread::panicking() {
            let live = self.inner.live.load(Ordering::Acquire);
            let acquired = self.inner.stat_holds_acquired.load(Ordering::Relaxed);
            let released = self.inner.stat_holds_released.load(Ordering::Relaxed);
            if live != 0 || acquired != released {
                depsan::report(depsan::Violation {
                    kind: depsan::ViolationKind::FinalizeLeak,
                    rank: self.inner.rank(),
                    task: 0,
                    label: String::new(),
                    obj: 0,
                    detail: format!(
                        "runtime dropped with {live} unreleased task(s) and {} outstanding event hold(s) — missing taskwait or leaked EventHold",
                        acquired.saturating_sub(released),
                    ),
                });
            }
        }
        // Leak check (debug builds): a runtime dropped with live tasks or
        // unreleased event holds abandoned work — almost always a missing
        // `taskwait` or a leaked `EventHold` whose completion callback
        // never fired.
        #[cfg(debug_assertions)]
        if !std::thread::panicking() {
            let live = self.inner.live.load(Ordering::Acquire);
            let acquired = self.inner.stat_holds_acquired.load(Ordering::Relaxed);
            let released = self.inner.stat_holds_released.load(Ordering::Relaxed);
            assert!(
                live == 0 && acquired == released,
                "Runtime dropped with {live} unreleased task(s) and {} outstanding event hold(s) \
                 — missing taskwait or leaked EventHold",
                acquired.saturating_sub(released),
            );
        }
    }
}

/// Fluent task construction: accesses, priority, kind, body.
pub struct TaskBuilder<'rt> {
    rt: &'rt Runtime,
    accesses: AccessList,
    priority: i32,
    kind: Phase,
    body: Option<TaskBody>,
}

impl<'rt> TaskBuilder<'rt> {
    /// Declares a read (`in`) dependency.
    pub fn input(mut self, region: Region) -> Self {
        self.accesses.push(Access::read(region));
        self
    }

    /// Declares a write (`out`) dependency.
    pub fn out(mut self, region: Region) -> Self {
        self.accesses.push(Access::write(region));
        self
    }

    /// Declares a read-write (`inout`) dependency.
    pub fn inout(mut self, region: Region) -> Self {
        self.accesses.push(Access::read_write(region));
        self
    }

    /// Adds a pre-built access (multi-dependency friendly).
    pub fn access(mut self, access: Access) -> Self {
        self.accesses.push(access);
        self
    }

    /// Adds many accesses at once (the paper's multideps).
    pub fn accesses(mut self, iter: impl IntoIterator<Item = Access>) -> Self {
        self.accesses.extend(iter);
        self
    }

    /// Scheduling priority (higher runs earlier among ready tasks).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// The task's kind, carried into its lifecycle events, sanitizer
    /// reports and diagnostics ([`Phase::Other`] if never set).
    pub fn kind(mut self, kind: Phase) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the task body.
    pub fn body(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        self.body = Some(Box::new(body));
        self
    }

    /// Spawns the task.
    ///
    /// # Panics
    ///
    /// Panics if no body was set.
    pub fn spawn(self) {
        let body = self.body.expect("task spawned without a body");
        self.rt
            .spawn_boxed(self.accesses, self.priority, self.kind, body);
    }
}
