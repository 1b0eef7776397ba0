//! The dependency registry: per-object live access histories.
//!
//! For every object with live (unreleased) accesses, the registry keeps
//! the list of `(task, access)` pairs in spawn order. Registering a new
//! task links it behind every live conflicting access; releasing a task
//! removes its entries.
//!
//! ## Lock ordering
//!
//! Registration takes *shard lock → predecessor task state lock*; release
//! takes the task's own state lock first, **drops it**, and only then
//! takes shard locks for removal. The two paths therefore never hold a
//! state lock and a shard lock in opposite order, which rules out
//! deadlock. Registration observing a task whose `released` flag is set
//! but whose registry entries are not yet removed simply skips the edge —
//! the data is already available.

use crate::region::ObjId;
use crate::task::TaskShared;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const SHARDS: usize = 16;

struct LiveAccess {
    task: Arc<TaskShared>,
    /// Index into the task's `accesses` vector.
    access_idx: usize,
}

#[derive(Default)]
struct Shard {
    objects: HashMap<ObjId, Vec<LiveAccess>>,
}

pub(crate) struct Registry {
    shards: Vec<Mutex<Shard>>,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    fn shard_of(&self, obj: ObjId) -> &Mutex<Shard> {
        // Scramble the id a little: sequential ObjIds would otherwise pile
        // into neighbouring shards in lockstep.
        let h = obj.0.wrapping_mul(0x9e3779b97f4a7c15);
        &self.shards[(h >> 56) as usize % SHARDS]
    }

    /// Registers all accesses of `task`, adding one pending count per
    /// conflicting live predecessor. Returns the number of predecessor
    /// edges created (for stats).
    pub(crate) fn register(&self, task: &Arc<TaskShared>) -> usize {
        let mut edges = 0;
        for (idx, access) in task.accesses.iter().enumerate() {
            let mut shard = self.shard_of(access.region.obj).lock();
            let live = shard.objects.entry(access.region.obj).or_default();
            for entry in live.iter() {
                // A task may declare several accesses on one object; never
                // link a task behind itself.
                if entry.task.id == task.id {
                    continue;
                }
                let prior = &entry.task.accesses[entry.access_idx];
                if prior.conflicts_with(access) {
                    let mut links = entry.task.state.lock();
                    if !links.released {
                        // Avoid duplicate edges between the same pair: a
                        // duplicate would double-count in `pending`.
                        if !links.successors.iter().any(|s| s.id == task.id) {
                            links.successors.push(Arc::clone(task));
                            task.pending
                                .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                            edges += 1;
                            if let Some(bus) = obs::bus() {
                                bus.emit_for_rank(
                                    task.rt.rank(),
                                    obs::EventData::DepEdge {
                                        pred: entry.task.id,
                                        succ: task.id,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            live.push(LiveAccess {
                task: Arc::clone(task),
                access_idx: idx,
            });
        }
        edges
    }

    /// Removes all registry entries of a released task.
    pub(crate) fn remove_task(&self, task: &Arc<TaskShared>) {
        for access in task.accesses.iter() {
            let mut shard = self.shard_of(access.region.obj).lock();
            if let Some(live) = shard.objects.get_mut(&access.region.obj) {
                live.retain(|e| e.task.id != task.id);
                if live.is_empty() {
                    shard.objects.remove(&access.region.obj);
                }
            }
        }
    }

    /// Number of objects with live accesses (diagnostics).
    pub(crate) fn live_objects(&self) -> usize {
        self.shards.iter().map(|s| s.lock().objects.len()).sum()
    }
}
