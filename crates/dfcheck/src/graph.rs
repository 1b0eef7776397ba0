//! Intra-rank wait-for graph construction and reachability.
//!
//! Edges are derived exactly as the runtime's claim table would derive
//! them from the declared accesses, in spawn order:
//!
//! * **Dep** — the node conflicts (overlap, ≥1 write) with an earlier
//!   node's access since the last full barrier.
//! * **Barrier** — ordering through the main thread: a `taskwait` waits
//!   for everything before it, and *any* node submitted after a barrier
//!   is spawned only once the barrier returned, so it is ordered after
//!   it.
//!
//! All intra-rank edges point from an earlier `seq` to a later one, so
//! the per-rank graph is acyclic by construction; cycles can only close
//! through cross-rank message edges (the deadlock pass adds those).

use crate::model::{Model, NodeKind};
use std::collections::HashMap;
use taskrt::ObjId;

/// Why an edge exists (diagnostic rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Conflicting declared accesses (claim-table dependency).
    Dep,
    /// Main-thread ordering through a taskwait / taskwait_on.
    Barrier,
}

/// The intra-rank dependency graph over a [`Model`].
#[derive(Debug)]
pub struct Graph {
    /// Predecessors per node id (earlier-seq nodes of the same rank).
    pub preds: Vec<Vec<(usize, EdgeKind)>>,
    /// Successors per node id.
    pub succs: Vec<Vec<usize>>,
}

impl Graph {
    /// Builds the graph by replaying each rank's stream through a
    /// claim-table-equivalent conflict analysis.
    pub fn build(model: &Model) -> Graph {
        let n = model.nodes.len();
        let mut preds: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); n];
        for rank_nodes in &model.by_rank {
            // Accesses of nodes since the last full barrier, per object.
            let mut per_obj: HashMap<ObjId, Vec<(usize, usize)>> = HashMap::new();
            let mut window: Vec<usize> = Vec::new();
            let mut last_sync: Option<usize> = None;
            for &id in rank_nodes {
                let node = &model.nodes[id];
                let mut p: Vec<(usize, EdgeKind)> = Vec::new();
                match node.kind {
                    NodeKind::TaskwaitAll => {
                        // Waits for every live prior task.
                        for &w in &window {
                            p.push((w, EdgeKind::Barrier));
                        }
                        if let Some(b) = last_sync {
                            p.push((b, EdgeKind::Barrier));
                        }
                        window.clear();
                        per_obj.clear();
                        last_sync = Some(id);
                    }
                    NodeKind::Task(_) | NodeKind::TaskwaitOn => {
                        // Claim-table conflicts with the live window.
                        for a in &node.accesses {
                            if let Some(entries) = per_obj.get(&a.region.obj) {
                                for &(other, ai) in entries {
                                    if model.nodes[other].accesses[ai].conflicts_with(a)
                                        && !p.iter().any(|&(x, _)| x == other)
                                    {
                                        p.push((other, EdgeKind::Dep));
                                    }
                                }
                            }
                        }
                        if let Some(b) = last_sync {
                            if !p.iter().any(|&(x, _)| x == b) {
                                p.push((b, EdgeKind::Barrier));
                            }
                        }
                        // The node's own accesses join the window (a
                        // taskwait_on is the runtime's waiter task: it
                        // holds `inout` claims like any other task).
                        for (ai, a) in node.accesses.iter().enumerate() {
                            per_obj.entry(a.region.obj).or_default().push((id, ai));
                        }
                        window.push(id);
                        if node.kind == NodeKind::TaskwaitOn {
                            // Blocks the main thread: later submissions
                            // happen-after it.
                            last_sync = Some(id);
                        }
                    }
                }
                preds[id] = p;
            }
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, ps) in preds.iter().enumerate() {
            for &(p, _) in ps {
                succs[p].push(id);
            }
        }
        Graph { preds, succs }
    }

    /// Total intra-rank edge count.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(|p| p.len()).sum()
    }

    /// Whether a dependency path orders `from` before `to` (both on the
    /// same rank, `from.seq < to.seq`). Walks predecessors of `to`,
    /// pruning below `from`'s seq — intra-rank edges always point from
    /// earlier to later seq.
    pub fn ordered(&self, model: &Model, from: usize, to: usize) -> bool {
        debug_assert_eq!(model.nodes[from].rank, model.nodes[to].rank);
        let floor = model.nodes[from].seq;
        let mut stack = vec![to];
        let mut visited = std::collections::HashSet::new();
        while let Some(n) = stack.pop() {
            if n == from {
                return true;
            }
            for &(p, _) in &self.preds[n] {
                if model.nodes[p].seq >= floor && visited.insert(p) {
                    stack.push(p);
                }
            }
        }
        false
    }
}
