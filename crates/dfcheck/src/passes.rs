//! The verification passes: send/receive matching, deadlock freedom,
//! access coverage.

use crate::graph::{EdgeKind, Graph};
use crate::model::{Model, NodeKind};
use crate::report::{Finding, Report, Site};
use std::collections::{BTreeMap, HashSet};
use taskrt::AccessMode;

/// Send/receive matching: groups endpoints by `(src, dst, tag)` and
/// requires (a) user tags in the valid range, (b) equal send/receive
/// counts, (c) a total dependency order over each side of the group —
/// otherwise two same-tag operations can be live concurrently and the
/// transport may pair them out of order (tag collision) — and (d) equal
/// payload sizes for the k-th matched pair.
pub fn check_matching(model: &Model, graph: &Graph, report: &mut Report) {
    for ((src, dst, tag), (sends, recvs)) in endpoint_groups(model) {
        if vmpi::in_collective_tag_space(tag) {
            // Distinct from a merely out-of-range tag: this one *would*
            // match — against the runtime's own collective traffic,
            // which runs above `COLL_TAG_BASE` on derived channels.
            report.push_error(Finding {
                code: "tag-in-collective-space",
                message: format!(
                    "tag {} from rank {} to rank {} lies in the reserved collective tag space [{}, {}] — user traffic there could pair with internal reduce/bcast/barrier rounds",
                    tag,
                    src,
                    dst,
                    vmpi::COLL_TAG_BASE,
                    i32::MAX
                ),
                sites: first_sites(model, &sends, &recvs),
                chain: vec![],
            });
        } else if !vmpi::valid_user_tag(tag) {
            report.push_error(Finding {
                code: "tag-out-of-range",
                message: format!(
                    "tag {} from rank {} to rank {} is outside the transport's user tag range [0, {})",
                    tag,
                    src,
                    dst,
                    vmpi::TAG_UB
                ),
                sites: first_sites(model, &sends, &recvs),
                chain: vec![],
            });
        }
        if sends.len() != recvs.len() {
            report.push_error(Finding {
                code: "unmatched-endpoint",
                message: format!(
                    "tag {} from rank {} to rank {}: {} send(s) but {} receive(s) — every posted receive needs exactly one live matching send",
                    tag,
                    src,
                    dst,
                    sends.len(),
                    recvs.len()
                ),
                sites: first_sites(model, &sends, &recvs),
                chain: vec![],
            });
        }
        // Ordering: consecutive same-tag operations on each side must be
        // connected by a dependency path, or the pairing is ambiguous.
        // One finding per side per group keeps the report readable — the
        // first unordered pair is the root cause, the rest are echoes.
        for (side, nodes, other) in [("send", &sends, &recvs), ("receive", &recvs, &sends)] {
            for w in nodes.windows(2) {
                if graph.ordered(model, w[0], w[1]) {
                    continue;
                }
                let mut sites = vec![Site::of(&model.nodes[w[0]]), Site::of(&model.nodes[w[1]])];
                // Name the peer-side endpoints these would pair with.
                let i0 = nodes.iter().position(|&n| n == w[0]).unwrap_or(0);
                for k in [i0, i0 + 1] {
                    if let Some(&p) = other.get(k) {
                        sites.push(Site::of(&model.nodes[p]));
                    }
                }
                report.push_error(Finding {
                    code: "tag-collision",
                    message: format!(
                        "tag {} from rank {} to rank {}: consecutive {}s are not ordered by any dependency path, so both can be live at once and match out of order",
                        tag, src, dst, side
                    ),
                    sites,
                    chain: vec![],
                });
                break;
            }
        }
        for (k, (&s, &r)) in sends.iter().zip(recvs.iter()).enumerate() {
            let (se, re) = (
                model.nodes[s].comm.as_ref().unwrap().elems,
                model.nodes[r].comm.as_ref().unwrap().elems,
            );
            if se != re {
                report.push_error(Finding {
                    code: "size-mismatch",
                    message: format!(
                        "tag {} from rank {} to rank {}: pair {} sends {} element(s) but the receive expects {}",
                        tag, src, dst, k, se, re
                    ),
                    sites: vec![Site::of(&model.nodes[s]), Site::of(&model.nodes[r])],
                    chain: vec![],
                });
            }
        }
    }
}

/// Deadlock freedom: adds the send→receive message edges (k-th send to
/// k-th receive of each endpoint group) on top of the intra-rank graph
/// and searches for a cycle. A cycle means a set of tasks each waiting
/// on the next — the static analogue of the runtime watchdog's blocked
/// chain — and is reported as a causal chain.
pub fn check_deadlock(model: &Model, graph: &Graph, report: &mut Report) {
    let n = model.nodes.len();
    // succ list + the edge annotation for chain rendering.
    let mut succs: Vec<Vec<(usize, &'static str)>> = vec![Vec::new(); n];
    for (id, ps) in graph.preds.iter().enumerate() {
        for &(p, kind) in ps {
            let why = match kind {
                EdgeKind::Dep => "dependency",
                EdgeKind::Barrier => "barrier",
            };
            succs[p].push((id, why));
        }
    }
    for (_, (sends, recvs)) in endpoint_groups(model) {
        for (&s, &r) in sends.iter().zip(recvs.iter()) {
            succs[s].push((r, "message"));
        }
    }
    // Iterative colored DFS; the first back edge yields the cycle.
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        // Stack of (node, next-successor-index).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = GREY;
        while let Some(&(node, idx)) = stack.last() {
            if idx < succs[node].len() {
                stack.last_mut().unwrap().1 += 1;
                let (next, why) = succs[node][idx];
                match color[next] {
                    WHITE => {
                        color[next] = GREY;
                        stack.push((next, 0));
                    }
                    GREY => {
                        // Cycle: slice the stack from `next` to `node`.
                        let start = stack.iter().position(|&(x, _)| x == next).unwrap();
                        let cycle: Vec<usize> = stack[start..].iter().map(|&(x, _)| x).collect();
                        let mut chain = Vec::new();
                        for (i, &a) in cycle.iter().enumerate() {
                            let b = cycle[(i + 1) % cycle.len()];
                            let link = succs[a]
                                .iter()
                                .find(|&&(x, _)| x == b)
                                .map(|&(_, w)| w)
                                .unwrap_or(if i + 1 == cycle.len() {
                                    why
                                } else {
                                    "dependency"
                                });
                            chain.push(format!(
                                "{} waits-for {} via {} edge",
                                Site::of(&model.nodes[a]).label_line(),
                                Site::of(&model.nodes[b]).label_line(),
                                link
                            ));
                        }
                        report.push_error(Finding {
                            code: "deadlock-cycle",
                            message: format!(
                                "wait-for cycle of {} node(s) across {} rank(s): no execution order can satisfy it",
                                cycle.len(),
                                cycle
                                    .iter()
                                    .map(|&x| model.nodes[x].rank)
                                    .collect::<HashSet<_>>()
                                    .len()
                            ),
                            sites: cycle.iter().map(|&x| Site::of(&model.nodes[x])).collect(),
                            chain,
                        });
                        return; // one cycle is enough; the rest are echoes
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
}

/// Access-coverage lints:
///
/// * **undeclared-access** (error): a buffer footprint the elaborator
///   derived for the task body is not covered by the union of declared
///   regions of a compatible mode — the runtime would not order it.
/// * **dead-region** (warning): a declared region is empty, so it can
///   never order anything.
/// * **self-conflict** (warning): two accesses of one task conflict with
///   each other; legal, but usually a sign of a miscomputed region.
pub fn check_access(model: &Model, report: &mut Report) {
    for node in &model.nodes {
        if !matches!(node.kind, NodeKind::Task(_)) {
            continue;
        }
        for (i, a) in node.accesses.iter().enumerate() {
            if a.region.is_empty() {
                report.push_warning(Finding {
                    code: "dead-region",
                    message: format!(
                        "declared access {} ({:?} [{}, {}) on obj {:?}) is empty and can never order anything",
                        i, a.mode, a.region.start, a.region.end, a.region.obj
                    ),
                    sites: vec![Site::of(node)],
                    chain: vec![],
                });
            }
            for (j, b) in node.accesses.iter().enumerate().skip(i + 1) {
                if a.conflicts_with(b) {
                    report.push_warning(Finding {
                        code: "self-conflict",
                        message: format!(
                            "declared accesses {} and {} of one task conflict ({:?} [{}, {}) vs {:?} [{}, {}) on obj {:?})",
                            i,
                            j,
                            a.mode,
                            a.region.start,
                            a.region.end,
                            b.mode,
                            b.region.start,
                            b.region.end,
                            a.region.obj
                        ),
                        sites: vec![Site::of(node)],
                        chain: vec![],
                    });
                }
            }
        }
        for f in &node.footprint {
            let writes = f.mode.is_write();
            let declared: Vec<(usize, usize)> = node
                .accesses
                .iter()
                .filter(|a| a.region.obj == f.region.obj && (!writes || a.mode != AccessMode::In))
                .map(|a| (a.region.start, a.region.end))
                .collect();
            if !covered(f.region.start, f.region.end, declared) {
                report.push_error(Finding {
                    code: "undeclared-access",
                    message: format!(
                        "task body {}s [{}, {}) on obj {:?} but no declared {} region covers it — the runtime cannot order this access",
                        if writes { "write" } else { "read" },
                        f.region.start,
                        f.region.end,
                        f.region.obj,
                        if writes { "out/inout" } else { "in" },
                    ),
                    sites: vec![Site::of(node)],
                    chain: vec![],
                });
            }
        }
    }
}

/// Whether `[start, end)` is covered by the union of the intervals.
fn covered(start: usize, end: usize, mut ivals: Vec<(usize, usize)>) -> bool {
    if start >= end {
        return true;
    }
    ivals.retain(|&(s, e)| s < e);
    ivals.sort_unstable();
    let mut cursor = start;
    for (s, e) in ivals {
        if s > cursor {
            break;
        }
        cursor = cursor.max(e);
        if cursor >= end {
            return true;
        }
    }
    cursor >= end
}

/// An endpoint group's key: `(src rank, dst rank, tag)`.
type GroupKey = (usize, usize, i32);
/// A group's members: (send node ids, receive node ids).
type GroupSides = (Vec<usize>, Vec<usize>);

/// Endpoint groups: `(src, dst, tag)` → (send node ids, receive node
/// ids), each side in per-rank spawn order. BTreeMap for deterministic
/// report ordering.
fn endpoint_groups(model: &Model) -> BTreeMap<GroupKey, GroupSides> {
    let mut groups: BTreeMap<GroupKey, GroupSides> = BTreeMap::new();
    for rank_nodes in &model.by_rank {
        for &id in rank_nodes {
            let node = &model.nodes[id];
            if let Some(c) = &node.comm {
                match c.kind {
                    taskrt::CommKind::Send => groups
                        .entry((node.rank, c.peer, c.tag))
                        .or_default()
                        .0
                        .push(id),
                    taskrt::CommKind::Recv => groups
                        .entry((c.peer, node.rank, c.tag))
                        .or_default()
                        .1
                        .push(id),
                }
            }
        }
    }
    groups
}

fn first_sites(model: &Model, sends: &[usize], recvs: &[usize]) -> Vec<Site> {
    sends
        .iter()
        .chain(recvs.iter())
        .take(4)
        .map(|&id| Site::of(&model.nodes[id]))
        .collect()
}

impl Site {
    fn label_line(&self) -> String {
        format!(
            "rank {} seq {} [{}] {}",
            self.rank, self.seq, self.label, self.detail
        )
    }
}
