//! Layer probes: each times public functions of one layer at the
//! workload's own block shape, task count or message size, so each
//! number is tied to the workload it explains.

use crate::report::Metrics;
use crate::spans::{SpanId, Spans};
use amr_mesh::block_id::{BlockId, Dir, Side};
use amr_mesh::data::{merge_children, split_block, BlockData, BlockLayout};
use amr_mesh::{checksum, face, stencil};
use miniamr::Config;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskrt::{ObjId, Region, Runtime};
use vmpi::{NetworkModel, SharedBuffer, World};

/// Measuring time per probe.
const PROBE_TIME: Duration = Duration::from_millis(150);
/// Fewest batches a probe's median is taken over.
const MIN_BATCHES: usize = 5;
/// Operations per batch of the two-rank probes.
const PAIR_OPS: u64 = 100;

/// Median over batches of seconds per operation; `op` runs one
/// operation. Each batch repeats `op` for about a millisecond, so timer
/// overhead stays out of small kernels.
fn per_op(mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    op();
    let reps = (1e-3 / t.elapsed().as_secs_f64().max(1e-9))
        .ceil()
        .clamp(1.0, 1e6) as u64;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || start.elapsed() < PROBE_TIME {
        let t = Instant::now();
        for _ in 0..reps {
            op();
        }
        samples.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    crate::report::median(&mut samples)
}

/// [`per_op`] over a fixed number of batches, for probes whose two ranks
/// must run the same number of operations.
fn per_op_n(mut batch: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..MIN_BATCHES)
        .map(|_| {
            let t = Instant::now();
            let ops = batch();
            t.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    crate::report::median(&mut samples)
}

/// What the probes are sized from.
pub struct ProbeShape {
    /// Mean payload of the workload's face messages, bytes.
    pub msg_bytes: u64,
    /// Tasks one rank spawns per stage in the data-flow variant.
    pub tasks_per_stage: u64,
    /// Blocks one rank owns at the end of the run.
    pub blocks_per_rank: u64,
}

/// Runs every probe, each in its own span, appending its metric.
pub fn run_all(
    cfg: &Config,
    net: &NetworkModel,
    shape: &ProbeShape,
    spans: &Spans,
    run: usize,
    m: &mut Metrics,
) {
    let root = spans.begin(run, 0, "probes");
    mesh_probes(cfg, spans, run, root, m);
    let elems = (shape.msg_bytes / 8).max(1) as usize;
    let take_ns = spans.time(run, root, "probe.shmem.take", || {
        let pool = shmem::BufferPool::new();
        drop(pool.take(elems));
        per_op(|| {
            black_box(pool.take(elems).len());
        })
    });
    m.push("shmem.take_ns", take_ns * 1e9, "ns");
    let n = shape.tasks_per_stage.max(1) as usize;
    let workers = cfg.workers;
    let indep = spans.time(run, root, "probe.taskrt.spawn_indep", || {
        let rt = Runtime::new(workers);
        per_op(|| {
            for _ in 0..n {
                rt.spawn(Vec::new(), || {});
            }
            rt.taskwait();
        })
    });
    m.push("taskrt.spawn_indep_ns", indep * 1e9 / n as f64, "ns");
    // One dependency chain per block, as a stage chains each block's
    // tasks. (A single chain of all the stage's tasks on one object is
    // not the workload's shape, and the claim table links each task
    // behind every live access of the object, which blows up when the
    // worker falls behind the spawner.)
    let chained = spans.time(run, root, "probe.taskrt.spawn_chained", || {
        let rt = Runtime::new(workers);
        let objs: Vec<ObjId> = (0..shape.blocks_per_rank.max(1))
            .map(|_| ObjId::fresh())
            .collect();
        per_op(|| {
            for i in 0..n {
                let obj = objs[i % objs.len()];
                rt.task().inout(Region::new(obj, 0..1)).body(|| {}).spawn();
            }
            rt.taskwait();
        })
    });
    m.push("taskrt.spawn_chained_ns", chained * 1e9 / n as f64, "ns");
    let tampi_s = spans.time(run, root, "probe.tampi.bound_exchange", || {
        tampi_exchange(net, workers, elems)
    });
    m.push("tampi.bound_exchange_us", tampi_s * 1e6, "us");
    let pp = spans.time(run, root, "probe.vmpi.pingpong", || pingpong(net, elems));
    m.push("vmpi.pingpong_us", pp * 1e6, "us");
    spans.end(root);
}

fn mesh_probes(cfg: &Config, spans: &Spans, run: usize, parent: SpanId, m: &mut Metrics) {
    let p = &cfg.params;
    let l = BlockLayout::of(p);
    let vars = p.num_vars;
    let cellvars = (l.cells() * vars) as f64;
    let a = BlockData::initialized(BlockId::new(0, 0, 0, 0), p);
    let b = BlockData::initialized(BlockId::new(0, 1, 0, 0), p);

    let t = spans.time(run, parent, "probe.mesh.stencil", || {
        per_op(|| stencil::apply_stencil(&a, &l, cfg.stencil, 0..vars))
    });
    m.push("mesh.stencil_ns_per_cellvar", t * 1e9 / cellvars, "ns");

    // Face copies carry one communication group, as a message does.
    let group = cfg.var_group(0);
    let gv = group.len();
    let mut bufs: Vec<(Dir, Vec<f64>)> = [Dir::X, Dir::Y, Dir::Z]
        .into_iter()
        .map(|d| (d, vec![0.0; gv * l.face_cells(d)]))
        .collect();
    let face_elems: usize = bufs.iter().map(|(_, v)| v.len()).sum();
    let t = spans.time(run, parent, "probe.mesh.face_copy", || {
        per_op(|| {
            for (d, buf) in bufs.iter_mut() {
                face::extract_face_into(&a, &l, *d, Side::Hi, group.clone(), buf);
                face::inject_ghost_face(&b, &l, *d, Side::Lo, group.clone(), buf);
            }
        })
    });
    m.push(
        "mesh.face_copy_ns_per_elem",
        t * 1e9 / face_elems as f64,
        "ns",
    );

    let (n1, n2) = face::face_dims(&l, Dir::X);
    let full = face::extract_face(&a, &l, Dir::X, Side::Hi, group.clone());
    let t = spans.time(run, parent, "probe.mesh.restrict", || {
        per_op(|| {
            black_box(face::restrict_face(&full, n1, n2, gv));
        })
    });
    m.push(
        "mesh.restrict_ns_per_elem",
        t * 1e9 / full.len() as f64,
        "ns",
    );
    let quarter = face::restrict_face(&full, n1, n2, gv);
    let t = spans.time(run, parent, "probe.mesh.prolong", || {
        per_op(|| {
            black_box(face::prolong_face(&quarter, n1, n2, gv));
        })
    });
    m.push(
        "mesh.prolong_ns_per_elem",
        t * 1e9 / full.len() as f64,
        "ns",
    );

    let t = spans.time(run, parent, "probe.mesh.split", || {
        per_op(|| {
            black_box(split_block(&a, p));
        })
    });
    m.push("mesh.split_us", t * 1e6, "us");
    let children = split_block(&a, p);
    let t = spans.time(run, parent, "probe.mesh.merge", || {
        per_op(|| {
            black_box(merge_children(&children, p));
        })
    });
    m.push("mesh.merge_us", t * 1e6, "us");

    let t = spans.time(run, parent, "probe.mesh.checksum", || {
        per_op(|| {
            black_box(checksum::block_sums(&a, &l, 0..vars));
        })
    });
    m.push("mesh.checksum_ns_per_cellvar", t * 1e9 / cellvars, "ns");
}

/// Seconds per task-bound exchange (send task on rank 0; receive task
/// plus consumer on rank 1) of `elems` doubles, inside one world, as
/// rank 1 sees it.
fn tampi_exchange(net: &NetworkModel, workers: usize, elems: usize) -> f64 {
    let world = World::new(2, net.clone());
    world.run(|comm| {
        let comm = Arc::new(comm);
        let rt = Runtime::new(workers);
        let payload = vec![1.0f64; elems];
        let buf = SharedBuffer::<f64>::new(elems);
        let obj = ObjId::fresh();
        per_op_n(|| {
            for _ in 0..PAIR_OPS {
                if comm.rank() == 0 {
                    let (c, data) = (Arc::clone(&comm), payload.clone());
                    rt.task()
                        .body(move || tampi::isend(&c, &data, 1, 0).expect("probe send"))
                        .spawn();
                } else {
                    let (c, slice) = (Arc::clone(&comm), buf.full());
                    rt.task()
                        .out(Region::new(obj, 0..elems))
                        .body(move || tampi::irecv_into(&c, slice, 0, 0).expect("probe recv"))
                        .spawn();
                    let slice = buf.full();
                    rt.task()
                        .input(Region::new(obj, 0..elems))
                        .body(move || assert_eq!(slice.to_vec()[0], 1.0))
                        .spawn();
                }
                rt.taskwait();
            }
            PAIR_OPS
        })
    })[1]
}

/// Seconds per round trip of `elems` doubles between two ranks.
fn pingpong(net: &NetworkModel, elems: usize) -> f64 {
    let world = World::new(2, net.clone());
    let payload = vec![1.0f64; elems];
    world.run(|comm| {
        let peer = 1 - comm.rank();
        per_op_n(|| {
            for _ in 0..PAIR_OPS {
                if comm.rank() == 0 {
                    comm.send(&payload, peer, 0).expect("probe send");
                    black_box(comm.recv::<f64>(peer as i32, 1).expect("probe recv"));
                } else {
                    black_box(comm.recv::<f64>(peer as i32, 0).expect("probe recv"));
                    comm.send(&payload, peer, 1).expect("probe send");
                }
            }
            PAIR_OPS
        })
    })[0]
}
