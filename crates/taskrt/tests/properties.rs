//! Property-based tests: the runtime's execution order is always a
//! linearization of the dependency partial order, under arbitrary DAGs,
//! worker counts, scheduling policies, and external-event timing.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taskrt::{Access, ObjId, Region, Runtime, RuntimeConfig};

#[derive(Debug, Clone)]
struct TaskSpec {
    accesses: Vec<(u8, u8, u8, u8)>, // (obj, start, len, mode 0=in 1=out 2=inout)
}

fn arb_spec() -> impl Strategy<Value = TaskSpec> {
    prop::collection::vec((0u8..4, 0u8..24, 1u8..8, 0u8..3), 1..4)
        .prop_map(|accesses| TaskSpec { accesses })
}

fn to_accesses(spec: &TaskSpec, objs: &[ObjId]) -> Vec<Access> {
    spec.accesses
        .iter()
        .map(|&(o, start, len, mode)| {
            let region = Region::new(objs[o as usize], start as usize..(start + len) as usize);
            match mode {
                0 => Access::read(region),
                1 => Access::write(region),
                _ => Access::read_write(region),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every conflicting pair (i earlier than j in spawn order), the
    /// completion stamps satisfy stamp(i) < stamp(j).
    #[test]
    fn execution_linearizes_the_partial_order(
        specs in prop::collection::vec(arb_spec(), 2..30),
        workers in 1usize..5,
        immediate in any::<bool>(),
    ) {
        let rt = Runtime::with_config(RuntimeConfig {
            workers,
            immediate_successor: immediate,
        });
        let objs: Vec<ObjId> = (0..4).map(|_| ObjId::fresh()).collect();
        let n = specs.len();
        let seq = Arc::new(AtomicUsize::new(0));
        let stamps: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let accesses: Vec<Vec<Access>> =
            specs.iter().map(|s| to_accesses(s, &objs)).collect();
        for (i, acc) in accesses.iter().enumerate() {
            let seq = Arc::clone(&seq);
            let stamps = Arc::clone(&stamps);
            rt.spawn(acc.clone(), move || {
                stamps[i].store(seq.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            });
        }
        rt.taskwait();
        for i in 0..n {
            for j in (i + 1)..n {
                let conflict = accesses[i]
                    .iter()
                    .any(|a| accesses[j].iter().any(|b| a.conflicts_with(b)));
                if conflict {
                    let (si, sj) = (
                        stamps[i].load(Ordering::SeqCst),
                        stamps[j].load(Ordering::SeqCst),
                    );
                    prop_assert!(si < sj, "conflicting tasks {i}->{j} ran as {si},{sj}");
                }
            }
        }
        prop_assert_eq!(rt.live_objects(), 0);
    }

    /// Event holds released from a foreign thread at arbitrary delays
    /// never break the ordering guarantee.
    #[test]
    fn event_holds_preserve_ordering(delay_us in 0u64..300, chain in 2usize..8) {
        let rt = Runtime::new(2);
        let obj = ObjId::fresh();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel::<taskrt::EventHold>();
        // First task defers its release through an external event.
        let l = Arc::clone(&log);
        rt.task()
            .out(Region::new(obj, 0..8))
            .body(move || {
                l.lock().push(0usize);
                tx.send(taskrt::current_event_hold()).unwrap();
            })
            .spawn();
        for i in 1..chain {
            let l = Arc::clone(&log);
            rt.task()
                .inout(Region::new(obj, 0..8))
                .body(move || l.lock().push(i))
                .spawn();
        }
        let hold = rx.recv().unwrap();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            hold.release();
        });
        rt.taskwait();
        releaser.join().unwrap();
        let log = log.lock();
        prop_assert_eq!(&*log, &(0..chain).collect::<Vec<_>>());
    }

    /// taskwait_on never returns before the named regions are quiescent.
    #[test]
    fn taskwait_on_quiescence(writers in 1usize..6) {
        let rt = Runtime::new(3);
        let obj = ObjId::fresh();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..writers {
            let done = Arc::clone(&done);
            rt.task()
                .inout(Region::new(obj, 0..4))
                .body(move || {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .spawn();
        }
        rt.taskwait_on(&[Region::new(obj, 0..4)]);
        prop_assert_eq!(done.load(Ordering::SeqCst), writers);
        rt.taskwait();
    }
}
