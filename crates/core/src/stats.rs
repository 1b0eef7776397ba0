//! Per-run statistics: phase timers, operation counts, checksum history.

use std::time::{Duration, Instant};

/// Wall time spent in each phase of the main loop, per rank.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    /// Ghost-face exchange (pack/send/recv/unpack/local copies).
    pub communicate: Duration,
    /// Stencil sweeps.
    pub stencil: Duration,
    /// Checksum computation and validation.
    pub checksum: Duration,
    /// Refinement: decision, split/merge copies, block exchange, load
    /// balancing.
    pub refine: Duration,
    /// Whole run.
    pub total: Duration,
}

impl PhaseTimes {
    /// Everything except refinement — the paper's "No Refine" column
    /// (Table I) and "NR" efficiency series (Figures 4–5).
    pub fn non_refine(&self) -> Duration {
        self.total.saturating_sub(self.refine)
    }
}

/// Results of one rank's run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Rank that produced these stats.
    pub rank: usize,
    /// Phase wall times.
    pub times: PhaseTimes,
    /// Floating-point operations executed in stencil sweeps (the
    /// mini-app's reported operation count, used for GFLOPS).
    pub flops: u64,
    /// Checksum history: one entry per validation point, per variable —
    /// identical across variants for the same configuration.
    pub checksums: Vec<Vec<f64>>,
    /// Validations that passed.
    pub checksums_passed: usize,
    /// Validations that failed (should be 0).
    pub checksums_failed: usize,
    /// Blocks owned at the end of the run.
    pub final_blocks: usize,
    /// Messages sent during communicate phases.
    pub msgs_sent: u64,
    /// Elements sent during communicate phases.
    pub elems_sent: u64,
    /// Blocks moved in/out during refinement + load balancing.
    pub blocks_moved: u64,
    /// Checkpoints published to the recovery store (`--ckpt_freq`).
    pub checkpoints_taken: usize,
    /// Tasks spawned (hybrid variants).
    pub tasks_spawned: u64,
    /// Always 0: the runtime analyses every spawn afresh and never
    /// replays a cached task graph. Kept so existing readers of the
    /// stats (the end-to-end benchmark) still compile.
    pub tasks_replayed: u64,
    /// Always 0 (no task-graph cache; see `tasks_replayed`).
    pub trace_hits: u64,
    /// Always 0 (no task-graph cache; see `tasks_replayed`).
    pub trace_invalidations: u64,
    /// Buffer-pool reuse counters at the end of the run (hit rate ≈ 1
    /// once the pool is warm — allocation-free steady state).
    pub pool: shmem::PoolStats,
}

impl RunStats {
    /// Deterministic fingerprint of the full checksum history: an FNV-1a
    /// fold over the raw bit patterns of every recorded checksum value.
    /// Equal across ranks (checksums are broadcast) and — the chaos
    /// headline guarantee — bitwise-equal between a faulted run that
    /// stayed within the retry budget and the fault-free run.
    pub fn checksum_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for point in &self.checksums {
            for v in point {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Throughput in GFLOPS over the total wall time.
    pub fn gflops(&self) -> f64 {
        if self.times.total.is_zero() {
            0.0
        } else {
            self.flops as f64 / self.times.total.as_secs_f64() / 1e9
        }
    }
}

/// Simple scoped stopwatch accumulating into a `Duration`.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Stops and accumulates into `into`.
    pub fn stop(self, into: &mut Duration) {
        *into += self.start.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_refine_subtracts() {
        let t = PhaseTimes {
            total: Duration::from_secs(10),
            refine: Duration::from_secs(3),
            ..Default::default()
        };
        assert_eq!(t.non_refine(), Duration::from_secs(7));
    }

    #[test]
    fn gflops_computation() {
        let s = RunStats {
            flops: 2_000_000_000,
            times: PhaseTimes {
                total: Duration::from_secs(2),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.gflops() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stopwatch_accumulates() {
        let mut acc = Duration::ZERO;
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop(&mut acc);
        assert!(acc >= Duration::from_millis(4));
    }
}
