//! End-to-end miniAMR benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload amr_paper --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload in-process through the library API, all three
//! variants, with the `Config` and network model the `miniamr` binary
//! builds from the same flags, and checks on every run that the variants
//! agree. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced process that prints the per-layer metrics and writes its spans
//! to `e2ebench/out/`. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the exit
//! code is non-zero on any failure. See `README.md` for the workloads and
//! what each metric should explain.

mod exec;
mod layers;
mod probes;
mod report;
mod spans;
mod workload;

use exec::{run_once, vname, Gate, VARIANTS};
use layers::{steady, steady_walls, unstolen, Sample, Traced};
use miniamr::Variant;
use report::{median, ratio, stolen_share, stolen_ticks, Metrics};
use spans::Spans;
use std::time::Instant;
use workload::Scenario;

/// Set-up-only runs per round of the untraced process; `setup_s` is the
/// median of their wall times, each less its stolen time, over the runs
/// of the quietest rounds. Spreading them over the rounds, rather than
/// running them in one burst, keeps a short disturbance of the host from
/// setting the whole median.
const SETUP_PER_ROUND: usize = 5;
/// Fewest rounds per process.
const MIN_ROUNDS: usize = 3;
/// Per-stripe ring capacity of the traced run's event bus.
const OBS_RING: usize = 1 << 17;
/// Schedule keys of the correctness gate.
const FULL: &str = "full";
const SETUP: &str = "setup";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        eprintln!("usage: e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
        std::process::exit(2);
    });
    let sc = Scenario::new(&args.workload, args.seed).unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        std::process::exit(2);
    });
    println!(
        "reproduce: cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
         --workload {} --seed {} --seconds {} --trace {}",
        sc.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "scenario: miniamr {} --variant mpi|forkjoin|dataflow",
        sc.flags
    );
    println!(
        "objects (jittered by seed {}): {}",
        args.seed,
        sc.objects_desc()
    );
    println!(
        "available_parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut gate = Gate::new();
    let metrics = if args.trace {
        traced(&sc, args.seed, args.seconds, &mut gate)
    } else {
        untraced(&sc, args.seconds, &mut gate)
    };
    metrics.print();
    let failed = gate.failed();
    println!(
        "failed_frac\t{}\t(of {} variant runs)",
        ratio(failed as f64, gate.attempted as f64),
        gate.attempted
    );
    println!(
        "{}",
        metrics.result_json(failed == 0, gate.attempted, failed)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// What a sequence of rounds measured.
struct Measured {
    /// Wall times of the set-up-only runs, each with the share of the CPU
    /// time stolen during its round: a set-up run of a few milliseconds is
    /// too short for the 10 ms steal counter, and the host's steal rate
    /// holds for seconds.
    setup: Vec<(f64, f64)>,
    /// Each variant's passing samples, in [`VARIANTS`] order.
    samples: Vec<Vec<Sample>>,
}

/// Rounds until `seconds` have passed and at least `min_rounds` ran. A
/// round is `setup_runs` set-up-only runs (the data-flow variant with no
/// timesteps) and one run of each variant. Every variant run starts from
/// a trimmed heap ([`reset_peak_rss`]), so no variant run reuses pages an
/// earlier one left resident and every run's peak memory is its own.
fn rounds(
    sc: &Scenario,
    seconds: f64,
    min_rounds: usize,
    setup_runs: usize,
    spans: &Spans,
    gate: &mut Gate,
    run: &mut usize,
) -> Measured {
    let start = Instant::now();
    let mut setup_cfg = sc.config(Variant::DataFlow);
    setup_cfg.num_tsteps = 0;
    let mut m = Measured {
        setup: Vec::new(),
        samples: VARIANTS.iter().map(|_| Vec::new()).collect(),
    };
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let (round_start, round_steal0) = (Instant::now(), stolen_ticks());
        let round_setup = m.setup.len();
        for _ in 0..setup_runs {
            *run += 1;
            let out = run_once(&setup_cfg, &sc.net, spans, *run);
            if gate
                .check(SETUP, &format!("setup run {}", *run), &out)
                .is_some()
            {
                m.setup.push((out.wall, 0.0));
            }
        }
        for (i, &v) in VARIANTS.iter().enumerate() {
            *run += 1;
            reset_peak_rss();
            let steal0 = stolen_ticks();
            let out = run_once(&sc.config(v), &sc.net, spans, *run);
            let stolen = stolen_share(steal0, stolen_ticks(), out.wall);
            let rss = peak_rss_mb();
            let label = format!("{} run {}", vname(v), *run);
            if let Some(stats) = gate.check(FULL, &label, &out) {
                m.samples[i].push(Sample {
                    wall: out.wall,
                    stats: stats.to_vec(),
                    rank_s: spans.durations(*run, "core.run_rank."),
                    stolen,
                    peak_rss_mb: rss,
                });
            }
        }
        let stolen = stolen_share(
            round_steal0,
            stolen_ticks(),
            round_start.elapsed().as_secs_f64(),
        );
        for run in &mut m.setup[round_setup..] {
            run.1 = stolen;
        }
        n += 1;
    }
    m
}

/// Returns the allocator's free memory to the kernel and resets this
/// process's peak resident memory to what is left, so that the next
/// [`peak_rss_mb`] is the peak of what ran in between rather than of the
/// earlier runs' free lists. Where the kernel refuses the reset, the peak
/// stays the process's.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free memory; it is
        // safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process since it started or since the
/// last [`reset_peak_rss`] (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, with tracing off.
fn untraced(sc: &Scenario, seconds: f64, gate: &mut Gate) -> Metrics {
    let spans = Spans::new(false);
    let mut run = 0;
    let got = rounds(
        sc,
        seconds,
        MIN_ROUNDS,
        SETUP_PER_ROUND,
        &spans,
        gate,
        &mut run,
    );
    let mut m = Metrics::default();
    let mut medians = Vec::new();
    // The variant with the largest median per-run peak.
    let mut rss_mb: f64 = 0.0;
    for (v, s) in VARIANTS.iter().zip(&got.samples) {
        let mut steady = steady_walls(s);
        let med = median(&mut steady);
        let all: Vec<String> = s
            .iter()
            .map(|s| format!("{:.3}s@{:.0}%", s.wall, 100.0 * s.stolen))
            .collect();
        println!(
            "{}.wall_s: median {med:.4} s (less stolen time) over the {} quietest of {} \
             samples, max {:.4} s; all (wall@stolen CPU): {}",
            vname(*v),
            steady.len(),
            s.len(),
            s.iter().map(|s| s.wall).fold(0.0, f64::max),
            all.join(" ")
        );
        medians.push(med);
        m.push(format!("{}.wall_s", vname(*v)), med, "s");
        let mut rss: Vec<f64> = s.iter().map(|s| s.peak_rss_mb).collect();
        let rss_med = median(&mut rss);
        println!(
            "{} peak RSS per run: median {rss_med:.1} MB, range {:.1}-{:.1} MB",
            vname(*v),
            rss.first().copied().unwrap_or(0.0),
            rss.last().copied().unwrap_or(0.0)
        );
        rss_mb = rss_mb.max(rss_med);
    }
    println!(
        "dataflow speedup over mpi (not a gated metric): {:.3}x",
        ratio(medians[0], medians[2])
    );
    let mut steady_setup = steady(got.setup.iter().copied());
    let setup = median(&mut steady_setup);
    println!(
        "setup_s: median {setup:.4} s (less stolen time) over the {} runs of the quietest \
         rounds of {} runs, range {:.4}-{:.4} s",
        steady_setup.len(),
        got.setup.len(),
        steady_setup.first().copied().unwrap_or(0.0),
        steady_setup.last().copied().unwrap_or(0.0)
    );
    m.push("setup_s", setup, "s");
    m.push("peak_rss_mb", rss_mb, "MB");
    m
}

/// The per-layer metrics: an untraced baseline, then one traced run per
/// variant, the layer probes and the `simnet` prediction.
fn traced(sc: &Scenario, seed: u64, seconds: f64, gate: &mut Gate) -> Metrics {
    let spans = Spans::new(true);
    let mut run = 0;
    let samples = rounds(sc, seconds / 2.0, 1, 0, &spans, gate, &mut run).samples;
    let mut m = Metrics::default();
    if samples.iter().any(|s| s.is_empty()) {
        return m;
    }

    // Probes run untraced: they time the layers as the end-to-end runs
    // use them. Sizes come from the untraced runs' exact counts.
    let cfg = &sc.cfg;
    let first = &samples[0][0].stats;
    let stages = (cfg.num_tsteps * cfg.stages_per_ts * cfg.params.num_ranks()).max(1) as u64;
    let shape = probes::ProbeShape {
        msg_bytes: 8 * first.iter().map(|r| r.elems_sent).sum::<u64>()
            / first.iter().map(|r| r.msgs_sent).sum::<u64>().max(1),
        tasks_per_stage: samples[2][0]
            .stats
            .iter()
            .map(|r| r.tasks_spawned)
            .sum::<u64>()
            / stages,
        blocks_per_rank: (first.iter().map(|r| r.final_blocks).sum::<usize>() / first.len()) as u64,
    };
    run += 1;
    probes::run_all(cfg, &sc.net, &shape, &spans, run, &mut m);

    // `obs` cannot be turned off once on, so every untraced run and probe
    // precedes this point.
    let bus = obs::enable_with_capacity(OBS_RING);
    let mut dropped = 0;
    let mut report_s = 0.0;
    for (i, &v) in VARIANTS.iter().enumerate() {
        obs::metrics().reset();
        let collector = obs::report::Collector::start(bus, None, 1);
        run += 1;
        // The same trimmed heap as the untraced runs it is compared with.
        reset_peak_rss();
        let steal0 = stolen_ticks();
        let out = run_once(&sc.config(v), &sc.net, &spans, run);
        let stolen = stolen_share(steal0, stolen_ticks(), out.wall);
        let (events, d) = collector.finish();
        dropped += d;
        let passed = gate
            .check(FULL, &format!("{} traced", vname(v)), &out)
            .is_some();
        let registry = obs::metrics().snapshot().into_iter().collect();
        let histograms = obs::metrics().histogram_snapshots();
        let t0 = Instant::now();
        let report = spans.time(run, 0, "obs.perf_report", || {
            obs::report::PerfReport::from_events(&events, d)
        });
        report_s += t0.elapsed().as_secs_f64();
        if passed {
            let t = Traced {
                wall: unstolen(out.wall, stolen),
                events,
                report,
                registry,
                histograms,
            };
            layers::variant_metrics(v, &samples[i], &t, &mut m);
        }
    }
    m.push("obs.dropped", dropped as f64, "count");
    m.push("obs.report_s", report_s, "s");

    // Exact counts: the gate has checked they agree across variants.
    if let Some(fp) = gate.reference(FULL) {
        m.push("core.msgs_sent", fp.msgs_sent as f64, "count");
        m.push(
            "core.elems_sent",
            first.iter().map(|r| r.elems_sent).sum::<u64>() as f64,
            "count",
        );
        m.push("core.blocks_moved", fp.blocks_moved as f64, "count");
        m.push("core.final_blocks", fp.final_blocks as f64, "count");
        m.push("core.flops", fp.flops as f64, "count");
    }

    // simnet's prediction of the same scenario against the live medians.
    run += 1;
    let wp = simnet::WorkloadParams {
        mesh: cfg.params.clone(),
        objects: cfg.objects.clone(),
        num_tsteps: cfg.num_tsteps,
        stages_per_ts: cfg.stages_per_ts,
        checksum_freq: cfg.checksum_freq,
        refine_freq: cfg.refine_freq,
        msgs_per_pair_dir: match (cfg.send_faces, cfg.max_comm_tasks) {
            (false, _) => 0,
            (true, 0) => usize::MAX,
            (true, k) => k,
        },
        ranks_per_node: cfg.ranks_per_node,
        coll_hier: cfg.coll == vmpi::CollAlgo::Hier,
        coalesce: cfg.coalesce,
        eager_bytes: cfg.eager_bytes,
    };
    let w = spans.time(run, 0, "simnet.workload_generate", || {
        simnet::Workload::generate(&wp)
    });
    let cost = simnet::CostModel::default();
    for (i, model) in [
        (0, simnet::ExecModel::MpiOnly),
        (2, simnet::ExecModel::dataflow(cfg.workers)),
    ] {
        let sim = spans.time(run, 0, "simnet.simulate", || {
            simnet::simulate(&w, &model, &cost)
        });
        let live = median(&mut steady_walls(&samples[i]));
        m.push(
            format!("simnet.rel_err.{}", vname(VARIANTS[i])),
            ratio(sim.total, live) - 1.0,
            "frac",
        );
    }

    write_spans(sc, seed, &spans);
    m.0.sort_by(|a, b| a.0.cmp(&b.0));
    m
}

/// Writes the traced process's spans to `e2ebench/out/`.
fn write_spans(sc: &Scenario, seed: u64, spans: &Spans) {
    let dir = std::path::Path::new("e2ebench/out");
    let path = dir.join(format!("spans-{}-seed{seed}.tsv", sc.name));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_tsv())) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
    }
}
