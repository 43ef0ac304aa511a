//! overhead — the "free when nothing is wrong" guards, one method for all.
//!
//! Each regime times the 512 B Prudence pair loop in two configurations
//! that differ in one respect and reports how much slower "on" is:
//!
//! | regime | off | on | budget |
//! |---|---|---|---|
//! | `idle-armed` | stall threshold, watermarks out of reach | defaults (100 ms watchdog, stock watermarks) | ≤ 1 % |
//! | `trace-hit` | tracing off, `allocate` + `free` | tracing on | ≤ 3 % |
//! | `trace-deferred` | tracing off, `allocate` + `free_deferred` | tracing on (site intern, stamp, ring record) | recorded |
//! | `trace-hit+doctor` | tracing off | tracing on, `/doctor` scraped every 20 ms | recorded |
//!
//! The degradation machinery lives on the grace-period driver thread, the
//! deferred-free path and the allocation-failure path; attribution lives
//! on `free_deferred` and reclaim. Neither may add work to the hit path,
//! and the budgets hold them to it. The deferred regime deliberately pays
//! for ring writes and site stamps, and a scrape's cost lands on the
//! endpoint thread, so those two are recorded, not gated.
//!
//! Shared machines drift on timescales of seconds, which swamps a 1 %
//! budget if the two sides are measured in long separate blocks. So every
//! regime is measured in 12 short back-to-back off/on *pairs*; the delta
//! is computed within each pair, where the machine state is nearly
//! constant, and the median of the per-pair deltas is reported and judged.
//!
//! ```text
//! overhead [--threads N] [--enforce]
//! ```
//!
//! Workers default to the ledger's rule, `max(1, min(nproc, 4) − 1)`.
//! With `--enforce` the process exits 1 if a budgeted regime's median
//! paired delta exceeds its budget; a usage error exits 2.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pbs_alloc_api::engine::EngineConfig;
use pbs_rcu::RcuConfig;
use pbs_workloads::doctor::{http_get, DoctorServer};
use pbs_workloads::{hardened_bed, AllocatorKind};

const USAGE: &str = "usage: overhead [--threads N] [--enforce]   (N: integer >= 1)";

/// Off/on pairs per regime, and how long each side of a pair runs.
const REPS: usize = 12;
const LEG_TIME: Duration = Duration::from_millis(150);

/// One side of a pair: everything a measurement can be configured with.
#[derive(Clone, Copy)]
struct Leg {
    /// Stall watchdog and pressure watermarks at their defaults; `false`
    /// pushes both out of reach, as quiescent as the machinery gets
    /// without a rebuild.
    armed: bool,
    /// Event tracing and per-site attribution (`pbs_telemetry::set_enabled`).
    tracing: bool,
    /// The pair is `allocate` + `free_deferred` rather than `allocate` + `free`.
    deferred: bool,
    /// The live `/doctor` endpoint is up and scraped for the whole window,
    /// so snapshot gathering genuinely contends with the hot loop.
    doctor: bool,
}

/// The shipped configuration on the hit path.
const SHIPPED: Leg = Leg { armed: true, tracing: true, deferred: false, doctor: false };
const UNTRACED: Leg = Leg { tracing: false, ..SHIPPED };

/// Name, off leg, on leg, and the ceiling `--enforce` puts on the median
/// paired delta (percent).
const REGIMES: [(&str, Leg, Leg, Option<f64>); 4] = [
    ("idle-armed", Leg { armed: false, ..SHIPPED }, SHIPPED, Some(1.0)),
    ("trace-hit", UNTRACED, SHIPPED, Some(3.0)),
    ("trace-deferred", Leg { deferred: true, ..UNTRACED }, Leg { deferred: true, ..SHIPPED }, None),
    ("trace-hit+doctor", UNTRACED, Leg { doctor: true, ..SHIPPED }, None),
];

#[derive(Debug, PartialEq)]
struct Opts {
    /// `None`: [`default_workers`] of the machine.
    threads: Option<usize>,
    enforce: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { threads: None, enforce: false };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--enforce" => opts.enforce = true,
            "--threads" => {
                let raw = args.next().ok_or("--threads needs a value")?;
                let n = raw.parse().ok().filter(|&n: &usize| n >= 1);
                opts.threads = Some(n.ok_or_else(|| format!("invalid --threads value {raw:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The ledger's worker rule: one core is left to the program's own
/// threads (the grace-period driver; the SLUB control's epoch domain adds
/// its callback reclaimers).
fn default_workers(nproc: usize) -> usize {
    nproc.min(4).saturating_sub(1).max(1)
}

/// Median of `xs`: the middle element, or the mean of the middle two.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// How much slower `on` is than `off`, in percent of `off`.
fn paired_delta_pct(off: f64, on: f64) -> f64 {
    (on - off) / off * 100.0
}

/// Runs `reps` back-to-back off/on pairs of `leg(on)`, alternating which
/// side goes first so ordering effects (frequency ramp, cache warmth)
/// cancel across reps. Returns the median of each side and the median of
/// the per-pair deltas: slow drift cancels inside a pair, and the median
/// discards the reps a preemption or frequency step landed in.
fn run_pairs(reps: usize, mut leg: impl FnMut(bool) -> f64) -> (f64, f64, f64) {
    let (mut offs, mut ons, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let first = leg(rep % 2 == 1);
        let second = leg(rep % 2 == 0);
        let (off, on) = if rep % 2 == 0 { (first, second) } else { (second, first) };
        deltas.push(paired_delta_pct(off, on));
        offs.push(off);
        ons.push(on);
    }
    (median(&mut offs), median(&mut ons), median(&mut deltas))
}

/// One measurement: `threads` workers doing pairs on a shared Prudence
/// cache for `duration`; returns the best observed ns per pair.
///
/// Each worker times itself in 64-pair batches and keeps its fastest
/// batch. A batch (~10 µs) is far shorter than a scheduler timeslice, so
/// even on an oversubscribed machine the fastest batches run
/// preemption-free: the minimum measures the per-pair cost, where
/// throughput-over-wall-clock would mostly measure the scheduler. What a
/// regime prices recurs in *every* batch (a flag load on the hit path;
/// ring write, site stamp and clock read on the deferred path), so the
/// minimum still contains it.
fn measure_leg(leg: Leg, threads: usize, duration: Duration) -> f64 {
    pbs_telemetry::set_enabled(leg.tracing);
    // Both settings of `armed` make the same calls and allocations, so
    // heap layout cannot differ between them — only three scalars do.
    let (rcu, engine) = (RcuConfig::linux_like(), EngineConfig::new(threads));
    let (threshold, soft, hard) = if leg.armed {
        (rcu.stall_threshold, engine.soft_watermark, engine.hard_watermark)
    } else {
        (Duration::from_secs(3600), usize::MAX / 4, usize::MAX / 4)
    };
    let bed = Arc::new(hardened_bed(
        AllocatorKind::Prudence,
        threads,
        rcu.with_stall_threshold(threshold),
        None,
        None,
        Some(engine.with_watermarks(soft, hard)),
        None,
    ));
    // Registered (never pinned) readers: the watchdog scan on the driver
    // thread walks real records, as it would in a live system at idle.
    let readers: Vec<_> = (0..threads).map(|_| bed.rcu().register()).collect();
    let server = leg.doctor.then(|| {
        let provider = Arc::clone(&bed);
        DoctorServer::start(move || provider.telemetry()).expect("doctor endpoint binds")
    });
    let cache = bed.create_cache("overhead", 512);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    const BATCH: u32 = 64;

    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut best = u64::MAX;
                while !stop.load(Ordering::Relaxed) {
                    let batch_start = Instant::now();
                    for _ in 0..BATCH {
                        let obj = cache.allocate().expect("overhead allocation");
                        // SAFETY: fresh exclusive object, freed exactly once.
                        unsafe {
                            obj.as_ptr().cast::<u64>().write(0xBEEF);
                            if leg.deferred {
                                cache.free_deferred(obj);
                            } else {
                                cache.free(obj);
                            }
                        }
                    }
                    best = best.min(batch_start.elapsed().as_nanos() as u64);
                }
                best
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    match &server {
        // Each GET walks every cache and the RCU domain for a snapshot
        // while the workers hammer the cache.
        Some(server) => {
            while start.elapsed() < duration {
                let _ = http_get(server.addr(), "/doctor");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        None => std::thread::sleep(duration),
    }
    stop.store(true, Ordering::Relaxed);
    let best = workers
        .into_iter()
        .map(|w| w.join().expect("overhead worker panicked"))
        .min()
        .unwrap_or(u64::MAX);
    cache.quiesce();
    drop(readers);
    best as f64 / f64::from(BATCH)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|err| {
        eprintln!("overhead: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = opts.threads.unwrap_or_else(|| default_workers(nproc));
    println!(
        "overhead guard: {threads} workers on {nproc} cores{}, {REPS} pairs x {LEG_TIME:?} per leg, \
         prudence 512 B, best 64-pair batch",
        if threads >= nproc { " (oversubscribed)" } else { "" },
    );

    let mut breached = false;
    for (name, off_leg, on_leg, budget_pct) in REGIMES {
        // Warm both sides once so neither pays first-touch costs.
        for leg in [off_leg, on_leg] {
            measure_leg(leg, threads, LEG_TIME / 4);
        }
        let (off, on, delta_pct) = run_pairs(REPS, |on| {
            measure_leg(if on { on_leg } else { off_leg }, threads, LEG_TIME)
        });
        let verdict = match budget_pct {
            Some(budget) if delta_pct > budget => {
                breached = true;
                format!("OVER the {budget}% budget")
            }
            Some(budget) => format!("within the {budget}% budget"),
            None => "recorded".to_string(),
        };
        println!(
            "  {name:<17} off {off:>8.1} ns/pair   on {on:>8.1} ns/pair   \
             median paired delta {delta_pct:+.2}%   {verdict}"
        );
    }
    if opts.enforce && breached {
        eprintln!("overhead: a budgeted regime exceeded its budget");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Opts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn odd_even_single_and_outlier_medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5, "mean of the middle two");
        assert_eq!(median(&mut [7.5]), 7.5);
        // Eleven quiet pairs near +0.2 % and one a preemption landed in.
        let mut deltas = [0.2; 12];
        deltas[5] = 85.0;
        assert_eq!(median(&mut deltas), 0.2);
    }

    #[test]
    fn paired_delta_is_relative_to_the_off_side() {
        assert_eq!(paired_delta_pct(100.0, 103.0), 3.0);
        assert_eq!(paired_delta_pct(50.0, 49.0), -2.0);
        assert_eq!(paired_delta_pct(17.0, 17.0), 0.0);
    }

    #[test]
    fn pairs_alternate_order_and_cancel_drift() {
        // A machine that gets 10 % slower every measurement: each side's
        // level drifts, the within-pair delta stays near the true +2 %.
        let (mut order, mut clock) = (Vec::new(), 100.0);
        let (off, on, delta) = run_pairs(4, |on| {
            order.push(on);
            clock *= 1.1;
            if on { clock * 1.02 } else { clock }
        });
        assert_eq!(order, [false, true, true, false, false, true, true, false]);
        assert!(off < on);
        assert!((delta - 2.0).abs() < 1.0, "drift of +-10 % per step cancelled: {delta}");
    }

    #[test]
    fn default_workers_leave_a_core_to_the_program() {
        assert_eq!([1, 2, 4, 64].map(default_workers), [1, 1, 3, 3]);
    }

    #[test]
    fn parse_accepts_the_documented_forms() {
        assert_eq!(parse_line(""), Ok(Opts { threads: None, enforce: false }));
        assert_eq!(parse_line("--enforce --threads 4"), Ok(Opts { threads: Some(4), enforce: true }));
    }

    #[test]
    fn parse_rejects_typos_and_bad_values() {
        for line in ["--enforce --treads 4", "--budget-pct 3", "--threads", "--threads four",
            "--threads 0", "--threads -1", "--secs 0.5", "4"]
        {
            assert!(parse_line(line).is_err(), "accepted {line:?}");
        }
        let err = parse_line("--enforc").unwrap_err();
        assert!(err.contains("--enforc"), "offending argument named: {err}");
    }
}
