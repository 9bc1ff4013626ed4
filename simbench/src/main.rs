//! simbench — the HyperPlane simulator's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload hp-fb256-4lane --seed 24301 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `README.md` in this directory) in repeated
//! passes for `--seconds` of host time, checks every pass, and prints a
//! human report on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! same passes are followed by the per-layer extras (replays, observer
//! A/B, worker-count digest check) and the metrics are the per-layer
//! ones. The program is driven only through its public API and timed
//! from here.

mod layers;
mod stats;
mod workloads;

use std::time::Instant;
use workloads::{Counters, Rep, Workload};

/// Default workload seed (the simulator's own default seed, 0x5EED).
const DEFAULT_SEED: u64 = 24_301;
/// Minimum passes per run, however long one pass takes, so every
/// reported timing is the best of at least this many.
const MIN_REPS: usize = 3;
/// Passes stop being started after this much host time, whatever
/// `--seconds` asks, so a run always ends well inside its time limit.
const MAX_MEASURE_S: f64 = 90.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("simbench: {msg}");
    eprintln!(
        "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a non-negative integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// The commit being measured, read from `.git` when the benchmark runs
/// inside a git checkout; `unknown` otherwise.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| stats::parse_vmhwm_mb(&s))
        .unwrap_or_default()
}

/// Failure bookkeeping: every check failure becomes one reproducer line
/// on stderr and one failed run in the result.
struct Checks {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one checked unit of work (`workers` is the fabric worker
    /// count it ran with); any of `failures` fails it.
    fn record(&mut self, workers: usize, failures: &[String]) {
        self.attempted += 1;
        if failures.is_empty() {
            return;
        }
        self.failed += 1;
        for f in failures {
            eprintln!(
                "simbench: FAIL {f} | reproduce: cargo run --release --manifest-path \
                 simbench/Cargo.toml -- --workload {} --seed {} --seconds {} --trace {} \
                 (fabric workers {workers})",
                self.workload.name(),
                self.seed,
                self.seconds,
                u8::from(self.trace),
            );
        }
    }
}

/// One metric of the final record.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty median, a zero base) read 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let host_cpus = hp_par::available_parallelism();
    println!(
        "{{\"schema\":\"simbench/1\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cpus\":{},\"host_threads\":{},\"commit\":{}}}",
        json_string(w.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cpus,
        workloads::HOST_THREADS,
        json_string(&commit()),
    );
    let mut checks = Checks {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted: 0,
        failed: 0,
    };
    let cfgs = w.configs(args.seed);
    let workers = cfgs.iter().map(|c| c.par_workers).max().unwrap_or(1);

    // Measured phase: repeat the pass until the time is used.
    let t_measure = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_digests: Vec<Option<Vec<u64>>> = vec![None; workloads::SUB_SEEDS];
    let mut tasks_per_s: Vec<f64> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    loop {
        let j = reps.len() % workloads::SUB_SEEDS;
        let mut rep = workloads::run_rep(w, workloads::sub_seed(args.seed, j), &order);
        if order.is_empty() {
            order = workloads::longest_first(&rep.searches);
        }
        let completions: u64 = rep.results.iter().map(|r| r.completions).sum();
        tasks_per_s.push(completions as f64 / rep.wall_s);
        let digest = workloads::rep_digest(&rep.results);
        match &first_digests[j] {
            None => first_digests[j] = Some(digest),
            Some(d) => {
                if let Some(i) = stats::first_difference(d, &digest) {
                    rep.failures.push(format!(
                        "run digest changed between passes of the same seed (word {i})"
                    ));
                }
            }
        }
        checks.record(workers, &rep.failures);
        // Only the first pass's results (sub-seed 0, the run's seed) are
        // read; later ones are digest-checked against their sub-seed's
        // first pass and dropped.
        if !reps.is_empty() {
            rep.results.clear();
        }
        reps.push(rep);
        let spent = t_measure.elapsed().as_secs_f64();
        if (spent >= args.seconds && reps.len() >= MIN_REPS) || spent >= MAX_MEASURE_S {
            break;
        }
    }
    let measure_s = t_measure.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();

    let col = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let med = |xs: &[f64]| stats::median(xs).unwrap_or_default();
    let best = |xs: &[f64]| stats::min(xs).unwrap_or_default();
    let walls = col(|r| r.wall_s);
    let setups = col(|r| r.setup_s);
    let counters = Counters::read(&cfgs, &reps[0].results);
    let sim_p99_us = stats::geomean(&counters.p99_us).unwrap_or_default();
    let speedup = workloads::peak_speedup(w, &cfgs, &reps[0].results);
    let digest = first_digests.swap_remove(0).unwrap_or_default();

    eprintln!(
        "simbench {} seed {}: {} passes over {} sub-seeds in {:.2} s, host_cpus {}, digest {:016x}",
        w.name(),
        args.seed,
        reps.len(),
        reps.len().min(workloads::SUB_SEEDS),
        measure_s,
        host_cpus,
        stats::fingerprint(&digest)
    );
    let (q1, q3) = stats::quartiles(&walls).unwrap_or_default();
    eprintln!(
        "  pass wall_s over {} passes: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}; setup_s min {:.4} median {:.4}; error_rate {}",
        walls.len(),
        best(&walls),
        q1,
        med(&walls),
        q3,
        stats::max(&walls).unwrap_or_default(),
        best(&setups),
        med(&setups),
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    eprintln!(
        "  sim_p99_us {sim_p99_us:.3} (geometric mean over {} runs)",
        counters.p99_us.len()
    );
    if let Some(s) = speedup {
        eprintln!(
            "  sim_peak_speedup {s:.3}x (paper 4.1x, error {:+.1}%)",
            (s / 4.1 - 1.0) * 100.0
        );
    }

    let metrics = if args.trace {
        // The per-layer timings pair with counters of the run's own seed,
        // so they come from that seed's passes only.
        let reps: Vec<Rep> = reps.into_iter().step_by(workloads::SUB_SEEDS).collect();
        let mut extras = layers::Extras {
            seed: args.seed,
            cfgs: &cfgs,
            reps: &reps,
            counters: &counters,
            failures: Vec::new(),
        };
        let t_extra = Instant::now();
        let mut m = extras.per_layer();
        let extra_s = t_extra.elapsed().as_secs_f64();
        checks.record(workers, &std::mem::take(&mut extras.failures));
        m.push(Metric::new("sim_p99_us", sim_p99_us, "us"));
        m.push(Metric::new(
            "sim_peak_speedup",
            speedup.unwrap_or_default(),
            "x",
        ));
        m.push(Metric::new(
            "error_rate",
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "ratio",
        ));
        // The measured passes are the same code with or without tracing;
        // what tracing adds is the extras that follow them.
        m.push(Metric::new(
            "trace.overhead_share",
            extra_s / measure_s,
            "ratio",
        ));
        m
    } else {
        vec![
            Metric::new("wall_s", med(&walls), "s"),
            Metric::new("setup_s", med(&setups), "s"),
            Metric::new("sim_tasks_per_s", med(&tasks_per_s), "1/s"),
            Metric::new("peak_rss_mb", rss_mb, "MB"),
            Metric::new(
                "sim_mtps",
                stats::geomean(&counters.mtps).unwrap_or_default(),
                "Mtasks/s",
            ),
        ]
    };

    for m in &metrics {
        eprintln!("  {:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(",")
    );
}
