//! The two benchmark workloads, one pass ("rep") of each, and the
//! deterministic counters read back from the results.
//!
//! Every workload is a batch job on the host: a rep builds its configs,
//! validates them, constructs the engines and runs them to completion.
//! Simulated traffic is open-loop (Poisson, or overdrive for saturation).

use hp_core::HyperPlaneConfig;
use hp_mem::system::{CoreMemStats, FastPathStats};
use hp_sdp::config::{ExperimentConfig, Load, Notifier};
use hp_sdp::result::ExperimentResult;
use hp_sdp::{runner, Engine};
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;
use std::time::Instant;

/// Worker threads the host may use: the container's CPU count.
pub const HOST_THREADS: usize = 2;

/// Seeds a run rotates its passes through: pass `k` runs sub-seed
/// `k % SUB_SEEDS` of the run's seed. `fig8-peak`'s searches take
/// seed-dependent paths, so one seed's pass time can sit 20 % from
/// another's; a run's median pass over eight seeds moves much less
/// between runs than one seed's.
pub const SUB_SEEDS: usize = 8;

/// Sub-seed `j` of `seed`: `seed` itself for `j == 0`, otherwise a hash
/// of both, so that runs at different seeds share no sub-seed.
pub fn sub_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        hp_rand::splitmix64_mix(hp_rand::splitmix64_hash(seed) ^ j as u64)
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HyperPlane on four scale-out lanes at 70 % load with every
    /// observer on, pumped by two fabric workers.
    HpFb256,
    /// Twelve peak-throughput searches, fanned across the host threads.
    Fig8Peak,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::HpFb256, Workload::Fig8Peak];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HpFb256 => "hp-fb256-4lane",
            Workload::Fig8Peak => "fig8-peak",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs peak-throughput searches rather than
    /// single engine runs.
    pub fn is_search(self) -> bool {
        self == Workload::Fig8Peak
    }

    /// The engine configurations of one pass, all seeded from `seed`.
    /// For `fig8-peak` they come in (spinning, HyperPlane) pairs.
    pub fn configs(self, seed: u64) -> Vec<ExperimentConfig> {
        match self {
            Workload::HpFb256 => {
                let mut cfg = ExperimentConfig::new(
                    WorkloadKind::PacketEncap,
                    TrafficShape::FullyBalanced,
                    256,
                )
                .with_notifier(Notifier::hyperplane())
                .with_cores(4, 1)
                .with_seed(seed)
                .with_audit()
                .with_attrib()
                .with_metrics_window(200_000)
                .with_par_workers(HOST_THREADS);
                cfg.target_completions = 100_000;
                let rate = cfg.capacity_estimate_per_core() * 4.0 * 0.7;
                vec![cfg.with_load(Load::RatePerSec(rate))]
            }
            Workload::Fig8Peak => {
                let mut out = Vec::new();
                for shape in [TrafficShape::FullyBalanced, TrafficShape::SingleQueue] {
                    for queues in [1u32, 250, 1000] {
                        let mut spin =
                            ExperimentConfig::new(WorkloadKind::PacketEncap, shape, queues)
                                .with_seed(seed);
                        spin.target_completions = 3_000;
                        let hp = spin.clone().with_notifier(Notifier::hyperplane());
                        out.push(spin);
                        out.push(hp);
                    }
                }
                out
            }
        }
    }
}

/// Index of the config whose shape the per-layer replays copy: a direct
/// workload's only run, or `fig8-peak`'s largest HyperPlane FB point.
pub fn replay_index(cfgs: &[ExperimentConfig]) -> usize {
    cfgs.iter()
        .rposition(|c| c.shape == TrafficShape::FullyBalanced && c.notifier != Notifier::Spinning)
        .unwrap_or(0)
}

/// The same configuration with every observer (auditor, attribution,
/// windowed metrics) off: the B side of the observer A/B.
pub fn without_observers(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.audit = false;
    cfg.attrib = false;
    cfg.metrics_window_cycles = None;
    cfg
}

/// Whether any observer is on in `cfg`.
pub fn has_observers(cfg: &ExperimentConfig) -> bool {
    cfg.audit || cfg.attrib || cfg.metrics_window_cycles.is_some()
}

/// One peak-throughput search of a `fig8-peak` rep.
#[derive(Debug, Clone, Copy)]
pub struct Search {
    /// Host seconds of the whole search, timed around the runner call.
    pub search_s: f64,
    /// Host seconds of the run the search returned (the engine's own
    /// `wall_secs`).
    pub final_run_s: f64,
}

/// Host timings of one rep, plus everything read back from its results.
#[derive(Debug)]
pub struct Rep {
    /// Config build + `validate` + `Engine::try_new`, seconds.
    pub setup_s: f64,
    /// `Engine::try_new` alone, seconds.
    pub engine_setup_s: f64,
    /// Host seconds inside engine runs: `Engine::run` timed from here for
    /// direct workloads; the returned runs' `wall_secs` for searches.
    pub run_s: f64,
    /// The whole rep, seconds.
    pub wall_s: f64,
    /// Per-search timings (`fig8-peak` only).
    pub searches: Vec<Search>,
    /// The rep's results, in config order.
    pub results: Vec<ExperimentResult>,
    /// Check failures, one line each.
    pub failures: Vec<String>,
}

/// Runs one pass of `w` at `seed`. A config the simulator refuses is a
/// failure of the rep, reported in `failures`, not a panic. `order` is the
/// order in which a search workload starts its searches (see
/// [`longest_first`]); empty means config order.
pub fn run_rep(w: Workload, seed: u64, order: &[usize]) -> Rep {
    let t0 = Instant::now();
    let cfgs = w.configs(seed);
    let mut failures = Vec::new();
    for cfg in &cfgs {
        if let Err(e) = cfg.validate() {
            failures.push(format!("config rejected: {e}"));
        }
    }
    if !failures.is_empty() {
        return Rep {
            setup_s: t0.elapsed().as_secs_f64(),
            engine_setup_s: 0.0,
            run_s: 0.0,
            wall_s: t0.elapsed().as_secs_f64(),
            searches: Vec::new(),
            results: Vec::new(),
            failures,
        };
    }
    let checked = cfgs.clone();
    let mut rep = if w.is_search() {
        run_searches(t0, cfgs, order)
    } else {
        run_direct(t0, cfgs)
    };
    rep.failures.extend(check_results(&checked, &rep.results));
    rep
}

fn run_direct(t0: Instant, cfgs: Vec<ExperimentConfig>) -> Rep {
    let mut engine_setup_s = 0.0;
    let mut run_s = 0.0;
    let mut setup_s = None;
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for cfg in cfgs {
        let t_new = Instant::now();
        let engine = match Engine::try_new(cfg) {
            Ok(engine) => engine,
            Err(e) => {
                failures.push(format!("engine refused config: {e}"));
                continue;
            }
        };
        engine_setup_s += t_new.elapsed().as_secs_f64();
        setup_s.get_or_insert(t0.elapsed().as_secs_f64());
        let t_run = Instant::now();
        results.push(std::hint::black_box(engine.run()));
        run_s += t_run.elapsed().as_secs_f64();
    }
    Rep {
        setup_s: setup_s.unwrap_or_default(),
        engine_setup_s,
        run_s,
        wall_s: t0.elapsed().as_secs_f64(),
        searches: Vec::new(),
        results,
        failures,
    }
}

/// Search indices by descending host time in `searches`. Starting the
/// longest search first leaves only short ones at the end of a pass, so
/// the pass's makespan on the host threads depends least on which thread
/// a long search lands on or how long that thread is held up.
pub fn longest_first(searches: &[Search]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..searches.len()).collect();
    order.sort_by(|&a, &b| searches[b].search_s.total_cmp(&searches[a].search_s));
    order
}

fn run_searches(t0: Instant, cfgs: Vec<ExperimentConfig>, order: &[usize]) -> Rep {
    // Set-up prices what each search's first engine costs to build: the
    // runner builds its engines internally, so these are built, timed and
    // dropped before the searches start.
    let mut engine_setup_s = 0.0;
    let mut failures = Vec::new();
    for cfg in &cfgs {
        let t_new = Instant::now();
        match Engine::try_new(cfg.clone()) {
            Ok(engine) => drop(std::hint::black_box(engine)),
            Err(e) => failures.push(format!("engine refused config: {e}")),
        }
        engine_setup_s += t_new.elapsed().as_secs_f64();
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut jobs: Vec<(usize, ExperimentConfig)> = cfgs.into_iter().enumerate().collect();
    jobs.sort_by_key(|&(i, _)| order.iter().position(|&o| o == i));
    let mut timed = hp_par::par_map(HOST_THREADS, jobs, |(i, cfg)| {
        let t = Instant::now();
        let r = runner::peak_throughput(&cfg);
        (i, r, t.elapsed().as_secs_f64())
    });
    timed.sort_by_key(|&(i, ..)| i);
    let wall_s = t0.elapsed().as_secs_f64();
    let searches: Vec<Search> = timed
        .iter()
        .map(|(_, r, s)| Search {
            search_s: *s,
            final_run_s: r.wall_secs(),
        })
        .collect();
    Rep {
        setup_s,
        engine_setup_s,
        run_s: searches.iter().map(|s| s.final_run_s).sum(),
        wall_s,
        searches,
        results: timed.into_iter().map(|(_, r, _)| r).collect(),
        failures,
    }
}

/// The per-result correctness checks: the run reached its completion
/// target without a stall, and the auditor (where on) conserved.
fn check_results(cfgs: &[ExperimentConfig], results: &[ExperimentResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (cfg, r) in cfgs.iter().zip(results) {
        let what = format!(
            "{}/{}/{}q",
            cfg.notifier.label(),
            cfg.shape.label(),
            cfg.queues
        );
        if r.completions < cfg.target_completions {
            out.push(format!(
                "{what}: {} completions short of the {} target",
                r.completions, cfg.target_completions
            ));
        }
        if r.stalled() {
            out.push(format!("{what}: the watchdog reported a stall"));
        }
        if cfg.audit {
            match r.audit_report() {
                Some(a) if a.ok() => {}
                Some(a) => out.push(format!("{what}: conservation audit failed: {a:?}")),
                None => out.push(format!("{what}: auditor was on but left no report")),
            }
        }
    }
    out
}

/// The canonical run digest: every deterministic field of a result that
/// the scale harness's digest covers (headline figures, per-core
/// telemetry, the kernel profile and the device counters). No wall-clock
/// term enters it, so it repeats across passes of one seed.
pub fn digest(r: &ExperimentResult) -> Vec<u64> {
    digest_fields(r, true)
}

/// [`digest`] without the kernel profile's per-type attributed cycles.
/// Each fabric lane attributes its own clock advance, so those cycles
/// depend on how many lanes a run is split into; the per-type event
/// counts, and every other field, are worker-count-invariant.
pub fn worker_invariant_digest(r: &ExperimentResult) -> Vec<u64> {
    digest_fields(r, false)
}

fn digest_fields(r: &ExperimentResult, profile_cycles: bool) -> Vec<u64> {
    let mut d = vec![
        r.throughput_tps.to_bits(),
        r.completions,
        r.drops,
        r.end.since_start().count(),
        r.mean_latency_us().to_bits(),
        r.latency_percentile_us(50.0).to_bits(),
        r.latency_percentile_us(99.0).to_bits(),
    ];
    for c in &r.per_core {
        d.extend([
            c.useful_instructions,
            c.active_cycles,
            c.completions,
            c.qwait_timeouts,
            c.recoveries,
        ]);
    }
    if let Some(p) = r.kernel_profile() {
        d.push(p.total_events());
        for (_, count, cycles) in p.rows() {
            d.push(count);
            if profile_cycles {
                d.push(cycles);
            }
        }
    }
    if let Some(dev) = r.device_stats() {
        d.extend([
            dev.monitoring_banks,
            dev.monitoring.inserts,
            dev.monitoring.conflicts,
            dev.monitoring.relocations,
            dev.monitoring.snoop_hits,
            dev.monitoring.snoop_misses,
            dev.monitoring.snoop_filtered,
            dev.monitoring.spill_resizes,
            dev.spurious_wakeups,
        ]);
    }
    d
}

/// The digest of a whole rep: its results' digests, concatenated.
pub fn rep_digest(results: &[ExperimentResult]) -> Vec<u64> {
    results.iter().flat_map(digest).collect()
}

/// Kernel-profile labels reported as `sdp.events.<label>`, in the
/// engine's label order. A label the engine drops later reads 0.
pub const EVENT_LABELS: [&str; 8] = [
    "arrival",
    "core-step",
    "core-wake",
    "reconsider",
    "delayed-snoop",
    "qwait-timeout",
    "watchdog",
    "churn",
];

/// Deterministic work counters summed over one rep's results.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Kernel events processed.
    pub events: u64,
    /// Kernel events per [`EVENT_LABELS`] entry.
    pub events_by_label: [u64; EVENT_LABELS.len()],
    /// Completions the results report (warm-up included).
    pub completions: u64,
    /// Empty polls (spinning sweeps and QWAIT selects that found nothing).
    pub empty_polls: u64,
    /// Simulated cycles, summed over runs.
    pub sim_cycles: u64,
    /// DP-core memory accesses by where they were satisfied.
    pub mem: CoreMemStats,
    /// Memory fast-path counters.
    pub fast: FastPathStats,
    /// Monitoring-set snoop hits / misses / range-filtered misses.
    pub snoop_hits: u64,
    /// See [`Self::snoop_hits`].
    pub snoop_misses: u64,
    /// See [`Self::snoop_hits`].
    pub snoop_filtered: u64,
    /// Monitoring-set inserts, conflicts, relocation steps.
    pub inserts: u64,
    /// See [`Self::inserts`].
    pub conflicts: u64,
    /// See [`Self::inserts`].
    pub relocations: u64,
    /// Wake-ups QWAIT-VERIFY filtered as spurious.
    pub spurious_wakeups: u64,
    /// Ready-set selects: one per grant plus one per empty QWAIT poll,
    /// on HyperPlane runs only.
    pub selects: u64,
    /// Arrivals generated, summed over lanes.
    pub arrivals: u64,
    /// Fabric rounds that crossed a barrier between workers (runs with
    /// more than one worker only; a serial run's one-lane windows meet
    /// no other thread).
    pub sync_rounds: u64,
    /// Max over mean of per-lane generated arrivals, worst run.
    pub lane_arrival_imbalance: f64,
    /// Closed metrics windows.
    pub windows: u64,
    /// Completed attribution chains.
    pub attrib_chains: u64,
    /// Simulated throughput of each run, Mtasks/s.
    pub mtps: Vec<f64>,
    /// Simulated p99 latency of each run, µs.
    pub p99_us: Vec<f64>,
}

impl Counters {
    /// Reads the counters of `results`, run under `cfgs`.
    pub fn read(cfgs: &[ExperimentConfig], results: &[ExperimentResult]) -> Self {
        let mut c = Counters::default();
        for (cfg, r) in cfgs.iter().zip(results) {
            if let Some(p) = r.kernel_profile() {
                c.events += p.total_events();
                for (label, count, _) in p.rows() {
                    if let Some(i) = EVENT_LABELS.iter().position(|l| *l == label) {
                        c.events_by_label[i] += count;
                    }
                }
            }
            c.completions += r.completions;
            c.sim_cycles += r.end.since_start().count();
            let polls: u64 = r.per_core.iter().map(|t| t.empty_polls).sum();
            c.empty_polls += polls;
            let m = r.mem_stats();
            c.mem.l1_hits += m.l1_hits;
            c.mem.llc_hits += m.llc_hits;
            c.mem.remote_hits += m.remote_hits;
            c.mem.dram_fetches += m.dram_fetches;
            let f = r.fastpath_stats();
            c.fast.mru_hits += f.mru_hits;
            c.fast.stable_hits += f.stable_hits;
            c.fast.dir_hint_hits += f.dir_hint_hits;
            c.fast.seq_replays += f.seq_replays;
            c.fast.seq_replay_attempts += f.seq_replay_attempts;
            if let Some(d) = r.device_stats() {
                c.snoop_hits += d.monitoring.snoop_hits;
                c.snoop_misses += d.monitoring.snoop_misses;
                c.snoop_filtered += d.monitoring.snoop_filtered;
                c.inserts += d.monitoring.inserts;
                c.conflicts += d.monitoring.conflicts;
                c.relocations += d.monitoring.relocations;
                c.spurious_wakeups += d.spurious_wakeups;
                let grants: u64 = r.per_core.iter().map(|t| t.completions).sum();
                c.selects += grants + polls;
            }
            let lanes = r.lane_generated_arrivals();
            c.arrivals += lanes.iter().sum::<u64>();
            if !lanes.is_empty() {
                let mean = lanes.iter().sum::<u64>() as f64 / lanes.len() as f64;
                let max = lanes.iter().copied().max().unwrap_or_default() as f64;
                if mean > 0.0 {
                    c.lane_arrival_imbalance = c.lane_arrival_imbalance.max(max / mean);
                }
            }
            if cfg.par_workers > 1 {
                c.sync_rounds += r.sync_rounds();
            }
            c.windows += r.windows().len() as u64;
            c.attrib_chains += r.attrib_report().map(|a| a.completed).unwrap_or_default();
            c.mtps.push(r.throughput_mtps());
            c.p99_us.push(r.p99_latency_us());
        }
        c
    }
}

/// `fig8-peak`'s headline: the geometric mean of HyperPlane over spinning
/// peak throughput at the multi-queue points (the paper reports 4.1x).
/// `None` for workloads that run no (spinning, HyperPlane) pairs.
pub fn peak_speedup(
    w: Workload,
    cfgs: &[ExperimentConfig],
    results: &[ExperimentResult],
) -> Option<f64> {
    if !w.is_search() {
        return None;
    }
    let ratios: Vec<f64> = cfgs
        .chunks(2)
        .zip(results.chunks(2))
        .filter(|(c, _)| c[0].queues > 1)
        .map(|(_, r)| r[1].throughput_tps / r[0].throughput_tps)
        .collect();
    crate::stats::geomean(&ratios)
}

/// Everything a per-layer replay needs to know about a workload's shape.
#[derive(Debug, Clone)]
pub struct ReplayShape {
    /// Traffic shape.
    pub shape: TrafficShape,
    /// Queue count.
    pub queues: u32,
    /// Sharing groups (arrival partitions, device instances).
    pub groups: usize,
    /// Scale-out imbalance of the queue partition.
    pub imbalance: f64,
    /// Offered rate the run drove, tasks/s.
    pub rate_tps: f64,
    /// Device configuration.
    pub hp: HyperPlaneConfig,
    /// Standing event population: one pending step per DP core, one
    /// arrival chain per group, one churn chain when churn is on.
    pub population: usize,
}

impl ReplayShape {
    /// The shape of `cfg`, whose run offered `offered_tps`.
    pub fn of(cfg: &ExperimentConfig, offered_tps: f64) -> Self {
        ReplayShape {
            shape: cfg.shape,
            queues: cfg.queues,
            groups: cfg.groups(),
            imbalance: cfg.imbalance,
            rate_tps: offered_tps,
            hp: cfg.hp.clone(),
            population: cfg.dp_cores + cfg.groups() + usize::from(cfg.chaos.churn.is_some()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_first_orders_by_descending_search_time() {
        let searches: Vec<Search> = [0.05, 1.5, 0.3, 1.4]
            .into_iter()
            .map(|search_s| Search {
                search_s,
                final_run_s: 0.0,
            })
            .collect();
        assert_eq!(longest_first(&searches), vec![1, 3, 2, 0]);
        assert!(longest_first(&[]).is_empty());
    }

    #[test]
    fn sub_seeds_start_at_the_seed_and_are_disjoint_across_seeds() {
        let set = |seed| {
            (0..SUB_SEEDS)
                .map(|j| sub_seed(seed, j))
                .collect::<Vec<_>>()
        };
        let (a, b) = (set(900), set(901));
        assert_eq!(a[0], 900);
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2 * SUB_SEEDS);
    }
}
