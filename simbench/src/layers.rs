//! The traced run's extras: the per-layer ledger.
//!
//! Work counts come from the simulator's deterministic counters. Host
//! time per layer is an *estimate*: after the measured passes, each
//! layer's public function is replayed on an input shaped like the
//! workload to price one unit of its work, and
//! `est_share = count x replay ns / sdp.run_s`. Replays never overlap
//! the measured passes.

use crate::stats;
use crate::workloads::{self, Counters, Rep, ReplayShape, EVENT_LABELS};
use crate::Metric;
use hp_core::monitoring::{BankAddressing, BankedMonitoringSet, MonitoringSet};
use hp_core::ready_set::ReadySet;
use hp_mem::system::MemSystem;
use hp_mem::types::{AccessKind, Addr, CoreId, LineAddr};
use hp_queues::sim::QueueId;
use hp_rand::rngs::CounterRng;
use hp_rand::RngCore;
use hp_sdp::config::{ExperimentConfig, MicroarchConfig};
use hp_sdp::{Engine, ExperimentResult};
use hp_sim::time::{Clock, Cycles};
use hp_sim::EventQueue;
use hp_traffic::alias::AliasTable;
use hp_traffic::generator::{partition_queues, KeyedArrivals};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per replay; the reported price is the fastest (see
/// [`stats::min`]).
const REPLAY_ROUNDS: usize = 3;
/// Runs per side in the observer and worker-count A/Bs.
const AB_PAIRS: usize = 3;

/// Inputs and findings of the traced run's extras.
pub struct Extras<'a> {
    /// The workload's seed.
    pub seed: u64,
    /// The workload's configs, in pass order.
    pub cfgs: &'a [ExperimentConfig],
    /// The measured passes (the first still holds its results).
    pub reps: &'a [Rep],
    /// Counters of the first pass.
    pub counters: &'a Counters,
    /// Check failures found by the extras.
    pub failures: Vec<String>,
}

fn best_of(rounds: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = std::iter::repeat_with(rounds).take(REPLAY_ROUNDS).collect();
    stats::min(&xs).unwrap_or_default()
}

/// Pushes a deterministic work count.
fn count(m: &mut Vec<Metric>, name: &str, n: u64) {
    m.push(Metric::new(name, n as f64, "count"));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Extras<'_> {
    /// Computes every per-layer metric except the three the caller adds
    /// (`sim_peak_speedup`, `error_rate`, `trace.overhead_share`).
    pub fn per_layer(&mut self) -> Vec<Metric> {
        let c = self.counters;
        let best = |f: fn(&Rep) -> f64| {
            stats::min(&self.reps.iter().map(f).collect::<Vec<_>>()).unwrap_or_default()
        };
        let run_s = best(|r| r.run_s);
        let mut m = Vec::new();

        // sdp: the engine as a whole.
        m.push(Metric::new("sdp.setup_s", best(|r| r.engine_setup_s), "s"));
        m.push(Metric::new("sdp.run_s", run_s, "s"));
        count(&mut m, "sdp.events", c.events);
        for (label, n) in EVENT_LABELS.iter().zip(c.events_by_label) {
            m.push(Metric::new(
                format!("sdp.events.{label}"),
                n as f64,
                "count",
            ));
        }
        let events = c.events as f64;
        m.push(Metric::new(
            "sdp.events_per_task",
            ratio(events, c.completions as f64),
            "count",
        ));
        m.push(Metric::new("sdp.events_per_s", ratio(events, run_s), "1/s"));
        m.push(Metric::new(
            "sdp.ns_per_event",
            ratio(run_s * 1e9, events),
            "ns",
        ));
        m.push(Metric::new(
            "sdp.sim_cycles_per_event",
            ratio(c.sim_cycles as f64, events),
            "cycles",
        ));
        m.push(Metric::new(
            "sdp.useful_poll_ratio",
            ratio(c.completions as f64, (c.completions + c.empty_polls) as f64),
            "ratio",
        ));

        // runner: the peak-throughput search (fig8-peak only).
        let per_rep = |f: fn(&workloads::Search) -> f64, agg: fn(&[f64]) -> Option<f64>| {
            let xs: Vec<f64> = self
                .reps
                .iter()
                .filter_map(|r| agg(&r.searches.iter().map(f).collect::<Vec<_>>()))
                .collect();
            stats::min(&xs).unwrap_or_default()
        };
        let amp = |s: &workloads::Search| stats::search_amp(s.search_s, s.final_run_s);
        m.push(Metric::new(
            "runner.search_s.p50",
            per_rep(|s| s.search_s, stats::median),
            "s",
        ));
        m.push(Metric::new(
            "runner.search_s.max",
            per_rep(|s| s.search_s, stats::max),
            "s",
        ));
        m.push(Metric::new(
            "runner.search_amp.p50",
            per_rep(amp, stats::median),
            "x",
        ));
        m.push(Metric::new(
            "runner.search_amp.max",
            per_rep(amp, stats::max),
            "x",
        ));

        // The replays, on the workload's own shape.
        let i = workloads::replay_index(self.cfgs);
        let offered = self.reps[0].results.get(i).map_or(0.0, |r| r.offered_tps);
        let shape = ReplayShape::of(&self.cfgs[i], offered);
        let cpe = ratio(c.sim_cycles as f64, events);

        // mem
        let accesses = c.mem.total();
        let mut mix = [0.0; 4];
        let mem_ns = best_of(|| {
            let (ns, realized) = replay_mem(c, 400_000);
            mix = realized;
            ns
        });
        eprintln!(
            "  mem replay route mix l1/llc/remote/dram: run {:?}, replay {:.3?}",
            [
                c.mem.l1_hits,
                c.mem.llc_hits,
                c.mem.remote_hits,
                c.mem.dram_fetches
            ],
            mix
        );
        count(&mut m, "mem.accesses", accesses);
        m.push(Metric::new(
            "mem.accesses_per_event",
            ratio(accesses as f64, events),
            "count",
        ));
        count(&mut m, "mem.l1_hits", c.mem.l1_hits);
        count(&mut m, "mem.llc_hits", c.mem.llc_hits);
        count(&mut m, "mem.remote_hits", c.mem.remote_hits);
        count(&mut m, "mem.dram_fetches", c.mem.dram_fetches);
        count(&mut m, "mem.fast.stable_hits", c.fast.stable_hits);
        count(&mut m, "mem.fast.mru_hits", c.fast.mru_hits);
        count(&mut m, "mem.fast.dir_hint_hits", c.fast.dir_hint_hits);
        m.push(Metric::new(
            "mem.fast.memo_hit_rate",
            ratio(c.fast.seq_replays as f64, c.fast.seq_replay_attempts as f64),
            "ratio",
        ));
        m.push(Metric::new("mem.replay_ns_per_access", mem_ns, "ns"));
        let mem_share = stats::est_share(accesses, mem_ns, run_s);
        m.push(Metric::new("mem.est_share", mem_share, "ratio"));

        // wheel
        let wheel_ns = best_of(|| replay_wheel(shape.population, cpe, 1_000_000));
        m.push(Metric::new("wheel.replay_ns_per_event", wheel_ns, "ns"));
        let wheel_share = stats::est_share(c.events, wheel_ns, run_s);
        m.push(Metric::new("wheel.est_share", wheel_share, "ratio"));

        // device
        let snoops = c.snoop_hits + c.snoop_misses;
        let snoop_ns = best_of(|| replay_snoop(&shape, c, 400_000));
        let select_ns = best_of(|| replay_select(&shape, 400_000));
        count(&mut m, "device.snoop_hits", c.snoop_hits);
        count(&mut m, "device.snoop_misses", c.snoop_misses);
        count(&mut m, "device.snoop_filtered", c.snoop_filtered);
        count(&mut m, "device.inserts", c.inserts);
        count(&mut m, "device.conflicts", c.conflicts);
        count(&mut m, "device.relocations", c.relocations);
        count(&mut m, "device.spurious_wakeups", c.spurious_wakeups);
        m.push(Metric::new("device.replay_ns_per_snoop", snoop_ns, "ns"));
        m.push(Metric::new("device.replay_ns_per_select", select_ns, "ns"));
        let device_share = stats::est_share(snoops, snoop_ns, run_s)
            + stats::est_share(c.selects, select_ns, run_s);
        m.push(Metric::new("device.est_share", device_share, "ratio"));

        // traffic
        let arrival_ns = best_of(|| replay_traffic(&shape, self.seed, 400_000));
        count(&mut m, "traffic.arrivals", c.arrivals);
        m.push(Metric::new(
            "traffic.replay_ns_per_arrival",
            arrival_ns,
            "ns",
        ));
        let traffic_share = stats::est_share(c.arrivals, arrival_ns, run_s);
        m.push(Metric::new("traffic.est_share", traffic_share, "ratio"));

        // par
        let round_ns = best_of(|| replay_rendezvous(workloads::HOST_THREADS, 20_000));
        let speedup = self.worker_check();
        count(&mut m, "par.sync_rounds", c.sync_rounds);
        m.push(Metric::new(
            "par.lane_arrival_imbalance",
            c.lane_arrival_imbalance,
            "ratio",
        ));
        m.push(Metric::new("par.replay_ns_per_round", round_ns, "ns"));
        let par_share = stats::est_share(c.sync_rounds, round_ns, run_s);
        m.push(Metric::new("par.est_share", par_share, "ratio"));
        m.push(Metric::new("par.speedup_2v1", speedup, "x"));

        // obs
        let obs = self.observer_ab();
        m.push(Metric::new("obs.overhead_share", obs, "ratio"));
        count(&mut m, "obs.windows", c.windows);
        count(&mut m, "obs.attrib_chains", c.attrib_chains);

        // ledger
        let shares = [
            mem_share,
            wheel_share,
            device_share,
            traffic_share,
            par_share,
        ];
        m.push(Metric::new(
            "ledger.unattributed_share",
            stats::unattributed_share(&shares),
            "ratio",
        ));
        m
    }

    /// For a workload pumped by more than one fabric worker: re-runs it
    /// at its worker count and on one worker, alternately, requires every
    /// re-run to match the measured passes' worker-invariant digest, and
    /// returns the N-vs-1 speed-up of `Engine::run`. 0 for serial
    /// workloads.
    fn worker_check(&mut self) -> f64 {
        if self.cfgs.len() != 1 || self.cfgs[0].par_workers < 2 {
            return 0.0;
        }
        let parallel = self.cfgs[0].clone();
        let serial = parallel.clone().with_par_workers(1);
        self.alternate(&parallel, &serial, workloads::worker_invariant_digest)
            .map_or(0.0, |(parallel_s, serial_s)| ratio(serial_s, parallel_s))
    }

    /// For a workload with observers on: re-runs it with and without every
    /// observer, alternately, requires every re-run to match the measured
    /// passes' digest (observers are pure observation), and returns the
    /// observers' share of `Engine::run` time. 0 when the workload runs no
    /// observer.
    fn observer_ab(&mut self) -> f64 {
        if self.cfgs.len() != 1 || !workloads::has_observers(&self.cfgs[0]) {
            return 0.0;
        }
        let on = self.cfgs[0].clone();
        let off = workloads::without_observers(on.clone());
        self.alternate(&on, &off, workloads::digest)
            .map_or(0.0, |(on_s, off_s)| ratio(on_s, off_s) - 1.0)
    }

    /// Runs `a` and `b` alternately, [`AB_PAIRS`] times each, checks each
    /// result's `digest_of` against the first measured pass's, and returns
    /// the fastest `Engine::run` seconds of each side. Both sides get the
    /// same number of tries, so neither is favoured by the minimum.
    fn alternate(
        &mut self,
        a: &ExperimentConfig,
        b: &ExperimentConfig,
        digest_of: fn(&ExperimentResult) -> Vec<u64>,
    ) -> Option<(f64, f64)> {
        let want = digest_of(self.reps[0].results.first()?);
        let (mut a_s, mut b_s) = (Vec::new(), Vec::new());
        for _ in 0..AB_PAIRS {
            for (cfg, times) in [(a, &mut a_s), (b, &mut b_s)] {
                let (r, secs) = self.timed_run(cfg.clone())?;
                if let Some(i) = stats::first_difference(&want, &digest_of(&r)) {
                    self.failures.push(format!(
                        "re-run at {} fabric worker(s), observers {}, differs from the measured digest (word {i})",
                        cfg.par_workers,
                        if workloads::has_observers(cfg) { "on" } else { "off" },
                    ));
                }
                times.push(secs);
            }
        }
        Some((stats::min(&a_s)?, stats::min(&b_s)?))
    }

    /// Builds and runs `cfg`, returning its result and the host seconds
    /// of `Engine::run`.
    fn timed_run(&mut self, cfg: ExperimentConfig) -> Option<(ExperimentResult, f64)> {
        let engine = match Engine::try_new(cfg) {
            Ok(e) => e,
            Err(e) => {
                self.failures.push(format!("engine refused config: {e}"));
                return None;
            }
        };
        let t = Instant::now();
        let r = engine.run();
        let secs = t.elapsed().as_secs_f64();
        Some((r, secs))
    }
}

/// Prices one `MemSystem::access` on the run's route mix: L1 hits on a
/// small hot set, LLC hits on a pool larger than the L1, cache-to-cache
/// transfers by two cores storing to the same lines in turn, and DRAM
/// fetches of never-touched lines. Returns ns per access and the route
/// mix the replay actually produced (L1, LLC, remote, DRAM shares).
fn replay_mem(c: &Counters, n: usize) -> (f64, [f64; 4]) {
    const LINE: u64 = 64;
    const HOT: u64 = 32;
    // Twice the L1's 512 lines: a sequential sweep misses the L1 every
    // time and stays in the LLC, like a spinning core's doorbell sweep.
    const POOL: u64 = 1_024;
    const PINGPONG: u64 = 16;
    let hot = 1u64 << 30;
    let pool = 2u64 << 30;
    let pingpong = 3u64 << 30;
    let fresh = 4u64 << 30;
    let total = c.mem.total();
    if total == 0 {
        return (0.0, [0.0; 4]);
    }
    let weights = [
        c.mem.l1_hits,
        c.mem.llc_hits,
        c.mem.remote_hits,
        c.mem.dram_fetches,
    ]
    .map(|x| x as f64 / total as f64);
    let mut mem = MemSystem::new(MicroarchConfig::default().mem_config());
    for i in 0..HOT {
        mem.access(CoreId(1), Addr(hot + i * LINE), AccessKind::Load);
    }
    for i in 0..POOL {
        mem.access(CoreId(0), Addr(pool + i * LINE), AccessKind::Load);
    }
    for i in 0..PINGPONG {
        mem.access(CoreId(2), Addr(pingpong + i * LINE), AccessKind::Store);
        mem.access(CoreId(3), Addr(pingpong + i * LINE), AccessKind::Store);
    }
    // Deal routes by largest accumulated credit: an exact, deterministic
    // interleave of the mix.
    let mut credit = [0.0f64; 4];
    let mut next = [0u64; 4];
    let ops: Vec<(CoreId, Addr, AccessKind)> = (0..n)
        .map(|_| {
            for (cr, wt) in credit.iter_mut().zip(weights) {
                *cr += wt;
            }
            let route = (0..4)
                .max_by(|&a, &b| credit[a].total_cmp(&credit[b]))
                .expect("four routes");
            credit[route] -= 1.0;
            let k = next[route];
            next[route] += 1;
            match route {
                0 => (CoreId(1), Addr(hot + (k % HOT) * LINE), AccessKind::Load),
                1 => (CoreId(0), Addr(pool + (k % POOL) * LINE), AccessKind::Load),
                2 => (
                    CoreId(2 + (k % 2) as usize),
                    Addr(pingpong + ((k / 2) % PINGPONG) * LINE),
                    AccessKind::Store,
                ),
                _ => (CoreId(4), Addr(fresh + k * LINE), AccessKind::Load),
            }
        })
        .collect();
    let before: Vec<_> = (0..5).map(|k| mem.core_stats(CoreId(k))).collect();
    let t = Instant::now();
    for (core, addr, kind) in ops {
        black_box(mem.access(core, addr, kind));
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    let mut realized = [0.0; 4];
    for (k, b) in before.iter().enumerate() {
        let a = mem.core_stats(CoreId(k));
        realized[0] += (a.l1_hits - b.l1_hits) as f64 / n as f64;
        realized[1] += (a.llc_hits - b.llc_hits) as f64 / n as f64;
        realized[2] += (a.remote_hits - b.remote_hits) as f64 / n as f64;
        realized[3] += (a.dram_fetches - b.dram_fetches) as f64 / n as f64;
    }
    (ns, realized)
}

/// Prices one event through the calendar wheel: a pop plus the
/// `schedule_after` that replaces it, at the run's standing population
/// and with delays spread around the population's mean re-fire gap.
fn replay_wheel(population: usize, cycles_per_event: f64, n: usize) -> f64 {
    let population = population.max(1);
    let span = (2.0 * population as f64 * cycles_per_event).max(2.0) as u64;
    let mut rng = CounterRng::keyed(0x5EED, 1, population as u64);
    let delays: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64() % span).collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, d) in delays.iter().take(population).enumerate() {
        q.schedule_after(Cycles(*d), i as u32);
    }
    let t = Instant::now();
    for d in &delays {
        let (_, ev) = q.pop().expect("population is standing");
        q.schedule_after(Cycles(*d), black_box(ev));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Doorbell lines of `queues` queues in the device's snoop range, one
/// line per queue, inserted into a monitoring set sized like the run's
/// (a conflicting queue takes the next spare line, as Algorithm 1 does).
fn loaded_monitoring_set(shape: &ReplayShape) -> (BankedMonitoringSet, Vec<LineAddr>) {
    let hp = &shape.hp;
    let mut set = match hp.monitoring_addressing {
        BankAddressing::Interleaved => {
            BankedMonitoringSet::new(hp.monitoring_entries, hp.monitoring_banks)
        }
        BankAddressing::Hashed => BankedMonitoringSet::sharded(
            hp.monitoring_entries,
            hp.monitoring_banks,
            MonitoringSet::DEFAULT_WAYS,
        ),
    };
    set.reserve_qids(hp.ready_qids);
    let base = 1u64 << 24;
    let mut spare = base + shape.queues as u64;
    let lines = (0..shape.queues)
        .map(|q| {
            let mut line = LineAddr(base + q as u64);
            while set.insert(QueueId(q), line).is_err() {
                line = LineAddr(spare);
                spare += 1;
            }
            line
        })
        .collect();
    (set, lines)
}

/// Queue draws weighted by the traffic shape.
fn queue_draws(shape: &ReplayShape, n: usize) -> Vec<u32> {
    let weights = shape.shape.weights(shape.queues);
    let table = AliasTable::new(&weights).expect("shape weights are a distribution");
    let mut rng = CounterRng::keyed(0x5EED, 2, shape.queues as u64);
    (0..n).map(|_| table.sample(&mut rng) as u32).collect()
}

/// Prices one monitoring-set snoop on the run's hit / miss / filtered
/// mix: hits land on armed doorbells (re-armed after, as the consumer
/// would), misses on disarmed ones, filtered misses outside every
/// shard's line range.
fn replay_snoop(shape: &ReplayShape, c: &Counters, n: usize) -> f64 {
    let (mut set, lines) = loaded_monitoring_set(shape);
    let snoops = c.snoop_hits + c.snoop_misses;
    let (hit, filtered) = if snoops == 0 {
        (1.0, 0.0)
    } else {
        (
            c.snoop_hits as f64 / snoops as f64,
            c.snoop_filtered as f64 / snoops as f64,
        )
    };
    let draws = queue_draws(shape, n);
    // A disarmed doorbell for the unfiltered misses.
    let cold = QueueId(draws[0]);
    set.disarm(cold);
    let outside = LineAddr(1u64 << 40);
    let mut credit = [0.0f64; 3];
    let ops: Vec<(LineAddr, Option<QueueId>)> = draws
        .iter()
        .map(|&q| {
            let w = [hit, filtered, 1.0 - hit - filtered];
            for (cr, wt) in credit.iter_mut().zip(w) {
                *cr += wt;
            }
            let kind = (0..3)
                .max_by(|&a, &b| credit[a].total_cmp(&credit[b]))
                .expect("three kinds");
            credit[kind] -= 1.0;
            match kind {
                0 if q != cold.0 => (lines[q as usize], Some(QueueId(q))),
                1 => (outside, None),
                _ => (lines[cold.0 as usize], None),
            }
        })
        .collect();
    let t = Instant::now();
    for (line, rearm) in ops {
        black_box(set.snoop(line));
        if let Some(q) = rearm {
            set.arm(q);
        }
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Prices one ready-set select (plus the activation that refills it),
/// with a standing ready population of one queue per core and shape-
/// weighted activations.
fn replay_select(shape: &ReplayShape, n: usize) -> f64 {
    let hp = &shape.hp;
    let mut rs = ReadySet::new(hp.ready_qids, hp.policy.clone(), hp.ppa);
    let draws = queue_draws(shape, n);
    for &q in draws.iter().take(shape.population.max(1)) {
        rs.activate(QueueId(q));
    }
    let t = Instant::now();
    for &q in &draws {
        black_box(rs.select());
        rs.activate(QueueId(q));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Prices one keyed arrival draw at the workload's shape, queue count,
/// partitioning and offered rate.
fn replay_traffic(shape: &ReplayShape, seed: u64, n: usize) -> f64 {
    if shape.rate_tps <= 0.0 {
        return 0.0;
    }
    let owner = partition_queues(shape.shape, shape.queues, shape.groups, shape.imbalance);
    let streams: Vec<KeyedArrivals> = (0..shape.groups)
        .filter_map(|g| {
            KeyedArrivals::for_partition(
                shape.shape,
                shape.queues,
                shape.rate_tps,
                Clock::default(),
                &owner,
                g,
                CounterRng::keyed(seed, 3, g as u64),
            )
            .expect("offered rate is positive")
        })
        .collect();
    let t = Instant::now();
    for k in 0..n as u64 {
        let s = &streams[k as usize % streams.len()];
        black_box(s.arrival(k));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Prices one fabric synchronization round: two rendezvous (pump ->
/// reports, decision -> apply) among `parties` threads.
fn replay_rendezvous(parties: usize, rounds: usize) -> f64 {
    let rv = hp_par::Rendezvous::new(parties);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..parties {
            s.spawn(|| {
                for _ in 0..rounds {
                    rv.wait();
                    rv.wait();
                }
            });
        }
    });
    t.elapsed().as_nanos() as f64 / rounds as f64
}
