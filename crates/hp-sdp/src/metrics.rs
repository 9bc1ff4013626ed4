//! Windowed metrics: throughput, latency, occupancy, and halt residency
//! as time series over a run.
//!
//! End-of-run aggregates hide dynamics — warmup transients, fault-induced
//! degradation, backlog oscillation. [`WindowedMetrics`] slices the run
//! into fixed-cadence windows (`metrics_window_cycles`) and closes each
//! one with a [`WindowSample`].
//!
//! ## Semantics
//!
//! Window `k` nominally covers `[k·w, (k+1)·w)` cycles. The engine closes
//! windows *lazily*: the sampler schedules no events of its own (that
//! would perturb event ordering and break determinism), so a window is
//! closed when the first event at or past its boundary pops. State
//! between events cannot change, so the boundary snapshot is exact; the
//! reported `end` is the nominal boundary, which makes the series
//! strictly monotonic even across idle gaps (idle gaps yield
//! zero-completion, fully-halted windows, as they should).
//!
//! Completions are attributed to the window in which the engine *records*
//! them; latency percentiles are computed from a per-window histogram
//! that resets at each close.

use hp_bytes::json::JsonWriter;
use hp_sim::stats::Histogram;
use hp_sim::time::{Clock, Cycles};

/// One closed metrics window.
#[derive(Debug, Clone)]
pub struct WindowSample {
    /// Window index (0-based).
    pub index: u64,
    /// Window start, cycles.
    pub start: u64,
    /// Window end (nominal boundary, or run end for the final partial
    /// window), cycles. Strictly increasing across samples.
    pub end: u64,
    /// Completions recorded during the window.
    pub completions: u64,
    /// Arrivals dropped at the queue cap during the window.
    pub drops: u64,
    /// Completion rate over the window, tasks/second.
    pub throughput_tps: f64,
    /// Mean end-to-end latency of completions in the window, µs.
    pub mean_us: Option<f64>,
    /// Median latency, µs (`None` for an empty window).
    pub p50_us: Option<f64>,
    /// 99th-percentile latency, µs (`None` for an empty window).
    pub p99_us: Option<f64>,
    /// Total queue backlog (items) at the window boundary.
    pub backlog: u64,
    /// Simulator event-queue depth at the boundary.
    pub event_queue_depth: u64,
    /// DP cores halted at the boundary.
    pub cores_halted: u64,
    /// Per-DP-core halt residency over the window (fraction of the
    /// window's cycles spent halted, C0 + C1).
    pub halt_frac: Vec<f64>,
    /// Spin-loop instructions retired during the window (all DP cores).
    pub spin_instructions: u64,
    /// The window's raw latency histogram, from which the fabric merge
    /// recomputes exact percentiles; `None` once merged. Never serialized.
    pub hist: Option<Histogram>,
}

impl WindowSample {
    /// Encodes the sample as one JSON object (one JSONL line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(256);
        w.begin_object();
        w.field_u64("window", self.index);
        w.field_u64("start_cycles", self.start);
        w.field_u64("end_cycles", self.end);
        w.field_u64("completions", self.completions);
        w.field_u64("drops", self.drops);
        w.field_f64("throughput_tps", self.throughput_tps);
        w.field_opt_f64("mean_us", self.mean_us);
        w.field_opt_f64("p50_us", self.p50_us);
        w.field_opt_f64("p99_us", self.p99_us);
        w.field_u64("backlog", self.backlog);
        w.field_u64("event_queue_depth", self.event_queue_depth);
        w.field_u64("cores_halted", self.cores_halted);
        w.key("halt_frac");
        w.begin_array();
        for &f in &self.halt_frac {
            w.f64(f);
        }
        w.end_array();
        w.field_u64("spin_instructions", self.spin_instructions);
        w.end_object();
        w.finish()
    }
}

/// Boundary snapshot the engine hands to [`WindowedMetrics::close`]:
/// instantaneous state plus *cumulative* counters as of the boundary
/// (the sampler differences them against the previous boundary itself).
#[derive(Debug, Clone)]
pub struct WindowObservation {
    /// Total queue backlog at the boundary.
    pub backlog: u64,
    /// Event-queue depth at the boundary.
    pub event_queue_depth: u64,
    /// DP cores currently halted.
    pub cores_halted: u64,
    /// Per-core cumulative halted cycles (credited episodes plus the
    /// in-progress one, capped at the boundary).
    pub halt_cycles: Vec<u64>,
    /// Cumulative spin instructions across DP cores.
    pub spin_instructions: u64,
    /// Cumulative queue-cap drops.
    pub drops: u64,
}

/// The per-run windowed sampler. Owned by the engine; pure observation
/// (no RNG, no scheduled events).
#[derive(Debug)]
pub struct WindowedMetrics {
    window: u64,
    clock: Clock,
    next_boundary: u64,
    index: u64,
    hist: Histogram,
    completions: u64,
    halt_base: Vec<u64>,
    spin_base: u64,
    drops_base: u64,
    samples: Vec<WindowSample>,
}

impl WindowedMetrics {
    /// A sampler with the given cadence (cycles per window).
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero (the config validator rejects it
    /// first).
    pub fn new(window_cycles: u64, clock: Clock, dp_cores: usize) -> Self {
        assert!(window_cycles > 0, "metrics window must be nonzero");
        WindowedMetrics {
            window: window_cycles,
            clock,
            next_boundary: window_cycles,
            index: 0,
            hist: Histogram::new(),
            completions: 0,
            halt_base: vec![0; dp_cores],
            spin_base: 0,
            drops_base: 0,
            samples: Vec::new(),
        }
    }

    /// The cadence, cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// The next boundary at which a window must close, cycles.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Records a completion (and its end-to-end latency) into the open
    /// window.
    #[inline]
    pub fn record_completion(&mut self, latency_cycles: u64) {
        self.completions += 1;
        self.hist.record(latency_cycles);
    }

    /// Closes the open window at its nominal boundary using the engine's
    /// boundary snapshot, then advances to the next window.
    pub fn close(&mut self, obs: &WindowObservation) {
        let end = self.next_boundary;
        self.close_at(end, obs);
        self.next_boundary = end + self.window;
    }

    /// Closes the final, possibly partial window at the run's actual end.
    /// A no-op when `end_cycles` does not extend past the last closed
    /// boundary (keeps `end` strictly monotonic).
    pub fn close_final(&mut self, end_cycles: u64, obs: &WindowObservation) {
        if end_cycles <= self.next_boundary - self.window {
            return;
        }
        self.close_at(end_cycles.min(self.next_boundary), obs);
    }

    fn close_at(&mut self, end: u64, obs: &WindowObservation) {
        let start = self.next_boundary - self.window;
        let span = Cycles(end - start);
        let to_us = |cyc: u64| self.clock.cycles_to_micros(Cycles(cyc));
        let halt_frac: Vec<f64> = obs
            .halt_cycles
            .iter()
            .zip(&self.halt_base)
            .map(|(&cum, &base)| {
                if span.count() == 0 {
                    0.0
                } else {
                    (cum.saturating_sub(base)) as f64 / span.count() as f64
                }
            })
            .collect();
        self.samples.push(WindowSample {
            index: self.index,
            start,
            end,
            completions: self.completions,
            drops: obs.drops.saturating_sub(self.drops_base),
            throughput_tps: self.clock.rate_per_sec(self.completions, span),
            mean_us: self.hist.try_mean().map(|c| to_us(c as u64)),
            p50_us: self.hist.percentile(50.0).map(to_us),
            p99_us: self.hist.percentile(99.0).map(to_us),
            backlog: obs.backlog,
            event_queue_depth: obs.event_queue_depth,
            cores_halted: obs.cores_halted,
            halt_frac,
            spin_instructions: obs.spin_instructions.saturating_sub(self.spin_base),
            hist: Some(std::mem::take(&mut self.hist)),
        });
        self.index += 1;
        self.completions = 0;
        self.halt_base.clone_from(&obs.halt_cycles);
        self.spin_base = obs.spin_instructions;
        self.drops_base = obs.drops;
    }

    /// The closed windows so far.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Consumes the sampler, yielding the series.
    pub fn into_samples(self) -> Vec<WindowSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(backlog: u64, halt: Vec<u64>, spin: u64, drops: u64) -> WindowObservation {
        WindowObservation {
            backlog,
            event_queue_depth: 3,
            cores_halted: 0,
            halt_cycles: halt,
            spin_instructions: spin,
            drops,
        }
    }

    #[test]
    fn windows_difference_cumulative_counters() {
        let mut m = WindowedMetrics::new(1000, Clock::default(), 1);
        m.record_completion(200);
        m.record_completion(400);
        m.close(&obs(5, vec![100], 40, 1));
        m.record_completion(600);
        m.close(&obs(2, vec![700], 90, 4));
        let s = m.samples();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].start, s[0].end), (0, 1000));
        assert_eq!((s[1].start, s[1].end), (1000, 2000));
        assert_eq!(s[0].completions, 2);
        assert_eq!(s[1].completions, 1);
        assert_eq!(s[0].drops, 1);
        assert_eq!(s[1].drops, 3);
        assert_eq!(s[0].spin_instructions, 40);
        assert_eq!(s[1].spin_instructions, 50);
        assert!((s[0].halt_frac[0] - 0.1).abs() < 1e-12);
        assert!((s[1].halt_frac[0] - 0.6).abs() < 1e-12);
        // 2 completions in 1000 cycles at 2 GHz = 4M tasks/s.
        assert!((s[0].throughput_tps - 4.0e6).abs() < 1.0);
        // Mean of 200,400 cycles = 300 cyc = 0.15 us.
        assert!((s[0].mean_us.unwrap() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn empty_window_has_no_percentiles_but_keeps_monotonic_ends() {
        let mut m = WindowedMetrics::new(500, Clock::default(), 2);
        m.close(&obs(0, vec![500, 500], 0, 0));
        m.close(&obs(0, vec![1000, 1000], 0, 0));
        let s = m.samples();
        assert_eq!(s[0].p99_us, None);
        assert_eq!(s[0].mean_us, None);
        assert_eq!(s[0].throughput_tps, 0.0);
        assert!(s[1].end > s[0].end);
        // Fully halted across the window.
        assert_eq!(s[0].halt_frac, vec![1.0, 1.0]);
        assert_eq!(s[1].halt_frac, vec![1.0, 1.0]);
    }

    #[test]
    fn final_partial_window_only_when_it_extends_the_series() {
        let mut m = WindowedMetrics::new(1000, Clock::default(), 1);
        m.close(&obs(0, vec![0], 0, 0));
        // Run ended exactly on the boundary: no extra sample.
        m.close_final(1000, &obs(0, vec![0], 0, 0));
        assert_eq!(m.samples().len(), 1);
        // Run ended 400 cycles into the next window: one partial sample.
        m.record_completion(100);
        m.close_final(1400, &obs(0, vec![0], 0, 0));
        let s = m.samples();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].start, s[1].end), (1000, 1400));
        assert_eq!(s[1].completions, 1);
    }

    #[test]
    fn retained_hists_are_per_window_and_exact() {
        let mut m = WindowedMetrics::new(1000, Clock::default(), 1);
        m.record_completion(200);
        m.record_completion(400);
        m.close(&obs(0, vec![0], 0, 0));
        m.record_completion(600);
        m.close(&obs(0, vec![0], 0, 0));
        let s = m.samples();
        assert_eq!(s[0].hist.as_ref().unwrap().count(), 2);
        assert_eq!(s[1].hist.as_ref().unwrap().count(), 1);
    }

    #[test]
    fn jsonl_encodes_null_for_empty_windows() {
        let mut m = WindowedMetrics::new(100, Clock::default(), 1);
        m.close(&obs(7, vec![0], 0, 0));
        let line = m.samples()[0].to_json();
        assert!(line.contains("\"p99_us\":null"), "{line}");
        assert!(line.contains("\"backlog\":7"), "{line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}
