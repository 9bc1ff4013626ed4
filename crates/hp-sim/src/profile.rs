//! Sim-kernel profiling: per-event-type counts and attributed cycles.
//!
//! A discrete-event simulation's "CPU profile" is its event mix: which
//! event types dominate the queue, and which ones the simulated clock
//! spends its time waiting on. [`KernelProfile`] tallies both. Clock
//! advance between consecutive pops is attributed to the event *popped at
//! the end of the gap* — i.e. "cycles the simulation sat waiting for this
//! event type" — which makes idle-dominated runs (cores halted, waiting
//! on the next arrival) immediately legible.
//!
//! Like the tracer, profiling is pure observation: it reads `now`, never
//! the RNG or the event queue, so a profiled run is bit-identical to an
//! unprofiled one.
//!
//! ```
//! use hp_sim::profile::KernelProfile;
//! use hp_sim::time::SimTime;
//!
//! let mut p = KernelProfile::new(&["arrival", "core-step"]);
//! p.tally(0, SimTime(100)); // arrival popped at t=100
//! p.tally(1, SimTime(100)); // core-step at the same instant
//! p.tally(0, SimTime(250));
//! assert_eq!(p.count(0), 2);
//! assert_eq!(p.cycles(0), 250); // 100 + 150 cycles of clock advance
//! assert_eq!(p.cycles(1), 0);
//! ```

use crate::time::SimTime;

/// Per-event-type execution profile of a simulation run.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    labels: &'static [&'static str],
    counts: Vec<u64>,
    advanced: Vec<u64>,
    last_now: SimTime,
    total: u64,
    inlined: u64,
}

impl KernelProfile {
    /// A profile over the given event-type labels. Index `i` passed to
    /// [`KernelProfile::tally`] maps to `labels[i]`.
    pub fn new(labels: &'static [&'static str]) -> Self {
        KernelProfile {
            labels,
            counts: vec![0; labels.len()],
            advanced: vec![0; labels.len()],
            last_now: SimTime::ZERO,
            total: 0,
            inlined: 0,
        }
    }

    /// Records that an event of type `idx` was popped with the clock at
    /// `now`. The clock advance since the previous pop is attributed to
    /// this event type.
    #[inline]
    pub fn tally(&mut self, idx: usize, now: SimTime) {
        self.counts[idx] += 1;
        self.advanced[idx] += now.saturating_since(self.last_now).count();
        self.last_now = now;
        self.total += 1;
    }

    /// Records an event of type `idx` at `now` that the driver handled in
    /// place, without scheduling it and popping it straight back. It is
    /// tallied exactly as [`KernelProfile::tally`] would tally the pop, and
    /// also counted in [`KernelProfile::inlined`].
    #[inline]
    pub fn tally_inline(&mut self, idx: usize, now: SimTime) {
        self.tally(idx, now);
        self.inlined += 1;
    }

    /// The event-type labels.
    pub fn labels(&self) -> &'static [&'static str] {
        self.labels
    }

    /// Events of type `idx` processed.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Simulated cycles attributed to event type `idx`.
    pub fn cycles(&self, idx: usize) -> u64 {
        self.advanced[idx]
    }

    /// Total events processed across all types.
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Events among [`KernelProfile::total_events`] that were handled
    /// inline rather than popped from the event queue.
    pub fn inlined(&self) -> u64 {
        self.inlined
    }

    /// Folds another profile over the same label set into this one.
    ///
    /// Used by the parallel engine to merge per-lane profiles: counts,
    /// attributed cycles, and totals add; per-lane clock attribution is
    /// already exact within each lane, so the sum is the whole-machine
    /// event mix.
    ///
    /// # Panics
    ///
    /// Panics if the two profiles were built over different label sets.
    pub fn merge(&mut self, other: &KernelProfile) {
        assert_eq!(self.labels, other.labels, "profiles cover different events");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.advanced.iter_mut().zip(&other.advanced) {
            *mine += theirs;
        }
        self.total += other.total;
        self.inlined += other.inlined;
        self.last_now = self.last_now.max(other.last_now);
    }

    /// `(label, count, cycles)` rows, in label order.
    pub fn rows(&self) -> Vec<(&'static str, u64, u64)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (*l, self.counts[i], self.advanced[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_clock_advance_to_the_popped_event() {
        let mut p = KernelProfile::new(&["a", "b"]);
        p.tally(0, SimTime(10));
        p.tally(1, SimTime(10));
        p.tally(1, SimTime(40));
        assert_eq!(p.count(0), 1);
        assert_eq!(p.count(1), 2);
        assert_eq!(p.cycles(0), 10);
        assert_eq!(p.cycles(1), 30);
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.rows(), vec![("a", 1, 10), ("b", 2, 30)]);
    }

    #[test]
    fn inline_tally_counts_like_a_pop() {
        let mut popped = KernelProfile::new(&["a", "b"]);
        let mut inline = KernelProfile::new(&["a", "b"]);
        for p in [&mut popped, &mut inline] {
            p.tally(0, SimTime(10));
        }
        popped.tally(1, SimTime(40));
        inline.tally_inline(1, SimTime(40));
        assert_eq!(popped.rows(), inline.rows());
        assert_eq!(popped.total_events(), inline.total_events());
        assert_eq!((popped.inlined(), inline.inlined()), (0, 1));
    }

    #[test]
    fn merge_sums_counts_and_cycles() {
        static LABELS: &[&str] = &["a", "b"];
        let mut p = KernelProfile::new(LABELS);
        p.tally(0, SimTime(10));
        let mut q = KernelProfile::new(LABELS);
        q.tally(1, SimTime(25));
        q.tally_inline(1, SimTime(30));
        p.merge(&q);
        assert_eq!(p.inlined(), 1);
        assert_eq!(p.count(0), 1);
        assert_eq!(p.count(1), 2);
        assert_eq!(p.cycles(1), 30);
        assert_eq!(p.total_events(), 3);
    }
}
