//! The event queue at the heart of the discrete-event kernel.
//!
//! [`EventQueue`] is a priority queue of `(time, payload)` pairs with a
//! strict total order: events fire in time order, and events scheduled for
//! the same instant fire in insertion order (FIFO tie-breaking). Popping an
//! event advances the queue's notion of *now*; scheduling into the past is
//! a logic error.
//!
//! ## Implementation: a calendar wheel with a far-horizon heap
//!
//! The kernel profile (`hp_sim::profile`) shows the event mix is dominated
//! by short-delay self-reschedules: poll-loop iterations tens of cycles
//! out, service completions a few thousand cycles out. The queue therefore
//! keeps a **calendar wheel** of `WHEEL_SLOTS` one-cycle buckets covering
//! the window `[base, base + WHEEL_SLOTS)`, backed by a binary heap for the
//! far horizon:
//!
//! * *Insert* into the window is push-to-bucket, O(1); each bucket holds
//!   the events of exactly one instant, so bucket FIFO order *is*
//!   insertion order and no comparisons are ever made.
//! * *Pop* scans an occupancy bitmap (64 slots per word) from the window
//!   base to the next non-empty bucket — at most `WHEEL_SLOTS / 64` word
//!   reads, typically one or two.
//! * Events beyond the window go to the far heap, ordered by
//!   `(time, seq)`; whenever the window advances, due events migrate into
//!   their buckets in heap order, which preserves the global FIFO
//!   tie-break.
//!
//! The observable order is **identical** to the previous
//! `BinaryHeap<Reverse<(time, seq)>>` implementation — pinned by the
//! property tests in `tests/properties_kernels.rs` — only the constant
//! factors changed.
//!
//! ## Skipping the round trip: `advance_to`
//!
//! A driver that is about to schedule an event at `t` and knows it would
//! pop straight back — `t` is strictly before [`EventQueue::peek_time`]
//! and before every boundary the driver itself acts on — may instead
//! call [`EventQueue::advance_to`]`(t)` and handle the event in place.
//! The clock and the window move exactly as that pop would move them, so
//! every pending event keeps its place in the pop order. The bound is
//! strict because an event already pending *at* `t` is older and wins the
//! FIFO tie. The engine uses this for a core's successor step (DESIGN.md
//! §13, "Inline successor steps"); `tests/properties_kernels.rs` pins
//! `advance_to` against the reference heap.
//!
//! # Examples
//!
//! ```
//! use hp_sim::event::EventQueue;
//! use hp_sim::time::{Cycles, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(Cycles(10), "b");
//! q.schedule_at(SimTime(5), "a");
//! assert_eq!(q.pop(), Some((SimTime(5), "a")));
//! assert_eq!(q.pop(), Some((SimTime(10), "b")));
//! assert_eq!(q.pop(), None);
//! ```

use crate::time::{Cycles, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Calendar-wheel window size in cycles (one bucket per cycle). Power of
/// two so slot indexing is a mask. 4096 cycles (~2 µs at 2 GHz) covers the
/// poll-iteration and service-time delays that dominate the event mix;
/// longer delays (idle-period arrivals, watchdog ticks, QWAIT timeouts)
/// take the far-heap path.
const WHEEL_SLOTS: usize = 4096;
const WHEEL_MASK: usize = WHEEL_SLOTS - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// The queue owns the simulation clock: [`EventQueue::now`] is the timestamp
/// of the most recently popped event or [`EventQueue::advance_to`] target
/// (initially [`SimTime::ZERO`]).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// First event of each one-cycle bucket of the window
    /// `[base, base + WHEEL_SLOTS)`; slot index is `time & WHEEL_MASK`.
    /// Storing the head inline means the dominant singleton-bucket case
    /// (one self-reschedule per instant) touches only this dense array
    /// and the occupancy bitmap — never a `VecDeque`'s heap buffer.
    /// Invariant: `heads[slot]` is `Some` ⇔ the bucket's occupancy bit is
    /// set; `tails[slot]` is non-empty only while the head is `Some`.
    heads: Vec<Option<E>>,
    /// Overflow beyond each bucket's inline head, in insertion order.
    /// Within a bucket all events share one timestamp, so head-then-tail
    /// FIFO order is insertion order.
    tails: Vec<VecDeque<E>>,
    /// Occupancy bitmap over the buckets (bit set ⇔ bucket non-empty).
    occupied: [u64; WHEEL_WORDS],
    /// Events in the wheel.
    near_len: usize,
    /// Events at or beyond `base + WHEEL_SLOTS`, ordered by `(time, seq)`.
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Window base: every wheel event's time is in
    /// `[base, base + WHEEL_SLOTS)`, every far event's at or beyond the
    /// end. Equals `now` between operations; advances only in the pops
    /// and in `advance_to`.
    base: u64,
    seq: u64,
    now: SimTime,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heads: (0..WHEEL_SLOTS).map(|_| None).collect(),
            tails: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            near_len: 0,
            far: BinaryHeap::new(),
            base: 0,
            seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// The current simulated instant (time of the last popped event, or
    /// the last `advance_to` target).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`Self::now`]: a causality violation in
    /// the model, never a recoverable condition.
    pub fn schedule_at(&mut self, t: SimTime, payload: E) {
        assert!(
            t >= self.now,
            "scheduling into the past: {t} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_total += 1;
        // `t >= now >= base`, so the subtraction cannot wrap.
        if t.0 - self.base < WHEEL_SLOTS as u64 {
            self.bucket_push(t.0, payload);
        } else {
            self.far.push(Reverse(Scheduled {
                time: t,
                seq,
                payload,
            }));
        }
    }

    /// Schedules `payload` to fire `delay` after *now*.
    pub fn schedule_after(&mut self, delay: Cycles, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    #[inline]
    fn bucket_push(&mut self, t: u64, payload: E) {
        let slot = (t as usize) & WHEEL_MASK;
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.heads[slot] = Some(payload);
        } else {
            self.tails[slot].push_back(payload);
        }
        self.near_len += 1;
    }

    /// Moves every far event now inside the window into its bucket. Heap
    /// pops come out `(time, seq)`-ordered, so same-instant events enter
    /// their bucket in insertion order.
    fn migrate_due(&mut self) {
        while let Some(Reverse(head)) = self.far.peek() {
            if head.time.0 - self.base >= WHEEL_SLOTS as u64 {
                break;
            }
            let Reverse(s) = self.far.pop().expect("peeked entry pops");
            self.bucket_push(s.time.0, s.payload);
        }
    }

    /// Offset (in slots ⇔ cycles) from the window base to the first
    /// occupied bucket. Caller guarantees `near_len > 0`.
    fn first_occupied_offset(&self) -> usize {
        let start = (self.base as usize) & WHEEL_MASK;
        let (start_word, start_bit) = (start / 64, start % 64);
        // Tail of the start word, then whole words, wrapping once back to
        // the start word's head.
        let head = self.occupied[start_word] & (!0u64 << start_bit);
        if head != 0 {
            return start_word * 64 + head.trailing_zeros() as usize - start;
        }
        for k in 1..=WHEEL_WORDS {
            let wi = (start_word + k) % WHEEL_WORDS;
            let mut w = self.occupied[wi];
            if k == WHEEL_WORDS {
                w &= !(!0u64 << start_bit); // only the unscanned head bits
            }
            if w != 0 {
                let pos = wi * 64 + w.trailing_zeros() as usize;
                return (pos + WHEEL_SLOTS - start) & WHEEL_MASK;
            }
        }
        unreachable!("near_len > 0 but no occupied bucket")
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            // Jump the window to the far horizon's first instant.
            let Reverse(head) = self.far.peek()?;
            self.base = head.time.0;
            self.migrate_due();
        }
        let off = self.first_occupied_offset();
        let t = self.base + off as u64;
        let slot = (t as usize) & WHEEL_MASK;
        let payload = self.heads[slot].take().expect("occupied bucket");
        self.near_len -= 1;
        match self.tails[slot].pop_front() {
            Some(next) => self.heads[slot] = Some(next),
            None => self.occupied[slot / 64] &= !(1 << (slot % 64)),
        }
        debug_assert!(t >= self.now.0);
        self.now = SimTime(t);
        if t > self.base {
            self.base = t;
            self.migrate_due();
        }
        Some((self.now, payload))
    }

    /// Removes the earliest event *run* — every pending event sharing the
    /// earliest timestamp — returning the first event and appending the
    /// rest to `out`, in exactly the order repeated [`EventQueue::pop`]
    /// calls would have produced, and advances the clock to that
    /// timestamp. Returns `None` when the queue is empty (then `out` is
    /// untouched).
    ///
    /// One wheel bucket holds the events of exactly one instant, so the
    /// run is the whole first occupied bucket: the occupancy bitmap is
    /// scanned once and the bucket bookkeeping is paid once for the run
    /// instead of per event. The run's head is returned directly, so the
    /// dominant singleton-run case costs the same as a plain `pop` — the
    /// spill to `out` only happens when a run really has a tail. Events
    /// scheduled *while the batch is being consumed* for this same
    /// instant carry later sequence numbers; they land in the (now empty)
    /// bucket and come out of the next `pop`/`pop_batch` — after the
    /// drained run, exactly as single-event popping would order them.
    pub fn pop_batch(&mut self, out: &mut VecDeque<E>) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            // Jump the window to the far horizon's first instant; events at
            // exactly that instant migrate into the bucket in `(time, seq)`
            // order before the drain below.
            let Reverse(head) = self.far.peek()?;
            self.base = head.time.0;
            self.migrate_due();
        }
        let off = self.first_occupied_offset();
        let t = self.base + off as u64;
        debug_assert!(t >= self.now.0);
        self.now = SimTime(t);
        if t > self.base {
            // Advancing the window cannot migrate events *at* `t` (far
            // events are at or beyond the old `base + WHEEL_SLOTS`, which
            // exceeds `t`), so the bucket drained below is the full run.
            self.base = t;
            self.migrate_due();
        }
        let slot = (t as usize) & WHEEL_MASK;
        let first = self.heads[slot].take().expect("occupied bucket");
        let rest = self.tails[slot].len();
        if rest > 0 {
            out.extend(self.tails[slot].drain(..));
        }
        self.near_len -= 1 + rest;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        Some((self.now, first))
    }

    /// Advances the clock to `t` without popping anything: the caller
    /// handles, in place, an event it would otherwise have scheduled at
    /// `t` and popped straight back (see the module docs). The window
    /// moves exactly as a `pop` at `t` would move it, so every pending
    /// event keeps its place in the pop order.
    ///
    /// Precondition: `now <= t` and `t` is strictly before
    /// [`Self::peek_time`] (an event already pending at `t` is older and
    /// must fire first). Checked in debug builds.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(
            t >= self.now,
            "advancing into the past: {t} < now {}",
            self.now
        );
        debug_assert!(
            self.peek_time().is_none_or(|p| t < p),
            "advancing onto or past a pending event"
        );
        self.now = t;
        if t.0 > self.base {
            self.base = t.0;
            self.migrate_due();
        }
    }

    /// Timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.near_len > 0 {
            Some(SimTime(self.base + self.first_occupied_offset() as u64))
        } else {
            self.far.peek().map(|Reverse(s)| s.time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (telemetry).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

/// Outcome of a bounded simulation run driven by [`run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event queue drained before the horizon.
    Drained,
    /// The event budget was exhausted (guard against runaway models).
    BudgetExhausted,
}

/// Drives `queue` by repeatedly popping events and passing them to `handler`
/// until the clock passes `horizon`, the queue drains, or `max_events` have
/// been processed.
///
/// The handler receives the event timestamp, the payload, and a mutable
/// borrow of the queue so it can schedule follow-up events.
///
/// # Examples
///
/// ```
/// use hp_sim::event::{run_until, EventQueue, RunOutcome};
/// use hp_sim::time::{Cycles, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime(1), 1u64);
/// let mut sum = 0;
/// let outcome = run_until(&mut q, SimTime(100), u64::MAX, |_, n, q| {
///     sum += n;
///     if n < 4 {
///         q.schedule_after(Cycles(1), n + 1);
///     }
/// });
/// assert_eq!(outcome, RunOutcome::Drained);
/// assert_eq!(sum, 1 + 2 + 3 + 4);
/// ```
pub fn run_until<E>(
    queue: &mut EventQueue<E>,
    horizon: SimTime,
    max_events: u64,
    mut handler: impl FnMut(SimTime, E, &mut EventQueue<E>),
) -> RunOutcome {
    let mut processed = 0u64;
    loop {
        match queue.peek_time() {
            None => return RunOutcome::Drained,
            Some(t) if t > horizon => return RunOutcome::HorizonReached,
            Some(_) => {}
        }
        if processed >= max_events {
            return RunOutcome::BudgetExhausted;
        }
        let (t, payload) = queue.pop().expect("peeked event must pop");
        handler(t, payload, queue);
        processed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), 3);
        q.schedule_at(SimTime(10), 1);
        q.schedule_at(SimTime(20), 2);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        assert_eq!(q.pop(), Some((SimTime(20), 2)));
        assert_eq!(q.pop(), Some((SimTime(30), 3)));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(7), i)));
        }
    }

    #[test]
    fn ties_break_fifo_beyond_the_wheel_window() {
        // Same instant, far horizon: order must still be insertion order
        // after the heap→wheel migration.
        let far = SimTime(WHEEL_SLOTS as u64 * 3 + 17);
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule_at(far, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((far, i)));
        }
    }

    #[test]
    fn near_and_far_events_interleave_correctly() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        q.schedule_at(SimTime(2 * w + 5), "far2");
        q.schedule_at(SimTime(3), "near");
        q.schedule_at(SimTime(w + 1), "far1");
        assert_eq!(q.pop(), Some((SimTime(3), "near")));
        // Window advanced past 3: far1 may have migrated; a same-time
        // insert must still fire after it.
        q.schedule_at(SimTime(w + 1), "late-insert");
        assert_eq!(q.pop(), Some((SimTime(w + 1), "far1")));
        assert_eq!(q.pop(), Some((SimTime(w + 1), "late-insert")));
        assert_eq!(q.pop(), Some((SimTime(2 * w + 5), "far2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_wraparound_keeps_time_order() {
        // Drive the window across many wheel lengths with small steps so
        // slots are reused repeatedly.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(0), 0u64);
        let mut expect = 0u64;
        let step = (WHEEL_SLOTS as u64 / 3) * 2 + 1;
        while let Some((t, n)) = q.pop() {
            assert_eq!(t, SimTime(expect * step));
            assert_eq!(n, expect);
            expect += 1;
            if expect < 40 {
                q.schedule_after(Cycles(step), expect);
            }
        }
        assert_eq!(expect, 40);
    }

    #[test]
    fn pop_advances_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(42));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), "first");
        q.pop();
        q.schedule_after(Cycles(5), "second");
        assert_eq!(q.pop(), Some((SimTime(105), "second")));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), ());
        let mut count = 0;
        let outcome = run_until(&mut q, SimTime(10), u64::MAX, |_, (), q| {
            count += 1;
            q.schedule_after(Cycles(3), ());
        });
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Events at 1, 4, 7, 10 fire; the one at 13 does not.
        assert_eq!(count, 4);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn run_until_respects_budget() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), ());
        let outcome = run_until(&mut q, SimTime(u64::MAX), 10, |_, (), q| {
            q.schedule_after(Cycles(1), ());
        });
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
    }

    #[test]
    fn telemetry_counts_scheduled() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), ());
        q.schedule_at(SimTime(2), ());
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_batch_matches_pop_sequence() {
        // Two queues fed identically; one drained by pop, one by
        // pop_batch. The concatenated batch runs must equal the pop order.
        let times = [5u64, 5, 5, 9, 9, 4096, 4096, 70_000, 70_000, 70_001];
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            a.schedule_at(SimTime(t), i);
            b.schedule_at(SimTime(t), i);
        }
        let mut by_pop = Vec::new();
        while let Some((t, p)) = a.pop() {
            by_pop.push((t, p));
        }
        let mut by_batch = Vec::new();
        let mut run = VecDeque::new();
        while let Some((t, head)) = b.pop_batch(&mut run) {
            assert_eq!(b.now(), t);
            by_batch.push((t, head));
            for p in run.drain(..) {
                by_batch.push((t, p));
            }
        }
        assert_eq!(by_pop, by_batch);
        assert_eq!(b.pop_batch(&mut run), None);
        assert!(run.is_empty());
    }

    #[test]
    fn pop_batch_orders_same_instant_reschedules_after_the_run() {
        // An event scheduled for the *current* instant while a batch is
        // outstanding must fire after the drained run (it has a later
        // seq), exactly as with single pops.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(3), "a");
        q.schedule_at(SimTime(3), "b");
        let mut run = VecDeque::new();
        assert_eq!(q.pop_batch(&mut run), Some((SimTime(3), "a")));
        assert_eq!(run, ["b"]);
        run.clear();
        q.schedule_at(SimTime(3), "c");
        q.schedule_at(SimTime(3), "d");
        assert_eq!(q.pop_batch(&mut run), Some((SimTime(3), "c")));
        assert_eq!(run, ["d"]);
    }

    #[test]
    fn pop_batch_interleaves_with_pop() {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.schedule_at(SimTime(10), i);
        }
        q.schedule_at(SimTime(11), 6);
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        let mut run = VecDeque::new();
        assert_eq!(q.pop_batch(&mut run), Some((SimTime(10), 1)));
        assert_eq!(run, [2, 3, 4, 5]);
        run.clear();
        assert_eq!(q.pop_batch(&mut run), Some((SimTime(11), 6)));
        assert!(run.is_empty(), "singleton run spills nothing");
    }

    #[test]
    fn peek_matches_pop_across_the_window_boundary() {
        let mut q = EventQueue::new();
        let times = [1u64, 5, 4095, 4096, 4097, 70_000, 70_000, 1 << 40];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        for &t in &sorted {
            assert_eq!(q.peek_time(), Some(SimTime(t)));
            let (pt, _) = q.pop().unwrap();
            assert_eq!(pt, SimTime(t));
        }
        assert_eq!(q.peek_time(), None);
    }
}
