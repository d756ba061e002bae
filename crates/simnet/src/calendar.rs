//! A calendar (bucket) priority queue: the backing of
//! [`crate::EventQueue`].
//!
//! The classic calendar queue (Brown 1988) hashes each event into a
//! circular array of time buckets of equal width; `pop` scans forward
//! from the bucket covering "now". With bucket count and width tracking
//! the pending-set size and spread, both `insert` and `pop` are O(1)
//! amortized — in the worst case (everything hashed into one bucket, or
//! a lap over empty buckets) they degrade gracefully to O(n) while
//! remaining exactly ordered.
//!
//! # Layout
//!
//! Every pending entry lives in one packed `Vec` that holds live entries
//! only. A bucket is a chain through that array: one `u32` head per
//! bucket, and a parallel `Vec<u32>` whose slot `i` links entry `i` to
//! the next entry of its bucket. `pop` unlinks the minimum,
//! `swap_remove`s it, and re-points the one link that named the moved
//! last entry; a resize relinks the same array in place. A pending event
//! thus costs its entry (32 bytes at the fleet's payload), a 4-byte link
//! and its share of the 4-byte heads (2–8 bytes while the ring grows),
//! and every buffer stays within twice the most entries ever pending.
//! One `Vec` per bucket instead would keep the capacity of the busiest
//! lap that ever passed through each bucket: about 18× the live data on
//! `fleet_100k`, where this layout cut `peak_rss_mb` from 48.4 to
//! 21.4 MiB (DESIGN.md §15).
//!
//! # Ordering contract
//!
//! Pops are globally ordered by `(time, seq)`, the order a `BinaryHeap`
//! keyed on `(time, seq)` gives; `tests/queue_equivalence.rs` checks the
//! two against each other. Two facts make the forward bucket scan
//! sufficient:
//!
//! * Every entry is *placed* at `max(event time, queue clock at insert)`
//!   — the clamp [`crate::EventQueue::pop`] applies at fire time, applied
//!   eagerly. The raw event `time` is preserved for ordering and for the
//!   fired timestamp; only the bucket placement is clamped.
//! * The queue clock only advances to timestamps that have been popped,
//!   so every pending placement is `>= now`: the scan from the bucket
//!   covering `now` never has live entries behind it, and the first
//!   bucket holding an entry *native to its current lap* contains the
//!   global `(time, seq)` minimum.
//!
//! If a full lap over the bucket array finds nothing native (all pending
//! events live laps in the future — the sparse far-future case), a
//! direct O(n) scan over the packed entries finds the global minimum
//! instead of spinning over future laps.
//!
//! No hash maps and no wall clock, so the structure is deterministic and
//! passes the R1 audit rules for this crate.

use crate::SimTime;

/// A pending event: the caller-visible `(time, seq, payload)` plus the
/// clamped placement key that decides which bucket holds it.
#[derive(Debug)]
pub(crate) struct CalEntry<T> {
    pub time: SimTime,
    pub seq: u64,
    placement_us: u64,
    pub payload: T,
}

/// Ends a bucket chain.
const NIL: u32 = u32::MAX;
/// Smallest bucket array; stays this size for tiny queues.
const MIN_BUCKETS: usize = 8;
/// Largest bucket array (2^20 slots × 4-byte heads = 4 MiB); beyond
/// this the per-bucket chains just get longer, which is still correct.
const MAX_BUCKETS: usize = 1 << 20;
/// Upper bound on the bucket-width exponent: 2^40 µs ≈ 12.7 simulated
/// days per bucket is wider than any span the trainers generate.
const MAX_SHIFT: u32 = 40;

/// The calendar backing store. Ordering-policy-free: [`crate::EventQueue`]
/// owns `seq` assignment and the monotone clock, and passes `now` in.
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    /// Every pending entry, packed in no particular order.
    entries: Vec<CalEntry<T>>,
    /// `next[i]` is the entry after `entries[i]` in its bucket's chain,
    /// or [`NIL`].
    next: Vec<u32>,
    /// Power-of-two circular bucket array: each bucket's first entry, or
    /// [`NIL`].
    heads: Vec<u32>,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            entries: Vec::new(),
            next: Vec::new(),
            heads: vec![NIL; MIN_BUCKETS],
            shift: 10, // 1.024 ms buckets: a sane width for link latencies
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    fn bucket_of(&self, placement_us: u64) -> usize {
        ((placement_us >> self.shift) as usize) & (self.heads.len() - 1)
    }

    /// Inserts an entry. `now` is the queue clock at insert time; events
    /// scheduled in the past are placed at `now` (they fire immediately)
    /// while keeping their raw `time` for the `(time, seq)` order.
    pub fn insert(&mut self, time: SimTime, seq: u64, now: SimTime, payload: T) {
        let i = self.len();
        assert!(i < NIL as usize, "more than 2^32 - 1 pending events");
        if i + 1 > self.heads.len() * 2 && self.heads.len() < MAX_BUCKETS {
            self.resize((i + 1).next_power_of_two());
        }
        let placement_us = time.as_micros().max(now.as_micros());
        let b = self.bucket_of(placement_us);
        self.entries.push(CalEntry {
            time,
            seq,
            placement_us,
            payload,
        });
        self.next.push(self.heads[b]);
        self.heads[b] = i as u32;
    }

    /// Removes and returns the `(time, seq)`-minimal entry, or `None` if
    /// empty. `now` is the queue clock (every placement is `>= now`).
    pub fn pop(&mut self, now: SimTime) -> Option<CalEntry<T>> {
        let i = self.find_min(now)?;
        let after = self.next[i];
        *self.link_to(i) = after;
        let last = self.len() - 1;
        if i != last {
            // `swap_remove` moves the last entry into slot `i`.
            *self.link_to(last) = i as u32;
        }
        self.next.swap_remove(i);
        let entry = self.entries.swap_remove(i);
        let len = self.len();
        if len < self.heads.len() / 8 && self.heads.len() > MIN_BUCKETS {
            self.resize(len.max(1).next_power_of_two());
        }
        Some(entry)
    }

    /// The link — a bucket head or a `next` slot — that names entry `i`.
    fn link_to(&mut self, i: usize) -> &mut u32 {
        let b = self.bucket_of(self.entries[i].placement_us);
        let target = i as u32;
        if self.heads[b] == target {
            return &mut self.heads[b];
        }
        let mut j = self.heads[b] as usize;
        while self.next[j] != target {
            j = self.next[j] as usize;
        }
        &mut self.next[j]
    }

    /// Locates the `(time, seq)`-minimal entry's index.
    ///
    /// Scans one lap forward from the bucket covering `now`, considering
    /// only entries native to the current lap (placement day == scanned
    /// day); the first bucket with a native entry holds the global
    /// minimum (see the module docs for why). A dry lap means all
    /// entries are laps ahead — fall back to a direct scan.
    fn find_min(&self, now: SimTime) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.heads.len() - 1;
        let first = now.as_micros() >> self.shift;
        for day in first..first + self.heads.len() as u64 {
            let mut best: Option<(SimTime, u64, usize)> = None;
            let mut j = self.heads[(day as usize) & mask];
            while j != NIL {
                let i = j as usize;
                let e = &self.entries[i];
                if e.placement_us >> self.shift == day
                    && best.is_none_or(|(t, s, _)| (e.time, e.seq) < (t, s))
                {
                    best = Some((e.time, e.seq, i));
                }
                j = self.next[i];
            }
            if let Some((_, _, i)) = best {
                return Some(i);
            }
        }
        self.global_min()
    }

    /// Direct O(n) scan of the packed entries for the `(time, seq)`
    /// minimum — the sparse far-future fallback.
    fn global_min(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.time, e.seq))
            .map(|(i, _)| i)
    }

    /// Relinks every entry into `target` buckets (clamped to a power of
    /// two in `[MIN_BUCKETS, MAX_BUCKETS]`), re-deriving the bucket width
    /// from the placement spread so the pending set stays roughly one
    /// entry per bucket. Fully determined by queue contents — no
    /// sampling, no clocks — so resize points are reproducible.
    fn resize(&mut self, target: usize) {
        let nbuckets = target.clamp(MIN_BUCKETS, MAX_BUCKETS).next_power_of_two();
        let (min_p, max_p) = self.entries.iter().fold((u64::MAX, 0), |(lo, hi), e| {
            (lo.min(e.placement_us), hi.max(e.placement_us))
        });
        let span = max_p.saturating_sub(min_p);
        // Average inter-event gap, so ~one lap covers the whole spread.
        let gap = (span / self.len().max(1) as u64).max(1);
        let mut shift = 0u32;
        while (1u64 << shift) < gap && shift < MAX_SHIFT {
            shift += 1;
        }
        self.shift = shift;
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        let mask = nbuckets - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let b = ((e.placement_us >> shift) as usize) & mask;
            self.next[i] = self.heads[b];
            self.heads[b] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        while let Some(e) = q.pop(now) {
            now = now.max(e.time);
            out.push((e.time.as_micros(), e.seq));
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = CalendarQueue::new();
        q.insert(SimTime::from_micros(500), 0, SimTime::ZERO, 0);
        q.insert(SimTime::from_micros(100), 1, SimTime::ZERO, 1);
        q.insert(SimTime::from_micros(100), 2, SimTime::ZERO, 2);
        q.insert(SimTime::from_micros(300), 3, SimTime::ZERO, 3);
        assert_eq!(drain(&mut q), vec![(100, 1), (100, 2), (300, 3), (500, 0)]);
    }

    #[test]
    fn resize_preserves_order_across_growth() {
        let mut q = CalendarQueue::new();
        // Enough inserts to force several grow cycles, with clustered and
        // spread timestamps.
        for i in 0..200u64 {
            let t = (i * 37) % 1000;
            q.insert(SimTime::from_micros(t), i, SimTime::ZERO, i as u32);
        }
        let out = drain(&mut q);
        assert_eq!(out.len(), 200);
        for w in out.windows(2) {
            assert!(w[0] < w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn far_future_event_found_by_fallback() {
        let mut q = CalendarQueue::new();
        // Far beyond one lap of 8 buckets at any reasonable width.
        q.insert(SimTime::from_micros(u64::MAX / 2), 0, SimTime::ZERO, 7);
        let e = q.pop(SimTime::ZERO).unwrap();
        assert_eq!(e.payload, 7);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn past_insert_is_placed_at_now() {
        let mut q = CalendarQueue::new();
        let now = SimTime::from_micros(10_000);
        q.insert(SimTime::from_micros(5), 0, now, 1);
        // The entry must be findable from the bucket covering `now`.
        let e = q.pop(now).unwrap();
        assert_eq!(e.time, SimTime::from_micros(5));
    }

    #[test]
    fn storage_follows_the_live_high_water() {
        // Hold-model laps at a few hundred pending, a 10^5-entry burst, a
        // drain through every shrink, then laps again. Each buffer must
        // stay within twice the most entries ever pending: storage that
        // kept each bucket's busiest lap would hold about four slots per
        // bucket ever touched, several times the live count.
        struct HoldModel {
            q: CalendarQueue<u32>,
            now: SimTime,
            seq: u64,
            rng: u64,
            high_water: usize,
        }
        impl HoldModel {
            fn delay_us(&mut self) -> u64 {
                self.rng = self
                    .rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                1 + (self.rng >> 33) % 200_000
            }
            fn check(&self) {
                let bound = 2 * self.high_water.max(MIN_BUCKETS);
                let held = [
                    ("entries", self.q.entries.capacity()),
                    ("links", self.q.next.capacity()),
                    ("heads", self.q.heads.capacity()),
                ];
                for (name, slots) in held {
                    assert!(
                        slots <= bound,
                        "{name} hold {slots} slots; high-water {}",
                        self.high_water
                    );
                }
            }
            fn schedule(&mut self) {
                let at = SimTime::from_micros(self.now.as_micros() + self.delay_us());
                self.q.insert(at, self.seq, self.now, 0);
                self.seq += 1;
                self.high_water = self.high_water.max(self.q.len());
                self.check();
            }
            fn pop(&mut self) -> bool {
                let popped = self.q.pop(self.now);
                if let Some(e) = &popped {
                    assert!(e.time >= self.now, "the clock ran backwards");
                    self.now = e.time;
                }
                self.check();
                popped.is_some()
            }
            fn hold(&mut self, pending: usize, steps: usize) {
                while self.q.len() < pending {
                    self.schedule();
                }
                for _ in 0..steps {
                    self.pop();
                    self.schedule();
                }
            }
        }
        let mut m = HoldModel {
            q: CalendarQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: 1,
            high_water: 0,
        };
        // ~10 s simulated: about 20 laps of the 512-bucket ring.
        m.hold(300, 30_000);
        for _ in 0..100_000 {
            m.schedule();
        }
        while m.pop() {}
        assert_eq!(m.q.heads.len(), MIN_BUCKETS, "the drain shrinks fully");
        m.hold(300, 30_000);
    }
}
