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
//! Against a `BinaryHeap` in ten alternating perfbench pairs on
//! `fleet_100k` (seed 1, 20 s, 2 threads on a 2-vCPU host) it won 9 of 10
//! on `samples_per_s` (median 768 against 675) and 10 of 10 on `setup_s`
//! (0.0125 against 0.0150 s), and lost 10 of 10 on `peak_rss_mb` (46.0
//! against 19.7 MiB); DESIGN.md §15 records why that made it the backing.
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
//! direct O(n) scan finds the global minimum instead of spinning over
//! future laps.
//!
//! Storage is plain `Vec`s end to end — no hash maps, no wall clock — so
//! the structure is deterministic and passes the R1 audit rules for this
//! crate.

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

/// Smallest bucket array; stays this size for tiny queues.
const MIN_BUCKETS: usize = 8;
/// Largest bucket array (2^20 slots × 24-byte Vec headers = 24 MiB);
/// beyond this the per-bucket chains just get longer, which is still
/// correct.
const MAX_BUCKETS: usize = 1 << 20;
/// Upper bound on the bucket-width exponent: 2^40 µs ≈ 12.7 simulated
/// days per bucket is wider than any span the trainers generate.
const MAX_SHIFT: u32 = 40;

/// The calendar backing store. Ordering-policy-free: [`crate::EventQueue`]
/// owns `seq` assignment and the monotone clock, and passes `now` in.
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    /// Power-of-two circular bucket array.
    buckets: Vec<Vec<CalEntry<T>>>,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    /// Total pending entries across all buckets.
    len: usize,
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: 10, // 1.024 ms buckets: a sane width for link latencies
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    fn bucket_of(&self, placement_us: u64) -> usize {
        ((placement_us >> self.shift) as usize) & (self.buckets.len() - 1)
    }

    /// Inserts an entry. `now` is the queue clock at insert time; events
    /// scheduled in the past are placed at `now` (they fire immediately)
    /// while keeping their raw `time` for the `(time, seq)` order.
    pub fn insert(&mut self, time: SimTime, seq: u64, now: SimTime, payload: T) {
        if self.len + 1 > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize((self.len + 1).next_power_of_two());
        }
        let placement_us = time.as_micros().max(now.as_micros());
        let b = self.bucket_of(placement_us);
        self.buckets[b].push(CalEntry {
            time,
            seq,
            placement_us,
            payload,
        });
        self.len += 1;
    }

    /// Removes and returns the `(time, seq)`-minimal entry, or `None` if
    /// empty. `now` is the queue clock (every placement is `>= now`).
    pub fn pop(&mut self, now: SimTime) -> Option<CalEntry<T>> {
        let (b, i) = self.find_min(now)?;
        let entry = self.buckets[b].swap_remove(i);
        self.len -= 1;
        if self.len < self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.len.max(1).next_power_of_two());
        }
        Some(entry)
    }

    /// Locates the `(time, seq)`-minimal entry as `(bucket, index)`.
    ///
    /// Scans one lap forward from the bucket covering `now`, considering
    /// only entries native to the current lap (placement day == scanned
    /// day); the first bucket with a native entry holds the global
    /// minimum (see the module docs for why). A dry lap means all
    /// entries are laps ahead — fall back to a direct scan.
    fn find_min(&self, now: SimTime) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut day = now.as_micros() >> self.shift;
        for _ in 0..self.buckets.len() {
            let b = (day as usize) & mask;
            let mut best: Option<(SimTime, u64, usize)> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if e.placement_us >> self.shift != day {
                    continue;
                }
                let key = (e.time, e.seq);
                if best.is_none_or(|(t, s, _)| key < (t, s)) {
                    best = Some((e.time, e.seq, i));
                }
            }
            if let Some((_, _, i)) = best {
                return Some((b, i));
            }
            day += 1;
        }
        self.global_min()
    }

    /// Direct O(n) scan for the `(time, seq)` minimum — the sparse
    /// far-future fallback.
    fn global_min(&self) -> Option<(usize, usize)> {
        let mut best: Option<(SimTime, u64, usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                let key = (e.time, e.seq);
                if best.is_none_or(|(t, s, _, _)| key < (t, s)) {
                    best = Some((e.time, e.seq, b, i));
                }
            }
        }
        best.map(|(_, _, b, i)| (b, i))
    }

    /// Rebuilds the bucket array at `target` slots (clamped to a power of
    /// two in `[MIN_BUCKETS, MAX_BUCKETS]`), re-deriving the bucket width
    /// from the placement spread so the pending set stays roughly one
    /// entry per bucket. Fully determined by queue contents — no
    /// sampling, no clocks — so resize points are reproducible.
    fn resize(&mut self, target: usize) {
        let nbuckets = target.clamp(MIN_BUCKETS, MAX_BUCKETS).next_power_of_two();
        let mut min_p = u64::MAX;
        let mut max_p = 0u64;
        for bucket in &self.buckets {
            for e in bucket {
                min_p = min_p.min(e.placement_us);
                max_p = max_p.max(e.placement_us);
            }
        }
        let span = max_p.saturating_sub(min_p);
        // Average inter-event gap, so ~one lap covers the whole spread.
        let gap = (span / self.len.max(1) as u64).max(1);
        let mut shift = 0u32;
        while (1u64 << shift) < gap && shift < MAX_SHIFT {
            shift += 1;
        }
        let old = std::mem::replace(
            &mut self.buckets,
            (0..nbuckets).map(|_| Vec::new()).collect(),
        );
        self.shift = shift;
        for bucket in old {
            for e in bucket {
                let b = self.bucket_of(e.placement_us);
                self.buckets[b].push(e);
            }
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
}
