//! Event-queue ordering — the contract every simulation trace rests on.
//!
//! `stsl_simnet::EventQueue` is backed by a calendar queue. It must pop
//! in exactly the order a `BinaryHeap` keyed on `(time, insertion seq)`
//! gives, with a clock that never runs backwards, for every interleaving
//! of schedules and pops: same-timestamp bursts (where only the insertion
//! sequence number breaks the tie) and far-future events that land
//! outside the calendar's current lap included. The heap here is the
//! test-local oracle; `tests/async_golden.rs` pins the trainer traces
//! built on top of the queue.

use proptest::prelude::*;
use spatio_temporal_split_learning::simnet::{EventQueue, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Schedule(u64),
    Pop,
}

/// Replays `ops` against a fresh [`EventQueue`] and returns the
/// observable history: every pop's `(fire_time_us, payload)` plus the
/// final drain order. Payloads number the schedules in order.
fn replay_queue(ops: &[QueueOp]) -> Vec<(u64, u32)> {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut history = Vec::new();
    let mut next_payload = 0u32;
    for op in ops {
        match *op {
            QueueOp::Schedule(at_us) => {
                q.schedule(SimTime::from_micros(at_us), next_payload);
                next_payload += 1;
            }
            QueueOp::Pop => {
                if let Some((t, p)) = q.pop() {
                    history.push((t.as_micros(), p));
                }
            }
        }
    }
    while let Some((t, p)) = q.pop() {
        history.push((t.as_micros(), p));
    }
    history
}

/// The oracle: the same replay on a min-heap of `(time, seq)` (the
/// payload is the sequence number), firing each event at
/// `max(time, clock)` so the clock is monotone.
fn replay_heap(ops: &[QueueOp]) -> Vec<(u64, u32)> {
    let mut heap = BinaryHeap::new();
    let mut now = 0u64;
    let mut fire = |Reverse((t, seq)): Reverse<(u64, u32)>| {
        now = now.max(t);
        (now, seq)
    };
    let mut history = Vec::new();
    let mut next_seq = 0u32;
    for op in ops {
        match *op {
            QueueOp::Schedule(at_us) => {
                heap.push(Reverse((at_us, next_seq)));
                next_seq += 1;
            }
            QueueOp::Pop => history.extend(heap.pop().map(&mut fire)),
        }
    }
    while let Some(entry) = heap.pop() {
        history.push(fire(entry));
    }
    history
}

/// Strategy: a mixed script of schedules and pops. Timestamps cluster in
/// a dense band (forcing same-bucket and same-timestamp collisions) with
/// occasional far-future spikes (forcing the calendar's dry-lap
/// global-minimum fallback) and many exact duplicates (tie-break purely
/// on sequence number).
fn ops_strategy() -> impl Strategy<Value = Vec<QueueOp>> {
    prop::collection::vec((0u64..100, 0u8..4), 1..200).prop_map(|raw| {
        raw.into_iter()
            .map(|(t, sel)| match sel {
                // Dense band with heavy duplicate timestamps.
                0 => QueueOp::Schedule(t % 16),
                1 => QueueOp::Schedule(t * 1_000),
                // Far future: outside any initial calendar lap.
                2 => QueueOp::Schedule(10_000_000 + t * 999_983),
                _ => QueueOp::Pop,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_and_heap_pop_identically(ops in ops_strategy()) {
        prop_assert_eq!(replay_queue(&ops), replay_heap(&ops));
    }
}

#[test]
fn long_mixed_script_matches_heap() {
    // 500 schedules with a pop after every third: far-future spikes,
    // inserts behind the clock, and enough pending events for several
    // calendar resizes, beyond what the proptest's 200-op scripts reach.
    let ops: Vec<QueueOp> = (0..500u64)
        .flat_map(|i| {
            let far = if i.is_multiple_of(17) {
                1_000_000_000
            } else {
                0
            };
            let pop = i.is_multiple_of(3).then_some(QueueOp::Pop);
            std::iter::once(QueueOp::Schedule((i * 7919) % 10_000 + far)).chain(pop)
        })
        .collect();
    assert_eq!(replay_queue(&ops), replay_heap(&ops));
}

#[test]
fn same_timestamp_burst_breaks_ties_by_sequence() {
    // 1000 events on one timestamp: pop order must be insertion order
    // (seq is the only tie-break).
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..1000u32 {
        q.schedule(SimTime::from_micros(42), i);
    }
    let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
    assert_eq!(order, (0..1000).collect::<Vec<u32>>());
}
