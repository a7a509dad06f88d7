//! Property tests of the event queue's `(time, seq)` FIFO contract.
//!
//! The queue is checked against a reference model: a `Vec` kept sorted
//! by `(time, seq)`, with sequence numbers counted by the model itself.
//! For *every* interleaving of pushes and pops the queue must match it
//! observation for observation — same pop sequence `(time, seq, dst,
//! payload)`, same `next_time`, same `len`, and a `census()` listing the
//! pending events in exactly the model's order. Random schedules mix
//! bursty same-tick ties (FIFO tie-break), in-window spreads, far-future
//! pushes and pushes below the last popped time.

use proptest::prelude::*;

use tokencmp::sim::{EventKind, EventQueue, NodeId, QueuedEvent, Time};

/// Spread of the in-window offsets, in picoseconds (~1 µs, a few
/// inter-CMP round trips); far-future pushes land several spreads out.
const SPREAD: u64 = 1 << 20;

#[derive(Clone, Debug)]
enum Op {
    /// Push at `last popped time + offset` — offsets of zero land on the
    /// current tick, small ones stay near it, large ones far ahead.
    Push(u64),
    /// Pop once and compare the full event with the model.
    Pop,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        // Bursty ties: a handful of distinct ticks, drawn repeatedly.
        (0u64..4).prop_map(|k| Op::Push(k * 1024)),
        // In-window spread.
        (0u64..SPREAD).prop_map(Op::Push),
        // The window edge, a few ps either side.
        (SPREAD - 4..SPREAD + 4).prop_map(Op::Push),
        // Far future.
        (2 * SPREAD..6 * SPREAD).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
    ];
    proptest::collection::vec(op, 0..250)
}

/// The reference model: pending events sorted by `(time, seq)`.
#[derive(Default)]
struct SortedVec<M> {
    pending: Vec<(Time, u64, NodeId, EventKind<M>)>,
    next_seq: u64,
}

impl<M> SortedVec<M> {
    fn push(&mut self, time: Time, dst: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self.pending.partition_point(|e| (e.0, e.1) < (time, seq));
        self.pending.insert(at, (time, seq, dst, kind));
    }

    fn pop(&mut self) -> Option<(Time, u64, NodeId, EventKind<M>)> {
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }

    fn next_time(&self) -> Option<Time> {
        self.pending.first().map(|e| e.0)
    }
}

fn coords<M>(e: &QueuedEvent<M>) -> (Time, u64, NodeId) {
    (e.time, e.seq(), e.dst)
}

/// Drains `q` and `model` together, asserting they agree event for event.
fn drain_matches<M: PartialEq + std::fmt::Debug>(q: &mut EventQueue<M>, model: &mut SortedVec<M>) {
    loop {
        match (q.pop(), model.pop()) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(coords(&a), (b.0, b.1, b.2));
                prop_assert_eq!(&a.kind, &b.3);
            }
            (None, None) => return,
            (a, b) => prop_assert!(false, "drain length mismatch: queue={:?} model={:?}", a, b),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The queue agrees with the sorted-`Vec` model on every observation
    /// of every schedule, and its census lists the model's order.
    #[test]
    fn queue_matches_the_sorted_reference(ops in ops_strategy()) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = SortedVec::default();
        let mut base = 0u64; // time of the last popped event
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Push(offset) => {
                    let t = Time::from_ps(base.saturating_add(offset));
                    let dst = NodeId((i % 7) as u32);
                    // Alternate payload kinds so both are carried.
                    let kind = if i % 2 == 0 {
                        EventKind::Wake { tag: i as u64 }
                    } else {
                        EventKind::Msg { src: dst, msg: i as u64 }
                    };
                    q.push(t, dst, kind.clone());
                    model.push(t, dst, kind);
                }
                Op::Pop => match (q.pop(), model.pop()) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(coords(&a), (b.0, b.1, b.2), "pop diverged at op {}", i);
                        prop_assert_eq!(&a.kind, &b.3, "pop payload diverged at op {}", i);
                        base = a.time.as_ps();
                    }
                    (None, None) => {}
                    (a, b) => prop_assert!(false, "one side empty at op {}: queue={:?} model={:?}", i, a, b),
                },
            }
            prop_assert_eq!(q.next_time(), model.next_time(), "next_time diverged at op {}", i);
            prop_assert_eq!(q.len(), model.pending.len(), "len diverged at op {}", i);
            prop_assert_eq!(q.next_seq(), model.next_seq, "next_seq diverged at op {}", i);
            let census: Vec<_> = q.census().into_iter().map(coords).collect();
            let expect: Vec<_> = model.pending.iter().map(|e| (e.0, e.1, e.2)).collect();
            prop_assert_eq!(census, expect, "census diverged at op {}", i);
        }
        drain_matches(&mut q, &mut model);
    }

    /// Events pushed at a few shared times, in scrambled order, leave
    /// grouped by time and, within each time, in push order.
    #[test]
    fn same_time_ties_pop_fifo_by_seq(ticks in proptest::collection::vec(0u64..4, 1..120)) {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, &k) in ticks.iter().enumerate() {
            q.push(Time::from_ps(k * 1024), NodeId(0), EventKind::Wake { tag: i as u64 });
        }
        let popped: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake { tag } => {
                    assert_eq!(tag, e.seq(), "seq is the push index");
                    (e.time, e.seq())
                }
                EventKind::Msg { .. } => unreachable!(),
            })
            .collect();
        let mut expect = popped.clone();
        expect.sort();
        prop_assert_eq!(popped.len(), ticks.len());
        prop_assert_eq!(popped, expect);
    }

    /// Past-heavy schedules: an event far ahead is popped first, then
    /// every push lands *below* that last popped time. The queue must
    /// still follow the model.
    #[test]
    fn past_inserts_match_the_reference(ticks in proptest::collection::vec(0u64..2 * SPREAD, 1..40)) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = SortedVec::default();
        let far = Time::from_ps(10 * SPREAD);
        q.push(far, NodeId(0), EventKind::Wake { tag: 0 });
        model.push(far, NodeId(0), EventKind::Wake { tag: 0 });
        prop_assert_eq!(q.pop().map(|e| coords(&e)), model.pop().map(|e| (e.0, e.1, e.2)));
        for (i, &t) in ticks.iter().enumerate() {
            let kind = EventKind::Wake { tag: i as u64 };
            q.push(Time::from_ps(t), NodeId(0), kind.clone());
            model.push(Time::from_ps(t), NodeId(0), kind);
        }
        drain_matches(&mut q, &mut model);
    }
}

/// `next_seq` stays strictly monotonic across millions of pushes: seq
/// assignment is central, so no number is skipped or reused however
/// pushes and pops interleave.
#[test]
fn next_seq_is_monotonic_under_millions_of_pushes() {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut pushed = 0u64;
    for round in 0..2_000u64 {
        for i in 0..1_000u64 {
            assert_eq!(q.next_seq(), pushed, "seq skipped");
            q.push(
                Time::from_ps(round * 512 + (i % 13)),
                NodeId(0),
                EventKind::Wake { tag: i },
            );
            pushed += 1;
        }
        // Drain half each round so the queue stays bounded but the
        // push counter keeps climbing past 2 million.
        for _ in 0..500 {
            q.pop();
        }
    }
    assert_eq!(pushed, 2_000_000);
    assert_eq!(q.next_seq(), pushed, "pops must not consume seqs");
}
