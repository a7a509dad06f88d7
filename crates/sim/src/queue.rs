//! The pending-event queue.
//!
//! A deterministic min-queue ordered by `(time, sequence)`: a
//! `BinaryHeap` of 16-byte keys over a slab of event bodies. The
//! sequence number, assigned on every push, makes tie-breaking FIFO
//! among events scheduled for the same picosecond, which in turn makes
//! whole simulations reproducible (see [`crate::sched`] for the
//! contract).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kernel::NodeId;
use crate::time::Time;

/// What a queued event delivers to its destination component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind<M> {
    /// A message from another component (or injected externally).
    Msg {
        /// Sending component.
        src: NodeId,
        /// Protocol payload.
        msg: M,
    },
    /// A self-scheduled wakeup carrying an opaque tag.
    Wake {
        /// Component-defined discriminator (e.g. an MSHR index).
        tag: u64,
    },
}

/// An event removed from the queue by [`EventQueue::pop`].
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Delivery time.
    pub time: Time,
    /// The queue sequence number: the FIFO tie-break among same-time
    /// events, assigned by [`EventQueue::push`], strictly increasing.
    pub seq: u64,
    /// Destination component.
    pub dst: NodeId,
    /// Payload.
    pub kind: EventKind<M>,
}

/// A borrowed view of a pending event, as listed by
/// [`EventQueue::census`].
#[derive(Debug)]
pub struct Pending<'a, M> {
    /// Delivery time.
    pub time: Time,
    /// The queue sequence number (see [`Event::seq`]).
    pub seq: u64,
    /// Destination component.
    pub dst: NodeId,
    /// Payload.
    pub kind: &'a EventKind<M>,
}

/// Low bits of a key's tag that index the body slab.
const SLOT_BITS: u32 = 24;

/// Most events that can be pending at once: slab slots a tag can name.
const SLOT_LIMIT: usize = 1 << SLOT_BITS;

/// Most events that can ever be pushed: sequence numbers that fit above
/// the slot bits of a tag.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// End of the slab's free list.
const NO_SLOT: u32 = u32::MAX;

/// A heap key: `time` in ps in the high 64 bits, `seq << SLOT_BITS |
/// slot` in the low 64. Sequence numbers are unique and sit above the
/// slot, so ordering keys orders events by `(time, seq)` exactly.
/// Wrapped in `Reverse` because `BinaryHeap` is a max-heap.
type Key = Reverse<u128>;

fn key(time: Time, seq: u64, slot: u32) -> Key {
    Reverse(u128::from(time.as_ps()) << 64 | u128::from(seq << SLOT_BITS | u64::from(slot)))
}

/// `(time, seq, slot)` of a key.
fn unkey(Reverse(k): Key) -> (Time, u64, usize) {
    let tag = k as u64;
    (
        Time::from_ps((k >> 64) as u64),
        tag >> SLOT_BITS,
        (tag & (SLOT_LIMIT as u64 - 1)) as usize,
    )
}

/// A slab slot: a pending event's body, or a link in the free list.
#[derive(Debug)]
enum Slot<M> {
    Full { dst: NodeId, kind: EventKind<M> },
    Free { next: u32 },
}

/// A deterministic min-queue of simulation events.
///
/// The heap orders 16-byte keys only: delivery time, then a tag of
/// sequence number and slab slot. Each event's `(dst, kind)` body waits
/// in the slab slot its key names, and freed slots are chained through
/// the slab itself for reuse. At most 2^24 events may be pending and at
/// most 2^40 pushed; past either limit [`push`](Self::push) panics.
///
/// # Example
///
/// ```
/// use tokencmp_sim::{EventKind, EventQueue, NodeId, Time};
/// let mut q: EventQueue<u32> = EventQueue::new();
/// q.push(Time::from_ns(5), NodeId(0), EventKind::Wake { tag: 1 });
/// q.push(Time::from_ns(2), NodeId(0), EventKind::Wake { tag: 2 });
/// assert_eq!(q.pop().unwrap().time, Time::from_ns(2));
/// ```
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Key>,
    slots: Vec<Slot<M>>,
    /// Head of the free-slot list, or [`NO_SLOT`].
    free: u32,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<M> {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: NO_SLOT,
            next_seq: 0,
        }
    }

    /// Schedules `kind` for delivery to `dst` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if 2^40 events have already been pushed, or if 2^24 events
    /// are already pending.
    pub fn push(&mut self, time: Time, dst: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        assert!(
            seq < SEQ_LIMIT,
            "event queue: sequence limit reached ({SEQ_LIMIT} pushes); \
             the heap key has {} sequence bits",
            64 - SLOT_BITS
        );
        self.next_seq += 1;
        let body = Slot::Full { dst, kind };
        let slot = if self.free != NO_SLOT {
            let slot = self.free;
            match std::mem::replace(&mut self.slots[slot as usize], body) {
                Slot::Free { next } => self.free = next,
                Slot::Full { .. } => unreachable!("free list names a full slot"),
            }
            slot
        } else {
            assert!(
                self.slots.len() < SLOT_LIMIT,
                "event queue: slot limit reached ({SLOT_LIMIT} pending events); \
                 the heap key has {SLOT_BITS} slot bits"
            );
            self.slots.push(body);
            (self.slots.len() - 1) as u32
        };
        self.heap.push(key(time, seq, slot));
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let (time, seq, slot) = unkey(self.heap.pop()?);
        let freed = Slot::Free { next: self.free };
        self.free = slot as u32;
        match std::mem::replace(&mut self.slots[slot], freed) {
            Slot::Full { dst, kind } => Some(Event {
                time,
                seq,
                dst,
                kind,
            }),
            Slot::Free { .. } => unreachable!("heap key names a free slot"),
        }
    }

    /// Delivery time of the earliest pending event.
    pub fn next_time(&self) -> Option<Time> {
        self.heap.peek().map(|&k| unkey(k).0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The sequence number the next [`push`](Self::push) will assign —
    /// equivalently, the number of events ever pushed.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A snapshot of every pending event, sorted by `(time, seq)` — the
    /// order events would leave the queue — so watchdog stall dumps and
    /// flight-recorder diagnostics are stable.
    pub fn census(&self) -> Vec<Pending<'_, M>> {
        let mut keys: Vec<Key> = self.heap.iter().copied().collect();
        keys.sort_unstable_by_key(|&Reverse(k)| k);
        keys.into_iter().map(|k| self.view(k)).collect()
    }

    /// [`census`](Self::census) in heap order — for callers that only
    /// *count* pending events (the telemetry sampler) and should not pay
    /// for the sort.
    pub fn census_unordered(&self) -> impl Iterator<Item = Pending<'_, M>> {
        self.heap.iter().map(|&k| self.view(k))
    }

    fn view(&self, k: Key) -> Pending<'_, M> {
        let (time, seq, slot) = unkey(k);
        match &self.slots[slot] {
            Slot::Full { dst, kind } => Pending {
                time,
                seq,
                dst: *dst,
                kind,
            },
            Slot::Free { .. } => unreachable!("heap key names a free slot"),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(tag: u64) -> EventKind<u8> {
        EventKind::Wake { tag }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), NodeId(0), wake(3));
        q.push(Time::from_ns(10), NodeId(0), wake(1));
        q.push(Time::from_ns(20), NodeId(0), wake(2));
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake { tag } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for tag in 0..10 {
            q.push(t, NodeId(0), wake(tag));
        }
        for expect in 0..10 {
            match q.pop().unwrap().kind {
                EventKind::Wake { tag } => assert_eq!(tag, expect),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn next_time_peeks_without_removing() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(Time::from_ns(7), NodeId(1), wake(0));
        assert_eq!(q.next_time(), Some(Time::from_ns(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn census_is_sorted_by_time_then_seq() {
        let mut q = EventQueue::new();
        // Push in scrambled time order, with a same-time tie pair.
        q.push(Time::from_ns(9), NodeId(0), wake(0));
        q.push(Time::from_ns(1), NodeId(1), wake(1));
        q.push(Time::from_ns(9), NodeId(2), wake(2));
        q.push(Time::from_ns(4), NodeId(3), wake(3));
        q.push(
            Time::from_ns(2),
            NodeId(4),
            EventKind::Msg {
                src: NodeId(7),
                msg: 42,
            },
        );
        let order: Vec<(Time, u64)> = q.census().iter().map(|e| (e.time, e.seq)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "census must be (time, seq)-sorted");
        assert_eq!(
            *q.census()[1].kind,
            EventKind::Msg {
                src: NodeId(7),
                msg: 42
            }
        );
        // And it matches the pop order exactly.
        let popped: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(order, popped);
    }

    #[test]
    fn next_seq_counts_every_push() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_seq(), 0);
        for i in 0..100 {
            q.push(Time::from_ns(i % 7), NodeId(0), wake(i));
        }
        assert_eq!(q.next_seq(), 100);
        q.pop();
        assert_eq!(q.next_seq(), 100, "pops do not consume sequence numbers");
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(Time::from_ns(i), NodeId(0), wake(i));
        }
        for _ in 0..5 {
            q.pop();
        }
        for i in 8..13 {
            q.push(Time::from_ns(i), NodeId(0), wake(i));
        }
        assert_eq!(q.slots.len(), 8, "refill reuses the five freed slots");
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake { tag } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, (5..13).collect::<Vec<_>>());
    }

    #[test]
    fn heap_keys_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 16);
    }

    impl<M> EventQueue<M> {
        /// A queue whose next push gets sequence number `next_seq`.
        fn starting_at_seq(next_seq: u64) -> EventQueue<M> {
            EventQueue {
                next_seq,
                ..EventQueue::new()
            }
        }
    }

    #[test]
    fn last_sequence_number_keeps_fifo_order() {
        let mut q = EventQueue::starting_at_seq(SEQ_LIMIT - 2);
        let t = Time::from_ns(1);
        q.push(t, NodeId(0), wake(0));
        q.push(t, NodeId(0), wake(1));
        assert_eq!(q.pop().unwrap().seq, SEQ_LIMIT - 2);
        assert_eq!(q.pop().unwrap().seq, SEQ_LIMIT - 1);
    }

    #[test]
    #[should_panic(expected = "event queue: sequence limit reached")]
    fn sequence_limit_fails_closed() {
        let mut q = EventQueue::starting_at_seq(SEQ_LIMIT);
        q.push(Time::ZERO, NodeId(0), wake(0));
    }
}
