//! The event-ordering contract and the scheduler's identity.
//!
//! The kernel's pending events live in one binary min-heap
//! ([`crate::queue::EventQueue`]). Its contract:
//!
//! > events leave in ascending `(time, seq)` order — earliest delivery
//! > time first, FIFO by insertion sequence number among same-picosecond
//! > ties — for **every** interleaving of inserts and removals.
//!
//! The sequence number is assigned by the queue on every push, so the
//! pop order (and therefore every simulation result downstream) is a
//! pure function of the push sequence. `tests/scheduler_prop.rs` checks
//! the queue against a sorted-`Vec` reference model. DESIGN.md §14
//! records why a single heap, and no faster-looking alternative, backs
//! the queue.

/// The scheduler a kernel runs on. There is one: the binary heap. The
/// name is kept so run headers and `tokencmp-timeseries-v1` series can
/// label the engine they were produced on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum SchedulerKind {
    /// The binary-heap event queue.
    #[default]
    Heap,
}

impl SchedulerKind {
    /// The label naming this scheduler in reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::NodeId;
    use crate::queue::{EventKind, EventQueue};
    use crate::time::Time;

    /// Pops everything, as `(time in ps, seq)`.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_ps(), e.seq()))
            .collect()
    }

    fn wake_at(q: &mut EventQueue<u32>, ps: u64) {
        q.push(Time::from_ps(ps), NodeId(0), EventKind::Wake { tag: 0 });
    }

    #[test]
    fn same_tick_ties_leave_in_seq_order() {
        let mut q = EventQueue::new();
        for _ in 0..64 {
            wake_at(&mut q, 4096);
        }
        assert_eq!(
            drain(&mut q),
            (0..64).map(|s| (4096, s)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn past_insert_after_cursor_advance_still_pops_first() {
        let mut q = EventQueue::new();
        wake_at(&mut q, 10_000);
        wake_at(&mut q, 20_000);
        assert_eq!(q.pop().unwrap().time, Time::from_ps(10_000));
        // An adversarial "past" insert (earlier than everything pending,
        // and earlier than the event just popped).
        wake_at(&mut q, 5);
        assert_eq!(q.next_time(), Some(Time::from_ps(5)));
        assert_eq!(drain(&mut q), vec![(5, 2), (20_000, 1)]);
    }

    #[test]
    fn time_max_adjacent_events_terminate() {
        let mut q = EventQueue::new();
        for t in [u64::MAX, u64::MAX - 1, u64::MAX - 1_000_000] {
            wake_at(&mut q, t);
        }
        assert_eq!(q.next_time(), Some(Time::from_ps(u64::MAX - 1_000_000)));
        assert_eq!(
            drain(&mut q),
            vec![(u64::MAX - 1_000_000, 2), (u64::MAX - 1, 1), (u64::MAX, 0)]
        );
        assert!(q.pop().is_none());
    }
}
