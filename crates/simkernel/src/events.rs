//! Deterministic timestamped event queue.
//!
//! The simulator is largely cycle-approximate and analytic, but several
//! components (the DMA controllers, the filter-directory request/response
//! flows and the system driver's round-robin core interleaving) are expressed
//! as discrete events.  [`EventQueue`] is a thin wrapper around a binary heap
//! that breaks ties by insertion order so runs are exactly reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::cycles::Cycle;

/// A deterministic priority queue of events ordered by their firing cycle.
///
/// Events scheduled for the same cycle are delivered in insertion order
/// (FIFO), which keeps simulations reproducible regardless of payload type.
///
/// # Example
///
/// ```
/// use simkernel::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle::new(5), 'b');
/// q.schedule(Cycle::new(5), 'c');
/// q.schedule(Cycle::new(1), 'a');
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

struct Entry<E> {
    when: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.when == other.when && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest cycle (and lowest
        // sequence number within a cycle) pops first.
        other
            .when
            .cmp(&self.when)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty event queue with space for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `when`.
    pub fn schedule(&mut self, when: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { when, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.when, e.event))
    }

    /// Returns the firing time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.when)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_fire", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30), 3);
        q.schedule(Cycle::new(10), 1);
        q.schedule(Cycle::new(20), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(7), i)));
        }
    }

    #[test]
    fn peek_len_clear() {
        let mut q: EventQueue<u8> = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycle::new(3), 1);
        q.schedule(Cycle::new(1), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(1)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Popping delivers events in non-decreasing cycle order, and
            /// events sharing a cycle come out in insertion (FIFO) order —
            /// the property every deterministic replay in the simulator
            /// rests on.  Equivalent formulation: the pop sequence is the
            /// stable sort of the schedule sequence by cycle.
            #[test]
            fn pops_are_a_stable_sort_by_cycle(cycles in vec(0u64..16, 0..200)) {
                let mut q = EventQueue::new();
                for (i, &c) in cycles.iter().enumerate() {
                    q.schedule(Cycle::new(c), i);
                }
                let mut expected: Vec<(u64, usize)> =
                    cycles.iter().copied().zip(0..).collect();
                expected.sort_by_key(|&(c, _)| c); // sort_by_key is stable
                let popped: Vec<(u64, usize)> =
                    std::iter::from_fn(|| q.pop().map(|(c, i)| (c.as_u64(), i))).collect();
                prop_assert_eq!(popped, expected);
                prop_assert!(q.is_empty());
            }

            /// Interleaving schedules and pops never reorders same-cycle
            /// events: anything scheduled later at a cycle pops after
            /// everything already queued for that cycle.
            #[test]
            fn fifo_survives_interleaved_scheduling(
                first in vec(0u64..4, 1..50),
                second in vec(0u64..4, 1..50),
            ) {
                let mut q = EventQueue::new();
                for (i, &c) in first.iter().enumerate() {
                    q.schedule(Cycle::new(c), i);
                }
                // Drain the earliest event, then add the second wave.
                let head = q.pop();
                prop_assert!(head.is_some());
                let offset = first.len();
                for (i, &c) in second.iter().enumerate() {
                    q.schedule(Cycle::new(c), offset + i);
                }
                let mut last: Option<(u64, usize)> = None;
                while let Some((when, id)) = q.pop() {
                    if let Some((prev_when, prev_id)) = last {
                        prop_assert!(when.as_u64() >= prev_when);
                        if when.as_u64() == prev_when
                            && (prev_id < offset) == (id < offset)
                        {
                            // Same wave, same cycle: insertion order holds.
                            prop_assert!(id > prev_id);
                        }
                    }
                    last = Some((when.as_u64(), id));
                }
            }
        }
    }
}
