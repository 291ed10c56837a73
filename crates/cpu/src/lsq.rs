//! Load/store-queue model for the consistency mechanism of §3.4.
//!
//! When a guarded access hits the SPMDir, its effective address changes from
//! a GM virtual address to an SPM virtual address.  An out-of-order core may
//! already have re-ordered it with respect to a strided access to the *same*
//! SPM address, and the LSQ would not have flagged the violation because the
//! original addresses differed.  The paper's fix is to notify the new SPM
//! address to the LSQ, re-check the ordering and flush the pipeline on a
//! violation.  [`LoadStoreQueue`] models the in-flight window and that
//! re-check.
//!
//! The window is two fixed rings of addresses, one per queue: whether an
//! entry is a store is implied by its ring, and a ring of store values
//! exists only once a store carries one, which happens only when the system
//! tracks values.

use mem::Addr;

/// A fixed-capacity FIFO of in-window addresses; a push into a full ring
/// retires its oldest entry.
///
/// The live entries always occupy `addrs[..len]`: after a flush the ring
/// fills from slot 0, and `next` wraps only once every slot is live.
#[derive(Debug, Clone)]
struct Ring {
    addrs: Box<[Addr]>,
    /// The slot the next push writes: the oldest entry's once full.
    next: usize,
    len: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            addrs: vec![Addr::new(0); capacity].into_boxed_slice(),
            next: 0,
            len: 0,
        }
    }

    /// Appends `addr` and returns the slot it went to.
    #[inline]
    fn push(&mut self, addr: Addr) -> usize {
        let slot = self.next;
        self.addrs[slot] = addr;
        self.next = if slot + 1 == self.addrs.len() {
            0
        } else {
            slot + 1
        };
        if self.len < self.addrs.len() {
            self.len += 1;
        }
        slot
    }

    #[inline]
    fn contains(&self, addr: Addr) -> bool {
        self.addrs[..self.len].contains(&addr)
    }

    /// The live slots, youngest first.
    fn youngest_first(&self) -> impl Iterator<Item = usize> {
        (0..self.next).rev().chain((self.next..self.len).rev())
    }

    fn clear(&mut self) {
        self.next = 0;
        self.len = 0;
    }
}

/// A simplified load/store queue: the window of memory operations that may
/// still be in flight (and hence re-ordered) around the instruction being
/// executed.
///
/// # Example
///
/// ```
/// use cpu::LoadStoreQueue;
/// use mem::Addr;
///
/// let mut lsq = LoadStoreQueue::new(48, 32);
/// lsq.record(Addr::new(0x1000), true);
/// // A diverted guarded load to the same address conflicts with the store.
/// assert!(lsq.recheck(Addr::new(0x1000), false));
/// // A different address does not.
/// assert!(!lsq.recheck(Addr::new(0x2000), false));
/// ```
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    loads: Ring,
    stores: Ring,
    /// The data value of the store in each slot of `stores`, allocated by
    /// the first store that carries a value.
    store_values: Option<Box<[Option<u64>]>>,
    rechecks: u64,
    violations: u64,
    value_forwards: u64,
}

impl LoadStoreQueue {
    /// Creates a queue with the given load/store capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(lq_capacity: usize, sq_capacity: usize) -> Self {
        assert!(
            lq_capacity > 0 && sq_capacity > 0,
            "LSQ capacities must be non-zero"
        );
        LoadStoreQueue {
            loads: Ring::new(lq_capacity),
            stores: Ring::new(sq_capacity),
            store_values: None,
            rechecks: 0,
            violations: 0,
            value_forwards: 0,
        }
    }

    /// Records a memory operation entering the window, retiring the oldest
    /// one if the corresponding queue is full.
    pub fn record(&mut self, addr: Addr, is_store: bool) {
        self.record_valued(addr, is_store, None);
    }

    /// Like [`LoadStoreQueue::record`], carrying the operation's data value
    /// when the system tracks values.  A load whose observed value equals
    /// the youngest in-window store to the same address counts as a
    /// store-to-load forward.
    pub fn record_valued(&mut self, addr: Addr, is_store: bool, value: Option<u64>) {
        if is_store {
            let slot = self.stores.push(addr);
            if value.is_some() || self.store_values.is_some() {
                let capacity = self.stores.addrs.len();
                self.store_values
                    .get_or_insert_with(|| vec![None; capacity].into_boxed_slice())[slot] = value;
            }
        } else {
            // Only scan the store queue when the load carries a value: in
            // timing-only mode every access records `None`, and the scan
            // would be wasted work on the hottest path in the simulator.
            if let Some(observed) = value {
                if self.latest_store_value(addr) == Some(observed) {
                    self.value_forwards += 1;
                }
            }
            self.loads.push(addr);
        }
    }

    /// The value of the youngest in-window store to `addr`, if it carried
    /// one (the data a store-to-load forward would supply).
    pub fn latest_store_value(&self, addr: Addr) -> Option<u64> {
        let values = self.store_values.as_deref()?;
        self.stores
            .youngest_first()
            .find(|&slot| self.stores.addrs[slot] == addr)
            .and_then(|slot| values[slot])
    }

    /// Re-checks ordering for a guarded access to `addr` that was diverted
    /// to an SPM.  `addr` is the access's GM address, which is what the
    /// window recorded, because SPM data is keyed by its GM address.
    ///
    /// Returns `true` if a violation is detected: some in-flight operation
    /// targets the same address and at least one of the two is a store, so
    /// the pipeline must be flushed.
    pub fn recheck(&mut self, addr: Addr, is_store: bool) -> bool {
        self.rechecks += 1;
        let violation = self.stores.contains(addr) || (is_store && self.loads.contains(addr));
        if violation {
            self.violations += 1;
        }
        violation
    }

    /// Empties the window (pipeline flush or barrier).
    pub fn flush(&mut self) {
        self.loads.clear();
        self.stores.clear();
    }

    /// Number of in-flight operations currently tracked.
    pub fn occupancy(&self) -> usize {
        self.loads.len + self.stores.len
    }

    /// Number of ordering re-checks performed.
    pub fn rechecks(&self) -> u64 {
        self.rechecks
    }

    /// Number of ordering violations detected (each costs a pipeline flush).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Number of loads whose observed value matched an in-window store to
    /// the same address (only counted when values are tracked).
    pub fn value_forwards(&self) -> u64 {
        self.value_forwards
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    #[test]
    fn detects_conflicts_only_with_a_store_involved() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.record(Addr::new(0x100), false);
        // load vs load: no violation.
        assert!(!lsq.recheck(Addr::new(0x100), false));
        // load vs store: violation.
        assert!(lsq.recheck(Addr::new(0x100), true));
        lsq.record(Addr::new(0x200), true);
        // store in window vs diverted load: violation.
        assert!(lsq.recheck(Addr::new(0x200), false));
        assert_eq!(lsq.rechecks(), 3);
        assert_eq!(lsq.violations(), 2);
    }

    #[test]
    fn window_is_bounded_and_fifo() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.record(Addr::new(0x1), true);
        lsq.record(Addr::new(0x2), true);
        lsq.record(Addr::new(0x3), true);
        // 0x1 fell out of the window.
        assert!(!lsq.recheck(Addr::new(0x1), false));
        assert!(lsq.recheck(Addr::new(0x3), false));
        assert_eq!(lsq.occupancy(), 2);
    }

    #[test]
    fn flush_empties_the_window() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.record(Addr::new(0x10), true);
        lsq.flush();
        assert_eq!(lsq.occupancy(), 0);
        assert!(!lsq.recheck(Addr::new(0x10), false));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = LoadStoreQueue::new(0, 4);
    }

    #[test]
    fn value_carrying_entries_detect_store_to_load_forwards() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.record_valued(Addr::new(0x100), true, Some(7));
        lsq.record_valued(Addr::new(0x100), true, Some(9));
        assert_eq!(lsq.latest_store_value(Addr::new(0x100)), Some(9));
        assert_eq!(lsq.latest_store_value(Addr::new(0x200)), None);
        // Load observing the youngest store's value: a forward.
        lsq.record_valued(Addr::new(0x100), false, Some(9));
        assert_eq!(lsq.value_forwards(), 1);
        // Observing something else (e.g. a remote write won the race): not
        // a forward, and not an error either.
        lsq.record_valued(Addr::new(0x100), false, Some(1));
        assert_eq!(lsq.value_forwards(), 1);
        // Value-less recording (timing-only mode) never counts.
        lsq.record(Addr::new(0x100), false);
        assert_eq!(lsq.value_forwards(), 1);
        lsq.flush();
        assert_eq!(lsq.latest_store_value(Addr::new(0x100)), None);
    }

    #[test]
    fn timing_only_recording_allocates_no_value_ring() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.record(Addr::new(0x100), true);
        lsq.record_valued(Addr::new(0x100), false, Some(3));
        assert!(lsq.store_values.is_none());
        lsq.record_valued(Addr::new(0x100), true, Some(3));
        assert!(lsq.store_values.is_some());
    }

    /// One in-flight operation of [`DequeLsq`].
    #[derive(Debug, Clone, Copy)]
    struct DequeEntry {
        addr: Addr,
        is_store: bool,
        value: Option<u64>,
    }

    /// The LSQ as it was before the address rings: one `VecDeque` of full
    /// entries per queue.  Kept only as the reference for the property
    /// below.
    struct DequeLsq {
        lq_capacity: usize,
        sq_capacity: usize,
        loads: VecDeque<DequeEntry>,
        stores: VecDeque<DequeEntry>,
        violations: u64,
        value_forwards: u64,
    }

    impl DequeLsq {
        fn new(lq_capacity: usize, sq_capacity: usize) -> Self {
            DequeLsq {
                lq_capacity,
                sq_capacity,
                loads: VecDeque::new(),
                stores: VecDeque::new(),
                violations: 0,
                value_forwards: 0,
            }
        }

        fn record_valued(&mut self, addr: Addr, is_store: bool, value: Option<u64>) {
            if !is_store {
                if let Some(observed) = value {
                    if self.latest_store_value(addr) == Some(observed) {
                        self.value_forwards += 1;
                    }
                }
            }
            let (queue, cap) = if is_store {
                (&mut self.stores, self.sq_capacity)
            } else {
                (&mut self.loads, self.lq_capacity)
            };
            if queue.len() == cap {
                queue.pop_front();
            }
            queue.push_back(DequeEntry {
                addr,
                is_store,
                value,
            });
        }

        fn latest_store_value(&self, addr: Addr) -> Option<u64> {
            self.stores
                .iter()
                .rev()
                .find(|e| e.addr == addr)
                .and_then(|e| e.value)
        }

        fn recheck(&mut self, new_addr: Addr, is_store: bool) -> bool {
            let conflict = |e: &DequeEntry| e.addr == new_addr && (e.is_store || is_store);
            let violation = self.loads.iter().any(conflict) || self.stores.iter().any(conflict);
            if violation {
                self.violations += 1;
            }
            violation
        }

        fn flush(&mut self) {
            self.loads.clear();
            self.stores.clear();
        }

        fn occupancy(&self) -> usize {
            self.loads.len() + self.stores.len()
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Driven through the same random records, re-checks and
            /// flushes, the address rings and the `VecDeque` reference
            /// agree on every re-check, on the counters, on the occupancy
            /// and on the youngest store value of every address.  Untracked
            /// cases record no value at all; tracked ones mix valued and
            /// value-less records over few values, so forwards happen.
            #[test]
            fn rings_match_the_deque_reference(
                capacities in (1usize..=8, 1usize..=8),
                tracked in any::<bool>(),
                ops in proptest::collection::vec(
                    (0u8..100, 0u64..6, 0u64..3, 0u8..4),
                    0..400,
                )
            ) {
                let (lq, sq) = capacities;
                let mut rings = LoadStoreQueue::new(lq, sq);
                let mut reference = DequeLsq::new(lq, sq);
                for &(op, addr, value, valueless) in &ops {
                    let addr = Addr::new(addr * 8);
                    let value = (tracked && valueless != 0).then_some(value);
                    match op {
                        0..=4 => {
                            rings.flush();
                            reference.flush();
                        }
                        5..=24 => {
                            let is_store = op % 2 == 0;
                            prop_assert_eq!(
                                rings.recheck(addr, is_store),
                                reference.recheck(addr, is_store)
                            );
                        }
                        _ => {
                            let is_store = op % 2 == 0;
                            if tracked {
                                rings.record_valued(addr, is_store, value);
                            } else {
                                rings.record(addr, is_store);
                            }
                            reference.record_valued(addr, is_store, value);
                        }
                    }
                    prop_assert_eq!(rings.violations(), reference.violations);
                    prop_assert_eq!(rings.value_forwards(), reference.value_forwards);
                    prop_assert_eq!(rings.occupancy(), reference.occupancy());
                    for a in 0..6 {
                        let a = Addr::new(a * 8);
                        prop_assert_eq!(
                            rings.latest_store_value(a),
                            reference.latest_store_value(a)
                        );
                    }
                }
            }
        }
    }
}
