//! A work-sharing parallel executor built on `std::thread` scoped threads.
//!
//! The workspace is offline (no rayon), so this is the minimal pool the
//! campaign engine needs: `N` workers pull point indices from a shared
//! atomic counter and send `(index, result)` pairs back over a channel, so
//! results come back **in input order** regardless of which worker computed
//! them or how long each point took.
//!
//! Determinism: the executor imposes no order-dependent state of its own —
//! each item is mapped independently by a pure function of `(index, item)`.
//! As long as the closure is deterministic (every simulation run in this
//! workspace is), `jobs = 1` and `jobs = N` produce bit-identical outputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A fixed-width work-sharing executor.
///
/// # Example
///
/// ```
/// use campaign::Executor;
///
/// let squares = Executor::new(4).run(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with `jobs` workers; `0` means the host's available
    /// parallelism (the `--jobs` flag default).
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            jobs
        };
        Executor { jobs }
    }

    /// A single-worker executor (runs everything inline, spawns no threads).
    pub fn serial() -> Self {
        Executor { jobs: 1 }
    }

    /// Number of workers this executor uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items`, returning the results in input order.
    ///
    /// `f` receives the item index alongside the item.  Workers claim the
    /// next unclaimed index (work sharing), so an expensive point never
    /// blocks the queue behind it.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` after all workers have stopped.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // A send failure means the receiver is gone (the scope
                    // body panicked); stop quietly, the panic wins.
                    if tx.send((i, f(i, &items[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
            for (i, r) in rx {
                slots[i] = Some(r);
            }
            // A `None` slot means a worker unwound before producing its
            // result; scope join re-raises that panic right after this one.
            slots
                .into_iter()
                .map(|s| s.expect("a worker panicked before finishing its point"))
                .collect()
        })
    }
}

impl Default for Executor {
    /// The available-parallelism executor, same as `Executor::new(0)`.
    fn default() -> Self {
        Executor::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_available_parallelism() {
        assert!(Executor::new(0).jobs() >= 1);
        assert_eq!(Executor::default().jobs(), Executor::new(0).jobs());
        assert_eq!(Executor::serial().jobs(), 1);
        assert_eq!(Executor::new(7).jobs(), 7);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        // Reverse the per-item cost so late items finish first.
        let out = Executor::new(8).run(&items, |i, &x| {
            std::thread::sleep(std::time::Duration::from_micros(100 - i as u64));
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<u64> = (0..50).collect();
        let f = |i: usize, x: &u64| i as u64 * 1000 + x * x;
        assert_eq!(
            Executor::serial().run(&items, f),
            Executor::new(4).run(&items, f)
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(Executor::new(4).run(&none, |_, &x| x).is_empty());
        assert_eq!(Executor::new(4).run(&[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Executor::new(2).run(&[1u32, 2, 3, 4], |_, &x| {
                assert_ne!(x, 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
