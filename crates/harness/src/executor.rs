//! The parallel point executor.
//!
//! A fixed pool of scoped worker threads pulls point indices from one
//! shared atomic queue — the degenerate (single-injector) form of work
//! stealing: whichever worker goes idle first claims the next point,
//! so imbalanced point costs never leave threads parked, and there is
//! no per-thread queue to rebalance. Results land in their point's
//! slot, so output order equals enumeration order regardless of thread
//! interleaving; combined with per-point RNG seeding
//! ([`crate::hash::point_seed`]) this makes parallel runs bit-identical
//! to serial ones.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A cooperative cancellation flag shared between a dispatcher and its
/// worker closures (fail-fast sweeps trip it on the first quarantined
/// point; workers consult it before starting new work).
///
/// Cancellation is advisory: items already being evaluated run to
/// completion, and every slot still gets a result — the closure
/// decides what a cancelled item's result looks like.
#[derive(Debug, Default)]
pub struct CancelToken(AtomicBool);

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once any party has cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A reusable parallel map over indexed work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with `threads` workers (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// One worker per available CPU.
    #[must_use]
    pub fn per_cpu() -> Self {
        Executor::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel; `f` receives the item index
    /// and the item. The returned vector is in item order.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 || items.len() == 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(items.len());
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                let next = &next;
                let slots = &slots;
                let f = &f;
                scope.spawn(move |_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    *slots[i].lock() = Some(f(i, item));
                });
            }
        })
        .expect("executor workers do not panic");
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot filled"))
            .collect()
    }

    /// Maps `f` over `items` grouped by `group_of`: items sharing a
    /// group key are handed to `f` together (one *batch job* per
    /// group), and the per-item results are scattered back into item
    /// order. Groups run in parallel; grouping itself is deterministic
    /// (first-occurrence order), so output equals a serial run at any
    /// thread count.
    ///
    /// `f` must return exactly one result per member, in member order.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a result count different from the group's
    /// member count.
    pub fn run_grouped<I, K, T, G, F>(&self, items: &[I], group_of: G, f: F) -> Vec<T>
    where
        I: Sync,
        K: Eq + Hash + Clone + Sync,
        T: Send,
        G: Fn(usize, &I) -> K,
        F: Fn(&K, &[(usize, &I)]) -> Vec<T> + Sync,
    {
        let (order, groups) = partition(items, group_of);
        let members: Vec<(usize, &I)> = order.iter().map(|&i| (i, &items[i])).collect();
        let results = self.run(&groups, |_, (key, range)| {
            let out = f(key, &members[range.clone()]);
            assert_eq!(
                out.len(),
                range.len(),
                "grouped evaluator must return one result per member"
            );
            out
        });
        let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
        for (&i, value) in order.iter().zip(results.into_iter().flatten()) {
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every item belongs to a group"))
            .collect()
    }
}

/// Groups `items` by `group_of`: returns the item indices reordered
/// group by group, and every group's key and index range in that
/// order. Groups keep first-occurrence order and members keep item
/// order, so the grouping is independent of the thread count.
pub(crate) fn partition<I, K>(
    items: &[I],
    group_of: impl Fn(usize, &I) -> K,
) -> (Vec<usize>, Vec<(K, Range<usize>)>)
where
    K: Eq + Hash + Clone,
{
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let key = group_of(i, item);
        let g = *index.entry(key.clone()).or_insert(groups.len());
        if g == groups.len() {
            groups.push((key, Vec::new()));
        }
        groups[g].1.push(i);
    }
    let mut order = Vec::with_capacity(items.len());
    let ranges = groups
        .into_iter()
        .map(|(key, members)| {
            let start = order.len();
            order.extend(members);
            (key, start..order.len())
        })
        .collect();
    (order, ranges)
}

impl Default for Executor {
    fn default() -> Self {
        Executor::per_cpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_under_parallelism() {
        let items: Vec<u64> = (0..257).collect();
        let serial = Executor::new(1).run(&items, |i, &x| x * 2 + i as u64);
        let parallel = Executor::new(8).run(&items, |i, &x| x * 2 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 30);
    }

    #[test]
    fn uneven_work_completes() {
        let items: Vec<u64> = (0..64).collect();
        let out = Executor::new(4).run(&items, |_, &x| {
            // Skewed cost: make late items heavy to exercise the
            // shared queue.
            (0..(x * 1000)).fold(0u64, |acc, v| acc.wrapping_add(v))
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn empty_and_singleton() {
        let e = Executor::new(4);
        assert!(e.run(&[] as &[u64], |_, &x| x).is_empty());
        assert_eq!(e.run(&[5u64], |i, &x| x + i as u64), vec![5]);
    }

    #[test]
    fn grouped_results_scatter_back_to_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let eval = |e: Executor| {
            e.run_grouped(
                &items,
                |_, &x| x % 3,
                |&k, members| {
                    members
                        .iter()
                        .map(|&(i, &x)| k * 1000 + x + i as u64)
                        .collect()
                },
            )
        };
        let serial = eval(Executor::new(1));
        let parallel = eval(Executor::new(8));
        assert_eq!(serial, parallel);
        // Item 7 is in group 1 (7 % 3), at its enumeration index.
        assert_eq!(serial[7], 1000 + 7 + 7);
    }

    #[test]
    #[should_panic(expected = "one result per member")]
    fn grouped_evaluator_must_cover_every_member() {
        let items = [1u64, 2, 3];
        let _ = Executor::new(1).run_grouped(&items, |_, _| 0u64, |_, _| vec![0u64]);
    }

    #[test]
    fn cancel_token_is_advisory_and_sticky() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let items: Vec<u64> = (0..10).collect();
        // Workers consult the token in their closure; items claimed
        // after cancellation resolve to a sentinel instead of running.
        // Serial execution makes the outcome deterministic: item 3
        // trips the token, items 4.. are skipped.
        let out = Executor::new(1).run(&items, |_, &x| {
            if token.is_cancelled() {
                return u64::MAX;
            }
            if x == 3 {
                token.cancel();
            }
            x
        });
        assert_eq!(out.len(), 10, "every slot still filled");
        assert!(token.is_cancelled());
        assert_eq!(&out[..4], &[0, 1, 2, 3]);
        assert!(out[4..].iter().all(|&v| v == u64::MAX));
        token.cancel();
        assert!(token.is_cancelled(), "idempotent");
    }

    #[test]
    fn thread_count_clamped() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert!(Executor::per_cpu().threads() >= 1);
    }
}
