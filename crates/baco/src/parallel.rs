//! Deterministic fork/join helper for CPU-parallel stages of the tuner.
//!
//! The external `rayon` dependency is unavailable in the offline build
//! environment, so this module provides the one primitive the hot path needs:
//! an order-preserving parallel map over scoped threads. Results are
//! identical to the sequential map for any thread count — outputs are placed
//! by input index and every reduction the callers perform is done over the
//! returned, deterministically ordered `Vec`. (The streaming,
//! completion-order sibling used for black-box evaluation lives in
//! [`crate::eval::pool`].)
//!
//! ```
//! use baco::parallel::parallel_map;
//!
//! let squares = parallel_map((0..100).collect::<Vec<u64>>(), 4, |_, x| x * x);
//! assert_eq!(squares[7], 49);
//! // Bit-identical to the sequential map, whatever the thread count.
//! assert_eq!(squares, parallel_map((0..100).collect(), 1, |_, x| x * x));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Resolves a thread-count request: `0` means "use the available
/// parallelism", anything else is taken literally. The result is clamped to
/// `work_items` so short inputs don't spawn idle threads.
///
/// The available parallelism is read once per process: the query reads
/// cgroup files, and every GP fit asks twice.
pub fn effective_threads(requested: usize, work_items: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let t = if requested == 0 {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    } else {
        requested
    };
    t.clamp(1, work_items.max(1))
}

/// Applies `f` to every item, possibly across threads, returning results in
/// input order.
///
/// `f` receives `(index, item)`. With `threads <= 1` (or a single item) this
/// degenerates to a plain sequential map with zero synchronization overhead;
/// the output is bit-identical either way, so callers never trade determinism
/// for speed.
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads, n);
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Work-stealing by atomic cursor over a shared item table; each result
    // carries its index so the merged output is order-preserving.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i].lock().unwrap().take().expect("item taken once");
                    local.push((i, f(i, item)));
                }
                out.lock().unwrap().extend(local);
            });
        }
    });
    let mut collected = out.into_inner().unwrap();
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let got = parallel_map(items.clone(), threads, |i, x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = parallel_map(Vec::<u8>::new(), 4, |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![7], 4, |_, x: i32| x + 1), vec![8]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(4, 100), 4);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(3, 0), 1);
    }
}
