//! A MapReduce-style parallel engine on crossbeam scoped threads — the
//! Hadoop stand-in for analysing hundreds of daily snapshot tables.
//!
//! Work is split into contiguous chunks, one worker per core; results are
//! gathered in item order at the barrier, so callers merge them
//! deterministically.

use crossbeam::thread;

/// Number of workers to use (the machine's parallelism, min 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parallel for-each with an index (used by the measurement worker cloud).
pub fn par_for_each_indexed<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    let workers = default_workers().min(items.len().max(1));
    if workers <= 1 {
        for (i, t) in items.iter().enumerate() {
            f(i, t);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    thread::scope(|s| {
        for (c, slice) in items.chunks(chunk).enumerate() {
            let f = &f;
            s.spawn(move |_| {
                for (i, t) in slice.iter().enumerate() {
                    f(c * chunk + i, t);
                }
            });
        }
    })
    .expect("scope");
}

/// Parallel map preserving order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = default_workers().min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let chunks: Vec<Vec<U>> = thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| s.spawn(|_| slice.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scope");
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        let mapped = par_map(&items, |&x| x * 2);
        assert_eq!(mapped, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_every_index_once() {
        let items: Vec<u32> = (0..503).collect();
        let sum = AtomicU64::new(0);
        par_for_each_indexed(&items, |i, &v| {
            assert_eq!(i as u32, v);
            sum.fetch_add(u64::from(v) + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=503).sum::<u64>());
    }
}
