//! The workspace's one worker pool: scoped threads pulling item indices
//! from an atomic cursor, results streaming back over an `mpsc` channel,
//! and a reorder buffer that hands them on **in item order**.
//!
//! Both parallel surfaces run on it: the experiment battery (which
//! streams each finished report prefix to stdout) and the fleet engine's
//! span arena. Because the sink sees results in item order whatever the
//! worker count, a fold over them — even a non-associative one such as an
//! f64 sum — is byte-identical at any `--jobs`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Apply `work` to every item on up to `workers` scoped threads, and
/// call `sink(i, work(&items[i]))` for every `i` in ascending order.
///
/// The sink runs on the calling thread, as soon as the whole prefix up
/// to `i` has finished. With one worker, or at most one item, no thread
/// is spawned: the items run serially on the calling thread.
///
/// # Panics
///
/// A panic in `work` propagates to the caller, with its own payload,
/// once the other workers have stopped.
pub fn map_ordered<T, R>(
    items: &[T],
    workers: NonZeroUsize,
    work: impl Fn(&T) -> R + Sync,
    mut sink: impl FnMut(usize, R),
) where
    T: Sync,
    R: Send,
{
    let workers = workers.get().min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter().enumerate() {
            sink(i, work(item));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let (next, work) = (&next, &work);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if tx.send((i, work(item))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        // Results land in completion order; release the finished prefix.
        let mut pending: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let mut flushed = 0;
        for (i, result) in rx {
            pending[i] = Some(result);
            while let Some(result) = pending.get_mut(flushed).and_then(Option::take) {
                sink(flushed, result);
                flushed += 1;
            }
        }
        // Re-raise a worker's panic with its own payload, as the serial
        // path would.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn workers(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    /// Collect what the sink sees, with earlier items made slower so a
    /// threaded run finishes them out of order.
    fn sink_log(items: &[u64], n: usize) -> Vec<(usize, u64)> {
        let mut seen = Vec::new();
        map_ordered(
            items,
            workers(n),
            |&x| {
                std::thread::sleep(Duration::from_micros(50 * (items.len() as u64 - x)));
                x * x + 1
            },
            |i, r| seen.push((i, r)),
        );
        seen
    }

    #[test]
    fn sink_sees_every_result_in_item_order() {
        let items: Vec<u64> = (0..24).collect();
        let want: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * x + 1)).collect();
        for n in [1, 2, 3, 8, 64] {
            assert_eq!(sink_log(&items, n), want, "workers={n}");
        }
        // More workers than items, and a single item on many workers.
        assert_eq!(sink_log(&[0, 1, 2], 8), [(0, 1), (1, 2), (2, 5)]);
        assert_eq!(sink_log(&[0], 4), [(0, 1)]);
    }

    #[test]
    fn empty_slice_never_calls_the_sink() {
        for n in [1, 4] {
            let mut calls = 0;
            map_ordered(&[] as &[u64], workers(n), |&x| x, |_, _| calls += 1);
            assert_eq!(calls, 0, "workers={n}");
        }
    }

    #[test]
    #[should_panic(expected = "work failed on item 5")]
    fn panicking_work_propagates() {
        let items: Vec<u64> = (0..16).collect();
        map_ordered(
            &items,
            workers(4),
            |&x| {
                assert!(x != 5, "work failed on item {x}");
                x
            },
            |_, _| {},
        );
    }

    #[test]
    fn f64_fold_is_bit_identical_at_any_worker_count() {
        // A sum whose value depends on the order of its additions; the
        // uneven work makes a threaded run finish items out of order.
        let items: Vec<(u64, f64)> = (0..200)
            .map(|i| {
                let x = match i % 4 {
                    0 => 1e16,
                    1 => 1.0 + i as f64 * 1e-3,
                    2 => -1e16,
                    _ => 0.1 * i as f64,
                };
                (i, x)
            })
            .collect();
        let work = |&(i, x): &(u64, f64)| {
            std::thread::sleep(Duration::from_micros(i * 7 % 13 * 20));
            x * 1.5
        };
        let fold = |n: usize| {
            let mut sum = 0.0f64;
            map_ordered(&items, workers(n), work, |_, x| sum += x);
            sum
        };
        let reversed: f64 = items.iter().rev().map(|&(_, x)| x * 1.5).sum();
        let serial = fold(1);
        assert_ne!(serial.to_bits(), reversed.to_bits(), "order-sensitive sum");
        assert_eq!(serial.to_bits(), fold(4).to_bits());
    }
}
