//! Draw serially, refit in parallel: the driver behind every bootstrap
//! in the workspace (ZM intervals, the CSN goodness-of-fit test and the
//! Section IV-B estimate intervals).
//!
//! A bootstrap replicate is a cheap random draw — resample the observed
//! histogram, or synthesize one from the fitted law — followed by an
//! expensive refit that uses no randomness. [`refit_in_order`] runs
//! every draw on the calling thread, in index order, so the caller's
//! RNG is consumed exactly as a serial loop consumes it. The drawn
//! inputs go through a bounded channel to scoped workers that run the
//! refits, and each result is stored at its draw index. The output is
//! therefore the serial `map` bit for bit, whatever the core count and
//! whatever order the refits finish in.

use std::panic;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// Refit workers for `n` replicates: the cores the scheduler will give
/// this process, capped at `n` (and at least 1).
pub fn refit_threads(n: usize) -> usize {
    thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n)
        .max(1)
}

/// `(0..n).map(|i| refit(draw(i)?))`, with the refits spread over
/// `threads` workers.
///
/// `draw(i)` runs on the calling thread for `i = 0, 1, …` in order, so
/// `draw` may hold a `&mut` RNG that is neither `Send` nor `Sync`. At
/// most `threads` drawn inputs wait in the channel at any time. The
/// result at index `i` is `refit(draw(i))` whatever the thread count.
/// With `threads <= 1` (or `n <= 1`) no thread is spawned.
///
/// # Errors
///
/// The first `Err` from `draw`, at index `k`: drawing stops there, so
/// `draw` is never called past `k`, and refits already handed out are
/// discarded.
///
/// # Panics
///
/// A panic in `refit` is re-raised on the calling thread once the
/// other workers have finished.
///
/// # Examples
///
/// ```
/// use palu_stats::boot::refit_in_order;
/// let mut next = 0u64;
/// let out = refit_in_order(
///     5,
///     2,
///     |_| {
///         next += 1;
///         Ok::<u64, ()>(next)
///     },
///     |x| x * x,
/// );
/// assert_eq!(out, Ok(vec![1, 4, 9, 16, 25]));
/// ```
pub fn refit_in_order<T, U, E, D, F>(
    n: usize,
    threads: usize,
    mut draw: D,
    refit: F,
) -> Result<Vec<U>, E>
where
    T: Send,
    U: Send,
    D: FnMut(usize) -> Result<T, E>,
    F: Fn(T) -> U + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(|i| draw(i).map(&refit)).collect();
    }
    let (tx, rx) = mpsc::sync_channel::<(usize, T)>(threads);
    // Only the workers own the receiver: if every one of them dies,
    // `send` fails instead of blocking on a full channel.
    let rx = Arc::new(Mutex::new(rx));
    let refit = &refit;
    thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The lock is held for the receive only, not
                        // for the refit, and a receive leaves the
                        // receiver valid, so a poisoned lock is safe
                        // to take over.
                        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        let Ok((i, input)) = job else { break };
                        done.push((i, refit(input)));
                    }
                    done
                })
            })
            .collect();
        drop(rx);

        let mut drawn = Ok(());
        for i in 0..n {
            match draw(i) {
                Ok(input) => {
                    if tx.send((i, input)).is_err() {
                        // Every worker has panicked; the joins below
                        // re-raise it.
                        break;
                    }
                }
                Err(e) => {
                    drawn = Err(e);
                    break;
                }
            }
        }
        drop(tx);

        let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
        let mut panicked = None;
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, out) in done {
                        if let Some(slot) = slots.get_mut(i) {
                            *slot = Some(out);
                        }
                    }
                }
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        drawn?;
        Ok(slots.into_iter().flatten().collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};

    /// A refit slow enough, and uneven enough, that workers finish out
    /// of order.
    fn slow_refit(x: u64) -> u64 {
        let mut h = x;
        for _ in 0..(x % 7) * 2000 {
            h = h.rotate_left(5) ^ 0x9e37_79b9_7f4a_7c15;
        }
        h
    }

    #[test]
    fn equals_the_serial_map_at_every_thread_count() {
        let n = 37;
        let serial: Vec<u64> = {
            let mut rng = Xoshiro256pp::seed_from_u64(11);
            (0..n).map(|_| slow_refit(rng.gen::<u64>())).collect()
        };
        for threads in [1, 2, 3, 8] {
            let mut rng = Xoshiro256pp::seed_from_u64(11);
            let out =
                refit_in_order(n, threads, |_| Ok::<_, ()>(rng.gen::<u64>()), slow_refit).unwrap();
            assert_eq!(out, serial, "threads = {threads}");
            // The RNG ends where the serial loop leaves it.
            let mut tail = Xoshiro256pp::seed_from_u64(11);
            for _ in 0..n {
                tail.gen::<u64>();
            }
            assert_eq!(rng.gen::<u64>(), tail.gen::<u64>(), "threads = {threads}");
        }
    }

    #[test]
    fn every_worker_panicking_does_not_block_the_drawer() {
        let caught = panic::catch_unwind(|| {
            refit_in_order(1000, 2, Ok::<usize, ()>, |i: usize| -> usize {
                panic!("refit {i} failed")
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn worker_count_is_capped_at_the_replicates() {
        assert_eq!(refit_threads(0), 1);
        assert_eq!(refit_threads(1), 1);
        assert!(refit_threads(usize::MAX) >= 1);
    }
}
