//! Deterministic fixed-size worker pool for the MAAR `k` sweep.
//!
//! Each `k` in the sweep is an *independent* extended-KL run against the
//! same immutable [`rejection::AugmentedGraph`] (the CSR adjacency is
//! read-only for the whole sweep), so the sweep is embarrassingly
//! parallel. What must NOT vary with thread count is the *answer*: the
//! sweep's reduction picks the winner by lowest acceptance rate with ties
//! broken by sweep index, so the caller needs every job's result slotted
//! back at its own index, not in completion order.
//!
//! [`run_indexed`] provides exactly that contract: a shared atomic cursor
//! hands out job indices to a fixed pool of `crossbeam` scoped workers,
//! each worker writes its result into the slot owned by the job index, and
//! the caller receives `Vec<JobOutcome<T>>` in job order. Scheduling
//! order, thread interleaving, and pool size are all invisible in the
//! output — which is what lets `cargo xtask check --determinism` assert
//! that `threads = 1` and `threads = 4` produce byte-identical artifacts.
//!
//! Two runtime-robustness properties are enforced *here*, at the scope
//! boundary, rather than trusted to every worker body:
//!
//! * **Panic isolation.** A worker panic is caught per job with
//!   `catch_unwind` and returned as [`JobOutcome::Panicked`] carrying the
//!   payload message. Before this layer existed, a single panicking job
//!   unwound across the scoped-thread join and took the entire process
//!   down with it — the caller never got the other slots' finished work.
//! * **Cooperative cancellation.** Workers poll a [`CancelToken`] before
//!   pulling each job; once it trips, unclaimed jobs are left as
//!   [`JobOutcome::Skipped`] and the pool drains promptly.

use kl::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The fate of one pool job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JobOutcome<T> {
    /// The worker returned normally.
    Done(T),
    /// The worker panicked; the payload message is preserved for
    /// [`crate::RuntimeError::WorkerFailed`] diagnostics.
    Panicked(String),
    /// The job was never claimed because the cancel token tripped first.
    Skipped,
}

impl<T> JobOutcome<T> {
    /// The `Done` value, if any.
    #[cfg(test)]
    fn done(self) -> Option<T> {
        match self {
            JobOutcome::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// Renders a panic payload: string payloads (the overwhelmingly common
/// case — every `panic!("...")`) are preserved verbatim.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under the panic shield. `AssertUnwindSafe` is sound here
/// because a panicked job's only observable artifact is its own slot,
/// which is overwritten with the panic outcome — no partially-mutated
/// state escapes into other jobs.
fn run_one<T, F>(worker: &F, i: usize) -> JobOutcome<T>
where
    F: Fn(usize) -> T + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| worker(i))) {
        Ok(v) => JobOutcome::Done(v),
        Err(payload) => JobOutcome::Panicked(panic_message(payload)),
    }
}

/// Runs `worker(i)` for every `i in 0..jobs` on up to `threads` scoped
/// worker threads and returns the outcomes in job order.
///
/// * `threads <= 1` (or `jobs <= 1`) runs everything on the calling thread
///   — the exact serial code path, no pool machinery at all.
/// * Workers pull the next job index from a shared atomic cursor, so a
///   slow job never blocks the remaining jobs behind a static chunking.
/// * The output is indexed by job, never by completion order; two calls
///   with the same `worker` yield identical vectors for any `threads`.
/// * Worker panics never cross the scope: each job lands as
///   [`JobOutcome::Done`], [`JobOutcome::Panicked`], or (after `cancel`
///   trips) [`JobOutcome::Skipped`].
pub(crate) fn run_indexed<T, F>(
    threads: usize,
    jobs: usize,
    cancel: &CancelToken,
    worker: F,
) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || jobs <= 1 {
        return (0..jobs)
            .map(|i| {
                if cancel.is_cancelled() {
                    JobOutcome::Skipped
                } else {
                    run_one(&worker, i)
                }
            })
            .collect();
    }
    let pool_size = threads.min(jobs);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobOutcome<T>>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..pool_size {
            s.spawn(|| loop {
                if cancel.is_cancelled() {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let outcome = run_one(&worker, i);
                *slots[i].lock().expect("no worker holding a slot lock panics") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("all workers joined before slots are drained")
                .unwrap_or(JobOutcome::Skipped)
        })
        .collect()
}

/// The machine's available parallelism, used when
/// [`crate::RejectoConfig::threads`] is 0 (auto).
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn free() -> CancelToken {
        CancelToken::new(None, None)
    }

    fn done<T>(outcomes: Vec<JobOutcome<T>>) -> Vec<Option<T>> {
        outcomes.into_iter().map(JobOutcome::done).collect()
    }

    #[test]
    fn results_are_in_job_order_regardless_of_thread_count() {
        let serial = done(run_indexed(1, 37, &free(), |i| i * i));
        for threads in [2, 3, 4, 8] {
            let parallel = done(run_indexed(threads, 37, &free(), |i| i * i));
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn zero_jobs_yield_empty_output() {
        let out: Vec<JobOutcome<u32>> = run_indexed(4, 0, &free(), |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = done(run_indexed(16, 3, &free(), |i| i));
        assert_eq!(out, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    /// Regression test: a panicking worker used to unwind across the
    /// thread-scope join and abort the whole process. It must now land in
    /// its own slot as `Panicked` while every other job's result survives.
    #[test]
    fn worker_panic_is_confined_to_its_slot() {
        for threads in [1, 4] {
            let out = run_indexed(threads, 8, &free(), |i| {
                assert!(i != 5, "job five detonates");
                i * 10
            });
            for (i, outcome) in out.iter().enumerate() {
                if i == 5 {
                    match outcome {
                        JobOutcome::Panicked(msg) => {
                            assert!(msg.contains("job five detonates"), "threads={threads}: {msg}");
                        }
                        other => {
                            panic!("threads={threads}: expected Panicked, got {other:?}");
                        }
                    }
                } else {
                    assert_eq!(*outcome, JobOutcome::Done(i * 10), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn tripped_token_skips_unclaimed_jobs() {
        let token = CancelToken::new(Some(Duration::ZERO), None);
        for threads in [1, 4] {
            let out: Vec<JobOutcome<usize>> = run_indexed(threads, 6, &token, |i| i);
            assert!(
                out.iter().all(|o| *o == JobOutcome::Skipped),
                "threads={threads}: pre-tripped token must skip everything"
            );
        }
    }

    #[test]
    fn token_tripped_by_a_job_skips_later_serial_jobs() {
        let token = CancelToken::new(None, Some(0));
        let out = run_indexed(1, 5, &token, |i| {
            if i == 2 {
                assert!(!token.consume_pass(), "a zero pass budget is spent at once");
            }
            i
        });
        assert_eq!(out[..3], [JobOutcome::Done(0), JobOutcome::Done(1), JobOutcome::Done(2)]);
        assert_eq!(out[3..], [JobOutcome::Skipped, JobOutcome::Skipped]);
    }
}
