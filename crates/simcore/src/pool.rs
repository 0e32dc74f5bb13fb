//! The worker pool behind every parallel sweep.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, shrugging off poisoning: a panicking worker must
/// not cascade into every other thread that shares the pool's state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `run` on every job across `min(available_parallelism, n)`
/// scoped worker threads and returns the results in input order.
///
/// Workers pull jobs from one FIFO queue, so jobs start in input
/// order and a long job never idles the other workers. Each job runs
/// entirely inside one worker, so its working state never crosses
/// threads. A single job runs on the calling thread.
pub fn par_map<J: Send, R: Send>(jobs: Vec<J>, run: impl Fn(J) -> R + Sync) -> Vec<R> {
    if jobs.len() <= 1 {
        return jobs.into_iter().map(run).collect();
    }
    let n = jobs.len();
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4)
        .min(n);
    let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = lock(&queue).pop_front();
                let Some((idx, job)) = job else { break };
                let result = run(job);
                lock(&results)[idx] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("worker skipped a job"))
        .collect()
}
