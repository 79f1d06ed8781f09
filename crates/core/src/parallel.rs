//! The one experiment runner: a bounded std-thread pool for independent
//! simulation jobs.
//!
//! Experiment points are embarrassingly parallel: each [`SimRunner`] is
//! self-contained (own RNG, own replicas, own event queue) and deterministic,
//! so running them concurrently changes nothing about any individual result.
//! [`run_all`] runs a batch of `(config, protocol, options)` simulations —
//! a figure's offered-load ladders, a grid of cluster sizes × seeds — and
//! [`run_ordered`] is the pool under it: a batch of closures on plain
//! `std::thread`s (the workspace takes no external dependencies), results
//! **in input order**, so JSON artifacts assembled from a parallel batch are
//! byte-identical to a sequential one.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bamboo_types::{Config, ProtocolKind};

use crate::metrics::RunReport;
use crate::runner::{RunOptions, SimRunner};

/// Number of worker threads [`run_ordered`] uses by default: the machine's
/// available parallelism, leaving the caller's thread free to join.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every `(config, protocol, options)` simulation on the pool of
/// [`default_workers`] threads and returns the reports in input order.
pub fn run_all(points: Vec<(Config, ProtocolKind, RunOptions)>) -> Vec<RunReport> {
    let jobs: Vec<_> = points
        .into_iter()
        .map(|(config, protocol, options)| move || SimRunner::new(config, protocol, options).run())
        .collect();
    run_ordered(jobs, default_workers())
}

/// Runs every job on a pool of at most `max_workers` threads and returns the
/// results in input order. With one worker (or one job) everything runs on
/// the calling thread — no spawn overhead for the degenerate cases.
///
/// # Panics
///
/// Panics if a job panics (the panic is propagated to the caller).
pub fn run_ordered<T, F>(jobs: Vec<F>, max_workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = jobs.len();
    let workers = max_workers.max(1).min(total);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    // Work-stealing by atomic index: jobs are handed out in order, results
    // land in their input slot. `Mutex<Option<F>>` cells let worker threads
    // take `FnOnce` jobs without consuming the vector.
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let job = jobs[index]
                    .lock()
                    .expect("job cell poisoned")
                    .take()
                    .expect("each job is taken exactly once");
                let result = job();
                *results[index].lock().expect("result cell poisoned") = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result cell poisoned")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    // Stagger finish order: later jobs finish earlier.
                    std::thread::sleep(std::time::Duration::from_micros(64 - i));
                    i * 2
                }
            })
            .collect();
        let results = run_ordered(jobs, 8);
        assert_eq!(results, (0..64u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let results = run_ordered((0..5).map(|i| move || i).collect::<Vec<_>>(), 1);
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<u32> = run_ordered(Vec::<fn() -> u32>::new(), 4);
        assert!(results.is_empty());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn run_all_returns_each_report_in_input_order_equal_to_a_sequential_run() {
        let points: Vec<(Config, ProtocolKind, RunOptions)> = ProtocolKind::evaluated()
            .into_iter()
            .zip([800.0, 1_600.0, 3_200.0])
            .map(|(protocol, rate)| {
                let config = Config {
                    nodes: 4,
                    block_size: 50,
                    runtime: bamboo_types::SimDuration::from_millis(300),
                    arrival_rate: Some(rate),
                    seed: 5,
                    ..Config::default()
                };
                (config, protocol, RunOptions::default())
            })
            .collect();
        let reports = run_all(points.clone());
        assert_eq!(reports.len(), points.len());
        for ((config, protocol, options), report) in points.into_iter().zip(&reports) {
            let sequential = SimRunner::new(config, protocol, options).run();
            assert_eq!(report.protocol, protocol);
            assert!(report.committed_blocks > 0, "{protocol}");
            assert_eq!(report.safety_violations, 0);
            assert_eq!(report.ledger_fingerprint, sequential.ledger_fingerprint);
            assert_eq!(report.committed_txs, sequential.committed_txs);
            assert_eq!(report.events_processed, sequential.events_processed);
        }
    }
}
