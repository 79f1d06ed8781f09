//! A small wall-clock micro-benchmark harness.
//!
//! Replaces the external `criterion` dependency for the component
//! micro-benches: auto-calibrating warm-up, a fixed measurement budget, and
//! one nanoseconds-per-iteration row per call. The budget of a micro is
//! spent over [`PASSES`] calls, one per pass the suite makes over all its
//! micros, so the row name repeats and the differ sees a sample set.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::rows::{Better, Clock, Row};
use crate::stats;

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(300);
/// Passes a suite makes over its micros; each call below spends one
/// `PASSES`-th of the per-micro budget. A micro's samples are then spread
/// over the whole suite run (seconds) instead of one 300 ms window, so their
/// spread also sees a shared host changing speed between windows — which is
/// what made single draws cry wolf. Ten, because the exclusive quartiles of
/// ten samples shrug off two stragglers a side; with five, a host that
/// flips speed every few seconds still produced 1 false `worse` in 3 runs.
pub const PASSES: u32 = 10;

/// Measures `op` for one pass, prints one aligned result line, and returns
/// the pass's `ns_per_iter` sample.
pub fn bench<R>(name: &str, mut op: impl FnMut() -> R) -> Row {
    // Batch iterations between clock reads to amortise timer overhead for
    // very fast operations.
    measure(name, true, |batch| {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(op());
        }
        start.elapsed()
    })
}

/// Measures `routine` applied to a fresh value from `setup` per iteration;
/// only the routine is timed (the analogue of criterion's `iter_batched`).
pub fn bench_with_setup<S, R>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> R,
) -> Row {
    measure(name, false, |_| {
        let input = setup();
        let start = Instant::now();
        let output = routine(input);
        let took = start.elapsed();
        black_box(output);
        took
    })
}

/// Runs `timed(batch)` — which executes `batch` iterations and returns the
/// time they took — through one pass's warm-up and measurement.
fn measure(name: &str, batched: bool, mut timed: impl FnMut(u64) -> Duration) -> Row {
    // Warm-up: let caches, branch predictors and allocator settle.
    let warmup_end = Instant::now() + WARMUP / PASSES;
    while Instant::now() < warmup_end {
        timed(1);
    }
    let (mut iters, mut batch) = (0u64, 1u64);
    let mut elapsed = Duration::ZERO;
    let mut per_iter: Vec<f64> = Vec::new();
    while elapsed < MEASURE / PASSES {
        let took = timed(batch);
        elapsed += took;
        iters += batch;
        per_iter.push(took.as_nanos() as f64 / batch as f64);
        // Grow the batch until one batch costs about a millisecond.
        if batched && took < Duration::from_millis(1) && batch < (1 << 20) {
            batch *= 2;
        }
    }
    // The typical batch, not the mean: on a shared host a preempted batch
    // runs many times too long (a single 60 ms stall was seen to turn a
    // 65 µs sample into 38 ms), and the median drops it.
    let ns_per_iter = stats::median(&per_iter).expect("at least one batch was timed");
    println!("{name:<36} {ns_per_iter:>14.1} ns/iter   ({iters} iters)");
    Row {
        name: name.to_string(),
        value: ns_per_iter,
        unit: "ns_per_iter".to_string(),
        better: Better::Lower,
        clock: Clock::Wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_a_positive_wall_clock_sample() {
        let row = bench("noop_add", || std::hint::black_box(1u64) + 1);
        assert!(row.value > 0.0);
        assert_eq!(
            (row.name.as_str(), row.unit.as_str()),
            ("noop_add", "ns_per_iter")
        );
        assert_eq!((row.better, row.clock), (Better::Lower, Clock::Wall));
    }

    #[test]
    fn bench_with_setup_times_only_the_routine() {
        let row = bench_with_setup("sum_vec", || vec![1u64; 64], |v| v.iter().sum::<u64>());
        // Summing 64 integers is far below a microsecond; if setup were
        // included the per-iteration cost would be dominated by the allocation.
        assert!(row.value > 0.0 && row.value < 100_000.0);
    }
}
