//! The Benchmarker: saturation sweeps producing latency/throughput curves.
//!
//! The paper's throughput-versus-latency figures are produced by increasing
//! the offered load "until the system is saturated" (§VI). The
//! [`Benchmarker`] automates that: it runs the simulator at a ladder of
//! arrival rates and records one [`CurvePoint`] per rate, stopping when
//! additional load no longer increases committed throughput (or latency
//! explodes).
//!
//! Sweep points are independent, deterministic simulations, so the batch
//! entry point [`Benchmarker::run_all`] executes them on a bounded
//! std-thread pool ([`crate::parallel`]) and collects results in input
//! order — a figure's JSON artifact is byte-stable regardless of how many
//! workers ran it.

use bamboo_types::{Config, ProtocolKind};

use crate::metrics::RunReport;
use crate::parallel::{default_workers, run_ordered};
use crate::runner::{RunOptions, SimRunner};

/// One point of a latency/throughput curve.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    /// Offered load (transaction arrival rate, tx/s).
    pub offered_tx_per_sec: f64,
    /// Committed throughput (tx/s).
    pub throughput_tx_per_sec: f64,
    /// Mean end-to-end latency (ms).
    pub latency_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_latency_ms: f64,
    /// The full report for this point.
    pub report: RunReport,
}

/// Options controlling a saturation sweep.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// First offered load (tx/s).
    pub start_rate: f64,
    /// Multiplicative step between successive loads.
    pub growth: f64,
    /// Maximum number of points.
    pub max_points: usize,
    /// Stop when committed throughput improves by less than this fraction.
    pub saturation_gain: f64,
    /// Stop when mean latency exceeds this many milliseconds.
    pub latency_ceiling_ms: f64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            start_rate: 2_000.0,
            growth: 1.6,
            max_points: 12,
            saturation_gain: 0.03,
            latency_ceiling_ms: 400.0,
        }
    }
}

/// Runs saturation sweeps for one protocol and configuration template.
#[derive(Clone, Debug)]
pub struct Benchmarker {
    config: Config,
    protocol: ProtocolKind,
    options: RunOptions,
    sweep: SweepOptions,
}

impl Benchmarker {
    /// Creates a benchmarker. The `config.arrival_rate` field is overwritten
    /// by the sweep; every other field is used as-is.
    pub fn new(config: Config, protocol: ProtocolKind, options: RunOptions) -> Self {
        Self {
            config,
            protocol,
            options,
            sweep: SweepOptions::default(),
        }
    }

    /// Overrides the sweep options.
    pub fn with_sweep(mut self, sweep: SweepOptions) -> Self {
        self.sweep = sweep;
        self
    }

    /// Runs the simulator once at a single offered load.
    pub fn run_at(&self, rate: f64) -> RunReport {
        let mut config = self.config.clone();
        config.arrival_rate = Some(rate);
        SimRunner::new(config, self.protocol, self.options.clone()).run()
    }

    /// Runs a heterogeneous batch of sweep points — arbitrary
    /// `(config, protocol, options)` triples, e.g. a scalability grid of
    /// protocols × cluster sizes — on a bounded thread pool, returning the
    /// reports in input order.
    pub fn run_all(points: Vec<(Config, ProtocolKind, RunOptions)>) -> Vec<RunReport> {
        let jobs: Vec<_> = points
            .into_iter()
            .map(|(config, protocol, options)| {
                move || SimRunner::new(config, protocol, options).run()
            })
            .collect();
        run_ordered(jobs, default_workers())
    }

    /// Runs the full saturation sweep.
    pub fn sweep(&self) -> Vec<CurvePoint> {
        let mut points: Vec<CurvePoint> = Vec::new();
        let mut rate = self.sweep.start_rate;
        let mut best_throughput = 0.0_f64;
        for _ in 0..self.sweep.max_points {
            let report = self.run_at(rate);
            let point = CurvePoint {
                offered_tx_per_sec: rate,
                throughput_tx_per_sec: report.throughput_tx_per_sec,
                latency_ms: report.latency.mean_ms,
                p99_latency_ms: report.latency.p99_ms,
                report,
            };
            let throughput = point.throughput_tx_per_sec;
            let latency = point.latency_ms;
            points.push(point);
            let saturated = throughput < best_throughput * (1.0 + self.sweep.saturation_gain)
                && best_throughput > 0.0;
            best_throughput = best_throughput.max(throughput);
            if saturated || latency > self.sweep.latency_ceiling_ms {
                break;
            }
            rate *= self.sweep.growth;
        }
        points
    }

    /// Peak committed throughput over a sweep.
    pub fn peak_throughput(points: &[CurvePoint]) -> f64 {
        points
            .iter()
            .map(|p| p.throughput_tx_per_sec)
            .fold(0.0, f64::max)
    }

    /// Latency at the lowest offered load of a sweep (the "unloaded" latency).
    pub fn base_latency(points: &[CurvePoint]) -> f64 {
        points.first().map(|p| p.latency_ms).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::SimDuration;

    fn quick_config() -> Config {
        Config::builder()
            .nodes(4)
            .block_size(50)
            .runtime(SimDuration::from_millis(300))
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_produces_monotone_offered_load_and_stops() {
        let bench = Benchmarker::new(
            quick_config(),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .with_sweep(SweepOptions {
            start_rate: 500.0,
            growth: 2.0,
            max_points: 4,
            ..Default::default()
        });
        let points = bench.sweep();
        assert!(!points.is_empty());
        assert!(points.len() <= 4);
        for pair in points.windows(2) {
            assert!(pair[1].offered_tx_per_sec > pair[0].offered_tx_per_sec);
        }
        assert!(Benchmarker::peak_throughput(&points) > 0.0);
        assert!(Benchmarker::base_latency(&points) > 0.0);
    }

    #[test]
    fn run_at_overrides_arrival_rate() {
        let bench = Benchmarker::new(
            quick_config(),
            ProtocolKind::TwoChainHotStuff,
            RunOptions::default(),
        );
        let report = bench.run_at(1_000.0);
        assert!(report.committed_txs > 0);
        assert_eq!(report.protocol, ProtocolKind::TwoChainHotStuff);
    }

    #[test]
    fn parallel_points_match_sequential_runs_in_order() {
        let bench = Benchmarker::new(
            quick_config(),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        );
        let rates = [800.0, 1_600.0, 3_200.0];
        let parallel = Benchmarker::run_all(
            rates
                .iter()
                .map(|&rate| {
                    let mut config = quick_config();
                    config.arrival_rate = Some(rate);
                    (config, ProtocolKind::HotStuff, RunOptions::default())
                })
                .collect(),
        );
        assert_eq!(parallel.len(), rates.len());
        for (&rate, report) in rates.iter().zip(&parallel) {
            let sequential = bench.run_at(rate);
            assert_eq!(report.committed_txs, sequential.committed_txs, "{rate}");
            assert_eq!(report.ledger_fingerprint, sequential.ledger_fingerprint);
            assert_eq!(report.events_processed, sequential.events_processed);
        }
    }

    #[test]
    fn run_all_executes_heterogeneous_points_in_input_order() {
        let points: Vec<(Config, ProtocolKind, RunOptions)> = [
            ProtocolKind::HotStuff,
            ProtocolKind::TwoChainHotStuff,
            ProtocolKind::Streamlet,
        ]
        .into_iter()
        .map(|protocol| {
            let mut config = quick_config();
            config.arrival_rate = Some(1_500.0);
            (config, protocol, RunOptions::default())
        })
        .collect();
        let reports = Benchmarker::run_all(points);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].protocol, ProtocolKind::HotStuff);
        assert_eq!(reports[1].protocol, ProtocolKind::TwoChainHotStuff);
        assert_eq!(reports[2].protocol, ProtocolKind::Streamlet);
        for report in &reports {
            assert_eq!(report.safety_violations, 0);
            assert!(report.committed_blocks > 0);
        }
    }
}
