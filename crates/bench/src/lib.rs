//! Shared harness code for the experiment benches.
//!
//! Every bench target in `benches/` regenerates one table or figure of
//! *Dissecting the Performance of Chained-BFT*: it prints the same rows /
//! series the paper reports and records every number as a
//! `{name, value, unit, better, clock}` row in
//! `target/bamboo-bench/<bench>.rows.json`. [`rows`] is the only owner of
//! that format; [`compare`] is the one comparison `bench_diff` runs over it.
//!
//! The crate also provides the wall-clock micro-benchmark harness
//! ([`harness`]) the `micro_components` bench is built on, and the order
//! statistics ([`stats`]) every target shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod rows;
pub mod stats;

use std::fs;
use std::path::PathBuf;

use bamboo_core::{Benchmarker, CurvePoint, RunOptions, SweepOptions};
use bamboo_model::{ModelParams, PerfModel};
use bamboo_types::{Block, Config, ProtocolKind, SimDuration, Transaction};

pub use rows::Better::{Higher, Lower};
pub use rows::Clock::{Sim, Wall};
pub use rows::{save_rows, RowFile, Tier};

/// Directory where benches drop their JSON artifacts: the workspace
/// `target/bamboo-bench/`, independent of the working directory cargo runs
/// the bench from.
pub fn results_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // crates/bench -> workspace root -> target/
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    let dir = target.join("bamboo-bench");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes `text` to `target/bamboo-bench/<file_name>`; exits non-zero when
/// that fails, so a lost artifact stops the pipeline that wanted it.
pub fn write_artifact(file_name: &str, text: &str) {
    let path = results_dir().join(file_name);
    if let Err(err) = fs::write(&path, text) {
        eprintln!("error: could not write {}: {err}", path.display());
        std::process::exit(1);
    }
    println!("# artifact: {}", path.display());
}

/// Prints a figure/table banner.
pub fn banner(title: &str) {
    println!();
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Seed of [`eval_config`], stamped on every bench's row file.
pub const EVAL_SEED: u64 = 2021;

/// The row file of a bench target: full tier, the evaluation seed.
pub fn bench_rows(bench: &str) -> RowFile {
    RowFile::new(bench, Tier::Full, EVAL_SEED)
}

/// The standard evaluation configuration used across the figures: the Table-I
/// defaults on the simulated data-centre substrate, with the measurement
/// window shortened so the whole suite runs in minutes.
pub fn eval_config(nodes: usize, block_size: usize, payload: usize, runtime_ms: u64) -> Config {
    Config::builder()
        .nodes(nodes)
        .block_size(block_size)
        .payload_size(payload)
        .runtime(SimDuration::from_millis(runtime_ms))
        .timeout(SimDuration::from_millis(100))
        .seed(EVAL_SEED)
        .build()
        .expect("valid benchmark configuration")
}

/// Derives the analytical-model parameters that correspond to a simulator
/// configuration, so Fig. 8 compares like with like.
pub fn model_params(config: &Config) -> ModelParams {
    let quorum = config.quorum();
    ModelParams {
        nodes: config.nodes,
        block_size: config.block_size,
        tx_bytes: Transaction::HEADER_BYTES + config.payload_size,
        block_overhead_bytes: Block::HEADER_BYTES + 40 + 40 * quorum,
        link_mean: config.link_latency_mean.as_secs_f64() + config.extra_delay.as_secs_f64(),
        link_std: config.link_latency_std.as_secs_f64(),
        client_rtt: 2.0 * config.link_latency_mean.as_secs_f64(),
        t_cpu: config.cpu_delay.as_secs_f64(),
        bandwidth: config.bandwidth_bytes_per_sec as f64,
    }
}

/// Builds the analytical model for one protocol and configuration.
pub fn model_for(protocol: ProtocolKind, config: &Config) -> PerfModel {
    PerfModel::new(protocol, model_params(config))
}

/// Runs a saturation sweep for `protocol` over `config` and returns the curve.
pub fn sweep(protocol: ProtocolKind, config: &Config, sweep: SweepOptions) -> Vec<CurvePoint> {
    Benchmarker::new(config.clone(), protocol, RunOptions::default())
        .with_sweep(sweep)
        .sweep()
}

/// Default sweep ladder used by the throughput/latency figures.
pub fn default_sweep() -> SweepOptions {
    SweepOptions {
        start_rate: 10_000.0,
        growth: 2.0,
        max_points: 9,
        saturation_gain: 0.05,
        latency_ceiling_ms: 150.0,
    }
}

/// Records (and prints) a latency/throughput curve: per offered load, the
/// committed throughput and mean latency as `<label>/o<offered>/…` rows.
pub fn record_curve(out: &mut RowFile, label: &str, points: &[CurvePoint]) {
    for point in points {
        out.point(
            Sim,
            &format!("{label}/o{:.0}", point.offered_tx_per_sec),
            &[
                ("throughput", point.throughput_tx_per_sec, "tx/s", Higher),
                ("latency", point.latency_ms, "ms", Lower),
            ],
        );
    }
}

/// The three protocols compared throughout the evaluation.
pub fn evaluated_protocols() -> [ProtocolKind; 3] {
    ProtocolKind::evaluated()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_config_matches_table_one_defaults() {
        let config = eval_config(4, 400, 128, 500);
        assert_eq!(config.nodes, 4);
        assert_eq!(config.block_size, 400);
        assert_eq!(config.payload_size, 128);
        assert_eq!(config.timeout, SimDuration::from_millis(100));
    }

    #[test]
    fn model_params_follow_config() {
        let config = eval_config(8, 400, 128, 500);
        let params = model_params(&config);
        assert_eq!(params.nodes, 8);
        assert_eq!(params.tx_bytes, Transaction::HEADER_BYTES + 128);
        assert!(params.link_mean > 0.0);
        assert!(params.bandwidth > 0.0);
        let model = model_for(ProtocolKind::HotStuff, &config);
        assert!(model.saturation_rate() > 0.0);
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.ends_with("bamboo-bench"));
    }
}
