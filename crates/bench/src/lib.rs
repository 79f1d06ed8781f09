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

use bamboo_core::metrics::Stages;
use bamboo_core::{run_all, RunOptions};
use bamboo_model::{ModelParams, PerfModel};
use bamboo_types::{Config, ProtocolKind, SimDuration};

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

/// Builds the analytical model for one protocol and configuration.
pub fn model_for(protocol: ProtocolKind, config: &Config) -> PerfModel {
    PerfModel::new(protocol, ModelParams::from_config(config))
}

/// A figure's offered loads: `start`, doubled until there are `points`.
pub fn doubling_ladder(start: f64, points: u32) -> Vec<f64> {
    (0..points).map(|k| start * f64::from(1u32 << k)).collect()
}

/// Runs every latency/throughput curve of a figure — each
/// `(label, protocol, config)` at every load of `ladder` — as one
/// [`run_all`] batch, and records (and prints) every point's committed
/// throughput and mean latency as `<label>/o<offered>/…` rows.
pub fn record_curves(out: &mut RowFile, curves: &[(String, ProtocolKind, Config)], ladder: &[f64]) {
    let points = curves
        .iter()
        .flat_map(|(_, protocol, config)| {
            ladder.iter().map(move |&rate| {
                let mut config = config.clone();
                config.arrival_rate = Some(rate);
                (config, *protocol, RunOptions::default())
            })
        })
        .collect();
    let reports = run_all(points);
    for ((label, _, _), runs) in curves.iter().zip(reports.chunks(ladder.len())) {
        for (rate, report) in ladder.iter().zip(runs) {
            out.point(
                Sim,
                &format!("{label}/o{rate:.0}"),
                &[
                    ("throughput", report.throughput_tx_per_sec, "tx/s", Higher),
                    ("latency", report.latency.mean_ms, "ms", Lower),
                ],
            );
        }
    }
}

/// A run's four commit-stage means, as one point's metrics: where its
/// transactions' time went (DESIGN.md §5, "Observation").
pub fn stage_rows(stages: &Stages) -> [(&'static str, f64, &'static str, rows::Better); 4] {
    [
        (
            "stage_dispatched_ms",
            stages.dispatched.mean_ms,
            "ms",
            Lower,
        ),
        ("stage_certified_ms", stages.certified.mean_ms, "ms", Lower),
        ("stage_committed_ms", stages.committed.mean_ms, "ms", Lower),
        ("stage_confirmed_ms", stages.confirmed.mean_ms, "ms", Lower),
    ]
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
        let model = model_for(ProtocolKind::HotStuff, &config);
        assert_eq!(model.params, ModelParams::from_config(&config));
        assert!(model.saturation_rate() > 0.0);
    }

    #[test]
    fn doubling_ladders_reach_the_figures_top_loads() {
        assert_eq!(doubling_ladder(2_000.0, 3), [2_000.0, 4_000.0, 8_000.0]);
        assert_eq!(doubling_ladder(10_000.0, 8)[7], 1_280_000.0);
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.ends_with("bamboo-bench"));
    }
}
