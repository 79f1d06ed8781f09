//! Shared harness code for the experiment benches.
//!
//! The tables and figures of *Dissecting the Performance of Chained-BFT*
//! are `figures/*.json` specs the `scenario` bin runs ([`record_figure`]
//! writes their rows), except fig8 and fig15, which are bench targets in
//! `benches/`. Each prints the rows or series the paper reports and records
//! every number as a `{name, value, unit, better, clock}` row in
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

use bamboo_core::scenario::Metric;
use bamboo_core::RunReport;
use bamboo_model::{ModelParams, PerfModel};
use bamboo_types::{Config, ProtocolKind, SimDuration};

pub use rows::Better::{Higher, Lower};
pub use rows::Clock::{self, Sim, Wall};
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
    Config {
        nodes,
        block_size,
        payload_size: payload,
        runtime: SimDuration::from_millis(runtime_ms),
        timeout: SimDuration::from_millis(100),
        seed: EVAL_SEED,
        ..Config::default()
    }
}

/// Builds the analytical model for one protocol and configuration.
pub fn model_for(protocol: ProtocolKind, config: &Config) -> PerfModel {
    PerfModel::new(protocol, ModelParams::from_config(config))
}

/// One run a figure records: its row key, its report and the config it ran.
pub type Run<'a> = (String, &'a RunReport, &'a Config);

/// Records runs in run order as `<key>/<metric>` rows on `clock` of what
/// `metrics` read off each report and config; runs that share a key fold to
/// `<metric>_mean` and `<metric>_std`, in the order the keys first came.
pub fn record_figure(out: &mut RowFile, clock: Clock, metrics: &[Metric], runs: Vec<Run>) {
    let mut points: Vec<(String, Vec<Vec<f64>>)> = Vec::new();
    for (key, report, config) in runs {
        let values = metrics.iter().map(|m| m.3(report, config)).collect();
        match points.iter_mut().find(|(k, _)| *k == key) {
            Some((_, samples)) => samples.push(values),
            None => points.push((key, vec![values])),
        }
    }
    for (key, samples) in points {
        let mut cells = Vec::new();
        for (at, &(name, unit, higher, _)) in metrics.iter().enumerate() {
            let better = if higher { Higher } else { Lower };
            let values: Vec<f64> = samples.iter().map(|values| values[at]).collect();
            if let [value] = values[..] {
                cells.push((name.to_string(), value, unit, better));
            } else {
                let (mean, std) = stats::mean_std(&values);
                cells.push((format!("{name}_mean"), mean, unit, better));
                cells.push((format!("{name}_std"), std, unit, Lower));
            }
        }
        let cells: Vec<_> = (cells.iter())
            .map(|(n, v, u, b)| (n.as_str(), *v, *u, *b))
            .collect();
        out.point(clock, &key, &cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::{RunOptions, SimRunner};

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
    fn runs_sharing_a_key_fold_to_mean_and_std() {
        let config = |seed| Config {
            seed,
            ..eval_config(4, 10, 0, 10)
        };
        let (one, two, three) = (config(1), config(2), config(3));
        let report =
            SimRunner::new(one.clone(), ProtocolKind::HotStuff, RunOptions::default()).run();
        let seed: Metric = ("seed", "count", true, |_, config| config.seed as f64);
        let mut out = RowFile::new("fold", Tier::Full, 0);
        let runs = [("HS/n4", &one), ("SL/n4", &two), ("HS/n4", &three)];
        let runs = runs.map(|(key, config)| (key.to_string(), &report, config));
        record_figure(&mut out, Sim, &[seed], runs.into());
        let rows = (out.rows.iter()).map(|r| format!("{} {} {:?}", r.name, r.value, r.better));
        let expected = "HS/n4/seed_mean 2 Higher, HS/n4/seed_std 1 Lower, SL/n4/seed 2 Higher";
        assert_eq!(rows.collect::<Vec<_>>().join(", "), expected);
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.ends_with("bamboo-bench"));
    }
}
