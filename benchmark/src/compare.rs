//! `compare <dirA> <dirB>`: two sets of measured-run reports, one row per
//! workload and end-to-end metric. Only the workloads `BENCHMARK.json` lists
//! are judged against its bounds; the others are printed as `unbounded`.

use std::collections::BTreeMap;
use std::path::Path;

use bamboo_types::Json;

use crate::report::{MetricDef, Registry};
use crate::stats;

/// Absolute floors: a metric is only "worse" when it also moved by more
/// than this many of its own units (a 25 % swing of a 20 ms boot is noise).
const ABSOLUTE_FLOORS: [(&str, f64); 1] = [("setup_s", 0.2)];
/// Judged on the medians alone, as the benchmark driver judges it: a set-up
/// is a sub-second stretch of host time, which on a shared host spreads
/// wider over ten runs than any bound the contract allows, while its median
/// holds. The spread is still printed.
const SPREAD_EXEMPT: [&str; 1] = ["setup_s"];

/// How set B stands against set A on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// A set's own run-to-run spread exceeds the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against set `a`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<(f64, f64, f64, Verdict)> {
    let (median_a, median_b) = (stats::median(a)?, stats::median(b)?);
    let bound = def.bound.unwrap_or(0.0);
    // A single run has no spread to speak of.
    let spread = stats::relative_spread(a)
        .unwrap_or(0.0)
        .max(stats::relative_spread(b).unwrap_or(0.0));
    let floor = ABSOLUTE_FLOORS
        .iter()
        .find(|(name, _)| *name == def.name)
        .map_or(0.0, |(_, floor)| *floor);
    // Positive when B is worse.
    let worsening = if def.lower_is_better {
        median_b - median_a
    } else {
        median_a - median_b
    };
    let beyond = |delta: f64| delta > bound * median_a.abs() && delta > floor;
    let verdict = if spread > bound && !SPREAD_EXEMPT.contains(&def.name.as_str()) {
        Verdict::Unresolved
    } else if beyond(worsening) {
        Verdict::Worse
    } else if beyond(-worsening) {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((median_a, median_b, spread, verdict))
}

/// `workload -> metric -> values` of one set of runs.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Every measured-run report under `dir`. A run that flagged itself
/// incorrect (late generator, failed transactions, ...) measured something
/// else than the workload: it is named and left out.
pub fn load_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for path in report_files(dir)? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let (Some(workload), Some(Json::Obj(metrics))) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics"),
        ) else {
            return Err(format!("{}: not a run report", path.display()));
        };
        if doc.get("correct") != Some(&Json::Bool(true)) {
            println!("left out (not correct): {}", path.display());
            continue;
        }
        let entry = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                entry.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Every `*.json` under `dir`, recursively, in path order.
pub fn report_files(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(current) = pending.pop() {
        let entries =
            std::fs::read_dir(&current).map_err(|e| format!("{}: {e}", current.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|ext| ext == "json") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Prints the comparison; returns whether no row of a workload listed in
/// `BENCHMARK.json` was worse, unresolved or missing.
pub fn run(registry: &Registry, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load_set(dir_a)?, load_set(dir_b)?);
    if set_a.is_empty() || set_b.is_empty() {
        return Err("a set holds no measured-run report".to_string());
    }
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread", "bound"
    );
    let mut clean = true;
    for workload in &registry.workloads {
        if !set_a.contains_key(workload) {
            println!("{workload:<24} missing from {}", dir_a.display());
            clean = false;
        }
    }
    for (workload, metrics_a) in &set_a {
        let bounded = registry.workloads.contains(workload);
        let Some(metrics_b) = set_b.get(workload) else {
            println!("{workload:<24} missing from {}", dir_b.display());
            clean &= !bounded;
            continue;
        };
        for def in &registry.end_to_end {
            let (Some(a), Some(b)) = (metrics_a.get(&def.name), metrics_b.get(&def.name)) else {
                println!("{workload:<24} {:<20} missing", def.name);
                clean &= !bounded;
                continue;
            };
            let Some((median_a, median_b, spread, verdict)) = judge(def, a, b) else {
                continue;
            };
            clean &= !(bounded && matches!(verdict, Verdict::Worse | Verdict::Unresolved));
            println!(
                "{workload:<24} {:<20} {median_a:>14.4} {median_b:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                def.name,
                (median_b / median_a - 1.0) * 100.0,
                spread * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                if bounded { verdict.label() } else { "unbounded" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, lower_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: name.to_string(),
            unit: "x".to_string(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = def("commit_lat_p50_ms", true, 0.10);
        let steady_a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let verdict = |d: &MetricDef, a: &[f64], b: &[f64]| judge(d, a, b).unwrap().3;
        assert_eq!(
            verdict(&latency, &steady_a, &[10.5, 10.4, 10.6, 10.5, 10.5]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&latency, &steady_a, &[12.0, 12.1, 11.9, 12.0, 12.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&latency, &steady_a, &[8.0, 8.1, 7.9, 8.0, 8.0]),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        let tput = def("commit_tput_tx_s", false, 0.05);
        assert_eq!(
            verdict(&tput, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tput, &[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0]),
            Verdict::Better
        );
        // A set noisier than the bound cannot resolve a bound-sized change.
        assert_eq!(
            verdict(&latency, &[8.0, 10.0, 12.0, 9.0, 11.0], &[10.0, 10.0, 10.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_needs_to_move_past_its_absolute_floor() {
        let setup = def("setup_s", true, 0.25);
        // +50 % but only 10 ms: not worse.
        let small = judge(&setup, &[0.020, 0.021, 0.019], &[0.030, 0.031, 0.029]).unwrap();
        assert_eq!(small.3, Verdict::Same);
        // +50 % and 0.5 s: worse.
        let large = judge(&setup, &[1.0, 1.01, 0.99], &[1.5, 1.51, 1.49]).unwrap();
        assert_eq!(large.3, Verdict::Worse);
        // Its own spread does not make it unresolved: the medians decide.
        let noisy = judge(&setup, &[0.5, 0.7, 0.9, 0.6, 0.8], &[0.7, 0.7, 0.7]).unwrap();
        assert!(noisy.2 > 0.25);
        assert_eq!(noisy.3, Verdict::Same);
    }
}
