//! Runs a directory of declarative scenario specs and gates on the results.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bamboo-bench --bin scenario -- [--quick] [--dir DIR] [FILE...]
//! ```
//!
//! * with no arguments, every `*.json` under `scenarios/` (workspace root)
//!   runs at the full tier;
//! * `--quick` switches to the shortened gating tier: each scenario's
//!   `quick_runtime_ms` window with proportionally scaled fault schedules;
//! * explicit `FILE` arguments replace the directory scan.
//!
//! Every `(scenario, protocol)` pair executes twice on the parallel sweep
//! pool (the second run must reproduce the first's fingerprint, counters
//! and recovery report) and the assembled [`ScenarioReport`]s are written to
//! `target/bamboo-bench/scenario_reports.json` — a byte-stable artifact:
//! two invocations on the same tree produce identical bytes. The recovery
//! latencies `bench_diff` tracks are written next to it as
//! `scenario.rows.json` (`<scenario>/<protocol>/recovery_time_ms` for runs
//! that scheduled amnesia recoveries, `…/log_replay_ms` for durable
//! restarts), with each run's `…/u_max`, `…/view_ms_qc` and
//! `…/views_by_timeout`, under the tier the suite ran at.
//!
//! The process exits non-zero on any failure: a safety violation or forked
//! ledger, a mismatch between the paired runs, an unmet spec
//! expectation, or an unparsable spec. This is the CI gate for the scenario
//! suite.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bamboo_bench::{banner, save_rows, write_artifact, Lower, RowFile, Sim, Tier};
use bamboo_core::parallel::{default_workers, run_ordered};
use bamboo_core::{Scenario, ScenarioReport, ScenarioRun};
use bamboo_types::{ProtocolKind, ToJson};

/// The shipped scenario library: `scenarios/` at the workspace root.
fn default_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("scenarios")
}

fn spec_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut dir = default_dir();
    let mut explicit: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--dir" => match args.next() {
                Some(path) => dir = PathBuf::from(path),
                None => {
                    eprintln!("--dir needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => explicit.push(PathBuf::from(other)),
        }
    }
    let files = if explicit.is_empty() {
        spec_files(&dir)
    } else {
        explicit
    };
    banner(&format!(
        "Scenario suite ({} tier): {} spec(s) from {}",
        if quick { "quick" } else { "full" },
        files.len(),
        dir.display()
    ));
    if files.is_empty() {
        eprintln!("no scenario specs found");
        return ExitCode::FAILURE;
    }

    // Parse every spec up front; a broken spec fails the suite.
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut parse_failures = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("error: cannot read {}: {err}", file.display());
                parse_failures += 1;
                continue;
            }
        };
        match Scenario::parse(&text) {
            Ok(scenario) => scenarios.push(scenario),
            Err(err) => {
                eprintln!("error: {}: {err}", file.display());
                parse_failures += 1;
            }
        }
    }

    // Fan every (scenario, protocol) pair out on the sweep pool; each job
    // runs the pair twice (determinism proof) via `run_protocol`.
    let pairs: Vec<(usize, ProtocolKind)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(index, s)| s.protocols.iter().map(move |&p| (index, p)))
        .collect();
    let started = Instant::now();
    let jobs: Vec<_> = pairs
        .iter()
        .map(|&(index, protocol)| {
            let scenario = scenarios[index].clone();
            move || scenario.run_protocol(protocol, quick)
        })
        .collect();
    let runs = run_ordered(jobs, default_workers());
    let wall = started.elapsed();

    // Reassemble per-scenario reports in spec order.
    let mut grouped: Vec<Vec<ScenarioRun>> = scenarios.iter().map(|_| Vec::new()).collect();
    for (&(index, _), run) in pairs.iter().zip(runs) {
        grouped[index].push(run);
    }
    let reports: Vec<ScenarioReport> = scenarios
        .iter()
        .zip(grouped)
        .map(|(scenario, runs)| scenario.evaluate(quick, runs))
        .collect();

    let mut failures = parse_failures;
    let mut total_events: u64 = 0;
    let mut rows = RowFile::new("scenario", Tier::from_quick(quick), 0);
    for report in &reports {
        println!(
            "\n{} — {}",
            report.name,
            if report.passed() { "PASS" } else { "FAIL" }
        );
        for run in &report.runs {
            total_events += run.report.events_processed;
            println!(
                "  {:<5} n={:<3} {:>9.0} tx/s   mean {:>8.2} ms   p99 {:>8.2} ms   CGR {:>5.2}   \
                 rejects {:>4}   det {}   fp {}",
                run.protocol.label(),
                run.report.nodes,
                run.report.throughput_tx_per_sec,
                run.report.latency.mean_ms,
                run.report.latency.p99_ms,
                run.report.chain_growth_rate,
                run.report.rejected_messages,
                if run.deterministic { "ok" } else { "MISMATCH" },
                &run.report.ledger_fingerprint[..16.min(run.report.ledger_fingerprint.len())],
            );
            let key = format!("{}/{}", report.name, run.protocol.label());
            let load = &run.report.utilization;
            let timeouts = load.view_timeout.count as f64;
            rows.point(
                Sim,
                &key,
                &[
                    ("u_max", load.u_max, "ratio", Lower),
                    ("view_ms_qc", load.view_qc.mean_ms, "ms", Lower),
                    ("views_by_timeout", timeouts, "count", Lower),
                ],
            );
            // Runs without a recovery have vacuous zeros; only the runs that
            // scheduled one contribute a row.
            let r = &run.report.recovery;
            for (restarts, metric, ms) in [
                (r.amnesia_recoveries, "recovery_time_ms", r.recovery_time_ms),
                (r.durable_restarts, "log_replay_ms", r.log_replay_ms),
            ] {
                if restarts > 0 {
                    rows.point(Sim, &key, &[(metric, ms, "ms", Lower)]);
                }
            }
        }
        for failure in &report.failures {
            println!("  FAIL: {failure}");
            failures += 1;
        }
    }

    write_artifact("scenario_reports.json", &reports.to_json().render_pretty());
    save_rows(&rows);
    println!(
        "\n{} scenario(s), {} run pair(s), {total_events} simulation events in {:.1} s wall",
        reports.len(),
        pairs.len(),
        wall.as_secs_f64()
    );
    if failures > 0 {
        println!("scenario suite FAILED: {failures} failure(s)");
        ExitCode::FAILURE
    } else {
        println!("scenario suite passed");
        ExitCode::SUCCESS
    }
}
