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
//! * explicit `FILE` arguments replace the directory scan;
//! * a spec with a `grid` is a [`Figure`] (`--dir figures`): its points run
//!   as a batch of their own and write `<figure>.rows.json`.
//!
//! Every `(scenario, protocol)` pair executes twice on the parallel sweep
//! pool (the second run must reproduce the first's fingerprint, counters
//! and recovery report) and the assembled [`ScenarioReport`]s are written to
//! `target/bamboo-bench/<stem>_reports.json` ([`artifact_stem`]) — a byte-stable artifact:
//! two invocations on the same tree produce identical bytes. Each grid-less
//! run's readings are written next to it as `<stem>.rows.json`, through
//! [`record_figure`] under their `scenario::METRICS` names, keyed
//! `<scenario>/<protocol>`: [`SUITE_ROWS`] — `throughput`, `latency`,
//! `latency_p99`, `latency_max`, `pending_txs` (latency rows count only
//! committed transactions, so a run that commits its stragglers can read
//! worse at p99), `chain_growth_rate`, `duplicates_filtered`, `u_max`,
//! `view_ms_qc`, `views_by_timeout`, `handoff_rehanded`, the four
//! `stage_*_ms` commit-stage means and `requests_per_admission` — then `recovery_time_ms` for runs that
//! scheduled amnesia recoveries and `log_replay_ms` for durable restarts,
//! under the tier the suite ran at. Two spec files with one `name` are
//! refused, naming both, before anything runs.
//!
//! The process exits non-zero on any failure: a safety violation or forked
//! ledger, a mismatch between the paired runs, an unmet spec
//! expectation, or an unparsable spec. This is the CI gate for the scenario
//! suite.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bamboo_bench::{banner, record_figure, save_rows, write_artifact, Higher, RowFile, Sim, Tier};
use bamboo_core::parallel::{default_workers, run_ordered};
use bamboo_core::scenario::{metric, Metric, SUITE_ROWS};
use bamboo_core::{Figure, Scenario, ScenarioReport};
use bamboo_types::{Json, ToJson};

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

/// The stem of the suite's artifacts, `<stem>_reports.json` and
/// `<stem>.rows.json`: the name of the directory the specs are in, except
/// that `scenarios/` keeps `scenario`, the name its rows have in the
/// committed snapshots.
fn artifact_stem(dir: &Path) -> String {
    match dir.file_name().and_then(|name| name.to_str()) {
        Some("scenarios") | None => "scenario".to_string(),
        Some(name) => name.to_string(),
    }
}

/// Every later file whose spec takes a name an earlier one has, as an error
/// naming both: the two would write one `<name>.rows.json`, or fold into one
/// set of `_mean`/`_std` rows.
fn shared_names(named: &[(String, &Path)]) -> Vec<String> {
    let mut shared = Vec::new();
    for (at, (name, file)) in named.iter().enumerate() {
        if let Some((_, first)) = named[..at].iter().find(|(other, _)| other == name) {
            let (first, file) = (first.display(), file.display());
            shared.push(format!("{first} and {file} both name the spec {name:?}"));
        }
    }
    shared
}

/// Runs every spec on the sweep pool, one job each ([`Scenario::run`]);
/// returns the reports in spec order and the batch's wall time.
fn run_batch(specs: &[Scenario], quick: bool) -> (Vec<ScenarioReport>, Duration) {
    let started = Instant::now();
    let jobs: Vec<_> = (specs.iter().cloned())
        .map(|s| move || s.run(quick))
        .collect();
    (run_ordered(jobs, default_workers()), started.elapsed())
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
    let (mut scenarios, mut figures, mut named) = (Vec::new(), Vec::new(), Vec::new());
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
        let parsed = Json::parse(&text).and_then(|doc| {
            match doc.get("grid") {
                Some(_) => figures.push(Figure::from_json(&doc)?),
                None => scenarios.push(Scenario::from_json(&doc)?),
            }
            let name = doc.get("name").and_then(Json::as_str).unwrap_or_default();
            named.push((name.to_string(), file.as_path()));
            Ok(())
        });
        if let Err(err) = parsed {
            eprintln!("error: {}: {err}", file.display());
            parse_failures += 1;
        }
    }
    let shared = shared_names(&named);
    if !shared.is_empty() {
        shared.iter().for_each(|pair| eprintln!("error: {pair}"));
        return ExitCode::FAILURE;
    }

    let (mut reports, mut wall) = run_batch(&scenarios, quick);
    let mut failures = parse_failures;
    let mut total_events: u64 = 0;
    let stem = artifact_stem(files[0].parent().unwrap_or(&dir));
    let mut rows = RowFile::new(&stem, Tier::from_quick(quick), 0);
    for (scenario, report) in scenarios.iter().zip(&reports) {
        let config = scenario.build(quick).0;
        println!(
            "\n{} — {}",
            report.name,
            if report.passed() { "PASS" } else { "FAIL" }
        );
        for run in &report.runs {
            // Both runs of the pair: the replay reproduced this count, or
            // the pair failed.
            total_events += 2 * run.report.events_processed;
            // Copies sent / kept / dropped / handed on (DESIGN.md §7.4), and
            // committed duplicates the ledger did not execute.
            let handoff = &run.report.mempool;
            println!(
                "  {:<5} n={:<3} {:>9.0} tx/s   mean {:>8.2} ms   p99 {:>8.2} ms   CGR {:>5.2}   \
                 rejects {:>4}   handoff {}/{}/{}/{}   dups {}   det {}   fp {}",
                run.protocol.label(),
                run.report.nodes,
                run.report.throughput_tx_per_sec,
                run.report.latency.mean_ms,
                run.report.latency.p99_ms,
                run.report.chain_growth_rate,
                run.report.rejected_messages,
                handoff.handed_off,
                handoff.handed_in,
                handoff.handoff_dropped,
                handoff.rehanded,
                run.report.duplicates_filtered,
                if run.deterministic { "ok" } else { "MISMATCH" },
                &run.report.ledger_fingerprint[..16.min(run.report.ledger_fingerprint.len())],
            );
            // Runs without a recovery have vacuous zeros; only the runs that
            // scheduled one record it.
            let r = &run.report.recovery;
            let recovered = (r.amnesia_recoveries > 0).then_some("recovery_time_ms");
            let replayed = (r.durable_restarts > 0).then_some("log_replay_ms");
            let names = SUITE_ROWS.into_iter().chain(recovered).chain(replayed);
            let metrics: Vec<Metric> = names.map(|n| metric(n).expect("a METRICS entry")).collect();
            let key = format!("{}/{}", report.name, run.protocol.label());
            record_figure(&mut rows, Sim, &metrics, vec![(key, &run.report, &config)]);
        }
        for failure in &report.failures {
            println!("  FAIL: {failure}");
            failures += 1;
        }
    }

    // Each figure is a batch of its own, so its wall time is its own.
    for figure in &figures {
        banner(&format!("Figure {}", figure.name));
        let (points, batch_wall) = run_batch(&figure.points, quick);
        let configs: Vec<_> = figure.points.iter().map(|s| s.build(quick).0).collect();
        let (mut runs, mut batch_events) = (Vec::new(), 0);
        for ((config, tags), report) in configs.iter().zip(&figure.tags).zip(&points) {
            for run in &report.runs {
                let key = format!("{}{tags}", run.protocol.label());
                runs.push((key, &run.report, config));
                batch_events += 2 * run.report.events_processed;
            }
            for failure in &report.failures {
                println!("  FAIL ({tags}): {failure}");
                failures += 1;
            }
        }
        let seed = configs[0].seed;
        let mut out = RowFile::new(&figure.name, Tier::from_quick(quick), seed);
        record_figure(&mut out, Sim, &figure.rows, runs);
        // A figure that counts its points' events also records the engine's
        // rate over its batch: the one wall-clock row of the figures.
        if figure.rows.iter().any(|metric| metric.0 == "events") {
            let rate = batch_events as f64 / batch_wall.as_secs_f64();
            let rate = ("events_per_sec", rate, "events/s", Higher);
            out.point(bamboo_bench::Wall, "engine", &[rate]);
        }
        save_rows(&out);
        (total_events, wall) = (total_events + batch_events, wall + batch_wall);
        reports.extend(points);
    }

    let json = reports.to_json().render_pretty();
    write_artifact(&format!("{stem}_reports.json"), &json);
    if !scenarios.is_empty() {
        save_rows(&rows);
    }
    println!(
        "\n{} scenario(s) and figure point(s), {total_events} simulation events in {:.1} s wall \
         ({:.0} events/s)",
        reports.len(),
        wall.as_secs_f64(),
        total_events as f64 / wall.as_secs_f64()
    );
    if failures > 0 {
        println!("scenario suite FAILED: {failures} failure(s)");
        ExitCode::FAILURE
    } else {
        println!("scenario suite passed");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_named_after_the_spec_directory() {
        assert_eq!(artifact_stem(&default_dir()), "scenario");
        assert_eq!(artifact_stem(Path::new("scenarios/")), "scenario");
        assert_eq!(artifact_stem(Path::new("scenarios/nightly")), "nightly");
        assert_eq!(artifact_stem(Path::new("./figures")), "figures");
        assert_eq!(artifact_stem(Path::new("")), "scenario");
    }

    #[test]
    fn two_specs_with_one_name_are_refused_naming_both_files() {
        let (lan, geo, copy) = (
            Path::new("a/lan.json"),
            Path::new("a/geo.json"),
            Path::new("b/lan.json"),
        );
        let named = |names: [&str; 3]| {
            let files = names.into_iter().map(String::from).zip([lan, geo, copy]);
            shared_names(&files.collect::<Vec<_>>())
        };
        assert!(named(["lan", "geo", "fig"]).is_empty());
        assert_eq!(
            named(["lan", "geo", "lan"]),
            ["a/lan.json and b/lan.json both name the spec \"lan\""]
        );
    }
}
