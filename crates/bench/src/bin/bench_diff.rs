//! Compares the fresh row files under `target/bamboo-bench/` against the
//! newest committed `BENCH_pr<N>.json` snapshot.
//!
//! Every `*.rows.json` a producer left behind is loaded through
//! [`rows::load`], written back out as one array to
//! `target/bamboo-bench/snapshot.json` (copy that file to `BENCH_prN.json`
//! to commit a new snapshot — nothing is assembled by hand), and diffed by
//! [`compare::diff`]: files pair on `(bench, tier)`, rows on name and unit;
//! simulator-clock rows compare exactly, wall-clock rows by median against
//! one bound with a spread check (see [`compare::judge`]).
//!
//! Numbers never fail the run: a `worse` row prints a GitHub `::warning::`
//! annotation and the exit code stays 0. A row file or snapshot that does not
//! load is a broken artifact, not a number — that exits 1.
//!
//! Usage: `cargo run --release -p bamboo-bench --bin bench_diff` after any
//! subset of the producers; takes no arguments.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bamboo_bench::compare::{self, Line, Verdict, BOUND};
use bamboo_bench::rows::{self, Clock, RowFile};
use bamboo_bench::{results_dir, write_artifact};

/// Every `*.rows.json` under the results directory, in name order, and the
/// message of each file that did not load.
fn fresh_files() -> (Vec<RowFile>, Vec<String>) {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .map(|entries| entries.flatten().map(|entry| entry.path()).collect())
        .unwrap_or_default();
    paths.retain(|path| path.to_string_lossy().ends_with(".rows.json"));
    paths.sort();
    let (mut files, mut errors) = (Vec::new(), Vec::new());
    for path in paths {
        match rows::load(&path) {
            Ok(loaded) => files.extend(loaded),
            Err(err) => errors.push(err),
        }
    }
    (files, errors)
}

fn print_line(file: &RowFile, line: &Line) {
    // One decimal for the big wall-clock numbers, four for the small
    // simulator ones a `changed` row has to show a difference in.
    let cell = |value: Option<f64>| match value {
        Some(v) if v.abs() >= 1_000.0 => format!("{v:.1}"),
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    };
    let delta = match (line.base, line.fresh) {
        (Some(base), Some(fresh)) if base != 0.0 => {
            format!("{:+.1}%", (fresh / base - 1.0) * 100.0)
        }
        _ => "-".to_string(),
    };
    let (base, fresh, unit) = (cell(line.base), cell(line.fresh), &line.unit);
    println!(
        "  {:<44} {base:>14} {fresh:>14} {delta:>9} {:>7.1}%  {} [{unit}]",
        line.name,
        line.spread * 100.0,
        line.verdict.label()
    );
    if line.verdict == Verdict::Worse {
        // GitHub Actions annotation; inert when run locally.
        println!(
            "::warning::{} ({}) '{}' is worse: {base} -> {fresh} {unit} ({delta}, bound {:.0}%)",
            file.bench,
            file.tier.label(),
            line.name,
            BOUND * 100.0
        );
    }
}

fn main() -> ExitCode {
    let (fresh, mut errors) = fresh_files();
    write_artifact("snapshot.json", &rows::render(&fresh));

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let snapshot = compare::latest_snapshot(&root);
    let base = snapshot.as_ref().map_or_else(Vec::new, |path| {
        rows::load(path).unwrap_or_else(|err| {
            errors.push(err);
            Vec::new()
        })
    });
    println!(
        "bench-diff: {} fresh row file(s) vs {} (wall-clock bound {:.0}%)",
        fresh.len(),
        snapshot
            .as_deref()
            .and_then(|path| path.file_name()?.to_str())
            .unwrap_or("no BENCH_pr<N>.json"),
        BOUND * 100.0
    );

    let (mut worse, mut changed) = (0, 0);
    for (file, lines) in compare::diff(&base, &fresh) {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for line in &lines {
            *counts.entry(line.verdict.label()).or_default() += 1;
        }
        let summary: Vec<String> = counts.iter().map(|(v, n)| format!("{n} {v}")).collect();
        println!(
            "\n{} ({}, {} cpu(s)): {}",
            file.bench,
            file.tier.label(),
            file.host_cpus,
            summary.join(", ")
        );
        println!(
            "  {:<44} {:>14} {:>14} {:>9} {:>8}  verdict [unit]",
            "name", "baseline", "fresh", "delta", "spread"
        );
        // Wall-clock rows always print (the delta is the trajectory); the
        // hundreds of exact simulator rows only when they are not `same`.
        for line in &lines {
            if line.clock == Clock::Wall || line.verdict != Verdict::Same {
                print_line(file, line);
            }
        }
        let count = |verdict| lines.iter().filter(|l| l.verdict == verdict).count();
        worse += count(Verdict::Worse);
        changed += count(Verdict::Changed);
    }
    println!("\nbench-diff: {worse} worse (non-gating), {changed} simulator row(s) changed");
    for err in &errors {
        println!("::error::bench-diff: {err}");
    }
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
