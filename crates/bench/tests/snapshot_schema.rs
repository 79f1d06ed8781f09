//! The newest committed `BENCH_pr<N>.json` is a row snapshot: it loads
//! through the same `rows::load` as every fresh artifact and diffs against
//! itself with no differences. A snapshot assembled by hand, or in a shape
//! the differ cannot pair, fails here instead of silently diffing nothing.

use std::collections::BTreeSet;
use std::path::PathBuf;

use bamboo_bench::{compare, rows};

#[test]
fn newest_snapshot_loads_and_self_diffs_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = compare::latest_snapshot(&root).expect("a committed BENCH_pr<N>.json");
    let files = rows::load(&path).unwrap_or_else(|err| panic!("{err}"));

    // One file per (bench, tier), or the differ's pairing is ambiguous; all
    // from one host, or wall-clock rows of one snapshot do not compare.
    let keys: BTreeSet<_> = files.iter().map(|f| (&f.bench, f.tier.label())).collect();
    assert_eq!(
        keys.len(),
        files.len(),
        "duplicate (bench, tier) in {path:?}"
    );
    let hosts: BTreeSet<_> = files.iter().map(|f| f.host_cpus).collect();
    assert_eq!(hosts.len(), 1, "{path:?} mixes hosts: {hosts:?}");

    let lines: Vec<_> = compare::diff(&files, &files)
        .into_iter()
        .flat_map(|(file, lines)| lines.into_iter().map(|line| (&file.bench, line)))
        .collect();
    assert!(!lines.is_empty());
    let differing: Vec<_> = lines
        .iter()
        .filter(|(_, l)| l.verdict.is_difference())
        .collect();
    assert!(differing.is_empty(), "self-diff of {path:?}: {differing:?}");
}
