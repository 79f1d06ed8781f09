//! The one comparison `bench_diff` applies to every row of every producer.
//!
//! Files pair on equal `(bench, tier)` and rows on equal `name` with an equal
//! unit. A `clock: sim` row repeats exactly, so it is [`Verdict::Same`] or
//! [`Verdict::Changed`] and never better or worse. A `clock: wall` row is a
//! set of samples judged by the rule of the repo benchmark's `compare`:
//! medians against [`BOUND`], and a direction only when the samples can
//! carry one.

use std::path::{Path, PathBuf};

use crate::rows::{Better, Clock, Row, RowFile};
use crate::stats;

/// How far a wall-clock median may move, as a share of the baseline median,
/// before it counts as moved; also the widest IQR/median spread a sample
/// set may have and still resolve a move of that size.
pub const BOUND: f64 = 0.20;

/// How a fresh row stands against its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Sim clock: identical. Wall clock: medians within [`BOUND`].
    Same,
    /// Sim clock only: the value differs at all.
    Changed,
    /// Wall clock: moved beyond [`BOUND`] in the worse direction.
    Worse,
    /// Wall clock: moved beyond [`BOUND`] in the better direction.
    Better,
    /// Wall clock: the samples cannot tell — different `host_cpus`, a spread
    /// above [`BOUND`], or a move seen through fewer than three samples.
    Unresolved,
    /// No baseline row of this name (or no baseline file of this tier).
    New,
    /// The baseline file has this row and the fresh file does not.
    Gone,
    /// Both sides have the row under different units; not compared.
    UnitChanged,
}

impl Verdict {
    /// The word printed in the diff table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Changed => "changed",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::New => "new",
            Verdict::Gone => "gone",
            Verdict::UnitChanged => "unit changed",
        }
    }

    /// Whether the two sides are known to differ. `Unresolved` is not: it
    /// says the data cannot show a difference of [`BOUND`]'s size.
    pub fn is_difference(self) -> bool {
        !matches!(self, Verdict::Same | Verdict::Unresolved)
    }
}

/// Judges sample set `fresh` against `base`; both non-empty.
pub fn judge(
    better: Better,
    clock: Clock,
    base: &[f64],
    fresh: &[f64],
    same_host: bool,
) -> Verdict {
    if clock == Clock::Sim {
        return if base == fresh {
            Verdict::Same
        } else {
            Verdict::Changed
        };
    }
    let median = |set| stats::median(set).expect("a series holds at least one sample");
    let (median_a, median_b) = (median(base), median(fresh));
    let spread = stats::relative_spread(base).max(stats::relative_spread(fresh));
    if !same_host || spread > BOUND {
        return Verdict::Unresolved;
    }
    // Positive when `fresh` is worse. A zero baseline has a zero allowance,
    // so the first reconnect or rejection above none is a move.
    let worsening = match better {
        Better::Lower => median_b - median_a,
        Better::Higher => median_a - median_b,
    };
    if worsening.abs() <= BOUND * median_a.abs() {
        Verdict::Same
    } else if base.len() < 3 || fresh.len() < 3 {
        Verdict::Unresolved
    } else if worsening > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// The first row of a name in one file, and every sample under that name.
type Series<'a> = (&'a Row, Vec<f64>);

/// Groups a file's rows by name, in first-appearance order.
fn series(file: &RowFile) -> Vec<Series<'_>> {
    let mut out: Vec<Series<'_>> = Vec::new();
    for row in &file.rows {
        match out.iter_mut().find(|(first, _)| first.name == row.name) {
            Some((_, values)) => values.push(row.value),
            None => out.push((row, vec![row.value])),
        }
    }
    out
}

/// One line of the diff: a row name with both medians and the verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    /// Row name.
    pub name: String,
    /// Unit of the fresh side (of the baseline for a `Gone` row).
    pub unit: String,
    /// Clock of that same side.
    pub clock: Clock,
    /// Baseline median, when the baseline has the row.
    pub base: Option<f64>,
    /// Fresh median, when the fresh file has the row.
    pub fresh: Option<f64>,
    /// The wider of the two sides' IQR/median spreads.
    pub spread: f64,
    /// How the fresh side stands.
    pub verdict: Verdict,
}

/// Diffs every fresh file against the baseline file of the same
/// `(bench, tier)`. Baseline files with no fresh counterpart are not
/// listed: a diff run usually follows a subset of the producers.
pub fn diff<'a>(base: &[RowFile], fresh: &'a [RowFile]) -> Vec<(&'a RowFile, Vec<Line>)> {
    let line = |row: &Row, base: Option<&Vec<f64>>, fresh: Option<&Vec<f64>>, verdict| Line {
        name: row.name.clone(),
        unit: row.unit.clone(),
        clock: row.clock,
        base: base.and_then(|set| stats::median(set)),
        fresh: fresh.and_then(|set| stats::median(set)),
        spread: [base, fresh]
            .into_iter()
            .flatten()
            .map(|set| stats::relative_spread(set))
            .fold(0.0, f64::max),
        verdict,
    };
    let diff_file = |file: &RowFile| {
        let paired = base
            .iter()
            .find(|b| b.bench == file.bench && b.tier == file.tier);
        let same_host = paired.is_some_and(|b| b.host_cpus == file.host_cpus);
        let (old, new) = (paired.map(series).unwrap_or_default(), series(file));
        let mut lines: Vec<Line> = Vec::new();
        for (row, values) in &new {
            let old = old.iter().find(|(first, _)| first.name == row.name);
            let verdict = match old {
                None => Verdict::New,
                Some((first, _)) if first.unit != row.unit => Verdict::UnitChanged,
                Some((_, old)) => judge(row.better, row.clock, old, values, same_host),
            };
            lines.push(line(row, old.map(|(_, set)| set), Some(values), verdict));
        }
        for (row, values) in &old {
            if !new.iter().any(|(first, _)| first.name == row.name) {
                lines.push(line(row, Some(values), None, Verdict::Gone));
            }
        }
        lines
    };
    fresh.iter().map(|file| (file, diff_file(file))).collect()
}

/// The newest committed row snapshot: `BENCH_pr<N>.json` with the largest
/// `N` under `root`. Snapshots older than the row schema stay in the tree as
/// history; being older, they are never the one picked.
pub fn latest_snapshot(root: &Path) -> Option<PathBuf> {
    std::fs::read_dir(root)
        .ok()?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let pr: u64 = name
                .strip_prefix("BENCH_pr")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((pr, path))
        })
        .max_by_key(|(pr, _)| *pr)
        .map(|(_, path)| path)
}

#[cfg(test)]
mod tests {
    use super::Verdict::{Changed, Gone, New, Same, UnitChanged, Unresolved, Worse};
    use super::*;
    use crate::rows::Better::{Higher, Lower};
    use crate::rows::Tier;

    const STEADY: [f64; 3] = [10.0, 10.1, 9.9];
    const UP: [f64; 3] = [13.0, 13.1, 12.9];
    const DOWN: [f64; 3] = [7.0, 7.1, 6.9];

    fn wall(better: Better, base: &[f64], fresh: &[f64]) -> Verdict {
        judge(better, Clock::Wall, base, fresh, true)
    }

    #[test]
    fn direction_follows_better() {
        assert_eq!(wall(Lower, &STEADY, &[10.5, 10.4, 10.6]), Same);
        assert_eq!(wall(Lower, &STEADY, &UP), Worse);
        assert_eq!(wall(Lower, &STEADY, &DOWN), Verdict::Better);
        assert_eq!(wall(Higher, &STEADY, &UP), Verdict::Better);
        assert_eq!(wall(Higher, &STEADY, &DOWN), Worse);
    }

    #[test]
    fn zero_baseline_falls_out_of_the_general_rule() {
        assert_eq!(wall(Lower, &[0.0; 3], &[1.0; 3]), Worse);
        assert_eq!(wall(Lower, &[0.0; 3], &[0.0; 3]), Same);
        assert_eq!(wall(Lower, &[0.0], &[0.0]), Same);
    }

    #[test]
    fn sim_rows_are_same_or_changed_and_never_worse() {
        let sim = |a: &[f64], b: &[f64]| judge(Lower, Clock::Sim, a, b, false);
        assert_eq!(sim(&[41.5], &[41.5]), Same);
        assert_eq!(sim(&[41.5], &[41.500000001]), Changed);
        assert_eq!(sim(&[41.5], &[4150.0]), Changed);
    }

    #[test]
    fn thin_noisy_or_cross_host_samples_are_unresolved_never_worse() {
        // One or two samples cannot carry a direction.
        assert_eq!(wall(Lower, &[10.0], &[20.0]), Unresolved);
        assert_eq!(wall(Lower, &STEADY, &[20.0, 20.1]), Unresolved);
        // A spread above the bound on either side hides a bound-sized move.
        let noisy = [8.0, 10.0, 12.0, 9.0, 14.0];
        assert_eq!(wall(Lower, &noisy, &[20.0, 20.1, 19.9]), Unresolved);
        assert_eq!(wall(Lower, &STEADY, &[16.0, 20.0, 24.0]), Unresolved);
        // A host of another size measures something else.
        assert_eq!(judge(Lower, Clock::Wall, &STEADY, &UP, false), Unresolved);
    }

    fn file(tier: Tier, host_cpus: usize, series: &[(&str, &str, &[f64])]) -> RowFile {
        let mut file = RowFile::new("tcp_smoke", tier, 1);
        file.host_cpus = host_cpus;
        for (name, unit, values) in series {
            for value in *values {
                file.push(Clock::Wall, name.to_string(), *value, unit, Lower);
            }
        }
        file
    }

    #[test]
    fn diff_pairs_on_bench_tier_name_and_unit() {
        let old = [
            ("rtt", "us", &STEADY[..]),
            ("tput", "tx/s", &[9.0]),
            ("old", "x", &[1.0]),
        ];
        let new = [
            ("rtt", "us", &UP[..]),
            ("tput", "ktx/s", &[9.0]),
            ("added", "x", &[1.0]),
        ];
        let base = [file(Tier::Quick, 2, &old)];
        let lines = |tier, host_cpus| -> Vec<Line> {
            let fresh = [file(tier, host_cpus, &new)];
            diff(&base, &fresh).pop().expect("one fresh file").1
        };
        let verdicts = |lines: Vec<Line>| -> Vec<(String, Verdict)> {
            lines.into_iter().map(|l| (l.name, l.verdict)).collect()
        };
        let paired = lines(Tier::Quick, 2);
        assert_eq!((paired[0].base, paired[0].fresh), (Some(10.0), Some(13.0)));
        let expected = [
            ("rtt", Worse),
            ("tput", UnitChanged),
            ("added", New),
            ("old", Gone),
        ];
        assert_eq!(
            verdicts(paired),
            expected.map(|(name, verdict)| (name.to_string(), verdict))
        );
        // Another tier of the same bench has no baseline: every row is new.
        assert!(lines(Tier::Full, 2).iter().all(|l| l.verdict == New));
        // Another host size: the move is there but cannot be judged.
        assert_eq!(lines(Tier::Quick, 8)[0].verdict, Unresolved);
    }
}
