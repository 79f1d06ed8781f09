//! The verdict: completed runs audited against the engine's invariants and
//! the spec's `"expect"` block, as a list of human-readable failures.

use bamboo_types::{Config, ProtocolKind};

use super::{Metric, Scenario, ScenarioRun};

/// Which side of a bound a run's reading must stay on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `min_<name>`: the reading may not fall below the bound.
    Min,
    /// `max_<name>`: the reading may not rise above the bound.
    Max,
}

/// Declarative pass/fail conditions evaluated against the runs.
#[derive(Clone, Debug, Default)]
pub struct Expectations {
    /// Bounds every run's readings must keep: the [`super::METRICS`] entry,
    /// the bound in its unit, and the side. A spec writes one as
    /// `"min_<name>": bound` or `"max_<name>": bound`.
    pub bounds: Vec<(Metric, f64, Side)>,
    /// Ordered pairs `(faster, slower)`: the first protocol's mean commit
    /// latency must be strictly below the second's in this scenario.
    pub commit_latency_ordering: Vec<(ProtocolKind, ProtocolKind)>,
}

/// Every way `runs` of `config` fall short of `scenario`; empty means it passed.
pub(super) fn failures(scenario: &Scenario, config: &Config, runs: &[ScenarioRun]) -> Vec<String> {
    let (name, expect) = (&scenario.name, &scenario.expect);
    let mut failures = Vec::new();
    for run in runs {
        let label = run.protocol.label();
        let report = &run.report;
        if report.safety_violations > 0 {
            failures.push(format!(
                "{name}/{label}: {} safety violation(s) — conflicting commits or forked ledgers",
                report.safety_violations
            ));
        }
        if !run.deterministic {
            failures.push(format!(
                "{name}/{label}: replay mismatch — a second run of the same spec diverged \
                 (ledger fingerprint, engine counters or recovery report)"
            ));
        }
        for &((metric, unit, _, read), bound, side) in &expect.bounds {
            let measured = read(report, config);
            let missed = match side {
                _ if !measured.is_finite() => Some("is not finite, so it misses the bound"),
                Side::Min => (measured < bound).then_some("below the minimum"),
                Side::Max => (measured > bound).then_some("above the maximum"),
            };
            if let Some(missed) = missed {
                failures.push(format!(
                    "{name}/{label}: {metric} {measured:.2} {unit} {missed} {bound} {unit}"
                ));
            }
        }
        // Recovery audit: every amnesia-recovered replica must end the run
        // back on the honest chain (vacuously true when the scenario
        // schedules no amnesia recoveries).
        if !report.recovery.recovered_caught_up {
            failures.push(format!(
                "{name}/{label}: {} amnesia recovery(ies) but a recovered replica never \
                 caught up to the honest chain",
                report.recovery.amnesia_recoveries
            ));
        }
    }
    for &(faster, slower) in &expect.commit_latency_ordering {
        let mean = |kind: ProtocolKind| {
            (runs.iter().find(|r| r.protocol == kind)).map(|r| r.report.latency.mean_ms)
        };
        match (mean(faster), mean(slower)) {
            (Some(a), Some(b)) if a >= b => failures.push(format!(
                "{name}: expected {} mean latency ({a:.2} ms) below {} ({b:.2} ms)",
                faster.label(),
                slower.label()
            )),
            (Some(_), Some(_)) => {}
            _ => failures.push(format!(
                "{name}: latency ordering references protocols the scenario does not run"
            )),
        }
    }
    failures
}
