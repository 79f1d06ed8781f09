//! The verdict: completed runs audited against the engine's invariants and
//! the spec's `"expect"` block, as a list of human-readable failures.

use bamboo_types::ProtocolKind;

use super::{Scenario, ScenarioRun};

/// Declarative pass/fail conditions evaluated against the runs.
#[derive(Clone, Debug, Default)]
pub struct Expectations {
    /// Minimum committed throughput (tx/s), per protocol.
    pub min_throughput_tx_per_sec: Option<f64>,
    /// Maximum p99 end-to-end latency (ms), per protocol.
    pub max_p99_latency_ms: Option<f64>,
    /// Minimum chain growth rate (committed blocks per view), per protocol.
    pub min_chain_growth_rate: Option<f64>,
    /// Minimum messages rejected at the authenticated ingress (attack
    /// scenarios assert the flood was actually fended off).
    pub min_auth_rejections: Option<u64>,
    /// Minimum transactions rejected by mempool admission control (overload
    /// scenarios assert the backpressure actually engaged).
    pub min_admission_rejections: Option<u64>,
    /// Ordered pairs `(faster, slower)`: the first protocol's mean commit
    /// latency must be strictly below the second's in this scenario.
    pub commit_latency_ordering: Vec<(ProtocolKind, ProtocolKind)>,
}

/// Every way `runs` fall short of `scenario`; empty means it passed.
pub(super) fn failures(scenario: &Scenario, runs: &[ScenarioRun]) -> Vec<String> {
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
        // One threshold: what was measured, its value, the bound, whether the
        // bound is a minimum, decimals shown.
        let mut check = |what: &str, measured: f64, bound: Option<f64>, min: bool, decimals| {
            let Some(bound) = bound else { return };
            let (missed, side) = match min {
                true => (measured < bound, "below expected minimum"),
                false => (measured > bound, "above expected maximum"),
            };
            if missed {
                failures.push(format!(
                    "{name}/{label}: {what} {measured:.decimals$} {side} {bound:.decimals$}"
                ));
            }
        };
        let (r, e) = (report, expect);
        let count = |bound: Option<u64>| bound.map(|b| b as f64);
        let (tput, min_tput) = (r.throughput_tx_per_sec, e.min_throughput_tx_per_sec);
        let (p99, max_p99) = (r.latency.p99_ms, e.max_p99_latency_ms);
        let (growth, min_growth) = (r.chain_growth_rate, e.min_chain_growth_rate);
        let (auth, min_auth) = (r.rejected_messages as f64, count(e.min_auth_rejections));
        let (shed, min_shed) = (r.mempool.rejected as f64, count(e.min_admission_rejections));
        check("throughput (tx/s)", tput, min_tput, true, 1);
        check("p99 latency (ms)", p99, max_p99, false, 1);
        check("chain growth", growth, min_growth, true, 2);
        check("auth rejections", auth, min_auth, true, 0);
        check("admission rejections", shed, min_shed, true, 0);
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
