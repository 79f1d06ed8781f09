//! The fault schedule: what a spec's `"faults"` array means, and its
//! compilation into the `(Config, RunOptions)` pair one simulator run
//! executes — including the quick tier's time scaling.

use bamboo_sim::{FluctuationWindow, LinkFault};
use bamboo_types::{Config, NodeId, SimDuration, SimTime, View};

use super::Scenario;
use crate::runner::{FaultTrigger, NodeFault, RunOptions};
use crate::runtime::RecoverMode;

/// When a spec-level fault boundary fires: at a (scalable) time or a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TriggerSpec {
    /// At this offset from the start of the run (scaled in quick mode).
    At(SimDuration),
    /// When the cluster first reaches this view (never scaled).
    AtView(View),
}

/// One entry of the spec's fault schedule, before tier-specific compilation.
#[derive(Clone, Debug)]
pub(super) enum FaultSpec {
    /// Crash `node` (optionally recovering later) and bring it back in
    /// `mode`: `"amnesia": true` and the spec kinds `"durable_restart"` and
    /// `"torn_log"` all select [`RecoverMode::Restart`], the latter two with
    /// the crash-point fault their `"fault"` label names (and only with
    /// `"durable_log": true`).
    Crash {
        node: NodeId,
        at: TriggerSpec,
        recover: Option<TriggerSpec>,
        mode: RecoverMode,
    },
    /// Rolling leader failure: starting at `from`, crash replica
    /// `i mod nodes` during the `i`-th window of `period`, until `until` —
    /// under round-robin election this tracks the leader rotation, so some
    /// window always hits a (past or incoming) leader.
    RollingLeader {
        from: SimDuration,
        until: SimDuration,
        period: SimDuration,
    },
    /// Static partition: `group` vs. the rest during the window.
    Partition {
        members: u64,
        from: SimDuration,
        until: SimDuration,
    },
    /// Oscillating partition: the cut is active during every other
    /// `period`-wide window between `from` and `until` (starting active).
    Oscillating {
        members: u64,
        from: SimDuration,
        until: SimDuration,
        period: SimDuration,
    },
    /// Network fluctuation: every link gains uniform extra delay in
    /// `[min_extra, max_extra]` during the window.
    Fluctuation {
        from: SimDuration,
        until: SimDuration,
        min_extra: SimDuration,
        max_extra: SimDuration,
    },
    /// Fixed extra delay on everything `node` sends during the window.
    SlowNode {
        node: NodeId,
        extra: SimDuration,
        from: SimDuration,
        until: SimDuration,
    },
}

/// The `period`-wide windows that tile `[from, until)`, in order; the last
/// one is clipped at `until`.
fn windows(
    from: SimDuration,
    until: SimDuration,
    period: SimDuration,
) -> impl Iterator<Item = (SimDuration, SimDuration)> {
    (0u64..)
        .map(move |index| from + SimDuration::from_nanos(period.as_nanos() * index))
        .take_while(move |start| *start < until)
        .map(move |start| (start, until.min(start + period)))
}

/// Compiles `scenario` into the `(Config, RunOptions)` pair one protocol run
/// executes. In quick mode, time-based fault windows are scaled by
/// `quick_runtime / runtime` so the schedule keeps its shape inside the
/// shorter window; view-triggered boundaries are left untouched.
pub(super) fn compile(scenario: &Scenario, quick: bool) -> (Config, RunOptions) {
    let mut config = scenario.base.clone();
    let scale = if quick {
        config.runtime = scenario.quick_runtime;
        scenario.quick_runtime.as_nanos() as f64 / scenario.base.runtime.as_nanos() as f64
    } else {
        1.0
    };
    let at = |d: SimDuration| {
        SimTime::ZERO + SimDuration::from_nanos((d.as_nanos() as f64 * scale) as u64)
    };
    let trigger = |t: TriggerSpec| match t {
        TriggerSpec::At(offset) => FaultTrigger::At(at(offset)),
        TriggerSpec::AtView(view) => FaultTrigger::AtView(view),
    };

    let mut options = scenario.options.clone();

    for fault in &scenario.faults {
        match *fault {
            FaultSpec::Crash {
                node,
                at: start,
                recover,
                mode,
            } => options.node_faults.push(NodeFault {
                node,
                crash: trigger(start),
                recover: recover.map(trigger),
                mode,
            }),
            FaultSpec::RollingLeader {
                from,
                until,
                period,
            } => {
                for (index, (start, end)) in windows(from, until, period).enumerate() {
                    options.node_faults.push(NodeFault {
                        node: NodeId(index as u64 % config.nodes as u64),
                        crash: FaultTrigger::At(at(start)),
                        recover: Some(FaultTrigger::At(at(end))),
                        mode: RecoverMode::Resume,
                    });
                }
            }
            FaultSpec::Partition {
                members,
                from,
                until,
            } => options.link_faults.push(LinkFault::GroupPartition {
                members,
                start: at(from),
                end: at(until),
            }),
            FaultSpec::Oscillating {
                members,
                from,
                until,
                period,
            } => {
                // The cut is active during every other window, starting active.
                for (start, end) in windows(from, until, period).step_by(2) {
                    options.link_faults.push(LinkFault::GroupPartition {
                        members,
                        start: at(start),
                        end: at(end),
                    });
                }
            }
            FaultSpec::Fluctuation {
                from,
                until,
                min_extra,
                max_extra,
            } => options.fluctuations.push(FluctuationWindow {
                start: at(from),
                end: at(until),
                min_extra,
                max_extra,
            }),
            FaultSpec::SlowNode {
                node,
                extra,
                from,
                until,
            } => options.link_faults.push(LinkFault::SlowNode {
                node,
                extra,
                start: at(from),
                end: at(until),
            }),
        }
    }
    // Metrics are recorded at the observer replica only; crashing it would
    // blind (or badly distort) every number the expectations are evaluated
    // against. Observe from the highest-id honest replica no node fault ever
    // touches; when the schedule covers everyone (e.g. a long rolling-leader
    // sweep), fall back to the default observer.
    options.observer = (0..config.nodes as u64)
        .rev()
        .map(NodeId)
        .find(|id| !config.is_byzantine(*id) && options.node_faults.iter().all(|f| f.node != *id));

    (config, options)
}
