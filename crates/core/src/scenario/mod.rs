//! The scenario engine: declarative experiment specs executed on the
//! simulator.
//!
//! The paper's contribution is scenario *coverage* — it dissects chained-BFT
//! protocols under contention, faults and network fluctuation. A
//! [`Scenario`] turns each such experiment into a data file instead of a
//! hand-coded Rust harness: a JSON spec (parsed with the in-tree
//! [`bamboo_types::Json`] parser) describing
//!
//! * the **topology** — regions with intra/inter-region delay distributions
//!   and per-link (possibly asymmetric) overrides ([`bamboo_sim::Topology`]),
//! * the **protocols** under test, the cluster size and the workload,
//! * the **Byzantine strategy** and a **fault schedule** — crash/recover at
//!   a time or view, rolling leader failure, (oscillating) partitions,
//!   fluctuation windows, slow nodes, heterogeneous per-node CPU,
//! * the run length, seed and a set of declarative **expectations**.
//!
//! Executing a scenario compiles the spec into `(Config, RunOptions)` pairs
//! — one per protocol — runs them through [`SimRunner`] (twice, to prove the
//! replay is deterministic), and produces a [`ScenarioReport`]: throughput,
//! latency percentiles, chain growth, auth rejections and the ledger
//! fingerprint per protocol, plus a list of failures (safety violations,
//! fork/replay mismatches, unmet expectations). The `scenario` bench
//! binary runs a whole directory of specs on the parallel sweep pool and
//! exits non-zero on any failure — the CI gate.
//!
//! Scenarios carry two measurement windows: the full `runtime_ms` used by
//! the nightly sweep and a shorter `quick_runtime_ms` used by the gating
//! `--quick` tier. In quick mode every *time-based* fault window is scaled
//! by `quick_runtime / runtime`, so the schedule keeps its shape;
//! view-triggered boundaries are left untouched.
//!
//! The engine is three steps, one file each: `spec` reads the JSON into a
//! [`Scenario`], `schedule` compiles its fault list for a tier, `expect`
//! audits the finished runs.

mod expect;
mod schedule;
mod spec;

use bamboo_types::{Config, Json, ProtocolKind, SimDuration, ToJson};

pub use self::expect::Expectations;
use self::schedule::FaultSpec;
use crate::metrics::RunReport;
use crate::runner::{RunOptions, SimRunner};

/// A parsed, executable experiment spec.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Spec name (also the report key; unique within a directory).
    pub name: String,
    /// Free-text description echoed into the report.
    pub description: String,
    /// Protocols the scenario runs, in spec order.
    pub protocols: Vec<ProtocolKind>,
    /// Expectations evaluated against every run.
    pub expect: Expectations,
    base: Config,
    quick_runtime: SimDuration,
    /// Everything of the run options no tier changes: topology, per-node CPU,
    /// replica switches. [`Scenario::build`] adds the compiled faults.
    options: RunOptions,
    faults: Vec<FaultSpec>,
}

/// One protocol's result within a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The protocol that produced this run.
    pub protocol: ProtocolKind,
    /// The full simulator report.
    pub report: RunReport,
    /// Whether an independent second run reproduced the ledger fingerprint,
    /// the commit, event, message and view counts, the queue peak and the
    /// recovery report.
    pub deterministic: bool,
}

/// The outcome of one scenario: per-protocol runs plus failures.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Spec description.
    pub description: String,
    /// Whether the quick tier ran (shortened windows).
    pub quick: bool,
    /// Per-protocol results, in spec order.
    pub runs: Vec<ScenarioRun>,
    /// Human-readable failure descriptions; empty means the scenario passed.
    pub failures: Vec<String>,
}

impl ScenarioReport {
    /// True when no safety violation, fork, replay mismatch or unmet
    /// expectation was recorded.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl Scenario {
    /// Parses a scenario spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax or schema
    /// error.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Builds a scenario from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation (missing fields,
    /// unknown labels, numbers outside their range, invalid windows,
    /// inconsistent configuration).
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        spec::scenario(doc)
    }

    /// The cluster size of the scenario.
    pub fn nodes(&self) -> usize {
        self.base.nodes
    }

    /// Compiles the spec into the `(Config, RunOptions)` pair one protocol
    /// run executes. In quick mode, time-based fault windows are scaled by
    /// `quick_runtime / runtime` so the schedule keeps its shape inside the
    /// shorter window.
    pub fn build(&self, quick: bool) -> (Config, RunOptions) {
        schedule::compile(self, quick)
    }

    /// Runs one protocol of the scenario twice and returns the first run;
    /// [`ScenarioRun::deterministic`] says whether the second execution
    /// reproduced it.
    pub fn run_protocol(&self, protocol: ProtocolKind, quick: bool) -> ScenarioRun {
        let (config, options) = self.build(quick);
        let report = SimRunner::new(config.clone(), protocol, options.clone()).run();
        let replay = SimRunner::new(config, protocol, options).run();
        ScenarioRun {
            protocol,
            deterministic: replay.replay_key() == report.replay_key(),
            report,
        }
    }

    /// Runs every protocol of the scenario sequentially and evaluates the
    /// expectations. The `scenario` binary parallelises over
    /// `(scenario, protocol)` pairs instead; it reassembles reports through
    /// [`Scenario::evaluate`].
    pub fn run(&self, quick: bool) -> ScenarioReport {
        let runs = self
            .protocols
            .iter()
            .map(|&protocol| self.run_protocol(protocol, quick))
            .collect();
        self.evaluate(quick, runs)
    }

    /// Audits completed runs against the scenario's invariants and
    /// expectations, producing the final report.
    pub fn evaluate(&self, quick: bool, runs: Vec<ScenarioRun>) -> ScenarioReport {
        ScenarioReport {
            name: self.name.clone(),
            description: self.description.clone(),
            quick,
            failures: expect::failures(self, &runs),
            runs,
        }
    }
}

impl ToJson for ScenarioRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol.label())),
            ("deterministic", Json::from(self.deterministic)),
            ("report", self.report.to_json()),
        ])
    }
}

impl ToJson for ScenarioReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("description", Json::from(self.description.as_str())),
            ("quick", Json::from(self.quick)),
            ("passed", Json::from(self.passed())),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| Json::from(f.as_str()))),
            ),
            ("runs", self.runs.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FaultTrigger;
    use crate::runtime::RecoverMode;
    use crate::storage::StorageFault;
    use bamboo_sim::LinkFault;
    use bamboo_types::{NodeId, SimTime, View};

    fn minimal_spec() -> String {
        r#"{
            "name": "mini",
            "protocols": ["HS", "2CHS"],
            "nodes": 4,
            "block_size": 100,
            "runtime_ms": 400,
            "quick_runtime_ms": 200,
            "seed": 7,
            "workload": {"open_loop_tx_per_sec": 3000},
            "expect": {"min_chain_growth_rate": 0.3,
                       "commit_latency_ordering": [["2CHS", "HS"]]}
        }"#
        .to_string()
    }

    #[test]
    fn parses_a_minimal_spec() {
        let scenario = Scenario::parse(&minimal_spec()).unwrap();
        assert_eq!(scenario.name, "mini");
        assert_eq!(
            scenario.protocols,
            vec![ProtocolKind::HotStuff, ProtocolKind::TwoChainHotStuff]
        );
        assert_eq!(scenario.nodes(), 4);
        assert_eq!(
            scenario.build(false).0.runtime,
            SimDuration::from_millis(400)
        );
        assert_eq!(
            scenario.build(true).0.runtime,
            SimDuration::from_millis(200)
        );
        assert_eq!(
            scenario.expect.commit_latency_ordering,
            vec![(ProtocolKind::TwoChainHotStuff, ProtocolKind::HotStuff)]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Scenario::parse("{").is_err());
        assert!(Scenario::parse(r#"{"name": "x"}"#).is_err(), "no protocols");
        let unknown = r#"{"name":"x","protocols":["XX"],"nodes":4,"runtime_ms":100,
                          "workload":{"open_loop_tx_per_sec":1}}"#;
        assert!(Scenario::parse(unknown).is_err(), "unknown protocol label");
        let bad_fault = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                            "workload":{"open_loop_tx_per_sec":1},
                            "faults":[{"kind":"warp","node":0}]}"#;
        assert!(Scenario::parse(bad_fault).is_err(), "unknown fault kind");
        let bad_byz = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                          "workload":{"open_loop_tx_per_sec":1},
                          "byzantine":{"strategy":"silence","count":2}}"#;
        assert!(Scenario::parse(bad_byz).is_err(), "f bound enforced");
    }

    #[test]
    fn rejects_out_of_cluster_node_references() {
        let base = |extra: &str| {
            format!(
                r#"{{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                    "workload":{{"open_loop_tx_per_sec":1}},{extra}}}"#
            )
        };
        let crash = base(r#""faults":[{"kind":"crash","node":9,"at_ms":50}]"#);
        assert!(Scenario::parse(&crash).is_err(), "crash node bound");
        let slow = base(
            r#""faults":[{"kind":"slow_node","node":4,"extra_ms":1,"from_ms":0,"until_ms":10}]"#,
        );
        assert!(Scenario::parse(&slow).is_err(), "slow node bound");
        let group =
            base(r#""faults":[{"kind":"partition","group":[0,5],"from_ms":0,"until_ms":10}]"#);
        assert!(Scenario::parse(&group).is_err(), "partition group bound");
        let cpu = base(r#""cpu_overrides":[{"node":7,"cpu_us":100}]"#);
        assert!(Scenario::parse(&cpu).is_err(), "cpu override bound");
        let region =
            base(r#""topology":{"regions":[{"name":"a","nodes":[0,9],"mean_ms":1,"std_ms":0}]}"#);
        assert!(Scenario::parse(&region).is_err(), "region node bound");
        let link = base(r#""topology":{"links":[{"from":0,"to":6,"mean_ms":1,"std_ms":0}]}"#);
        assert!(Scenario::parse(&link).is_err(), "link override bound");
    }

    /// Ids, counts, views and indices are integers: a saturating `as u64`
    /// used to read `-1` as node 0 and `4.9` as a 4-node cluster.
    #[test]
    fn rejects_negative_and_fractional_integers() {
        let spec = |nodes: &str, extra: &str| {
            format!(
                r#"{{"name":"x","protocols":["HS"],"nodes":{nodes},"runtime_ms":100,
                    "workload":{{"open_loop_tx_per_sec":1}}{extra}}}"#
            )
        };
        assert!(Scenario::parse(&spec("4", "")).is_ok());
        assert!(Scenario::parse(&spec("4.0", r#","block_size":1e2"#)).is_ok());
        for (what, bad) in [
            (
                "negative node and view",
                spec(
                    "4",
                    r#","faults":[{"kind":"crash","node":-1,"at_view":-7}]"#,
                ),
            ),
            (
                "negative view",
                spec("4", r#","faults":[{"kind":"crash","node":1,"at_view":-7}]"#),
            ),
            ("fractional cluster size", spec("4.9", "")),
            (
                "negative byzantine count",
                spec("4", r#","byzantine":{"strategy":"silence","count":-3}"#),
            ),
            (
                "partition group",
                spec(
                    "4",
                    r#","faults":[{"kind":"partition","group":[-2,1.7],"from_ms":0,"until_ms":9}]"#,
                ),
            ),
            (
                "region member",
                spec(
                    "4",
                    r#","topology":{"regions":[{"name":"a","nodes":[0,1.5],"mean_ms":1}]}"#,
                ),
            ),
            (
                "range bound",
                spec(
                    "4",
                    r#","topology":{"regions":[{"name":"a","nodes":{"range":[-1,2]},"mean_ms":1}]}"#,
                ),
            ),
            (
                "fault index",
                spec(
                    "4",
                    r#","durable_log":true,"faults":[{"kind":"torn_log","node":0,"at_ms":1,"recover_at_ms":2,"fault":"drop_fsync","index":0.5}]"#,
                ),
            ),
            ("size above 2^53", spec("4", r#","segment_bytes":1e17"#)),
            ("non-numeric count", spec("4", r#","block_size":"400""#)),
        ] {
            let err = Scenario::parse(&bad).expect_err(what);
            assert!(err.contains("non-negative integer"), "{what}: {err}");
        }
    }

    /// Durations and rates are finite and not negative: a saturating cast
    /// used to read `"timeout_ms": -100` as a zero timeout, `"cpu_us": -5` as
    /// free crypto and `"at_ms": 1e300` as the end of time.
    #[test]
    fn rejects_negative_and_non_finite_durations_and_rates() {
        let spec = |top: &str, rate: &str| {
            format!(
                r#"{{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                    "workload":{{"open_loop_tx_per_sec":{rate}}}{top}}}"#
            )
        };
        let fault = |body: &str| spec(&format!(r#","faults":[{{{body}}}]"#), "1");
        let window = r#""from_ms":0,"until_ms":9"#;
        assert!(Scenario::parse(&spec(r#","timeout_ms":0.5,"cpu_us":0"#, "0.5")).is_ok());
        for (field, bad) in [
            ("timeout_ms", spec(r#","timeout_ms":-100"#, "1")),
            ("timeout_ms", spec(r#","timeout_ms":0"#, "1")),
            ("timeout_ms", spec(r#","timeout_ms":1e-9"#, "1")),
            ("cpu_us", spec(r#","cpu_us":-5"#, "1")),
            (
                "cpu_us",
                spec(r#","cpu_overrides":[{"node":0,"cpu_us":-5}]"#, "1"),
            ),
            (
                "mean_ms",
                spec(r#","topology":{"default":{"mean_ms":-1}}"#, "1"),
            ),
            (
                "std_ms",
                spec(r#","topology":{"default":{"mean_ms":1,"std_ms":-1}}"#, "1"),
            ),
            ("at_ms", fault(r#""kind":"crash","node":0,"at_ms":-5"#)),
            ("at_ms", fault(r#""kind":"crash","node":0,"at_ms":1e300"#)),
            (
                "recover_at_ms",
                fault(r#""kind":"crash","node":0,"at_ms":1,"recover_at_ms":-2"#),
            ),
            (
                "from_ms",
                fault(r#""kind":"partition","group":[0],"from_ms":-1,"until_ms":9"#),
            ),
            (
                "period_ms",
                fault(&format!(
                    r#""kind":"rolling_leader",{window},"period_ms":0"#
                )),
            ),
            (
                "period_ms",
                fault(&format!(
                    r#""kind":"oscillating_partition","group":[0],{window},"period_ms":-3"#
                )),
            ),
            (
                "min_extra_ms",
                fault(&format!(
                    r#""kind":"fluctuation",{window},"min_extra_ms":-1,"max_extra_ms":1"#
                )),
            ),
            (
                "extra_ms",
                fault(&format!(
                    r#""kind":"slow_node","node":0,{window},"extra_ms":-1"#
                )),
            ),
            ("quick_runtime_ms", spec(r#","quick_runtime_ms":-1"#, "1")),
            ("quick_runtime_ms", spec(r#","quick_runtime_ms":0"#, "1")),
            ("open_loop_tx_per_sec", spec("", "-5")),
            ("open_loop_tx_per_sec", spec("", "0")),
            ("open_loop_tx_per_sec", spec("", "1e999")),
            (
                "runtime_ms",
                spec("", "1").replace(r#""runtime_ms":100"#, r#""runtime_ms":-100"#),
            ),
        ] {
            let err = Scenario::parse(&bad).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn rejects_recovery_scheduled_before_the_crash() {
        let spec = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                       "workload":{"open_loop_tx_per_sec":1},
                       "faults":[{"kind":"crash","node":0,"at_ms":800,"recover_at_ms":500}]}"#;
        assert!(Scenario::parse(spec).is_err());
        let views = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                        "workload":{"open_loop_tx_per_sec":1},
                        "faults":[{"kind":"crash","node":0,"at_view":10,"recover_at_view":5}]}"#;
        assert!(Scenario::parse(views).is_err());
    }

    #[test]
    fn rejects_crash_and_recovery_triggers_on_different_axes() {
        // Wall-clock and view triggers advance at unrelated rates, so a
        // mixed pair has no defined ordering — both directions must fail.
        let time_then_view = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                                 "workload":{"open_loop_tx_per_sec":1},
                                 "faults":[{"kind":"crash","node":0,"at_ms":50,
                                            "recover_at_view":20}]}"#;
        assert!(Scenario::parse(time_then_view).is_err());
        let view_then_time = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                                 "workload":{"open_loop_tx_per_sec":1},
                                 "faults":[{"kind":"crash","node":0,"at_view":10,
                                            "recover_at_ms":80}]}"#;
        assert!(Scenario::parse(view_then_time).is_err());
    }

    #[test]
    fn parses_amnesia_crashes_and_the_checkpoint_knob() {
        let spec = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                       "checkpoint_interval_blocks": 16,
                       "workload":{"open_loop_tx_per_sec":1},
                       "faults":[{"kind":"crash","node":0,"at_ms":20,
                                  "recover_at_ms":60,"amnesia":true}]}"#;
        let scenario = Scenario::parse(spec).unwrap();
        let (config, options) = scenario.build(false);
        assert_eq!(config.checkpoint_interval, Some(16));
        assert_eq!(options.node_faults.len(), 1);
        assert_eq!(options.node_faults[0].mode, RecoverMode::Restart(None));

        // Amnesia without a recovery trigger can never restart the node —
        // the spec is a contradiction and must not parse.
        let never_back = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                             "workload":{"open_loop_tx_per_sec":1},
                             "faults":[{"kind":"crash","node":0,"at_ms":20,
                                        "amnesia":true}]}"#;
        assert!(Scenario::parse(never_back).is_err());
    }

    #[test]
    fn parses_durable_restart_faults_and_storage_knobs() {
        let spec = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                       "durable_log": true,
                       "fsync_interval": 4,
                       "segment_bytes": 8192,
                       "workload":{"open_loop_tx_per_sec":1},
                       "faults":[
                           {"kind":"durable_restart","node":0,"at_ms":20,"recover_at_ms":60},
                           {"kind":"torn_log","node":1,"at_ms":30,"recover_at_ms":70},
                           {"kind":"torn_log","node":2,"at_ms":30,"recover_at_ms":70,
                            "fault":"corrupt_crc","record":3},
                           {"kind":"torn_log","node":3,"at_ms":30,"recover_at_ms":70,
                            "fault":"drop_fsync","index":5}]}"#;
        let scenario = Scenario::parse(spec).unwrap();
        assert!(scenario.base.durable_log);
        assert_eq!(scenario.base.fsync_interval, 4);
        assert_eq!(scenario.base.segment_bytes, 8192);
        let (_, options) = scenario.build(false);
        assert_eq!(options.node_faults.len(), 4);
        // A clean durable restart arms no fault; torn_log defaults to a torn
        // tail; explicit labels carry their parameters.
        let modes: Vec<RecoverMode> = options.node_faults.iter().map(|f| f.mode).collect();
        assert_eq!(
            modes,
            [
                RecoverMode::Restart(None),
                RecoverMode::Restart(Some(StorageFault::TornTail)),
                RecoverMode::Restart(Some(StorageFault::CorruptCrc { record: 3 })),
                RecoverMode::Restart(Some(StorageFault::DropFsync { index: 5 })),
            ]
        );
    }

    #[test]
    fn rejects_contradictory_durable_restart_specs() {
        // A durable restart with no recovery trigger never restarts.
        let never_back = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                             "durable_log": true,
                             "workload":{"open_loop_tx_per_sec":1},
                             "faults":[{"kind":"durable_restart","node":0,"at_ms":20}]}"#;
        assert!(Scenario::parse(never_back).is_err());
        // Without the durable log there is nothing to replay (or to maul):
        // the spec asks for something it did not configure and must not parse.
        let no_log = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                         "workload":{"open_loop_tx_per_sec":1},
                         "faults":[{"kind":"durable_restart","node":0,"at_ms":20,
                                    "recover_at_ms":60}]}"#;
        assert!(Scenario::parse(no_log).is_err());
        // Unknown storage-fault labels are typos, not defaults.
        let bad_fault = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                            "durable_log": true,
                            "workload":{"open_loop_tx_per_sec":1},
                            "faults":[{"kind":"torn_log","node":0,"at_ms":20,
                                       "recover_at_ms":60,"fault":"shredded"}]}"#;
        assert!(Scenario::parse(bad_fault).is_err());
    }

    #[test]
    fn parses_the_client_pipeline_knobs() {
        let spec = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                       "client_population": 1000000,
                       "signed_requests": true,
                       "workload":{"open_loop_tx_per_sec":1}}"#;
        let scenario = Scenario::parse(spec).unwrap();
        assert_eq!(scenario.base.client_population, Some(1_000_000));
        assert!(scenario.base.signed_requests);

        // Defaults stay on the legacy path so existing specs keep their
        // recorded fingerprints.
        let plain = Scenario::parse(&minimal_spec()).unwrap();
        assert_eq!(plain.base.client_population, None);
        assert!(!plain.base.signed_requests);
    }

    #[test]
    fn observer_avoids_faulted_and_byzantine_nodes() {
        let spec = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                       "workload":{"open_loop_tx_per_sec":1},
                       "faults":[{"kind":"crash","node":3,"at_ms":50}]}"#;
        let (_, options) = Scenario::parse(spec).unwrap().build(false);
        assert_eq!(
            options.observer,
            Some(NodeId(2)),
            "default observer (3) is crashed; next-highest untouched node observes"
        );
        let clean = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                        "workload":{"open_loop_tx_per_sec":1}}"#;
        let (_, options) = Scenario::parse(clean).unwrap().build(false);
        assert_eq!(options.observer, Some(NodeId(3)));
    }

    #[test]
    fn quick_mode_scales_time_windows_but_not_views() {
        let spec = r#"{
            "name": "scaled",
            "protocols": ["HS"],
            "nodes": 4,
            "runtime_ms": 1000,
            "quick_runtime_ms": 100,
            "workload": {"open_loop_tx_per_sec": 1000},
            "faults": [
                {"kind": "crash", "node": 0, "at_ms": 500, "recover_at_ms": 800},
                {"kind": "crash", "node": 1, "at_view": 20}
            ]
        }"#;
        let scenario = Scenario::parse(spec).unwrap();
        let (config, options) = scenario.build(true);
        assert_eq!(config.runtime, SimDuration::from_millis(100));
        assert_eq!(options.node_faults.len(), 2);
        assert_eq!(
            options.node_faults[0].crash,
            FaultTrigger::At(SimTime(50_000_000)),
            "500 ms scaled by 1/10"
        );
        assert_eq!(
            options.node_faults[0].recover,
            Some(FaultTrigger::At(SimTime(80_000_000)))
        );
        assert_eq!(
            options.node_faults[1].crash,
            FaultTrigger::AtView(View(20)),
            "view triggers are not scaled"
        );
        let (config, options) = scenario.build(false);
        assert_eq!(config.runtime, SimDuration::from_millis(1000));
        assert_eq!(
            options.node_faults[0].crash,
            FaultTrigger::At(SimTime(500_000_000))
        );
    }

    #[test]
    fn oscillating_partition_compiles_to_alternating_windows() {
        let spec = r#"{
            "name": "osc",
            "protocols": ["HS"],
            "nodes": 4,
            "runtime_ms": 1000,
            "workload": {"open_loop_tx_per_sec": 1000},
            "faults": [{"kind": "oscillating_partition", "group": [0, 1],
                        "from_ms": 100, "until_ms": 500, "period_ms": 100}]
        }"#;
        let scenario = Scenario::parse(spec).unwrap();
        let (_, options) = scenario.build(false);
        // Windows at [100,200) and [300,400): every other period.
        assert_eq!(options.link_faults.len(), 2);
        let expected = [(100u64, 200u64), (300, 400)];
        for (fault, (from, until)) in options.link_faults.iter().zip(expected) {
            match fault {
                LinkFault::GroupPartition {
                    members,
                    start,
                    end,
                } => {
                    assert_eq!(*members, 0b11);
                    assert_eq!(*start, SimTime(from * 1_000_000));
                    assert_eq!(*end, SimTime(until * 1_000_000));
                }
                other => panic!("expected group partition, got {other:?}"),
            }
        }
    }

    #[test]
    fn rolling_leader_rotates_the_crashed_node() {
        let spec = r#"{
            "name": "roll",
            "protocols": ["HS"],
            "nodes": 4,
            "runtime_ms": 1000,
            "workload": {"open_loop_tx_per_sec": 1000},
            "faults": [{"kind": "rolling_leader",
                        "from_ms": 0, "until_ms": 600, "period_ms": 100}]
        }"#;
        let scenario = Scenario::parse(spec).unwrap();
        let (_, options) = scenario.build(false);
        assert_eq!(options.node_faults.len(), 6);
        let nodes: Vec<u64> = options.node_faults.iter().map(|f| f.node.0).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1], "round-robin rotation");
    }

    /// The benchmark's frozen workload files still carry the keys of two
    /// removed modes, the sharded engine's `threads` and the TCP tier's
    /// `transport`; they must stay ignored unknown keys.
    #[test]
    fn leftover_threads_and_transport_keys_are_ignored() {
        let plain = Scenario::parse(&minimal_spec()).unwrap();
        for key in [r#""threads": 4"#, r#""transport": "tcp""#] {
            let keyed = minimal_spec().replacen('{', &format!("{{{key},"), 1);
            assert!(keyed.contains(key));
            let keyed = Scenario::parse(&keyed).unwrap();
            for quick in [false, true] {
                assert_eq!(
                    format!("{:?}", keyed.build(quick)),
                    format!("{:?}", plain.build(quick)),
                    "{key}"
                );
            }
        }
    }

    #[test]
    fn running_a_scenario_produces_a_passing_deterministic_report() {
        let scenario = Scenario::parse(&minimal_spec()).unwrap();
        let report = scenario.run(true);
        assert_eq!(report.runs.len(), 2);
        assert!(
            report.passed(),
            "unexpected failures: {:?}",
            report.failures
        );
        for run in &report.runs {
            assert!(run.deterministic);
            assert!(run.report.committed_txs > 0);
        }
        let rendered = report.to_json().render_pretty();
        assert!(rendered.contains("\"name\": \"mini\""));
        assert!(rendered.contains("\"passed\": true"));
    }

    #[test]
    fn evaluate_flags_unmet_expectations() {
        let mut scenario = Scenario::parse(&minimal_spec()).unwrap();
        scenario.expect.min_throughput_tx_per_sec = Some(f64::MAX);
        let report = scenario.run(true);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("throughput")));
    }

    #[test]
    fn topology_spec_builds_heterogeneous_links() {
        let spec = r#"{
            "name": "topo",
            "protocols": ["HS"],
            "nodes": 4,
            "runtime_ms": 300,
            "workload": {"open_loop_tx_per_sec": 1000},
            "topology": {
                "default": {"mean_ms": 0.25, "std_ms": 0.05},
                "regions": [
                    {"name": "east", "nodes": [0, 1], "mean_ms": 0.3, "std_ms": 0.05},
                    {"name": "west", "nodes": [2, 3], "mean_ms": 0.3, "std_ms": 0.05}
                ],
                "inter": [{"from": "east", "to": "west", "mean_ms": 40, "std_ms": 2}],
                "links": [{"from": 0, "to": 3, "mean_ms": 80, "std_ms": 2, "asymmetric": true}]
            }
        }"#;
        let scenario = Scenario::parse(spec).unwrap();
        let (config, options) = scenario.build(false);
        let topology = options.topology.expect("topology compiled");
        assert_eq!(
            topology.dist(NodeId(0), NodeId(2)).mean,
            SimDuration::from_millis(40)
        );
        assert_eq!(
            topology.dist(NodeId(2), NodeId(0)).mean,
            SimDuration::from_millis(40),
            "inter entries are symmetric by default"
        );
        assert_eq!(
            topology.dist(NodeId(0), NodeId(3)).mean,
            SimDuration::from_millis(80)
        );
        assert_eq!(
            topology.dist(NodeId(3), NodeId(0)).mean,
            SimDuration::from_millis(40),
            "asymmetric link override stays one-way"
        );
        assert_eq!(config.link_latency_mean, SimDuration::from_micros(250));
    }
}
