//! Workload specs: `workloads/<name>.json`.
//!
//! Every spec is a `bamboo_core::Scenario` document (so the existing parser
//! validates the protocol, cluster, topology and fault schedule) plus one
//! `"benchmark"` object holding what only this harness needs: the backend,
//! the pacing of the load generator and the size of the lockstep replay.

use std::path::{Path, PathBuf};

use bamboo_core::{RunOptions, Scenario};
use bamboo_types::{Config, Json, ProtocolKind, SimDuration};

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "sim-hs-n32-lan",
    "sim-sl-n32-geo-crash",
    "threaded-hs-n4-durable",
    "tcp-hs-n4-sat",
];

/// Which runtime hosts the measured run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `SimRunner` on the simulated clock.
    Sim,
    /// `ThreadedCluster` on the wall clock, open-loop paced load.
    Threaded,
    /// In-process `TcpCluster` on the wall clock, closed-loop load.
    Tcp,
}

/// One parsed workload.
pub struct Spec {
    pub name: String,
    pub backend: Backend,
    pub protocol: ProtocolKind,
    /// Replica configuration; `seed` and (for `sim`) `runtime` are set per
    /// run by [`Spec::config_for`].
    config: Config,
    options: RunOptions,
    /// Simulated seconds run per requested second (`sim` only).
    pub sim_seconds_per_second: f64,
    /// Discarded warm-up: simulated time of the throw-away run that precedes
    /// a `sim` measurement, wall time of load before a live measurement.
    pub warmup: SimDuration,
    /// Open-loop pacing tick (`threaded`).
    pub tick: SimDuration,
    /// Closed-loop top-up unit (`tcp`).
    pub chunk: u64,
    /// Closed-loop early stop (`tcp`).
    pub max_committed_txs: u64,
    /// Transactions the lockstep replay commits before it stops.
    pub lockstep_txs: u64,
    /// One-way message delay on the lockstep replay's virtual clock.
    pub lockstep_hop: SimDuration,
}

/// The benchmark's own directory (`benchmark/`), found from the manifest the
/// binary was built from, so the command works from any working directory.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where reports, traces and durable-log scratch files go.
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

impl Spec {
    /// Loads `workloads/<name>.json`.
    pub fn load(name: &str) -> Result<Spec, String> {
        if !WORKLOADS.contains(&name) {
            return Err(format!(
                "unknown workload {name:?}; expected one of {WORKLOADS:?}"
            ));
        }
        let path = benchmark_dir()
            .join("workloads")
            .join(format!("{name}.json"));
        Self::load_path(&path)
    }

    fn load_path(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let scenario = Scenario::from_json(&doc)?;
        let bench = doc
            .get("benchmark")
            .ok_or_else(|| format!("{}: missing \"benchmark\" object", scenario.name))?;
        let num = |key: &str| bench.get(key).and_then(Json::as_f64);
        let need = |key: &str| {
            num(key).ok_or_else(|| format!("{}: benchmark.{key} missing", scenario.name))
        };
        let backend = match bench.get("backend").and_then(Json::as_str) {
            Some("sim") => Backend::Sim,
            Some("threaded") => Backend::Threaded,
            Some("tcp") => Backend::Tcp,
            other => {
                return Err(format!(
                    "{}: benchmark.backend {other:?} not sim|threaded|tcp",
                    scenario.name
                ))
            }
        };
        let (config, options) = scenario.build(false);
        let millis = |v: f64| SimDuration::from_nanos((v * 1e6) as u64);
        Ok(Spec {
            name: scenario.name.clone(),
            backend,
            protocol: scenario.protocols[0],
            config,
            options,
            sim_seconds_per_second: num("sim_seconds_per_second").unwrap_or(1.0),
            warmup: millis(need("warmup_ms")?),
            tick: millis(num("tick_ms").unwrap_or(2.0)),
            chunk: num("chunk").unwrap_or(200.0) as u64,
            max_committed_txs: num("max_committed_txs").map_or(u64::MAX, |v| v as u64),
            lockstep_txs: need("lockstep_txs")? as u64,
            lockstep_hop: SimDuration::from_nanos((need("lockstep_hop_us")? * 1e3) as u64),
        })
    }

    /// The replica configuration for one run.
    pub fn config_for(&self, seed: u64) -> Config {
        let mut config = self.config.clone();
        config.seed = seed;
        config
    }

    /// `(Config, RunOptions)` of a simulator run of `sim_runtime`, with every
    /// time-triggered fault boundary scaled by `sim_runtime / runtime_ms` so
    /// the schedule keeps its shape at any requested length.
    pub fn sim_run(&self, seed: u64, sim_runtime: SimDuration) -> (Config, RunOptions) {
        use bamboo_core::FaultTrigger;
        let mut config = self.config_for(seed);
        let scale = sim_runtime.as_nanos() as f64 / config.runtime.as_nanos() as f64;
        config.runtime = sim_runtime;
        let mut options = self.options.clone();
        let rescale = |trigger: &mut FaultTrigger| {
            if let FaultTrigger::At(at) = trigger {
                at.0 = (at.0 as f64 * scale) as u64;
            }
        };
        for fault in &mut options.node_faults {
            rescale(&mut fault.crash);
            if let Some(recover) = &mut fault.recover {
                rescale(recover);
            }
        }
        (config, options)
    }

    /// Replica-level options of the spec (Streamlet's synchronous epochs).
    pub fn replica_options(&self) -> bamboo_core::ReplicaOptions {
        self.options.replica
    }

    /// Whether replicas write a durable log.
    pub fn durable(&self) -> bool {
        self.config.durable_log
    }

    /// Outstanding transactions of a closed-loop workload.
    pub fn outstanding(&self) -> u64 {
        self.config.concurrency as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_parses() {
        for name in WORKLOADS {
            let spec = Spec::load(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name);
            assert!(spec.lockstep_txs > 0);
        }
        assert!(Spec::load("no-such-workload").is_err());
    }

    #[test]
    fn fault_times_scale_with_the_requested_length() {
        let spec = Spec::load("sim-sl-n32-geo-crash").unwrap();
        let (config, options) = spec.sim_run(7, SimDuration::from_secs(100));
        assert_eq!(config.seed, 7);
        assert_eq!(config.runtime, SimDuration::from_secs(100));
        let fault = options.node_faults[0];
        assert_eq!(
            fault.crash,
            bamboo_core::FaultTrigger::At(bamboo_types::SimTime(30_000_000_000))
        );
        assert_eq!(
            fault.recover,
            Some(bamboo_core::FaultTrigger::At(bamboo_types::SimTime(
                60_000_000_000
            )))
        );
    }
}
