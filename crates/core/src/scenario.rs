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
//!   and per-link (possibly asymmetric) overrides ([`Topology`]),
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

use bamboo_sim::{DelayDist, FluctuationWindow, LinkFault, Topology};
use bamboo_types::{
    ByzantineStrategy, Config, Json, LeaderPolicy, NodeId, ProtocolKind, SimDuration, SimTime,
    ToJson, View,
};

use crate::metrics::RunReport;
use crate::runner::{FaultTrigger, NodeFault, RunOptions, SimRunner};
use crate::runtime::RecoverMode;
use crate::storage::StorageFault;

/// When a spec-level fault boundary fires: at a (scalable) time or a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TriggerSpec {
    /// At this offset from the start of the run (scaled in quick mode).
    At(SimDuration),
    /// When the cluster first reaches this view (never scaled).
    AtView(View),
}

/// One entry of the spec's fault schedule, before tier-specific compilation.
#[derive(Clone, Debug)]
enum FaultSpec {
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

/// Which backend executes a scenario's runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScenarioTransport {
    /// The deterministic discrete-event simulator (the default).
    #[default]
    Sim,
    /// Loopback TCP sockets — real threads and real frames, driven by the
    /// `bamboo-net` crate. Wall-clock execution: no modelled topology, no
    /// injected faults, no determinism check; the scenario runner only
    /// asserts safety, agreement and liveness.
    Tcp,
}

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
    transport: ScenarioTransport,
    quick_runtime: SimDuration,
    topology: Option<Topology>,
    faults: Vec<FaultSpec>,
    cpu_overrides: Vec<(NodeId, SimDuration)>,
    wait_for_timeout_on_view_change: bool,
    synchronous_epochs: bool,
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

// ---- parsing ---------------------------------------------------------------

fn duration_ms(value: f64) -> SimDuration {
    SimDuration::from_nanos((value * 1_000_000.0).round().max(0.0) as u64)
}

fn field_f64(obj: &Json, key: &str, context: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{context}: missing or non-numeric field {key:?}"))
}

fn opt_f64(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

fn field_str<'j>(obj: &'j Json, key: &str, context: &str) -> Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{context}: missing or non-string field {key:?}"))
}

/// Reads an unsigned integer — a node id, count, view, index or size. JSON
/// numbers are `f64`s and an `as u64` cast saturates, so `-1` would read as
/// 0 and `4.9` as 4: anything negative, fractional or above 2^53 (where `f64`
/// stops being exact) is rejected instead.
fn uint(value: &Json, what: &str, context: &str) -> Result<u64, String> {
    match value.as_f64() {
        Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= (1u64 << 53) as f64 => Ok(v as u64),
        _ => Err(format!("{context}: {what} must be a non-negative integer")),
    }
}

fn opt_uint(obj: &Json, key: &str, context: &str) -> Result<Option<u64>, String> {
    obj.get(key).map(|v| uint(v, key, context)).transpose()
}

fn field_uint(obj: &Json, key: &str, context: &str) -> Result<u64, String> {
    opt_uint(obj, key, context)?.ok_or_else(|| format!("{context}: missing field {key:?}"))
}

fn field_node(obj: &Json, key: &str, context: &str) -> Result<NodeId, String> {
    Ok(NodeId(field_uint(obj, key, context)?))
}

/// `[from_ms, until_ms)` window shared by several fault kinds.
fn window(obj: &Json, context: &str) -> Result<(SimDuration, SimDuration), String> {
    let from = duration_ms(field_f64(obj, "from_ms", context)?);
    let until = duration_ms(field_f64(obj, "until_ms", context)?);
    if until <= from {
        return Err(format!("{context}: until_ms must exceed from_ms"));
    }
    Ok((from, until))
}

fn group_mask(obj: &Json, context: &str) -> Result<u64, String> {
    let nodes = obj
        .get("group")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{context}: missing \"group\" array"))?;
    let mut ids = Vec::with_capacity(nodes.len());
    for node in nodes {
        let id = uint(node, "a group member", context)?;
        if id >= 64 {
            return Err(format!("{context}: group members must have id < 64"));
        }
        ids.push(id);
    }
    Ok(LinkFault::group_mask(ids))
}

fn parse_dist(obj: &Json, context: &str) -> Result<DelayDist, String> {
    let mean = duration_ms(field_f64(obj, "mean_ms", context)?);
    let std = duration_ms(opt_f64(obj, "std_ms").unwrap_or(0.0));
    Ok(DelayDist::new(mean, std))
}

fn parse_topology(spec: &Json, name: &str, cluster: u64) -> Result<Topology, String> {
    let context = format!("{name}/topology");
    let check = |node: u64| -> Result<u64, String> {
        if node >= cluster {
            return Err(format!(
                "{context}: node {node} is outside the {cluster}-node cluster"
            ));
        }
        Ok(node)
    };
    let default = match spec.get("default") {
        Some(obj) => parse_dist(obj, &context)?,
        None => DelayDist::new(
            Config::default().link_latency_mean,
            Config::default().link_latency_std,
        ),
    };
    let mut topology = Topology::new(default);
    if let Some(regions) = spec.get("regions").and_then(Json::as_array) {
        for region in regions {
            let region_name = field_str(region, "name", &context)?;
            // Members come as an explicit id array or, for large clusters,
            // a half-open `{"range": [start, end]}` — n = 1000 specs list
            // four ranges instead of a thousand ids.
            let nodes = region
                .get("nodes")
                .ok_or_else(|| format!("{context}: region {region_name:?} missing nodes"))?;
            let ids: Vec<u64> = if let Some(entries) = nodes.as_array() {
                entries
                    .iter()
                    .map(|n| uint(n, "a region node id", &context).and_then(&check))
                    .collect::<Result<_, _>>()?
            } else if let Some(range) = nodes.get("range").and_then(Json::as_array) {
                let bound = |i: usize| match range.get(i) {
                    Some(bound) => uint(bound, "a range bound", &context),
                    None => Err(format!("{context}: range needs [start, end]")),
                };
                let (start, end) = (bound(0)?, bound(1)?);
                if start >= end {
                    return Err(format!(
                        "{context}: empty node range [{start}, {end}) in region {region_name:?}"
                    ));
                }
                (start..end).map(&check).collect::<Result<_, _>>()?
            } else {
                return Err(format!(
                    "{context}: region {region_name:?} nodes must be an id array or \
                     {{\"range\": [start, end]}}"
                ));
            };
            let intra = parse_dist(region, &context)?;
            topology.add_region(region_name, ids, intra);
        }
    }
    if let Some(inters) = spec.get("inter").and_then(Json::as_array) {
        for inter in inters {
            let from = field_str(inter, "from", &context)?;
            let to = field_str(inter, "to", &context)?;
            let from_id = topology
                .region_id(from)
                .ok_or_else(|| format!("{context}: unknown region {from:?}"))?;
            let to_id = topology
                .region_id(to)
                .ok_or_else(|| format!("{context}: unknown region {to:?}"))?;
            topology.set_inter(from_id, to_id, parse_dist(inter, &context)?);
        }
    }
    // Symmetric by default: one "inter" entry describes both directions
    // unless the reverse direction appears explicitly.
    topology.symmetrize();
    if let Some(links) = spec.get("links").and_then(Json::as_array) {
        for link in links {
            let from = NodeId(check(field_node(link, "from", &context)?.0)?);
            let to = NodeId(check(field_node(link, "to", &context)?.0)?);
            let dist = parse_dist(link, &context)?;
            topology.override_link(from, to, dist);
            // Per-link overrides follow the same symmetric-by-default rule;
            // `"asymmetric": true` keeps the override one-directional.
            let asymmetric = matches!(link.get("asymmetric"), Some(Json::Bool(true)));
            if !asymmetric {
                topology.override_link(to, from, dist);
            }
        }
    }
    Ok(topology)
}

fn parse_trigger(
    obj: &Json,
    at_key: &str,
    view_key: &str,
    context: &str,
) -> Result<Option<TriggerSpec>, String> {
    match (opt_f64(obj, at_key), opt_uint(obj, view_key, context)?) {
        (Some(_), Some(_)) => Err(format!(
            "{context}: {at_key:?} and {view_key:?} are mutually exclusive"
        )),
        (Some(ms), None) => Ok(Some(TriggerSpec::At(duration_ms(ms)))),
        (None, Some(view)) => Ok(Some(TriggerSpec::AtView(View(view)))),
        (None, None) => Ok(None),
    }
}

/// Parses the fields every crash-shaped fault shares: the node, the crash
/// trigger, and the optional recovery trigger with crash-before-recovery
/// ordering enforced.
///
/// A recovery scheduled on the same axis must come after the crash — the
/// reversed pair would fire the (no-op) recovery first and leave the node
/// down forever, silently. Mixing axes is rejected outright: wall-clock time
/// and view numbers advance at unrelated rates, so "crash at view V, recover
/// at T ms" has no well-defined ordering and has historically meant a typo.
fn parse_crash_core(
    obj: &Json,
    context: &str,
) -> Result<(NodeId, TriggerSpec, Option<TriggerSpec>), String> {
    let node = field_node(obj, "node", context)?;
    let at = parse_trigger(obj, "at_ms", "at_view", context)?
        .ok_or_else(|| format!("{context}: crash needs at_ms or at_view"))?;
    let recover = parse_trigger(obj, "recover_at_ms", "recover_at_view", context)?;
    match (at, recover) {
        (TriggerSpec::At(crash), Some(TriggerSpec::At(rec))) if rec <= crash => {
            return Err(format!("{context}: recover_at_ms must exceed at_ms"));
        }
        (TriggerSpec::AtView(crash), Some(TriggerSpec::AtView(rec))) if rec <= crash => {
            return Err(format!("{context}: recover_at_view must exceed at_view"));
        }
        (TriggerSpec::At(_), Some(TriggerSpec::AtView(_))) => {
            return Err(format!(
                "{context}: crash at_ms cannot pair with recover_at_view; \
                 use one trigger axis for both"
            ));
        }
        (TriggerSpec::AtView(_), Some(TriggerSpec::At(_))) => {
            return Err(format!(
                "{context}: crash at_view cannot pair with recover_at_ms; \
                 use one trigger axis for both"
            ));
        }
        _ => {}
    }
    Ok((node, at, recover))
}

/// Parses the `"fault"` label of a durable-restart entry into the crash-point
/// [`StorageFault`] to arm. `"torn_log"` entries default to a torn tail;
/// `"durable_restart"` entries default to a clean shutdown (no fault).
fn parse_storage_fault(
    obj: &Json,
    kind: &str,
    context: &str,
) -> Result<Option<StorageFault>, String> {
    let label = match obj.get("fault") {
        None => return Ok((kind == "torn_log").then_some(StorageFault::TornTail)),
        Some(value) => value
            .as_str()
            .ok_or_else(|| format!("{context}: \"fault\" must be a string label"))?,
    };
    match label {
        "torn_tail" => Ok(Some(StorageFault::TornTail)),
        "truncate_segment" => Ok(Some(StorageFault::TruncateSegment)),
        "corrupt_crc" => Ok(Some(StorageFault::CorruptCrc {
            record: opt_uint(obj, "record", context)?.unwrap_or(0),
        })),
        "drop_fsync" => Ok(Some(StorageFault::DropFsync {
            index: opt_uint(obj, "index", context)?.unwrap_or(0),
        })),
        other => Err(format!("{context}: unknown storage fault {other:?}")),
    }
}

fn parse_fault(obj: &Json, name: &str, durable_log: bool) -> Result<FaultSpec, String> {
    let context = format!("{name}/faults");
    let kind = field_str(obj, "kind", &context)?;
    match kind {
        "crash" => {
            let (node, at, recover) = parse_crash_core(obj, &context)?;
            let amnesia = matches!(obj.get("amnesia"), Some(Json::Bool(true)));
            if amnesia && recover.is_none() {
                return Err(format!(
                    "{context}: amnesia without a recovery trigger never restarts the node"
                ));
            }
            let mode = if amnesia {
                RecoverMode::Restart(None)
            } else {
                RecoverMode::Resume
            };
            Ok(FaultSpec::Crash {
                node,
                at,
                recover,
                mode,
            })
        }
        "durable_restart" | "torn_log" => {
            let (node, at, recover) = parse_crash_core(obj, &context)?;
            if recover.is_none() {
                return Err(format!(
                    "{context}: {kind} without a recovery trigger never restarts the node"
                ));
            }
            // Without the log there is nothing to replay and nothing for a
            // storage fault to maul; make the spec say what it means.
            if !durable_log {
                return Err(format!("{context}: {kind} requires \"durable_log\": true"));
            }
            Ok(FaultSpec::Crash {
                node,
                at,
                recover,
                mode: RecoverMode::Restart(parse_storage_fault(obj, kind, &context)?),
            })
        }
        "rolling_leader" => {
            let (from, until) = window(obj, &context)?;
            let period = duration_ms(field_f64(obj, "period_ms", &context)?);
            if period.is_zero() {
                return Err(format!("{context}: rolling_leader period must be positive"));
            }
            Ok(FaultSpec::RollingLeader {
                from,
                until,
                period,
            })
        }
        "partition" => {
            let (from, until) = window(obj, &context)?;
            Ok(FaultSpec::Partition {
                members: group_mask(obj, &context)?,
                from,
                until,
            })
        }
        "oscillating_partition" => {
            let (from, until) = window(obj, &context)?;
            let period = duration_ms(field_f64(obj, "period_ms", &context)?);
            if period.is_zero() {
                return Err(format!("{context}: oscillation period must be positive"));
            }
            Ok(FaultSpec::Oscillating {
                members: group_mask(obj, &context)?,
                from,
                until,
                period,
            })
        }
        "fluctuation" => {
            let (from, until) = window(obj, &context)?;
            Ok(FaultSpec::Fluctuation {
                from,
                until,
                min_extra: duration_ms(field_f64(obj, "min_extra_ms", &context)?),
                max_extra: duration_ms(field_f64(obj, "max_extra_ms", &context)?),
            })
        }
        "slow_node" => {
            let (from, until) = window(obj, &context)?;
            Ok(FaultSpec::SlowNode {
                node: field_node(obj, "node", &context)?,
                extra: duration_ms(field_f64(obj, "extra_ms", &context)?),
                from,
                until,
            })
        }
        other => Err(format!("{context}: unknown fault kind {other:?}")),
    }
}

fn parse_expectations(spec: &Json, name: &str) -> Result<Expectations, String> {
    let context = format!("{name}/expect");
    let Some(obj) = spec.get("expect") else {
        return Ok(Expectations::default());
    };
    let mut expect = Expectations {
        min_throughput_tx_per_sec: opt_f64(obj, "min_throughput_tx_per_sec"),
        max_p99_latency_ms: opt_f64(obj, "max_p99_latency_ms"),
        min_chain_growth_rate: opt_f64(obj, "min_chain_growth_rate"),
        min_auth_rejections: opt_uint(obj, "min_auth_rejections", &context)?,
        min_admission_rejections: opt_uint(obj, "min_admission_rejections", &context)?,
        commit_latency_ordering: Vec::new(),
    };
    if let Some(pairs) = obj.get("commit_latency_ordering").and_then(Json::as_array) {
        for pair in pairs {
            let items = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("{context}: ordering entries are [faster, slower]"))?;
            let parse = |j: &Json| -> Result<ProtocolKind, String> {
                let label = j
                    .as_str()
                    .ok_or_else(|| format!("{context}: non-string protocol label"))?;
                ProtocolKind::from_label(label)
                    .ok_or_else(|| format!("{context}: unknown protocol {label:?}"))
            };
            expect
                .commit_latency_ordering
                .push((parse(&items[0])?, parse(&items[1])?));
        }
    }
    Ok(expect)
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
    /// unknown labels, invalid windows, inconsistent configuration).
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        let name = field_str(doc, "name", "scenario")?.to_string();
        let description = doc
            .get("description")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();

        let protocol_labels = doc
            .get("protocols")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{name}: missing \"protocols\" array"))?;
        let mut protocols = Vec::with_capacity(protocol_labels.len());
        for label in protocol_labels {
            let label = label
                .as_str()
                .ok_or_else(|| format!("{name}: non-string protocol label"))?;
            protocols.push(
                ProtocolKind::from_label(label)
                    .ok_or_else(|| format!("{name}: unknown protocol {label:?}"))?,
            );
        }
        if protocols.is_empty() {
            return Err(format!("{name}: at least one protocol required"));
        }

        let mut base = Config {
            nodes: field_uint(doc, "nodes", &name)? as usize,
            runtime: duration_ms(field_f64(doc, "runtime_ms", &name)?),
            ..Config::default()
        };
        let count = |key: &str| opt_uint(doc, key, &name);
        if let Some(v) = count("block_size")? {
            base.block_size = v as usize;
        }
        if let Some(v) = count("payload_size")? {
            base.payload_size = v as usize;
        }
        if let Some(v) = count("mempool_size")? {
            base.mempool_size = v as usize;
        }
        if let Some(v) = count("mempool_shards")? {
            base.mempool_shards = v as usize;
        }
        if let Some(v) = count("client_population")? {
            base.client_population = Some(v);
        }
        if matches!(doc.get("signed_requests"), Some(Json::Bool(true))) {
            base.signed_requests = true;
        }
        if let Some(v) = opt_f64(doc, "timeout_ms") {
            base.timeout = duration_ms(v);
        }
        if let Some(v) = count("seed")? {
            base.seed = v;
        }
        if let Some(v) = opt_f64(doc, "cpu_us") {
            base.cpu_delay = SimDuration::from_nanos((v * 1_000.0) as u64);
        }
        if let Some(v) = count("bandwidth_bytes_per_sec")? {
            base.bandwidth_bytes_per_sec = v;
        }
        if let Some(v) = count("checkpoint_interval_blocks")? {
            base.checkpoint_interval = Some(v);
        }
        if matches!(doc.get("durable_log"), Some(Json::Bool(true))) {
            base.durable_log = true;
        }
        if let Some(v) = count("fsync_interval")? {
            base.fsync_interval = v as usize;
        }
        if let Some(v) = count("segment_bytes")? {
            base.segment_bytes = v as usize;
        }
        match doc.get("leader") {
            None => {}
            Some(Json::Str(policy)) if policy == "round_robin" => {
                base.leader_policy = LeaderPolicy::RoundRobin;
            }
            Some(Json::Str(policy)) if policy == "hashed" => {
                base.leader_policy = LeaderPolicy::Hashed;
            }
            Some(obj) if obj.get("static").is_some() => {
                base.leader_policy = LeaderPolicy::Static(field_node(obj, "static", &name)?);
            }
            Some(_) => {
                return Err(format!(
                    "{name}: leader must be \"round_robin\", \"hashed\" or {{\"static\": id}}"
                ))
            }
        }

        let workload = doc
            .get("workload")
            .ok_or_else(|| format!("{name}: missing \"workload\""))?;
        if let Some(rate) = opt_f64(workload, "open_loop_tx_per_sec") {
            base.arrival_rate = Some(rate);
        } else if let Some(clients) = opt_uint(workload, "closed_loop_clients", &name)? {
            base.arrival_rate = None;
            base.concurrency = clients as usize;
        } else {
            return Err(format!(
                "{name}: workload needs open_loop_tx_per_sec or closed_loop_clients"
            ));
        }

        if let Some(byz) = doc.get("byzantine") {
            let strategy = field_str(byz, "strategy", &name)?;
            base.byzantine_strategy = ByzantineStrategy::from_label(strategy)
                .ok_or_else(|| format!("{name}: unknown byzantine strategy {strategy:?}"))?;
            base.byz_nodes = field_uint(byz, "count", &name)? as usize;
        }

        let cluster = base.nodes as u64;
        let topology = match doc.get("topology") {
            Some(spec) => {
                let topology = parse_topology(spec, &name, cluster)?;
                // Keep the scalar Config fields coherent with the topology's
                // default class so model-parameter derivations stay honest.
                base.link_latency_mean = topology.default_dist().mean;
                base.link_latency_std = topology.default_dist().std;
                Some(topology)
            }
            None => None,
        };

        // Referential integrity of node ids: a typo'd id must fail parsing,
        // not panic the runner (crash faults index per-node state) or
        // silently weaken the configured fault.
        let check_node = |node: NodeId, what: &str| -> Result<(), String> {
            if node.0 >= cluster {
                return Err(format!(
                    "{name}: {what} references node {} but the cluster has {cluster} nodes",
                    node.0
                ));
            }
            Ok(())
        };

        let mut faults = Vec::new();
        if let Some(entries) = doc.get("faults").and_then(Json::as_array) {
            for entry in entries {
                let fault = parse_fault(entry, &name, base.durable_log)?;
                match &fault {
                    FaultSpec::Crash { node, .. } => check_node(*node, "a crash fault")?,
                    FaultSpec::SlowNode { node, .. } => check_node(*node, "a slow_node fault")?,
                    FaultSpec::Partition { members, .. }
                    | FaultSpec::Oscillating { members, .. } => {
                        if cluster < 64 && members >> cluster != 0 {
                            return Err(format!(
                                "{name}: a partition group references nodes outside the \
                                 {cluster}-node cluster"
                            ));
                        }
                    }
                    FaultSpec::RollingLeader { .. } | FaultSpec::Fluctuation { .. } => {}
                }
                faults.push(fault);
            }
        }

        let mut cpu_overrides = Vec::new();
        if let Some(entries) = doc.get("cpu_overrides").and_then(Json::as_array) {
            for entry in entries {
                let node = field_node(entry, "node", &name)?;
                check_node(node, "a cpu override")?;
                let cpu_us = field_f64(entry, "cpu_us", &name)?;
                cpu_overrides.push((node, SimDuration::from_nanos((cpu_us * 1_000.0) as u64)));
            }
        }

        let quick_runtime = opt_f64(doc, "quick_runtime_ms")
            .map(duration_ms)
            .unwrap_or_else(|| base.runtime.min(SimDuration::from_millis(500)));

        let transport = match doc.get("transport") {
            None => ScenarioTransport::Sim,
            Some(Json::Str(label)) if label == "sim" => ScenarioTransport::Sim,
            Some(Json::Str(label)) if label == "tcp" => ScenarioTransport::Tcp,
            Some(_) => {
                return Err(format!("{name}: transport must be \"sim\" or \"tcp\""));
            }
        };
        if transport == ScenarioTransport::Tcp {
            // The TCP backend runs on the real network stack: modelled
            // topologies and injected faults have no meaning there, so a spec
            // combining them is a contradiction, not a request.
            if topology.is_some() {
                return Err(format!(
                    "{name}: \"transport\": \"tcp\" cannot carry a modelled topology"
                ));
            }
            if !faults.is_empty() {
                return Err(format!(
                    "{name}: \"transport\": \"tcp\" cannot carry injected faults"
                ));
            }
        }

        base.validate().map_err(|e| format!("{name}: {e}"))?;

        Ok(Scenario {
            expect: parse_expectations(doc, &name)?,
            name,
            description,
            protocols,
            base,
            transport,
            quick_runtime,
            topology,
            faults,
            cpu_overrides,
            wait_for_timeout_on_view_change: matches!(
                doc.get("wait_for_timeout_on_view_change"),
                Some(Json::Bool(true))
            ),
            synchronous_epochs: matches!(doc.get("synchronous_epochs"), Some(Json::Bool(true))),
        })
    }

    /// The cluster size of the scenario.
    pub fn nodes(&self) -> usize {
        self.base.nodes
    }

    /// The backend this scenario runs on.
    pub fn transport(&self) -> ScenarioTransport {
        self.transport
    }

    /// The base replica configuration (before tier-specific adjustments by
    /// [`Scenario::build`]). Non-simulator runners use this to construct
    /// their own clusters.
    pub fn base_config(&self) -> &Config {
        &self.base
    }

    /// The measurement window of the given tier.
    pub fn runtime(&self, quick: bool) -> SimDuration {
        if quick {
            self.quick_runtime
        } else {
            self.base.runtime
        }
    }

    /// Compiles the spec into the `(Config, RunOptions)` pair one protocol
    /// run executes. In quick mode, time-based fault windows are scaled by
    /// `quick_runtime / runtime` so the schedule keeps its shape inside the
    /// shorter window.
    pub fn build(&self, quick: bool) -> (Config, RunOptions) {
        let mut config = self.base.clone();
        let scale = if quick {
            config.runtime = self.quick_runtime;
            self.quick_runtime.as_nanos() as f64 / self.base.runtime.as_nanos() as f64
        } else {
            1.0
        };
        let scaled = |d: SimDuration| SimDuration::from_nanos((d.as_nanos() as f64 * scale) as u64);
        let at = |d: SimDuration| SimTime::ZERO + scaled(d);
        let trigger = |t: TriggerSpec| match t {
            TriggerSpec::At(offset) => FaultTrigger::At(at(offset)),
            TriggerSpec::AtView(view) => FaultTrigger::AtView(view),
        };

        let mut options = RunOptions {
            topology: self.topology.clone(),
            cpu_overrides: self.cpu_overrides.clone(),
            ..RunOptions::default()
        };
        options.replica.wait_for_timeout_on_view_change = self.wait_for_timeout_on_view_change;
        options.replica.synchronous_epochs = self.synchronous_epochs;

        for fault in &self.faults {
            match fault {
                FaultSpec::Crash {
                    node,
                    at: start,
                    recover,
                    mode,
                } => {
                    options.node_faults.push(NodeFault {
                        node: *node,
                        crash: trigger(*start),
                        recover: recover.map(trigger),
                        mode: *mode,
                    });
                }
                FaultSpec::RollingLeader {
                    from,
                    until,
                    period,
                } => {
                    let mut index = 0u64;
                    loop {
                        let start = *from + SimDuration::from_nanos(period.as_nanos() * index);
                        if start >= *until {
                            break;
                        }
                        let end = (*until).min(start + *period);
                        options.node_faults.push(NodeFault {
                            node: NodeId(index % config.nodes as u64),
                            crash: FaultTrigger::At(at(start)),
                            recover: Some(FaultTrigger::At(at(end))),
                            mode: RecoverMode::Resume,
                        });
                        index += 1;
                    }
                }
                FaultSpec::Partition {
                    members,
                    from,
                    until,
                } => {
                    options.link_faults.push(LinkFault::GroupPartition {
                        members: *members,
                        start: at(*from),
                        end: at(*until),
                    });
                }
                FaultSpec::Oscillating {
                    members,
                    from,
                    until,
                    period,
                } => {
                    let mut index = 0u64;
                    loop {
                        let start = *from + SimDuration::from_nanos(period.as_nanos() * index);
                        if start >= *until {
                            break;
                        }
                        if index.is_multiple_of(2) {
                            let end = (*until).min(start + *period);
                            options.link_faults.push(LinkFault::GroupPartition {
                                members: *members,
                                start: at(start),
                                end: at(end),
                            });
                        }
                        index += 1;
                    }
                }
                FaultSpec::Fluctuation {
                    from,
                    until,
                    min_extra,
                    max_extra,
                } => {
                    options.fluctuations.push(FluctuationWindow {
                        start: at(*from),
                        end: at(*until),
                        min_extra: *min_extra,
                        max_extra: *max_extra,
                    });
                }
                FaultSpec::SlowNode {
                    node,
                    extra,
                    from,
                    until,
                } => {
                    options.link_faults.push(LinkFault::SlowNode {
                        node: *node,
                        extra: *extra,
                        start: at(*from),
                        end: at(*until),
                    });
                }
            }
        }
        // Metrics are recorded at the observer replica only; crashing it
        // would blind (or badly distort) every number the expectations are
        // evaluated against. Observe from the highest-id honest replica no
        // node fault ever touches; when the schedule covers everyone (e.g.
        // a long rolling-leader sweep), fall back to the default observer.
        options.observer = (0..config.nodes as u64).rev().map(NodeId).find(|id| {
            !config.is_byzantine(*id) && options.node_faults.iter().all(|f| f.node != *id)
        });

        (config, options)
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
        let mut failures = Vec::new();
        for run in &runs {
            let label = run.protocol.label();
            let report = &run.report;
            if report.safety_violations > 0 {
                failures.push(format!(
                    "{}/{label}: {} safety violation(s) — conflicting commits or forked ledgers",
                    self.name, report.safety_violations
                ));
            }
            if !run.deterministic {
                failures.push(format!(
                    "{}/{label}: replay mismatch — a second run of the same spec diverged \
                     (ledger fingerprint, engine counters or recovery report)",
                    self.name
                ));
            }
            if let Some(min) = self.expect.min_throughput_tx_per_sec {
                if report.throughput_tx_per_sec < min {
                    failures.push(format!(
                        "{}/{label}: throughput {:.1} tx/s below expected minimum {min:.1}",
                        self.name, report.throughput_tx_per_sec
                    ));
                }
            }
            if let Some(max) = self.expect.max_p99_latency_ms {
                if report.latency.p99_ms > max {
                    failures.push(format!(
                        "{}/{label}: p99 latency {:.1} ms above expected maximum {max:.1}",
                        self.name, report.latency.p99_ms
                    ));
                }
            }
            if let Some(min) = self.expect.min_chain_growth_rate {
                if report.chain_growth_rate < min {
                    failures.push(format!(
                        "{}/{label}: chain growth {:.2} below expected minimum {min:.2}",
                        self.name, report.chain_growth_rate
                    ));
                }
            }
            if let Some(min) = self.expect.min_auth_rejections {
                if report.rejected_messages < min {
                    failures.push(format!(
                        "{}/{label}: {} auth rejections, expected at least {min}",
                        self.name, report.rejected_messages
                    ));
                }
            }
            if let Some(min) = self.expect.min_admission_rejections {
                if report.mempool.rejected < min {
                    failures.push(format!(
                        "{}/{label}: {} admission rejections, expected at least {min}",
                        self.name, report.mempool.rejected
                    ));
                }
            }
            // Recovery audit: every amnesia-recovered replica must end the
            // run back on the honest chain (vacuously true when the scenario
            // schedules no amnesia recoveries).
            if !report.recovery.recovered_caught_up {
                failures.push(format!(
                    "{}/{label}: {} amnesia recovery(ies) but a recovered replica never \
                     caught up to the honest chain",
                    self.name, report.recovery.amnesia_recoveries
                ));
            }
        }
        for &(faster, slower) in &self.expect.commit_latency_ordering {
            let find = |kind: ProtocolKind| runs.iter().find(|r| r.protocol == kind);
            match (find(faster), find(slower)) {
                (Some(a), Some(b)) => {
                    if a.report.latency.mean_ms >= b.report.latency.mean_ms {
                        failures.push(format!(
                            "{}: expected {} mean latency ({:.2} ms) below {} ({:.2} ms)",
                            self.name,
                            faster.label(),
                            a.report.latency.mean_ms,
                            slower.label(),
                            b.report.latency.mean_ms
                        ));
                    }
                }
                _ => failures.push(format!(
                    "{}: latency ordering references protocols the scenario does not run",
                    self.name
                )),
            }
        }
        ScenarioReport {
            name: self.name.clone(),
            description: self.description.clone(),
            quick,
            runs,
            failures,
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
        assert_eq!(scenario.runtime(false), SimDuration::from_millis(400));
        assert_eq!(scenario.runtime(true), SimDuration::from_millis(200));
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
                       "mempool_shards": 8,
                       "client_population": 1000000,
                       "signed_requests": true,
                       "workload":{"open_loop_tx_per_sec":1}}"#;
        let scenario = Scenario::parse(spec).unwrap();
        assert_eq!(scenario.base.mempool_shards, 8);
        assert_eq!(scenario.base.client_population, Some(1_000_000));
        assert!(scenario.base.signed_requests);

        // Defaults stay on the legacy path so existing specs keep their
        // recorded fingerprints.
        let plain = Scenario::parse(&minimal_spec()).unwrap();
        assert_eq!(plain.base.mempool_shards, 1);
        assert_eq!(plain.base.client_population, None);
        assert!(!plain.base.signed_requests);

        let zero_shards = r#"{"name":"x","protocols":["HS"],"nodes":4,"runtime_ms":100,
                              "mempool_shards": 0,
                              "workload":{"open_loop_tx_per_sec":1}}"#;
        assert!(Scenario::parse(zero_shards).is_err(), "validate() gates");
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

    /// The benchmark's frozen workload files still carry the key of the
    /// removed sharded engine; it must stay an ignored unknown key.
    #[test]
    fn a_leftover_threads_key_is_ignored() {
        let plain = Scenario::parse(&minimal_spec()).unwrap();
        let keyed = minimal_spec().replacen('{', r#"{"threads": 4,"#, 1);
        assert!(keyed.contains(r#""threads": 4"#));
        let keyed = Scenario::parse(&keyed).unwrap();
        for quick in [false, true] {
            assert_eq!(
                format!("{:?}", keyed.build(quick)),
                format!("{:?}", plain.build(quick))
            );
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
