//! The spec: a JSON document read into a [`Scenario`], every field checked
//! where it enters — a number outside its range, a node outside the cluster
//! or an unknown label is an error naming the field, never a default.

use bamboo_sim::{DelayDist, LinkFault, Topology};
use bamboo_types::{
    ByzantineStrategy, Config, Json, LeaderPolicy, NodeId, ProtocolKind, SeatAttack, SimDuration,
    SimTime, View,
};

use super::expect::{Expectations, Side};
use super::grid::metric;
use super::Scenario;
use crate::runner::{FaultTrigger, NodeFault, RunOptions};
use crate::runtime::RecoverMode;
use crate::storage::StorageFault;

const MS: f64 = 1_000_000.0;
const US: f64 = 1_000.0;

fn missing<T>(value: Option<T>, key: &str, context: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("{context}: missing field {key:?}"))
}

/// Reads a duration or a rate: a finite number, not negative and — where
/// `positive` — not zero either. (A saturating cast used to read `-100` as a
/// zero timeout and `1e300` as the end of time.)
fn amount(obj: &Json, key: &str, context: &str, positive: bool) -> Result<Option<f64>, String> {
    match obj.get(key).map(Json::as_f64) {
        None => Ok(None),
        Some(Some(v)) if v.is_finite() && v >= 0.0 && !(positive && v == 0.0) => Ok(Some(v)),
        Some(_) => Err(format!(
            "{context}: {key:?} must be a finite number, {}",
            if positive {
                "above zero"
            } else {
                "zero or more"
            }
        )),
    }
}

/// Reads the duration `key`, given in units of `unit` nanoseconds ([`MS`],
/// [`US`]) and rounded to one: at most 2^53 ns, where `f64` stops being
/// exact, and still above zero after rounding where `positive`.
fn opt_duration(
    obj: &Json,
    key: &str,
    context: &str,
    unit: f64,
    positive: bool,
) -> Result<Option<SimDuration>, String> {
    let Some(value) = amount(obj, key, context, positive)? else {
        return Ok(None);
    };
    let nanos = (value * unit).round();
    if nanos > (1u64 << 53) as f64 || (positive && nanos == 0.0) {
        return Err(format!("{context}: {key:?} is out of range"));
    }
    Ok(Some(SimDuration::from_nanos(nanos as u64)))
}

/// A required duration in milliseconds that may be zero.
fn field_ms(obj: &Json, key: &str, context: &str) -> Result<SimDuration, String> {
    missing(opt_duration(obj, key, context, MS, false)?, key, context)
}

/// A required duration in milliseconds that must not be zero.
fn positive_ms(obj: &Json, key: &str, context: &str) -> Result<SimDuration, String> {
    missing(opt_duration(obj, key, context, MS, true)?, key, context)
}

/// An opt-in switch: off when absent; anything but `true` or `false` is an
/// error (`"true"` or `1` used to read as off).
fn flag(obj: &Json, key: &str, context: &str) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(false),
        Some(Json::Bool(on)) => Ok(*on),
        Some(_) => Err(format!("{context}: {key:?} must be true or false")),
    }
}

/// An optional object: anything but an object is an error (an array in its
/// place used to read as an object with no keys).
fn section<'j>(obj: &'j Json, key: &str, context: &str) -> Result<Option<&'j Json>, String> {
    match obj.get(key) {
        Some(value) if !matches!(value, Json::Obj(_)) => {
            Err(format!("{context}: {key:?} must be an object"))
        }
        value => Ok(value),
    }
}

/// An optional list: empty when absent; anything but an array is an error
/// (an object in its place used to read as no entries).
fn list<'j>(obj: &'j Json, key: &str, context: &str) -> Result<&'j [Json], String> {
    match obj.get(key) {
        None => Ok(&[]),
        Some(value) => value
            .as_array()
            .ok_or_else(|| format!("{context}: {key:?} must be an array")),
    }
}

/// Overwrites a default only where the spec names a value.
fn set<T>(slot: &mut T, value: Option<T>) {
    if let Some(value) = value {
        *slot = value;
    }
}

fn field_str<'j>(obj: &'j Json, key: &str, context: &str) -> Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{context}: missing or non-string field {key:?}"))
}

/// Reads an unsigned integer — a node id, count, view, index or size — with
/// [`Json::as_uint`]'s rule: nothing negative, fractional or above 2^53.
fn uint(value: &Json, what: &str, context: &str) -> Result<u64, String> {
    value
        .as_uint()
        .ok_or_else(|| format!("{context}: {what} must be a non-negative integer"))
}

fn opt_uint(obj: &Json, key: &str, context: &str) -> Result<Option<u64>, String> {
    obj.get(key).map(|v| uint(v, key, context)).transpose()
}

fn field_uint(obj: &Json, key: &str, context: &str) -> Result<u64, String> {
    missing(opt_uint(obj, key, context)?, key, context)
}

/// Reads a node id and checks it against the `cluster` size: a typo'd id must
/// fail parsing, not panic the runner (crash faults index per-node state) or
/// silently weaken the configured fault.
fn field_node(obj: &Json, key: &str, context: &str, cluster: u64) -> Result<NodeId, String> {
    let node = field_uint(obj, key, context)?;
    if node >= cluster {
        return Err(format!(
            "{context}: {key:?} references node {node} but the cluster has {cluster} nodes"
        ));
    }
    Ok(NodeId(node))
}

/// `[from_ms, until_ms)` window shared by several fault kinds.
fn window(obj: &Json, context: &str) -> Result<(SimTime, SimTime), String> {
    let from = field_ms(obj, "from_ms", context)?;
    let until = field_ms(obj, "until_ms", context)?;
    if until <= from {
        return Err(format!("{context}: until_ms must exceed from_ms"));
    }
    Ok((SimTime::ZERO + from, SimTime::ZERO + until))
}

/// The `period`-wide windows that tile `[from, until)`, in order; the last
/// one is clipped at `until`.
fn windows(
    from: SimTime,
    until: SimTime,
    period: SimDuration,
) -> impl Iterator<Item = (SimTime, SimTime)> {
    (0u64..)
        .map(move |index| from + SimDuration::from_nanos(period.as_nanos() * index))
        .take_while(move |start| *start < until)
        .map(move |start| (start, until.min(start + period)))
}

fn group_mask(obj: &Json, context: &str, cluster: u64) -> Result<u64, String> {
    let nodes = obj
        .get("group")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{context}: missing \"group\" array"))?;
    let mut ids = Vec::with_capacity(nodes.len());
    for node in nodes {
        let id = uint(node, "a group member", context)?;
        if id >= 64.min(cluster) {
            return Err(format!(
                "{context}: group members must have id < 64 and lie inside the \
                 {cluster}-node cluster"
            ));
        }
        ids.push(id);
    }
    Ok(LinkFault::group_mask(ids))
}

fn parse_dist(obj: &Json, context: &str) -> Result<DelayDist, String> {
    let mean = field_ms(obj, "mean_ms", context)?;
    let std = opt_duration(obj, "std_ms", context, MS, false)?;
    Ok(DelayDist::new(mean, std.unwrap_or(SimDuration::ZERO)))
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
    for region in list(spec, "regions", &context)? {
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
    for inter in list(spec, "inter", &context)? {
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
    // Symmetric by default: one "inter" entry describes both directions
    // unless the reverse direction appears explicitly.
    topology.symmetrize();
    for link in list(spec, "links", &context)? {
        let from = field_node(link, "from", &context, cluster)?;
        let to = field_node(link, "to", &context, cluster)?;
        let dist = parse_dist(link, &context)?;
        topology.override_link(from, to, dist);
        // Per-link overrides follow the same symmetric-by-default rule;
        // `"asymmetric": true` keeps the override one-directional.
        if !flag(link, "asymmetric", &context)? {
            topology.override_link(to, from, dist);
        }
    }
    Ok(topology)
}

fn parse_trigger(
    obj: &Json,
    at_key: &str,
    view_key: &str,
    context: &str,
) -> Result<Option<FaultTrigger>, String> {
    let at = opt_duration(obj, at_key, context, MS, false)?;
    match (at, opt_uint(obj, view_key, context)?) {
        (Some(_), Some(_)) => Err(format!(
            "{context}: {at_key:?} and {view_key:?} are mutually exclusive"
        )),
        (Some(offset), None) => Ok(Some(FaultTrigger::At(SimTime::ZERO + offset))),
        (None, Some(view)) => Ok(Some(FaultTrigger::AtView(View(view)))),
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
    cluster: u64,
) -> Result<(NodeId, FaultTrigger, Option<FaultTrigger>), String> {
    let node = field_node(obj, "node", context, cluster)?;
    let at = parse_trigger(obj, "at_ms", "at_view", context)?
        .ok_or_else(|| format!("{context}: crash needs at_ms or at_view"))?;
    let recover = parse_trigger(obj, "recover_at_ms", "recover_at_view", context)?;
    match (at, recover) {
        (FaultTrigger::At(crash), Some(FaultTrigger::At(rec))) if rec <= crash => {
            return Err(format!("{context}: recover_at_ms must exceed at_ms"));
        }
        (FaultTrigger::AtView(crash), Some(FaultTrigger::AtView(rec))) if rec <= crash => {
            return Err(format!("{context}: recover_at_view must exceed at_view"));
        }
        (FaultTrigger::At(_), Some(FaultTrigger::AtView(_)))
        | (FaultTrigger::AtView(_), Some(FaultTrigger::At(_))) => {
            return Err(format!(
                "{context}: crash and recovery must use one trigger axis (_ms or _view) for both"
            ));
        }
        _ => {}
    }
    Ok((node, at, recover))
}

/// Parses the `"fault"` label of a durable-restart entry into the crash-point
/// [`StorageFault`] to arm. `"torn_log"` entries default to a torn tail;
/// `"durable_restart"` entries default to a clean shutdown (no fault), and a
/// plain `"crash"` has no log to maul.
fn parse_storage_fault(
    obj: &Json,
    kind: &str,
    context: &str,
) -> Result<Option<StorageFault>, String> {
    if kind == "crash" {
        return Ok(None);
    }
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

/// Parses one entry of the `"faults"` array into the run's own fault values,
/// at the full tier ([`super::Scenario::build`] scales them for the quick
/// one). The two schedules a spec names by their shape are expanded here:
/// `rolling_leader` into crashes, `oscillating_partition` into cuts.
fn parse_fault(
    obj: &Json,
    name: &str,
    durable_log: bool,
    cluster: u64,
    options: &mut RunOptions,
) -> Result<(), String> {
    let context = format!("{name}/faults");
    let kind = field_str(obj, "kind", &context)?;
    match kind {
        "crash" | "durable_restart" | "torn_log" => {
            let (node, crash, recover) = parse_crash_core(obj, &context, cluster)?;
            // `"amnesia": true` on a crash and the two durable kinds all
            // restart the node from what its disk kept.
            let what = if kind == "crash" { "amnesia" } else { kind };
            let restart = kind != "crash" || flag(obj, "amnesia", &context)?;
            if restart && recover.is_none() {
                return Err(format!(
                    "{context}: {what} without a recovery trigger never restarts the node"
                ));
            }
            // Without the log there is nothing to replay and nothing for a
            // storage fault to maul; make the spec say what it means.
            if kind != "crash" && !durable_log {
                return Err(format!("{context}: {kind} requires \"durable_log\": true"));
            }
            let mode = match restart {
                true => RecoverMode::Restart(parse_storage_fault(obj, kind, &context)?),
                false => RecoverMode::Resume,
            };
            options.node_faults.push(NodeFault {
                node,
                crash,
                recover,
                mode,
            });
        }
        "rolling_leader" => {
            // Crash replica `i mod nodes` during the `i`-th window: under
            // round-robin election this tracks the leader rotation, so some
            // window always hits a (past or incoming) leader.
            let (from, until) = window(obj, &context)?;
            let period = positive_ms(obj, "period_ms", &context)?;
            for (index, (start, end)) in windows(from, until, period).enumerate() {
                options.node_faults.push(NodeFault {
                    node: NodeId(index as u64 % cluster),
                    crash: FaultTrigger::At(start),
                    recover: Some(FaultTrigger::At(end)),
                    mode: RecoverMode::Resume,
                });
            }
        }
        "partition" => {
            let (start, end) = window(obj, &context)?;
            let members = group_mask(obj, &context, cluster)?;
            options.link_faults.push(LinkFault::GroupPartition {
                members,
                start,
                end,
            });
        }
        "oscillating_partition" => {
            let (from, until) = window(obj, &context)?;
            let members = group_mask(obj, &context, cluster)?;
            let period = positive_ms(obj, "period_ms", &context)?;
            // The cut is active during every other window, starting active.
            for (start, end) in windows(from, until, period).step_by(2) {
                options.link_faults.push(LinkFault::GroupPartition {
                    members,
                    start,
                    end,
                });
            }
        }
        "fluctuation" => {
            let (start, end) = window(obj, &context)?;
            options.link_faults.push(LinkFault::Fluctuation {
                min_extra: field_ms(obj, "min_extra_ms", &context)?,
                max_extra: field_ms(obj, "max_extra_ms", &context)?,
                start,
                end,
            });
        }
        "slow_node" => {
            let (start, end) = window(obj, &context)?;
            options.link_faults.push(LinkFault::SlowNode {
                node: field_node(obj, "node", &context, cluster)?,
                extra: field_ms(obj, "extra_ms", &context)?,
                start,
                end,
            });
        }
        other => return Err(format!("{context}: unknown fault kind {other:?}")),
    }
    Ok(())
}

fn protocol(label: &Json, context: &str) -> Result<ProtocolKind, String> {
    let label = label
        .as_str()
        .ok_or_else(|| format!("{context}: non-string protocol label"))?;
    ProtocolKind::from_label(label).ok_or_else(|| format!("{context}: unknown protocol {label:?}"))
}

/// Reads `commit_latency_ordering` and `min_<metric>`/`max_<metric>` bounds;
/// any other key is an error, since a misspelt bound would gate nothing.
fn parse_expectations(spec: &Json, name: &str) -> Result<Expectations, String> {
    let context = format!("{name}/expect");
    let mut expect = Expectations::default();
    let Some(obj @ Json::Obj(fields)) = section(spec, "expect", name)? else {
        return Ok(expect);
    };
    for (key, _) in fields {
        let named = match key.split_once('_') {
            _ if key == "commit_latency_ordering" => continue,
            Some(("min", reading)) => metric(reading).zip(Some(Side::Min)),
            Some(("max", reading)) => metric(reading).zip(Some(Side::Max)),
            _ => None,
        };
        let (metric, side) = named.ok_or_else(|| format!("{context}: unknown key {key:?}"))?;
        let bound = amount(obj, key, &context, false)?.unwrap_or_default();
        expect.bounds.push((metric, bound, side));
    }
    for pair in list(obj, "commit_latency_ordering", &context)? {
        let items = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{context}: ordering entries are [faster, slower]"))?;
        let pair = (
            protocol(&items[0], &context)?,
            protocol(&items[1], &context)?,
        );
        expect.commit_latency_ordering.push(pair);
    }
    Ok(expect)
}

/// Builds a scenario from a parsed JSON document, or describes the first
/// schema violation: a missing field, an unknown label, a number outside its
/// range, an invalid window, an inconsistent configuration.
pub(super) fn scenario(doc: &Json) -> Result<Scenario, String> {
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
    let protocols = (protocol_labels.iter())
        .map(|label| protocol(label, &name))
        .collect::<Result<Vec<_>, _>>()?;
    if protocols.is_empty() {
        return Err(format!("{name}: at least one protocol required"));
    }

    let mut base = Config {
        nodes: field_uint(doc, "nodes", &name)? as usize,
        runtime: positive_ms(doc, "runtime_ms", &name)?,
        ..Config::default()
    };
    let count = |key: &str| opt_uint(doc, key, &name);
    let size = |key: &str| Ok::<_, String>(count(key)?.map(|v| v as usize));
    set(&mut base.block_size, size("block_size")?);
    set(&mut base.payload_size, size("payload_size")?);
    set(&mut base.mempool_size, size("mempool_size")?);
    set(&mut base.fsync_interval, size("fsync_interval")?);
    set(&mut base.segment_bytes, size("segment_bytes")?);
    set(&mut base.seed, count("seed")?);
    set(
        &mut base.bandwidth_bytes_per_sec,
        count("bandwidth_bytes_per_sec")?,
    );
    set(
        &mut base.timeout,
        opt_duration(doc, "timeout_ms", &name, MS, true)?,
    );
    set(
        &mut base.cpu_delay,
        opt_duration(doc, "cpu_us", &name, US, false)?,
    );
    let delay = |key: &str| opt_duration(doc, key, &name, MS, false);
    set(&mut base.extra_delay, delay("extra_delay_ms")?);
    set(
        &mut base.extra_delay_jitter,
        delay("extra_delay_jitter_ms")?,
    );
    base.client_population = count("client_population")?;
    base.checkpoint_interval = count("checkpoint_interval_blocks")?;
    base.signed_requests = flag(doc, "signed_requests", &name)?;
    base.durable_log = flag(doc, "durable_log", &name)?;
    match doc.get("leader") {
        None => {}
        Some(Json::Str(policy)) if policy == "round_robin" => {
            base.leader_policy = LeaderPolicy::RoundRobin;
        }
        Some(Json::Str(policy)) if policy == "hashed" => {
            base.leader_policy = LeaderPolicy::Hashed;
        }
        Some(obj) if obj.get("static").is_some() => {
            let leader = field_node(obj, "static", &name, base.nodes as u64)?;
            base.leader_policy = LeaderPolicy::Static(leader);
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
    if let Some(rate) = amount(workload, "open_loop_tx_per_sec", &name, true)? {
        base.arrival_rate = Some(rate);
    } else if let Some(clients) = opt_uint(workload, "closed_loop_clients", &name)? {
        base.arrival_rate = None;
        base.concurrency = clients as usize;
    } else {
        return Err(format!(
            "{name}: workload needs open_loop_tx_per_sec or closed_loop_clients"
        ));
    }

    let cluster = base.nodes as u64;
    // Table I's `byzNo`/`strategy`: seats `0..count` attack from time zero.
    if let Some(byz) = doc.get("byzantine") {
        let strategy = field_str(byz, "strategy", &name)?;
        let strategy = ByzantineStrategy::from_label(strategy)
            .ok_or_else(|| format!("{name}: unknown byzantine strategy {strategy:?}"))?;
        let count = field_uint(byz, "count", &name)?;
        if count > cluster {
            return Err(format!("{name}: {count} byzantine seats among {cluster}"));
        }
        base.attacks = SeatAttack::first_seats(count as usize, strategy);
    }

    let topology = match section(doc, "topology", &name)? {
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

    // Checked before the faults are read: a rolling leader takes its node
    // modulo the cluster size.
    base.validate().map_err(|e| format!("{name}: {e}"))?;

    let mut options = RunOptions {
        topology,
        ..RunOptions::default()
    };
    for entry in list(doc, "faults", &name)? {
        parse_fault(entry, &name, base.durable_log, cluster, &mut options)?;
    }
    for entry in list(doc, "cpu_overrides", &name)? {
        let node = field_node(entry, "node", &name, cluster)?;
        let cpu = opt_duration(entry, "cpu_us", &name, US, false)?;
        options
            .cpu_overrides
            .push((node, missing(cpu, "cpu_us", &name)?));
    }

    let quick_runtime = opt_duration(doc, "quick_runtime_ms", &name, MS, true)?
        .unwrap_or_else(|| base.runtime.min(SimDuration::from_millis(500)));

    options.replica.wait_for_timeout_on_view_change =
        flag(doc, "wait_for_timeout_on_view_change", &name)?;
    options.replica.synchronous_epochs = flag(doc, "synchronous_epochs", &name)?;
    // Metrics are recorded at the observer replica only; crashing it would
    // blind (or badly distort) every number the expectations are evaluated
    // against. Observe from the highest-id honest replica no node fault ever
    // touches; when the schedule covers everyone (e.g. a long rolling-leader
    // sweep), fall back to the default observer. Both tiers share the choice:
    // scaling moves a fault in time, never to another node.
    options.observer = (0..cluster).rev().map(NodeId).find(|&id| {
        base.attacks.iter().all(|attack| attack.node != id)
            && options.node_faults.iter().all(|f| f.node != id)
    });
    Ok(Scenario {
        expect: parse_expectations(doc, &name)?,
        name,
        description,
        protocols,
        base,
        quick_runtime,
        options,
    })
}
