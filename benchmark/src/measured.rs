//! The measured run of each workload: end-to-end metrics plus the counters
//! the run itself yields (class R in the README's per-layer table).
//!
//! Every backend is driven through its public API only. Set-up is repeated
//! (`setups` times, all but the last torn down again) and reported as the
//! median, as the benchmark contract asks of `setup_s`.

use std::path::Path;
use std::time::{Duration, Instant};

use bamboo_core::{ClusterReport, NodeHost, RunOptions, SimRunner, ThreadedCluster};
use bamboo_model::{ModelParams, PerfModel};
use bamboo_net::TcpCluster;
use bamboo_types::{Block, Config, Json, NodeId, SimDuration, Transaction};

use crate::driver::{into_ticks, request_stream, CommitTracker, Pacer};
use crate::procfs;
use crate::report::Outcome;
use crate::spec::{Backend, Spec};
use crate::stats;

/// How often the load generator reads the commit counter. Bounds the
/// resolution of every wall-clock latency sample.
const POLL: Duration = Duration::from_micros(500);
/// How long a live run waits, after it stops offering, for the offered
/// transactions to commit before counting the remainder as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Deadline for the first commit of a freshly booted live cluster.
const BOOT_DEADLINE: Duration = Duration::from_secs(10);
/// A load generator that ran later than this did not offer the open loop it
/// claims to have offered: the run is flagged.
const MAX_GEN_LATE_MS: f64 = 50.0;
/// Times a measured run performs (and times) its set-up.
pub const SETUPS: usize = 5;

/// Parameters of one measured run.
pub struct RunArgs {
    pub seed: u64,
    /// Requested measurement length in seconds (already scaled).
    pub seconds: f64,
    /// The `--scale` factor: shrinks the warm-up, the lockstep replay and
    /// the sample-count floor the way it shrank `seconds`.
    pub scale: f64,
    /// How many times set-up is performed and timed.
    pub setups: usize,
    /// Process start, so the first set-up sample includes start-up.
    pub started: Instant,
}

impl RunArgs {
    /// The workload's discarded warm-up at this run's scale.
    pub fn warmup(&self, spec: &Spec) -> SimDuration {
        SimDuration::from_nanos((spec.warmup.as_nanos() as f64 * self.scale) as u64)
    }

    /// Every full-size run must yield 1 000 latency samples, so that its
    /// p99 has ten samples beyond it.
    fn min_latency_samples(&self) -> u64 {
        (1000.0 * self.scale.min(1.0)).ceil() as u64
    }
}

/// Runs the workload's measured run.
pub fn run(spec: &Spec, args: &RunArgs, durable_dir: &Path) -> Outcome {
    match spec.backend {
        Backend::Sim => run_sim(spec, args),
        Backend::Threaded => run_threaded(spec, args, durable_dir),
        Backend::Tcp => run_tcp(spec, args),
    }
}

/// What [`timed_setups`] hands back.
struct SetUp<T> {
    /// What the last set-up built: the one the run uses.
    product: T,
    /// Median set-up time, with every sample beside it for the report file.
    median_s: f64,
    samples_s: Vec<f64>,
    /// When the last set-up began, i.e. since when `product` has existed.
    began: Instant,
}

/// Times `setups` set-ups — the first from process start — tearing all but
/// the last down again.
fn timed_setups<T>(
    args: &RunArgs,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> SetUp<T> {
    let mut began = args.started;
    let mut product = setup();
    let mut samples_s = vec![began.elapsed().as_secs_f64()];
    for _ in 1..args.setups {
        teardown(product);
        began = Instant::now();
        product = setup();
        samples_s.push(began.elapsed().as_secs_f64());
    }
    SetUp {
        product,
        median_s: stats::median(&samples_s).expect("at least one set-up"),
        samples_s,
        began,
    }
}

impl<T> SetUp<T> {
    /// Records `setup_s` and its samples; returns the product and the
    /// instant it came into being.
    fn record(self, outcome: &mut Outcome) -> (T, Instant) {
        outcome.set("setup_s", self.median_s);
        outcome.note(
            "setup_samples_s",
            Json::arr(self.samples_s.iter().map(|&s| Json::from(s))),
        );
        (self.product, self.began)
    }
}

/// Records the run's host costs. Peak RSS is an end-to-end metric; wall and
/// CPU time are per-layer (`driver.*`), because on the shared target host a
/// single-threaded run's speed follows the neighbours' memory traffic (one
/// deterministic simulation: 7 to 16 s) and no bound the contract allows
/// holds on them. `first_offer` is read last, so the wall time covers drain,
/// shutdown and report building.
fn set_host_costs(outcome: &mut Outcome, cpu_s: Option<f64>, txs: u64, first_offer: Instant) {
    match cpu_s {
        Some(cpu_s) => outcome.set(
            "driver.cpu_ms_per_ktx",
            cpu_s * 1e3 / (txs.max(1) as f64 / 1e3),
        ),
        None => outcome.violate("/proc/self/stat unreadable: no CPU time"),
    }
    match procfs::peak_rss_mib() {
        Some(value) => {
            outcome.set("peak_rss_mb", value);
            outcome.require(value < 1024.0, format!("peak RSS {value:.0} MiB >= 1 GiB"));
        }
        None => outcome.violate("/proc/self/status unreadable: no VmHWM"),
    }
    outcome.set("driver.run_wall_s", first_offer.elapsed().as_secs_f64());
}

/// CPU seconds between two readings of `/proc/self/stat`.
fn cpu_between(before: Option<f64>, after: Option<f64>) -> Option<f64> {
    Some(after? - before?)
}

// ---- simulator ---------------------------------------------------------------

/// Bucket width of the simulator's committed-throughput series; sets the
/// resolution of the window's commit count and of the commit-gap counter.
const SERIES_BUCKET: SimDuration = SimDuration(100_000_000);

fn sim_inputs(spec: &Spec, seed: u64, runtime: SimDuration) -> (Config, RunOptions) {
    let (config, mut options) = spec.sim_run(seed, runtime);
    options.series_bucket = SERIES_BUCKET;
    (config, options)
}

fn run_sim(spec: &Spec, args: &RunArgs) -> Outcome {
    let runtime = SimDuration::from_secs_f64(args.seconds * spec.sim_seconds_per_second);
    // Whole series buckets, so the window's edges fall on bucket edges.
    let bucket_ns = SERIES_BUCKET.as_nanos();
    let warmup = SimDuration::from_nanos(
        args.warmup(spec).as_nanos().div_ceil(bucket_ns).max(1) * bucket_ns,
    );
    // Set-up: parse the spec, build the runner, and run the discarded
    // warm-up (a throw-away simulation of `warmup` simulated time). Parsing
    // and building alone take 1-2 ms, which on the SMT-shared target host
    // comes out bimodal (x1.8) from one process to the next; the warm-up
    // simulation is long enough to average that out.
    let set_up = timed_setups(
        args,
        || {
            let spec = Spec::load(&spec.name).expect("spec parsed once already");
            let (warm_config, warm_options) = sim_inputs(&spec, args.seed, warmup);
            std::hint::black_box(SimRunner::new(warm_config, spec.protocol, warm_options).run());
            sim_inputs(&spec, args.seed, runtime)
        },
        drop,
    );

    let mut outcome = Outcome::default();
    let ((config, options), _) = set_up.record(&mut outcome);
    let first_offer = Instant::now();
    let cpu_before = procfs::cpu_seconds();
    let (event_cap, uniform_links) = (options.max_events, options.topology.is_none());
    let report = SimRunner::new(config.clone(), spec.protocol, options).run();
    let engine_wall = first_offer.elapsed().as_secs_f64();
    let cpu_s = cpu_between(cpu_before, procfs::cpu_seconds());

    // The window is the run minus its first `warmup` of simulated time;
    // commits are bucketed by confirmation instant.
    let (from, to) = (warmup.as_nanos(), runtime.as_nanos());
    let bucket_secs = SERIES_BUCKET.as_secs_f64();
    let in_window = |at: u64| from <= at && at < to;
    let window_txs: f64 = report
        .throughput_series
        .iter()
        .filter(|s| in_window(s.at.as_nanos()))
        .map(|s| s.tx_per_sec * bucket_secs)
        .sum();
    outcome.set("commit_tput_tx_s", window_txs / ((to - from) as f64 / 1e9));
    // `RunReport` exposes whole-run percentiles only, so these include the
    // warm-up.
    outcome.set("commit_lat_p50_ms", report.client_latency.p50_ms);
    outcome.set("commit_lat_p99_ms", report.client_latency.p99_ms);
    outcome.note("latency_samples", report.client_latency.count);
    outcome.require(
        report.client_latency.count >= args.min_latency_samples(),
        format!("only {} latency samples", report.client_latency.count),
    );

    let offered = report.committed_txs + report.pending_txs;
    let rejected = report.mempool.rejected + report.client_auth_rejections;
    outcome.attempted = offered;
    // A simulated run cannot drain past its end: the in-flight remainder is
    // `sim.pending_tx_at_end`, not a failure.
    outcome.failed = rejected;
    outcome.require(report.safety_violations == 0, "safety violations");
    outcome.require(
        report.recovery.recovered_caught_up,
        "restarted replica did not catch up",
    );
    outcome.require(
        report.events_processed < event_cap,
        "run truncated by the event cap",
    );

    // Counters of the measured run.
    let committed = report.committed_txs.max(1) as f64;
    outcome.set("driver.offered_tx", offered as f64);
    outcome.set("driver.gen_late_ms_max", 0.0);
    let longest_gap = report
        .throughput_series
        .iter()
        .filter(|s| in_window(s.at.as_nanos()))
        .fold((0u64, 0u64), |(longest, current), s| {
            let current = if s.tx_per_sec == 0.0 { current + 1 } else { 0 };
            (longest.max(current), current)
        })
        .0;
    outcome.set(
        "driver.max_commit_gap_ms",
        (longest_gap + 1) as f64 * bucket_secs * 1e3,
    );
    outcome.set(
        "replica.views_per_s",
        report.views_advanced as f64 / report.duration_secs,
    );
    outcome.set(
        "replica.txs_per_block",
        committed / report.committed_blocks.max(1) as f64,
    );
    outcome.set(
        "replica.timeout_view_changes",
        report.timeout_view_changes as f64,
    );
    outcome.set("replica.chain_growth_rate", report.chain_growth_rate);
    outcome.set(
        "auth.rejections",
        (report.rejected_messages + report.client_auth_rejections) as f64,
    );
    outcome.set(
        "mempool.rejected_share",
        report.mempool.rejected as f64
            / (report.mempool.accepted + report.mempool.rejected).max(1) as f64,
    );
    outcome.set("net.bytes_per_tx", report.bytes_sent as f64 / committed);
    outcome.set("net.msgs_per_tx", report.messages_sent as f64 / committed);
    outcome.set(
        "sim.events_per_s",
        report.events_processed as f64 / engine_wall,
    );
    outcome.set(
        "sim.events_per_tx",
        report.events_processed as f64 / committed,
    );
    outcome.set("sim.queue_peak_len", report.queue_peak_len as f64);
    outcome.set("sim.pending_tx_at_end", report.pending_txs as f64);
    outcome.set("sim.ledger_fp32", fp32(&report.ledger_fingerprint) as f64);
    outcome.note("ledger_fingerprint", report.ledger_fingerprint.as_str());
    outcome.set(
        "recovery.records_replayed",
        report.recovery.records_replayed as f64,
    );
    outcome.set("recovery.log_replay_ms", report.recovery.log_replay_ms);
    outcome.set("recovery.catchup_ms", report.recovery.recovery_time_ms);
    if uniform_links {
        // The paper's model assumes one homogeneous link class.
        let model = PerfModel::new(spec.protocol, model_params(&config));
        let predicted_ms = model.latency(config.arrival_rate.unwrap_or(0.0)) * 1e3;
        let simulated_ms = report.latency.mean_ms;
        outcome.set(
            "model.latency_residual_pct",
            (predicted_ms - simulated_ms).abs() / simulated_ms * 100.0,
        );
        outcome.note("model_latency_ms", predicted_ms);
        outcome.note("simulated_mean_latency_ms", simulated_ms);
    }

    set_host_costs(&mut outcome, cpu_s, report.committed_txs, first_offer);
    outcome
}

/// The leading 32 bits of a hex fingerprint, as a number a metric can carry.
pub fn fp32(hex: &str) -> u32 {
    u32::from_str_radix(hex.get(..8).unwrap_or("0"), 16).unwrap_or(0)
}

/// The analytical model's parameters for a configuration (the mapping
/// `tests/model_vs_simulation.rs` uses).
fn model_params(config: &Config) -> ModelParams {
    ModelParams {
        nodes: config.nodes,
        block_size: config.block_size,
        tx_bytes: Transaction::HEADER_BYTES + config.payload_size,
        block_overhead_bytes: Block::HEADER_BYTES + 40 + 40 * config.quorum(),
        link_mean: config.link_latency_mean.as_secs_f64(),
        link_std: config.link_latency_std.as_secs_f64(),
        client_rtt: 2.0 * config.link_latency_mean.as_secs_f64(),
        t_cpu: config.cpu_delay.as_secs_f64(),
        bandwidth: config.bandwidth_bytes_per_sec as f64,
    }
}

// ---- live clusters -----------------------------------------------------------

/// What the load loop needs from a live cluster.
trait LiveCluster {
    fn committed(&self) -> u64;
}

impl LiveCluster for ThreadedCluster {
    fn committed(&self) -> u64 {
        self.committed_txs()
    }
}

impl LiveCluster for TcpCluster {
    fn committed(&self) -> u64 {
        self.committed_txs_floor()
    }
}

/// What the load loop measured.
struct Drive {
    tracker: CommitTracker,
    /// Commit counter and clock at the first observation inside the window
    /// and at the last one before offering stopped.
    window_commits: (u64, u64),
    window_ns: (u64, u64),
    /// CPU seconds the process consumed over the window.
    cpu_s: Option<f64>,
    gen_late_ns: u64,
    first_offer: Instant,
}

/// Drives `cluster` through warm-up, measurement window and drain. `offer`
/// is called once per loop turn with the clock and the latest commit count
/// and submits whatever its loop discipline says is due, recording it in the
/// tracker; it returns the instant it wants to be called again by (so an
/// open loop is woken for its next tick, not merely at the poll cadence).
/// `baseline` transactions (the boot probe) were committed before the load
/// started and are subtracted from every reading of the counter.
fn drive<C: LiveCluster>(
    cluster: &mut C,
    baseline: u64,
    warmup_ns: u64,
    window_ns: u64,
    max_committed: u64,
    mut offer: impl FnMut(&mut C, &mut CommitTracker, u64, u64) -> u64,
) -> Drive {
    let window = (warmup_ns, warmup_ns + window_ns);
    let mut tracker = CommitTracker::new(window);
    let first_offer = Instant::now();
    let now_ns = || first_offer.elapsed().as_nanos() as u64;
    let mut start: Option<(u64, u64, Option<f64>)> = None;
    let mut gen_late_ns = 0u64;
    let mut wake_at = 0u64;
    let committed_now = |cluster: &C| cluster.committed().saturating_sub(baseline);
    let (end_commits, end_ns) = loop {
        let now = now_ns();
        let committed = committed_now(cluster);
        tracker.observe(committed, now);
        if now >= window.0 && start.is_none() {
            start = Some((committed, now, procfs::cpu_seconds()));
        }
        if now >= window.1 || committed >= max_committed {
            break (committed, now);
        }
        // How far past its intended wake-up the generator ran.
        gen_late_ns = gen_late_ns.max(now.saturating_sub(wake_at));
        let next_offer = offer(cluster, &mut tracker, now, committed);
        wake_at = next_offer.min(now + POLL.as_nanos() as u64).min(window.1);
        std::thread::sleep(Duration::from_nanos(wake_at.saturating_sub(now_ns())));
    };
    let cpu_after = procfs::cpu_seconds();
    let (start_commits, start_ns, cpu_before) = start.unwrap_or((end_commits, end_ns, cpu_after));

    // Drain: nothing more is offered; wait (bounded) for the rest to commit.
    let drain_deadline = Instant::now() + DRAIN_GRACE;
    while committed_now(cluster) < tracker.offered() && Instant::now() < drain_deadline {
        tracker.observe(committed_now(cluster), now_ns());
        std::thread::sleep(POLL);
    }
    tracker.observe(committed_now(cluster), now_ns());
    Drive {
        tracker,
        window_commits: (start_commits, end_commits),
        window_ns: (start_ns, end_ns),
        cpu_s: cpu_between(cpu_before, cpu_after),
        gen_late_ns,
        first_offer,
    }
}

/// Transactions offered right after boot whose commit ends set-up: four
/// blocks per replica. Long enough that the 20 ms polling ticks inside the
/// backends (accept loop, idle wait) are a small share of a set-up; with one
/// block per replica a boot took 31 ms or 51 ms depending on which side of a
/// tick it fell.
fn boot_probe_txs(config: &Config) -> u64 {
    (4 * config.nodes * config.block_size) as u64
}

/// Waits (bounded) until a freshly booted cluster has committed the `probe`
/// transactions offered right after boot, so "set up" means "serving".
/// Returns whether it did.
fn wait_first_commit<C: LiveCluster>(cluster: &C, probe: u64) -> bool {
    let deadline = Instant::now() + BOOT_DEADLINE;
    while cluster.committed() < probe {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// Fills in the metrics every live run shares. `spawned` is when the
/// cluster the run used was spawned.
fn live_outcome(
    outcome: &mut Outcome,
    drive: &Drive,
    cluster: &ClusterReport,
    hosts: &[&NodeHost],
    args: &RunArgs,
    spawned: Instant,
    probe_txs: u64,
) {
    // Replicas live from spawn to shutdown: views are counted over that.
    let lifetime_s = spawned.elapsed().as_secs_f64();
    let window_s = (drive.window_ns.1 - drive.window_ns.0) as f64 / 1e9;
    let window_txs = drive.window_commits.1 - drive.window_commits.0;
    outcome.set("commit_tput_tx_s", window_txs as f64 / window_s);
    // Percentiles over every transaction offered in the window: a stall the
    // run caught is in its p99, whoever caused it.
    let mut samples = drive.tracker.samples_ms.clone();
    outcome.note("latency_samples", samples.len());
    outcome.require(
        samples.len() as u64 >= args.min_latency_samples(),
        format!("only {} latency samples", samples.len()),
    );
    match (
        stats::percentile(&mut samples, 0.50),
        stats::percentile(&mut samples, 0.99),
    ) {
        (Some(p50), Some(p99)) => {
            outcome.set("commit_lat_p50_ms", p50);
            outcome.set("commit_lat_p99_ms", p99);
        }
        _ => outcome.violate("no latency samples"),
    }

    let (mempool_accepted, mempool_rejected) = hosts
        .iter()
        .map(|h| h.replica().mempool_stats())
        .fold((0u64, 0u64), |(accepted, rejected), stats| {
            (accepted + stats.accepted, rejected + stats.rejected)
        });
    let tracker = &drive.tracker;
    outcome.attempted = tracker.offered_in_window;
    let uncommitted = tracker.offered_in_window - tracker.committed_of_window;
    outcome.failed = uncommitted.max(mempool_rejected + cluster.client_auth_rejections);
    outcome.require(cluster.safety_violations == 0, "safety violations");
    outcome.require(cluster.ledgers_consistent, "ledgers inconsistent");
    outcome.require(
        cluster.committed_txs <= tracker.offered() + probe_txs,
        "more transactions committed than offered",
    );

    let committed = cluster.committed_txs.max(1) as f64;
    let blocks = cluster
        .committed_blocks
        .first()
        .copied()
        .unwrap_or(0)
        .max(1) as f64;
    outcome.set("driver.offered_tx", tracker.offered() as f64);
    let gen_late_ms = drive.gen_late_ns as f64 / 1e6;
    outcome.set("driver.gen_late_ms_max", gen_late_ms);
    outcome.require(
        gen_late_ms < MAX_GEN_LATE_MS,
        format!("load generator ran {gen_late_ms:.1} ms late (limit {MAX_GEN_LATE_MS} ms)"),
    );
    outcome.set(
        "driver.max_commit_gap_ms",
        tracker.max_commit_gap_ns as f64 / 1e6,
    );
    outcome.set("replica.views_per_s", cluster.max_view as f64 / lifetime_s);
    outcome.set("replica.txs_per_block", committed / blocks);
    outcome.set(
        "replica.timeout_view_changes",
        cluster.timeout_view_changes as f64,
    );
    outcome.set(
        "replica.chain_growth_rate",
        blocks / cluster.max_view.max(1) as f64,
    );
    outcome.set(
        "auth.rejections",
        (cluster.auth_rejections + cluster.client_auth_rejections) as f64,
    );
    outcome.set(
        "mempool.rejected_share",
        mempool_rejected as f64 / (mempool_accepted + mempool_rejected).max(1) as f64,
    );
    set_host_costs(outcome, drive.cpu_s, window_txs, drive.first_offer);
}

fn run_threaded(spec: &Spec, args: &RunArgs, durable_dir: &Path) -> Outcome {
    // The cluster puts its segment files under the temp dir; keep them
    // inside the benchmark's own directory, on a recorded filesystem.
    std::fs::create_dir_all(durable_dir).expect("create durable-log scratch directory");
    std::env::set_var("TMPDIR", durable_dir);

    let config = spec.config_for(args.seed);
    let warmup_ns = args.warmup(spec).as_nanos();
    let window_ns = (args.seconds * 1e9) as u64;
    let tick_ns = spec.tick.as_nanos();
    let mut booted = true;
    let probe_txs = boot_probe_txs(&config);
    // Set-up: generate and sign the whole request stream, group it into
    // pacing ticks, boot the cluster and see it commit the boot probe.
    let set_up = timed_setups(
        args,
        || {
            let stream = request_stream(&config, args.seed, warmup_ns + window_ns);
            let ticks = into_ticks(stream, tick_ns, config.nodes);
            let cluster = ThreadedCluster::spawn(config.clone(), spec.protocol);
            cluster.submit_round_robin(probe_txs, config.payload_size);
            booted &= wait_first_commit(&cluster, probe_txs);
            (cluster, ticks)
        },
        |(cluster, _)| drop(cluster.shutdown()),
    );

    let mut outcome = Outcome::default();
    let ((mut cluster, mut ticks), spawned) = set_up.record(&mut outcome);
    outcome.require(booted, "cluster committed nothing within the boot deadline");
    let mut pacer = Pacer::new(tick_ns);
    let mut next_tick = 0usize;
    let mut drive = drive(
        &mut cluster,
        probe_txs,
        warmup_ns,
        window_ns,
        u64::MAX,
        |cluster, tracker, now, _| {
            while pacer.take_due(now).is_some() {
                let Some(tick) = ticks.get_mut(next_tick) else {
                    break;
                };
                next_tick += 1;
                for (replica, batch) in tick.batches.iter_mut().enumerate() {
                    if !batch.is_empty() {
                        cluster.submit_requests(NodeId(replica as u64), std::mem::take(batch));
                    }
                }
                for &request_due in &tick.request_dues {
                    tracker.offer(1, request_due);
                }
            }
            pacer.next_due_ns()
        },
    );
    drive.gen_late_ns = drive.gen_late_ns.max(pacer.late_max_ns);
    let (report, hosts) = cluster.shutdown_with_hosts();
    let hosts: Vec<&NodeHost> = hosts.iter().collect();
    live_outcome(
        &mut outcome,
        &drive,
        &report,
        &hosts,
        args,
        spawned,
        probe_txs,
    );
    outcome.note("boot_probe_txs", probe_txs);
    outcome
}

fn run_tcp(spec: &Spec, args: &RunArgs) -> Outcome {
    let config = spec.config_for(args.seed);
    let mut booted = true;
    let probe_txs = boot_probe_txs(&config);
    let set_up = timed_setups(
        args,
        || {
            let mut cluster =
                TcpCluster::spawn(spec.protocol, config.clone()).expect("bind loopback listeners");
            cluster.submit_round_robin(probe_txs, config.payload_size);
            booted &= wait_first_commit(&cluster, probe_txs);
            cluster
        },
        |cluster| drop(cluster.shutdown()),
    );

    let mut outcome = Outcome::default();
    let (mut cluster, spawned) = set_up.record(&mut outcome);
    outcome.require(booted, "cluster committed nothing within the boot deadline");
    let (outstanding, chunk, payload) = (spec.outstanding(), spec.chunk, config.payload_size);
    let drive = drive(
        &mut cluster,
        probe_txs,
        args.warmup(spec).as_nanos(),
        (args.seconds * 1e9) as u64,
        spec.max_committed_txs,
        |cluster, tracker, now, committed| {
            while tracker.offered().saturating_sub(committed) + chunk <= outstanding {
                cluster.submit_round_robin(chunk, payload);
                tracker.offer(chunk, now);
            }
            u64::MAX
        },
    );
    let (report, hosts) = cluster.shutdown_with_hosts();
    let hosts: Vec<&NodeHost> = hosts.iter().flatten().collect();
    live_outcome(
        &mut outcome,
        &drive,
        &report.cluster,
        &hosts,
        args,
        spawned,
        probe_txs,
    );
    let committed = report.cluster.committed_txs.max(1) as f64;
    let frames: u64 = report
        .nodes
        .iter()
        .flat_map(|n| n.peers.iter())
        .map(|(_, stats)| stats.frames_sent)
        .sum();
    outcome.set(
        "net.bytes_per_tx",
        report.total_bytes_sent() as f64 / committed,
    );
    outcome.set("net.msgs_per_tx", frames as f64 / committed);
    outcome.set("net.frames_dropped", report.total_dropped() as f64);
    outcome.set("net.reconnects", report.total_reconnects() as f64);
    outcome.note("boot_probe_txs", probe_txs);
    outcome
}
