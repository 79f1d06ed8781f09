//! Benchmark metrics: throughput, latency, chain growth rate, block interval,
//! and the report they end in on either clock, [`RunReport`] — a live
//! cluster's [`ClusterReport`] carries one beside what only seats have.
//!
//! These are the four metrics of §IV-B of the paper. Latency is measured from
//! the moment the client issues a transaction until the commit confirmation
//! would reach it (client RTT is added by the runner, matching the model's
//! `t_L` term). Chain growth rate and block interval are the two micro-metrics
//! introduced for the Byzantine experiments.

pub use bamboo_mempool::MempoolStats;
use bamboo_types::{Json, NodeId, ProtocolKind, SimDuration, SimTime, ToJson};

/// A latency distribution summary in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Maximum observed latency (ms).
    pub max_ms: f64,
}

/// One point of the throughput time series (used by the responsiveness
/// experiment, Fig. 15).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputSample {
    /// Start of the bucket.
    pub at: SimTime,
    /// Committed transactions per second during the bucket.
    pub tx_per_sec: f64,
}

/// One host's counters, as every report folds them (DESIGN.md §5,
/// "Observation"): its replica's own audit, pacemaker and recovery counters,
/// its ingress stage's rejections and its mempool's flow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Conflicting commits the replica saw itself.
    pub safety_violations: u64,
    /// Messages the host's ingress stage rejected as forged or malformed.
    pub rejected_messages: u64,
    /// Signed client requests the host's edge rejected as forged.
    pub client_auth_rejections: u64,
    /// Views the replica left by timeout.
    pub timeout_view_changes: u64,
    /// Log records the replica replayed in its durable restarts.
    pub records_replayed: u64,
    /// Admission steps: client batches the host admitted, each in one step.
    pub admissions: u64,
    /// The client requests those steps took, the edge's rejections included.
    pub admitted_requests: u64,
    /// The replica's mempool: what it holds and what flowed through it.
    pub mempool: MempoolStats,
}

/// One observer's books: a live seat's as a probe reads them (DESIGN.md
/// §10), its host's counters and what its observer saw of its own steps
/// since its boot, or a whole run's, which a [`RunReport`] is built from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeatBooks {
    /// The host's counters after the seat's last step.
    pub counters: HostCounters,
    /// Messages the seat put on the wire, one per recipient.
    pub messages: u64,
    /// Their bytes as the codec writes them ([`bamboo_types::wire::encoded_len`]).
    pub bytes: u64,
    /// How long the books have run: from the seat's boot to the probe.
    pub lifetime: SimDuration,
    /// The seat's busy wall time over its lifetime, and its view clock.
    pub utilization: Utilization,
    /// Issue → commit at the seat, on the clock its cluster stamps requests
    /// with; empty when read over a status frame (DESIGN.md §9.3).
    pub latency: LatencyStats,
    /// Committed transactions the seat's ledger did not execute: their id
    /// was among the newest committed blocks' ([`bamboo_forest::ExecWindow`]).
    pub duplicates_filtered: u64,
}

/// The commit-latency and throughput books of the observer replica.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// End-to-end latencies (issue → confirmation).
    latency: Histogram,
    /// Client-observed submit→commit latencies (no response leg; see
    /// [`Metrics::record_commit`]).
    client_latency: Histogram,
    bucket: SimDuration,
    buckets: Vec<u64>,
}

impl Metrics {
    /// Creates an accumulator with the given time-series bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        Self {
            latency: Histogram::new(),
            client_latency: Histogram::new(),
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Records the commit of a transaction issued at `issued_at`, committed by
    /// the observer replica at `committed_at`, and confirmed (at the client,
    /// after the response leg) at `confirmed_at`.
    ///
    /// Two distributions are kept: the paper's end-to-end latency
    /// (issue → confirmation, including the client response delay, the `t_L`
    /// term) and the client-observed submit→commit latency
    /// (issue → commit instant), which is what a saturation sweep watches
    /// collapse as offered load passes capacity.
    pub fn record_commit(
        &mut self,
        issued_at: SimTime,
        committed_at: SimTime,
        confirmed_at: SimTime,
    ) {
        self.latency.record(confirmed_at.since(issued_at));
        self.client_latency.record(committed_at.since(issued_at));
        let idx = (confirmed_at.as_nanos() / self.bucket.as_nanos().max(1)) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Summarises the end-to-end latency distribution (issue → confirmation).
    pub fn latency(&self) -> LatencyStats {
        self.latency.stats()
    }

    /// Summarises the client-observed submit→commit latency distribution.
    pub fn client_latency(&self) -> LatencyStats {
        self.client_latency.stats()
    }

    /// Produces the committed-throughput time series.
    pub fn throughput_series(&self) -> Vec<ThroughputSample> {
        let bucket_secs = self.bucket.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, count)| ThroughputSample {
                at: SimTime(i as u64 * self.bucket.as_nanos()),
                tx_per_sec: *count as f64 / bucket_secs,
            })
            .collect()
    }
}

/// Linear sub-buckets per power of two, as a bit count: a bucket is at most
/// `1 / 2^9` (0.2 %) of the values it holds wide.
const SUB_BITS: u32 = 9;
/// One bucket per value below `2^(SUB_BITS + 1)`, then `2^SUB_BITS` per
/// octave up to `u64::MAX`: 28,672 counters, 224 KiB at most.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// A log-linear histogram of durations in integer nanoseconds.
///
/// Fixed size, integer-only state, so two executions of one run report
/// identical statistics. Count, maximum and mean (from the integer sum) are
/// exact; a percentile is the midpoint of the bucket that holds the exact
/// order statistic (capped at the maximum), hence within 0.2 % of it.
/// The counters reach only as far as the highest bucket recorded, and
/// per-octave totals let a percentile skip to its octave: a run keeps eight
/// histograms, a live probe reads three summaries per seat.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Histogram {
    counts: Vec<u64>,
    octaves: [u64; BUCKETS >> SUB_BITS],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Self {
            counts: Vec::new(),
            octaves: [0; BUCKETS >> SUB_BITS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        // Bits dropped to land in the octave's `2^SUB_BITS` sub-buckets;
        // none while buckets are one nanosecond wide.
        let shift = (u64::BITS - ns.leading_zeros()).saturating_sub(SUB_BITS + 1);
        ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
    }

    fn midpoint_of(bucket: usize) -> u64 {
        let shift = (bucket >> SUB_BITS).saturating_sub(1);
        let lowest = ((bucket - (shift << SUB_BITS)) as u64) << shift;
        lowest + ((1u64 << shift) >> 1)
    }

    pub(crate) fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        let bucket = Self::bucket_of(ns);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.octaves[bucket >> SUB_BITS] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// The value reported for quantile `q`: the sample of rank
    /// `round((count − 1)·q)` in ascending order, to bucket resolution.
    fn quantile_ns(&self, q: f64) -> u64 {
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        let mut seen = 0u64;
        for (octave, &total) in self.octaves.iter().enumerate() {
            if seen + total <= rank {
                seen += total;
                continue;
            }
            let first = octave << SUB_BITS;
            for (bucket, &n) in (first..).zip(self.counts[first..].iter().take(1 << SUB_BITS)) {
                seen += n;
                if seen > rank {
                    return Self::midpoint_of(bucket).min(self.max_ns);
                }
            }
        }
        self.max_ns
    }

    pub(crate) fn stats(&self) -> LatencyStats {
        if self.count == 0 {
            return LatencyStats::default();
        }
        let ms = |ns: u64| SimDuration::from_nanos(ns).as_millis_f64();
        LatencyStats {
            count: self.count,
            mean_ms: self.sum_ns as f64 / self.count as f64 / 1_000_000.0,
            p50_ms: ms(self.quantile_ns(0.50)),
            p99_ms: ms(self.quantile_ns(0.99)),
            max_ms: ms(self.max_ns),
        }
    }
}

/// Where the CPU time went and how views ended (DESIGN.md §5,
/// "Observation"): the busiest replica's utilization and its share spent
/// leading, and the observer replica's view durations, split by whether a
/// QC or a timeout ended the view.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Utilization {
    /// The replica with the highest utilization (the lowest id on a tie).
    pub busiest: NodeId,
    /// Its utilization U: CPU busy time inside the run over the runtime.
    pub u_max: f64,
    /// The share of its busy time spent in views it leads.
    pub leader_share: f64,
    /// Durations of the observer replica's views that a QC ended.
    pub view_qc: LatencyStats,
    /// Durations of the observer replica's views that a timeout ended.
    pub view_timeout: LatencyStats,
}

impl ToJson for Utilization {
    fn to_json(&self) -> Json {
        Json::obj([
            ("busiest", Json::from(self.busiest.0)),
            ("u_max", Json::from(self.u_max)),
            ("leader_share", Json::from(self.leader_share)),
            ("view_qc", self.view_qc.to_json()),
            ("view_timeout", self.view_timeout.to_json()),
        ])
    }
}

/// Where committed transactions' time went, at the observer replica
/// (DESIGN.md §5, "Observation"): four stages between five instants that
/// telescope to each transaction's end-to-end latency. Each stage is named
/// for the instant that ends it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stages {
    /// Issued → its block's proposal sent: the client leg and the wait for
    /// a proposer.
    pub dispatched: LatencyStats,
    /// → the first proposal carrying the block's QC sent, or the commit if
    /// that comes first.
    pub certified: LatencyStats,
    /// → committed at the observer replica.
    pub committed: LatencyStats,
    /// → the confirmation reaches the client: the response leg.
    pub confirmed: LatencyStats,
}

impl ToJson for Stages {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dispatched", self.dispatched.to_json()),
            ("certified", self.certified.to_json()),
            ("committed", self.committed.to_json()),
            ("confirmed", self.confirmed.to_json()),
        ])
    }
}

/// Counters and timestamps describing checkpointing and state transfer on one
/// replica. Exposed to the runners so crash-recovery experiments can report
/// how long catch-up took and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints taken by this replica.
    pub checkpoints_taken: u64,
    /// Total checkpoint chunk bytes this replica encoded and stored.
    pub checkpoint_bytes_written: u64,
    /// The largest single checkpoint chunk — flat in the ledger length
    /// unless the replica had to re-base.
    pub checkpoint_max_write_bytes: u64,
    /// Sync requests this replica sent while catching up.
    pub sync_requests_sent: u64,
    /// Sync responses this replica served to lagging peers.
    pub sync_responses_served: u64,
    /// Total wire bytes of sync responses this replica received.
    pub sync_bytes_received: u64,
    /// Snapshots installed wholesale (replacing local forest + ledger).
    pub snapshots_installed: u64,
    /// Blocks received through state transfer (excludes snapshot contents).
    pub blocks_synced: u64,
    /// When this replica last restarted with amnesia, if ever.
    pub restarted_at: Option<SimTime>,
    /// When the last catch-up episode finished (orphan-free after a sync
    /// install). Cleared whenever a new episode begins, so after the run it
    /// marks the end of the final episode.
    pub caught_up_at: Option<SimTime>,
    /// Durable restarts this replica performed (replaying its own log).
    pub durable_restarts: u64,
    /// Log records successfully replayed across durable restarts.
    pub records_replayed: u64,
    /// Log records discarded as corrupt (torn, CRC-failed, or off the
    /// recovered chain) across durable restarts.
    pub corrupt_records_discarded: u64,
    /// Modeled time spent replaying the durable log, in nanoseconds (an
    /// integer so the stats stay `Eq` and fingerprint-comparable).
    pub log_replay_nanos: u64,
}

/// Checkpoint, state-transfer and crash-recovery metrics of one run, summed
/// across all replicas (durations are worst-case over the recovered ones).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Checkpoints taken across all replicas.
    pub checkpoints_taken: u64,
    /// Checkpoint chunk bytes encoded and stored across all replicas.
    pub checkpoint_bytes_written: u64,
    /// The largest single checkpoint chunk any replica wrote — O(interval),
    /// not O(ledger), unless a replica re-based after adopting a snapshot.
    pub checkpoint_max_write_bytes: u64,
    /// State-transfer requests sent.
    pub sync_requests: u64,
    /// State-transfer responses served.
    pub sync_responses: u64,
    /// Wire bytes received in state-transfer responses.
    pub sync_bytes: u64,
    /// Snapshots installed wholesale by catching-up replicas.
    pub snapshots_installed: u64,
    /// Blocks received through state transfer.
    pub blocks_synced: u64,
    /// Orphans evicted from bounded forest buffers.
    pub orphans_evicted: u64,
    /// Replicas that restarted with amnesia during the run.
    pub amnesia_recoveries: u64,
    /// Whether every amnesia-recovered replica caught back up: its committed
    /// chain reached the length of the never-crashed honest minimum with an
    /// identical chain fingerprint over that prefix. Vacuously `true` when no
    /// amnesia recovery happened.
    pub recovered_caught_up: bool,
    /// Worst-case catch-up duration (restart to orphan-free) over the
    /// amnesia-recovered replicas, in milliseconds; `0` when none recovered.
    pub recovery_time_ms: f64,
    /// Replicas that restarted from their durable segment log during the run.
    pub durable_restarts: u64,
    /// Log records successfully replayed across all durable restarts.
    pub records_replayed: u64,
    /// Log records discarded as corrupt (torn tail, bad CRC, broken chain
    /// linkage) across all durable restarts.
    pub corrupt_records_discarded: u64,
    /// Worst-case log-replay duration over the durable restarts, in
    /// milliseconds of modeled CPU time; `0` when none restarted.
    pub log_replay_ms: f64,
}

impl Default for RecoveryReport {
    fn default() -> Self {
        Self {
            checkpoints_taken: 0,
            checkpoint_bytes_written: 0,
            checkpoint_max_write_bytes: 0,
            sync_requests: 0,
            sync_responses: 0,
            sync_bytes: 0,
            snapshots_installed: 0,
            blocks_synced: 0,
            orphans_evicted: 0,
            amnesia_recoveries: 0,
            recovered_caught_up: true,
            recovery_time_ms: 0.0,
            durable_restarts: 0,
            records_replayed: 0,
            corrupt_records_discarded: 0,
            log_replay_ms: 0.0,
        }
    }
}

impl ToJson for RecoveryReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("checkpoints_taken", Json::from(self.checkpoints_taken)),
            (
                "checkpoint_bytes_written",
                Json::from(self.checkpoint_bytes_written),
            ),
            (
                "checkpoint_max_write_bytes",
                Json::from(self.checkpoint_max_write_bytes),
            ),
            ("sync_requests", Json::from(self.sync_requests)),
            ("sync_responses", Json::from(self.sync_responses)),
            ("sync_bytes", Json::from(self.sync_bytes)),
            ("snapshots_installed", Json::from(self.snapshots_installed)),
            ("blocks_synced", Json::from(self.blocks_synced)),
            ("orphans_evicted", Json::from(self.orphans_evicted)),
            ("amnesia_recoveries", Json::from(self.amnesia_recoveries)),
            ("recovered_caught_up", Json::from(self.recovered_caught_up)),
            ("recovery_time_ms", Json::from(self.recovery_time_ms)),
            ("durable_restarts", Json::from(self.durable_restarts)),
            ("records_replayed", Json::from(self.records_replayed)),
            (
                "corrupt_records_discarded",
                Json::from(self.corrupt_records_discarded),
            ),
            ("log_replay_ms", Json::from(self.log_replay_ms)),
        ])
    }
}

/// The final report of one run, simulated or live ([`ClusterReport::run`]).
/// A live run's lasts the observer seat's lifetime, both its latencies are
/// that seat's issue → commit time, and what no seat status carries is empty:
/// `block_interval`, `stages`, `recovery`, `forks_attempted`, the fingerprint,
/// the engine's counters, `throughput_series` and `pending_txs`.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Number of replicas.
    pub nodes: usize,
    /// Number of Byzantine replicas.
    pub byz_nodes: usize,
    /// Simulated duration of the measurement window (seconds).
    pub duration_secs: f64,
    /// Committed transactions per second (measured on the observer replica).
    pub throughput_tx_per_sec: f64,
    /// End-to-end latency statistics.
    pub latency: LatencyStats,
    /// Client-observed submit→commit latency statistics (no response leg) —
    /// the distribution a saturation sweep watches collapse.
    pub client_latency: LatencyStats,
    /// Total committed transactions, each executed once: the observer's
    /// ledger filters an id one of its newest committed blocks carried.
    pub committed_txs: u64,
    /// Committed transactions the observer's ledger did not execute, as
    /// duplicates ([`bamboo_forest::ExecWindow`]; DESIGN.md §7.4). Not in
    /// the replay key: the ledger it filters is.
    pub duplicates_filtered: u64,
    /// Total committed blocks.
    pub committed_blocks: u64,
    /// Highest view reached by the observer replica.
    pub views_advanced: u64,
    /// Chain growth rate: committed blocks per view (§IV-B1).
    pub chain_growth_rate: f64,
    /// Average block interval in views (§IV-B2).
    pub block_interval: f64,
    /// Number of view changes caused by timeouts.
    pub timeout_view_changes: u64,
    /// Messages sent over the network.
    pub messages_sent: u64,
    /// Bytes sent over the network.
    pub bytes_sent: u64,
    /// Committed-throughput time series (bucketed).
    pub throughput_series: Vec<ThroughputSample>,
    /// Number of detected safety violations (conflicting commits). Must be 0.
    pub safety_violations: u64,
    /// Messages rejected at the authenticated ingress stage (forged or
    /// malformed signatures/certificates), summed over all replicas. Zero in
    /// a run without signature-forging Byzantine nodes.
    pub rejected_messages: u64,
    /// Client requests rejected at the replica edge because their signature
    /// failed to verify (signed-client mode only; zero otherwise).
    pub client_auth_rejections: u64,
    /// Admission steps summed across all replicas: each admitted one client
    /// batch, of every request that reached an idle replica alone or of
    /// every request that waited at a busy one (DESIGN.md §5). Not in the
    /// replay key: the ledger and the engine's event counts are.
    pub admissions: u64,
    /// The client requests those steps took, the edge's rejections included.
    pub admitted_requests: u64,
    /// Mempool admission counters summed across all replicas. The `rejected`
    /// field is the admission-control backpressure counter: transactions
    /// turned away because the mempool was full.
    pub mempool: MempoolStats,
    /// Transactions still waiting (not committed) at the end of the run.
    pub pending_txs: u64,
    /// Simulation events processed by the engine loop (the denominator of
    /// the engine's events/sec figure).
    pub events_processed: u64,
    /// Total events ever scheduled on the event queue.
    pub events_scheduled: u64,
    /// Highest number of simultaneously pending events in the engine's queue
    /// — its memory high-water mark, so sweep memory use is observable per
    /// run. An in-flight delivery counts from the instant it is sent;
    /// client windows occupy no queue slot.
    pub queue_peak_len: u64,
    /// Highest number of entries in the engine's queue heap at once — its
    /// depth, which sets the cost of a pop. A broadcast is one entry however
    /// many of its deliveries are pending, so this is at most
    /// [`RunReport::queue_peak_len`]. It is a property of the engine's
    /// queue, not of the simulated run — another queue could run the same
    /// simulation at another depth — so it stays out of the replay key and
    /// the JSON report.
    pub queue_heap_peak: u64,
    /// Hex fingerprint of the observer replica's committed ledger (every
    /// block id, view and payload transaction id, in order). Two runs with
    /// the same configuration must produce identical fingerprints — the
    /// golden-replay tests pin engine rewrites against recorded values.
    pub ledger_fingerprint: String,
    /// Checkpointing and crash-recovery metrics (all zero/vacuous in runs
    /// without checkpoints or amnesia faults).
    pub recovery: RecoveryReport,
    /// CPU utilization and the observer's view clock. Not in the replay
    /// key: it is derived from what the key already pins.
    pub utilization: Utilization,
    /// Forking proposals the Byzantine replicas produced, summed (0 when the
    /// protocol's voting rule leaves no room to fork). Not in the replay key:
    /// the ledger it forks is.
    pub forks_attempted: u64,
    /// Where the committed transactions' time went. Not in the replay key,
    /// like `utilization`.
    pub stages: Stages,
}

impl RunReport {
    /// Everything a second execution of the same `(Config, RunOptions)` must
    /// reproduce exactly: the observer's ledger, what the engine counted and
    /// the recovery report. Comparing the whole key, not the fingerprint
    /// alone, catches a nondeterminism that spares the observer's ledger.
    pub(crate) fn replay_key(&self) -> (&str, [u64; 8], RecoveryReport) {
        (
            &self.ledger_fingerprint,
            [
                self.committed_txs,
                self.committed_blocks,
                self.events_processed,
                self.events_scheduled,
                self.messages_sent,
                self.bytes_sent,
                self.views_advanced,
                self.queue_peak_len,
            ],
            self.recovery,
        )
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} n={} byz={}: {:.0} tx/s, latency mean {:.2} ms (p99 {:.2}), CGR {:.2}, BI {:.2}",
            self.protocol,
            self.nodes,
            self.byz_nodes,
            self.throughput_tx_per_sec,
            self.latency.mean_ms,
            self.latency.p99_ms,
            self.chain_growth_rate,
            self.block_interval
        )
    }
}

impl ToJson for LatencyStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean_ms", Json::from(self.mean_ms)),
            ("p50_ms", Json::from(self.p50_ms)),
            ("p99_ms", Json::from(self.p99_ms)),
            ("max_ms", Json::from(self.max_ms)),
        ])
    }
}

impl ToJson for ThroughputSample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("at_ms", Json::from(self.at.as_millis_f64())),
            ("tx_per_sec", Json::from(self.tx_per_sec)),
        ])
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol.label())),
            ("nodes", Json::from(self.nodes)),
            ("byz_nodes", Json::from(self.byz_nodes)),
            ("duration_secs", Json::from(self.duration_secs)),
            (
                "throughput_tx_per_sec",
                Json::from(self.throughput_tx_per_sec),
            ),
            ("latency", self.latency.to_json()),
            ("client_latency", self.client_latency.to_json()),
            ("committed_txs", Json::from(self.committed_txs)),
            ("duplicates_filtered", Json::from(self.duplicates_filtered)),
            ("committed_blocks", Json::from(self.committed_blocks)),
            ("views_advanced", Json::from(self.views_advanced)),
            ("chain_growth_rate", Json::from(self.chain_growth_rate)),
            ("block_interval", Json::from(self.block_interval)),
            (
                "timeout_view_changes",
                Json::from(self.timeout_view_changes),
            ),
            ("messages_sent", Json::from(self.messages_sent)),
            ("bytes_sent", Json::from(self.bytes_sent)),
            ("throughput_series", self.throughput_series.to_json()),
            ("safety_violations", Json::from(self.safety_violations)),
            ("rejected_messages", Json::from(self.rejected_messages)),
            (
                "client_auth_rejections",
                Json::from(self.client_auth_rejections),
            ),
            ("admissions", Json::from(self.admissions)),
            ("admitted_requests", Json::from(self.admitted_requests)),
            ("mempool", self.mempool.to_json()),
            ("pending_txs", Json::from(self.pending_txs)),
            ("events_processed", Json::from(self.events_processed)),
            ("events_scheduled", Json::from(self.events_scheduled)),
            ("queue_peak_len", Json::from(self.queue_peak_len)),
            (
                "ledger_fingerprint",
                Json::from(self.ledger_fingerprint.as_str()),
            ),
            ("recovery", self.recovery.to_json()),
            ("utilization", self.utilization.to_json()),
            ("forks_attempted", Json::from(self.forks_attempted)),
            ("stages", self.stages.to_json()),
        ])
    }
}

/// Point-in-time snapshot of one outbound peer link's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Connection attempts (successful or not).
    pub attempts: u64,
    /// Connections successfully established.
    pub connects: u64,
    /// Re-establishments after the first connect (`connects - 1`, floored).
    pub reconnects: u64,
    /// Frames written to the socket.
    pub frames_sent: u64,
    /// Bytes written to the socket (framing included).
    pub bytes_sent: u64,
    /// Frames dropped — queue full, peer down, or write failed.
    pub dropped: u64,
}

/// One socket seat's network counters: per outbound peer link, plus ingress.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeNetStats {
    /// The reporting seat.
    pub node: u64,
    /// Outbound link counters, one entry per remote peer.
    pub peers: Vec<(u64, PeerStats)>,
    /// Inbound connections accepted by the seat's listener.
    pub accepted_connections: u64,
    /// Inbound connections dropped because their hello claimed a replica id
    /// without that replica's signature over the connection's challenge.
    pub refused_hellos: u64,
    /// Messages the seat's verify pool accepted.
    pub verify_accepted: u64,
    /// Messages the seat's verify pool rejected as forged or malformed.
    pub verify_rejected: u64,
}

/// Summary of one live run, whatever the link: the run's [`RunReport`], and
/// what only a cluster of seats has.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// The run as the seats' books fold into it ([`crate::LiveCluster::shutdown`]).
    pub run: RunReport,
    /// Committed blocks per seat (indexed by node id; 0 for a seat that was
    /// down at shutdown).
    pub committed_blocks: Vec<usize>,
    /// Highest view reached across seats.
    pub max_view: u64,
    /// Whether every honest seat that was up held a prefix of the longest
    /// honest chain at shutdown ([`crate::LiveCluster::check_prefix_agreement`]).
    pub ledgers_consistent: bool,
    /// Twin of `run.committed_txs` for `benchmark/`; goes with ROADMAP item 11.
    pub committed_txs: u64,
    /// Twin of `run.safety_violations` for `benchmark/`; goes with ROADMAP item 11.
    pub safety_violations: u64,
    /// Twin of `run.timeout_view_changes` for `benchmark/`; goes with ROADMAP item 11.
    pub timeout_view_changes: u64,
    /// Twin of `run.rejected_messages` for `benchmark/`; goes with ROADMAP item 11.
    pub auth_rejections: u64,
    /// Twin of `run.client_auth_rejections` for `benchmark/`; goes with ROADMAP item 11.
    pub client_auth_rejections: u64,
    /// Network counters of every socket seat, a crashed one's frozen when it
    /// went down; empty on the channel link.
    pub nodes: Vec<NodeNetStats>,
}

impl ClusterReport {
    fn total(&self, count: impl Fn(&PeerStats) -> u64) -> u64 {
        let links = self.nodes.iter().flat_map(|node| &node.peers);
        links.map(|(_, link)| count(link)).sum()
    }

    /// Total outbound reconnects across the whole cluster.
    pub fn total_reconnects(&self) -> u64 {
        self.total(|link| link.reconnects)
    }

    /// Total bytes written across the whole cluster.
    pub fn total_bytes_sent(&self) -> u64 {
        self.total(|link| link.bytes_sent)
    }

    /// Total frames dropped at send queues across the whole cluster.
    pub fn total_dropped(&self) -> u64 {
        self.total(|link| link.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut m = Metrics::new(SimDuration::from_secs(1));
        for i in 1..=100u64 {
            // Committed at half the confirmation delay: the client-observed
            // distribution excludes the response leg.
            m.record_commit(SimTime::ZERO, SimTime(i * 500_000), SimTime(i * 1_000_000));
        }
        let stats = m.latency();
        assert_eq!(stats.count, 100);
        assert!(stats.p50_ms <= stats.p99_ms);
        assert!(stats.p99_ms <= stats.max_ms);
        assert!((stats.mean_ms - 50.5).abs() < 1.0);
        assert!((stats.max_ms - 100.0).abs() < 1e-9);
        let client = m.client_latency();
        assert_eq!(client.count, 100);
        assert!((client.mean_ms * 2.0 - stats.mean_ms).abs() < 1e-9);
        assert!((client.max_ms - 50.0).abs() < 1e-9);
    }

    /// What sorting the samples would report, at the histogram's rank rule.
    fn sorted_reference(samples: &[u64]) -> LatencyStats {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let ms = |ns: u64| ns as f64 / 1_000_000.0;
        let at = |q: f64| ms(sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]);
        LatencyStats {
            count: sorted.len() as u64,
            mean_ms: sorted.iter().map(|&ns| ms(ns)).sum::<f64>() / sorted.len() as f64,
            p50_ms: at(0.50),
            p99_ms: at(0.99),
            max_ms: ms(*sorted.last().expect("non-empty")),
        }
    }

    fn histogram_of(samples: &[u64]) -> LatencyStats {
        let mut histogram = Histogram::new();
        for &ns in samples {
            histogram.record(SimDuration::from_nanos(ns));
        }
        histogram.stats()
    }

    #[test]
    fn histogram_matches_a_sorted_reference_within_its_resolution() {
        use bamboo_sim::SimRng;
        const MS: u64 = 1_000_000;
        let mut sets: Vec<(String, Vec<u64>)> = vec![
            ("one sample".into(), vec![20 * MS + 7]),
            ("zero".into(), vec![0; 9]),
            ("constant".into(), vec![35_801_047; 1000]),
            ("sub-bucket exact".into(), (0..1024).collect()),
            (
                "top octave".into(),
                (0..500).map(|i| u64::MAX - i * (u64::MAX / 1000)).collect(),
            ),
        ];
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let n = 1 + rng.uniform_range(0, 20_000) as usize;
            let mut draw =
                |f: fn(&mut SimRng) -> u64| -> Vec<u64> { (0..n).map(|_| f(&mut rng)).collect() };
            let uniform = draw(|r| r.uniform_range(0, 50 * MS));
            let log_uniform = draw(|r| r.next_u64() >> r.uniform_range(0, 64));
            let bimodal = draw(|r| {
                let scale = if r.chance(0.97) { MS } else { 1000 * MS };
                r.uniform_range(scale, 12 * scale)
            });
            sets.push((format!("uniform/{seed}"), uniform));
            sets.push((format!("log-uniform/{seed}"), log_uniform));
            sets.push((format!("bimodal ms/s/{seed}"), bimodal));
        }
        for (name, samples) in &sets {
            let (got, want) = (histogram_of(samples), sorted_reference(samples));
            assert_eq!((got.count, got.max_ms), (want.count, want.max_ms), "{name}");
            let off = |a: f64, b: f64| if a == b { 0.0 } else { (a - b).abs() / b };
            assert!(
                off(got.mean_ms, want.mean_ms) <= 1e-9,
                "{name}: {got:?} vs {want:?}"
            );
            assert!(
                off(got.p50_ms, want.p50_ms) <= 0.002,
                "{name}: {got:?} vs {want:?}"
            );
            assert!(
                off(got.p99_ms, want.p99_ms) <= 0.002,
                "{name}: {got:?} vs {want:?}"
            );
            assert!(
                got.p50_ms <= got.p99_ms && got.p99_ms <= got.max_ms,
                "{name}"
            );
            assert_eq!(got, histogram_of(samples), "{name}: a second execution");
            // One-nanosecond buckets report the order statistic itself.
            if samples.iter().all(|&ns| ns < 1024) {
                assert_eq!((got.p50_ms, got.p99_ms), (want.p50_ms, want.p99_ms));
            }
        }
        assert_eq!(histogram_of(&[]), LatencyStats::default());
    }

    #[test]
    fn histogram_buckets_tile_the_u64_range() {
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert!(BUCKETS * std::mem::size_of::<u64>() <= 256 * 1024);
        // Each octave's first two values and its last, in ascending order.
        let mut values: Vec<u64> = (0..64)
            .flat_map(|bits| [1u64 << bits, (1u64 << bits) + 1, u64::MAX >> (63 - bits)])
            .collect();
        values.sort_unstable();
        let mut previous = 0;
        for ns in values {
            let bucket = Histogram::bucket_of(ns);
            assert!(
                bucket >= previous,
                "bucket order follows value order at {ns}"
            );
            previous = bucket;
            let mid = Histogram::midpoint_of(bucket);
            assert_eq!(Histogram::bucket_of(mid), bucket, "{ns}");
            assert!(
                mid.abs_diff(ns) as f64 <= ns as f64 / 512.0,
                "{ns} vs {mid}"
            );
        }
    }

    #[test]
    fn empty_metrics_are_zeroed() {
        let m = Metrics::new(SimDuration::from_secs(1));
        assert_eq!(m.latency(), LatencyStats::default());
        assert!(m.throughput_series().is_empty());
        assert_eq!(m.client_latency().count, 0);
    }

    #[test]
    fn throughput_series_buckets_commits() {
        let mut m = Metrics::new(SimDuration::from_secs(1));
        // 10 commits in second 0, 20 commits in second 2.
        for _ in 0..10 {
            m.record_commit(SimTime::ZERO, SimTime(400_000_000), SimTime(500_000_000));
        }
        for _ in 0..20 {
            m.record_commit(
                SimTime::ZERO,
                SimTime(2_400_000_000),
                SimTime(2_500_000_000),
            );
        }
        let series = m.throughput_series();
        assert_eq!(series.len(), 3);
        assert!((series[0].tx_per_sec - 10.0).abs() < 1e-9);
        assert!((series[1].tx_per_sec - 0.0).abs() < 1e-9);
        assert!((series[2].tx_per_sec - 20.0).abs() < 1e-9);
    }

    #[test]
    fn report_summary_mentions_protocol_and_throughput() {
        let report = RunReport {
            protocol: ProtocolKind::HotStuff,
            nodes: 4,
            byz_nodes: 0,
            duration_secs: 10.0,
            throughput_tx_per_sec: 1234.0,
            latency: LatencyStats::default(),
            client_latency: LatencyStats::default(),
            committed_txs: 12340,
            duplicates_filtered: 0,
            committed_blocks: 100,
            views_advanced: 120,
            chain_growth_rate: 0.83,
            block_interval: 2.0,
            timeout_view_changes: 0,
            messages_sent: 0,
            bytes_sent: 0,
            throughput_series: vec![],
            safety_violations: 0,
            rejected_messages: 0,
            client_auth_rejections: 0,
            admissions: 0,
            admitted_requests: 0,
            mempool: MempoolStats::default(),
            pending_txs: 0,
            events_processed: 0,
            events_scheduled: 0,
            queue_peak_len: 0,
            queue_heap_peak: 0,
            ledger_fingerprint: String::new(),
            recovery: RecoveryReport::default(),
            utilization: Utilization::default(),
            forks_attempted: 0,
            stages: Stages::default(),
        };
        let s = report.summary();
        assert!(s.contains("HS"));
        assert!(s.contains("1234"));
    }
}
