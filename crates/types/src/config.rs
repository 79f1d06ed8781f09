//! Configuration — the Rust equivalent of the paper's Table I plus the
//! parameters of the simulated deployment substrate.
//!
//! A [`Config`] is fixed for one run and shared (conceptually, as a JSON file)
//! by every node, exactly as in Bamboo. The [`ConfigBuilder`] provides the
//! ergonomic construction path used by examples and benches.

use crate::ids::NodeId;
use crate::time::SimDuration;

/// Which chained-BFT protocol a replica runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Three-chain HotStuff (chained HotStuff).
    HotStuff,
    /// Two-chain HotStuff (2CHS).
    TwoChainHotStuff,
    /// Streamlet (longest notarized chain, broadcast votes, echoing).
    Streamlet,
    /// The independent "original HotStuff" baseline used in Fig. 9.
    OriginalHotStuff,
}

impl ProtocolKind {
    /// Short label used in benchmark output (matches the paper's figure
    /// legends: HS, 2CHS, SL, OHS).
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::HotStuff => "HS",
            ProtocolKind::TwoChainHotStuff => "2CHS",
            ProtocolKind::Streamlet => "SL",
            ProtocolKind::OriginalHotStuff => "OHS",
        }
    }

    /// The three protocols evaluated head-to-head in the paper.
    pub fn evaluated() -> [ProtocolKind; 3] {
        [
            ProtocolKind::HotStuff,
            ProtocolKind::TwoChainHotStuff,
            ProtocolKind::Streamlet,
        ]
    }

    /// Parses a figure-legend label back into a protocol kind — the inverse
    /// of [`ProtocolKind::label`], used by the scenario-spec parser.
    pub fn from_label(label: &str) -> Option<ProtocolKind> {
        match label {
            "HS" => Some(ProtocolKind::HotStuff),
            "2CHS" => Some(ProtocolKind::TwoChainHotStuff),
            "SL" => Some(ProtocolKind::Streamlet),
            "OHS" => Some(ProtocolKind::OriginalHotStuff),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Byzantine strategy assigned to faulty replicas (Table I `strategy`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ByzantineStrategy {
    /// Faulty replicas behave exactly like honest ones.
    #[default]
    Honest,
    /// Forking attack: propose on an older ancestor to overwrite uncommitted
    /// blocks (§IV-A1).
    Forking,
    /// Silence attack: withhold the proposal for the whole view (§IV-A2).
    Silence,
    /// Signature-forgery flood: replace every outbound vote with a burst of
    /// votes carrying invalid signatures, one minted in each replica's name
    /// (framework extension; exercises the authenticated ingress stage).
    ForgedVote,
    /// QC forgery: propose blocks whose justify QC claims quorum
    /// certification with fabricated signatures (framework extension).
    ForgedQc,
}

impl ByzantineStrategy {
    /// Parses the `strategy` label used by Table I and the scenario specs —
    /// the inverse of the [`std::fmt::Display`] rendering.
    pub fn from_label(label: &str) -> Option<ByzantineStrategy> {
        match label {
            "honest" => Some(ByzantineStrategy::Honest),
            "forking" => Some(ByzantineStrategy::Forking),
            "silence" => Some(ByzantineStrategy::Silence),
            "forged-vote" => Some(ByzantineStrategy::ForgedVote),
            "forged-qc" => Some(ByzantineStrategy::ForgedQc),
            _ => None,
        }
    }
}

impl std::fmt::Display for ByzantineStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ByzantineStrategy::Honest => "honest",
            ByzantineStrategy::Forking => "forking",
            ByzantineStrategy::Silence => "silence",
            ByzantineStrategy::ForgedVote => "forged-vote",
            ByzantineStrategy::ForgedQc => "forged-qc",
        };
        f.write_str(s)
    }
}

/// Leader election policy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LeaderPolicy {
    /// Round-robin rotation (`master = 0` in Table I).
    #[default]
    RoundRobin,
    /// A fixed static leader (`master = id`).
    Static(NodeId),
    /// Pseudo-random rotation derived from a hash of the view number — the
    /// "leader election based on hash functions" design choice discussed in
    /// §V-E.
    Hashed,
}

/// Full per-run configuration.
///
/// Field names and default values follow the paper's Table I; extra fields
/// configure the simulated network/CPU substrate (DESIGN.md §3).
#[derive(Clone, PartialEq, Debug)]
pub struct Config {
    // ---- Table I -------------------------------------------------------
    /// Number of replicas (the paper's `address` list length).
    pub nodes: usize,
    /// Leader election policy (`master`).
    pub leader_policy: LeaderPolicy,
    /// Byzantine strategy for faulty nodes (`strategy`).
    pub byzantine_strategy: ByzantineStrategy,
    /// Number of Byzantine nodes (`byzNo`). Byzantine ids are `0..byz_nodes`
    /// unless overridden by the runner.
    pub byz_nodes: usize,
    /// Maximum number of transactions per block (`bsize`, default 400).
    pub block_size: usize,
    /// Admission bound of the memory pool (`memsize`): the most transactions
    /// a replica buffers before it rejects new arrivals. Defaults to 100 000,
    /// not Table I's 1000: the bound only limits admission (the pool's memory
    /// follows what it holds), and the figure runs offer open-loop load up to
    /// their knee, where a 1000-transaction bound would reject below
    /// saturation and put back-pressure into every curve. Runs that study
    /// back-pressure (`saturation`, `signed_saturation.json`) set it low
    /// themselves.
    pub mempool_size: usize,
    /// Transaction payload size in bytes (`psize`, default 0).
    pub payload_size: usize,
    /// Additional one-way network delay added to every message (`delay`).
    pub extra_delay: SimDuration,
    /// Jitter (± uniform) applied to `extra_delay`, used for the paper's
    /// "5ms ± 1ms" / "10ms ± 2ms" settings.
    pub extra_delay_jitter: SimDuration,
    /// View-change timeout (`timeout`, default 100 ms).
    pub timeout: SimDuration,
    /// Benchmark duration (`runtime`, default 30 s of simulated time).
    pub runtime: SimDuration,
    /// Number of concurrent closed-loop clients (`concurrency`, default 10).
    pub concurrency: usize,

    // ---- Simulated substrate (DESIGN.md §3) -----------------------------
    /// Mean one-way network latency between any two nodes (µ/2 where µ is the
    /// RTT mean of §V-A2). Defaults to 0.25 ms, matching the paper's "inter-VM
    /// latency below 1 ms" data-centre setting.
    pub link_latency_mean: SimDuration,
    /// Standard deviation of the one-way latency.
    pub link_latency_std: SimDuration,
    /// Node NIC bandwidth in bytes per second (§V-B1).
    pub bandwidth_bytes_per_sec: u64,
    /// CPU time charged per cryptographic operation (`t_CPU`).
    pub cpu_delay: SimDuration,
    /// Open-loop transaction arrival rate in tx/s; `None` means closed-loop
    /// driven by `concurrency`.
    pub arrival_rate: Option<f64>,
    /// RNG seed: the whole run is a deterministic function of the config.
    pub seed: u64,
    /// Checkpoint cadence: take a snapshot every `n` committed blocks.
    /// `None` disables checkpointing (the default), which also disables
    /// amnesia recovery — a replica with no checkpoint restarts from genesis.
    pub checkpoint_interval: Option<u64>,

    // ---- Client-ingress pipeline (DESIGN.md §7) -------------------------
    /// Size of the simulated open-loop client population. `None` (the
    /// default) keeps the legacy single anonymous client; `Some(n)` spreads
    /// arrivals over `n` distinct clients whose identities (and, with
    /// [`Config::signed_requests`], keys) are derived lazily from the client
    /// id — memory stays O(1) in the population size.
    pub client_population: Option<u64>,
    /// When true, every client request is signed by the issuing client and
    /// verified at the replica edge in one batched pass, with the
    /// modeled CPU charged per arrival batch. Defaults to false (the paper's
    /// unauthenticated-client setting).
    pub signed_requests: bool,
    /// Ignored: each replica's mempool is one queue bounded by
    /// `mempool_size`. The field is kept for callers that still set it; no
    /// spec key, builder method or check reads it.
    pub mempool_shards: usize,

    // ---- Durable storage (DESIGN.md §8) ---------------------------------
    /// When true, every replica writes an append-only segment log (committed
    /// blocks, QCs, checkpoint markers, pre-vote safety records) and persists
    /// its checkpoint images, enabling durable restarts that replay local
    /// state instead of relying solely on network sync. Defaults to false:
    /// all recorded fingerprints predate durability and must stay valid.
    pub durable_log: bool,
    /// Fsync batching: flush the log after every `n` appended records.
    /// Safety records are always flushed immediately regardless of this
    /// setting — the vote must not outrun its durable watermark.
    pub fsync_interval: usize,
    /// Segment rotation threshold in bytes: a record that would grow the
    /// active segment past this size starts a new segment instead.
    pub segment_bytes: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            nodes: 4,
            leader_policy: LeaderPolicy::RoundRobin,
            byzantine_strategy: ByzantineStrategy::Honest,
            byz_nodes: 0,
            block_size: 400,
            mempool_size: 100_000,
            payload_size: 0,
            extra_delay: SimDuration::ZERO,
            extra_delay_jitter: SimDuration::ZERO,
            timeout: SimDuration::from_millis(100),
            runtime: SimDuration::from_secs(30),
            concurrency: 10,
            link_latency_mean: SimDuration::from_micros(250),
            link_latency_std: SimDuration::from_micros(50),
            bandwidth_bytes_per_sec: 1_250_000_000, // 10 Gbit/s
            cpu_delay: SimDuration::from_micros(20),
            arrival_rate: None,
            seed: 42,
            checkpoint_interval: None,
            client_population: None,
            signed_requests: false,
            mempool_shards: 1,
            durable_log: false,
            fsync_interval: 8,
            segment_bytes: 1 << 20,
        }
    }
}

impl Config {
    /// Creates a builder pre-populated with the Table-I defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Quorum threshold (`2f + 1`) for this configuration.
    pub fn quorum(&self) -> usize {
        crate::ids::quorum_threshold(self.nodes)
    }

    /// Returns true if `node` is configured to be Byzantine.
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.byzantine_strategy != ByzantineStrategy::Honest && (node.index()) < self.byz_nodes
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::TypeError::InvalidConfig`] describing the first
    /// violated constraint (zero nodes, too many Byzantine nodes, zero block
    /// size, or an empty runtime).
    pub fn validate(&self) -> Result<(), crate::TypeError> {
        if self.nodes == 0 {
            return Err(crate::TypeError::InvalidConfig(
                "nodes must be positive".into(),
            ));
        }
        if self.byz_nodes > crate::ids::max_faults(self.nodes) {
            return Err(crate::TypeError::InvalidConfig(format!(
                "{} byzantine nodes exceed the f = {} bound for n = {}",
                self.byz_nodes,
                crate::ids::max_faults(self.nodes),
                self.nodes
            )));
        }
        if self.block_size == 0 {
            return Err(crate::TypeError::InvalidConfig(
                "block size must be positive".into(),
            ));
        }
        if self.runtime.is_zero() {
            return Err(crate::TypeError::InvalidConfig(
                "runtime must be positive".into(),
            ));
        }
        if self.checkpoint_interval == Some(0) {
            return Err(crate::TypeError::InvalidConfig(
                "checkpoint interval must be positive when set".into(),
            ));
        }
        if self.client_population == Some(0) {
            return Err(crate::TypeError::InvalidConfig(
                "client population must be positive when set".into(),
            ));
        }
        if self.fsync_interval == 0 {
            return Err(crate::TypeError::InvalidConfig(
                "fsync interval must be positive".into(),
            ));
        }
        if self.segment_bytes < 4096 {
            return Err(crate::TypeError::InvalidConfig(
                "segment size must be at least 4096 bytes".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`Config`].
///
/// # Example
///
/// ```
/// use bamboo_types::{Config, SimDuration};
///
/// let config = Config::builder()
///     .nodes(8)
///     .block_size(400)
///     .payload_size(128)
///     .timeout(SimDuration::from_millis(50))
///     .seed(7)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.quorum(), 6);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ConfigBuilder {
    config: Config,
}

impl ConfigBuilder {
    /// Sets the number of replicas.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Sets the leader election policy.
    pub fn leader_policy(mut self, policy: LeaderPolicy) -> Self {
        self.config.leader_policy = policy;
        self
    }

    /// Sets the Byzantine strategy and the number of Byzantine nodes.
    pub fn byzantine(mut self, strategy: ByzantineStrategy, count: usize) -> Self {
        self.config.byzantine_strategy = strategy;
        self.config.byz_nodes = count;
        self
    }

    /// Sets the block size (transactions per block).
    pub fn block_size(mut self, bsize: usize) -> Self {
        self.config.block_size = bsize;
        self
    }

    /// Sets the mempool capacity.
    pub fn mempool_size(mut self, memsize: usize) -> Self {
        self.config.mempool_size = memsize;
        self
    }

    /// Sets the transaction payload size in bytes.
    pub fn payload_size(mut self, psize: usize) -> Self {
        self.config.payload_size = psize;
        self
    }

    /// Sets the additional per-message network delay and jitter.
    pub fn extra_delay(mut self, delay: SimDuration, jitter: SimDuration) -> Self {
        self.config.extra_delay = delay;
        self.config.extra_delay_jitter = jitter;
        self
    }

    /// Sets the view-change timeout.
    pub fn timeout(mut self, timeout: SimDuration) -> Self {
        self.config.timeout = timeout;
        self
    }

    /// Sets the benchmark runtime.
    pub fn runtime(mut self, runtime: SimDuration) -> Self {
        self.config.runtime = runtime;
        self
    }

    /// Sets the closed-loop client concurrency.
    pub fn concurrency(mut self, concurrency: usize) -> Self {
        self.config.concurrency = concurrency;
        self
    }

    /// Sets the NIC bandwidth in bytes per second.
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.config.bandwidth_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Sets the CPU delay charged per crypto operation.
    pub fn cpu_delay(mut self, delay: SimDuration) -> Self {
        self.config.cpu_delay = delay;
        self
    }

    /// Switches the workload to open-loop Poisson arrivals at `tx_per_sec`.
    pub fn arrival_rate(mut self, tx_per_sec: f64) -> Self {
        self.config.arrival_rate = Some(tx_per_sec);
        self
    }

    /// Sets the deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables checkpointing: a snapshot every `blocks` committed blocks.
    pub fn checkpoint_interval(mut self, blocks: u64) -> Self {
        self.config.checkpoint_interval = Some(blocks);
        self
    }

    /// Spreads open-loop arrivals over a population of `clients` distinct
    /// simulated clients.
    pub fn client_population(mut self, clients: u64) -> Self {
        self.config.client_population = Some(clients);
        self
    }

    /// Enables per-client request signatures verified at the replica edge.
    pub fn signed_requests(mut self, signed: bool) -> Self {
        self.config.signed_requests = signed;
        self
    }

    /// Enables the durable segment log and persisted checkpoint images.
    pub fn durable_log(mut self, durable: bool) -> Self {
        self.config.durable_log = durable;
        self
    }

    /// Sets the fsync batching interval (records per flush).
    pub fn fsync_interval(mut self, records: usize) -> Self {
        self.config.fsync_interval = records;
        self
    }

    /// Sets the segment rotation threshold in bytes.
    pub fn segment_bytes(mut self, bytes: usize) -> Self {
        self.config.segment_bytes = bytes;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Config::validate`].
    pub fn build(self) -> Result<Config, crate::TypeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let c = Config::default();
        assert_eq!(c.block_size, 400, "bsize default");
        assert_eq!(c.payload_size, 0, "psize default");
        assert_eq!(c.timeout, SimDuration::from_millis(100), "timeout default");
        assert_eq!(c.runtime, SimDuration::from_secs(30), "runtime default");
        assert_eq!(c.concurrency, 10, "concurrency default");
        assert_eq!(c.byz_nodes, 0, "byzNo default");
        assert_eq!(c.byzantine_strategy, ByzantineStrategy::Honest);
        assert_eq!(
            c.leader_policy,
            LeaderPolicy::RoundRobin,
            "master=0 means rotating"
        );
        assert_eq!(c.extra_delay, SimDuration::ZERO, "delay default");
    }

    #[test]
    fn builder_round_trips_fields() {
        let c = Config::builder()
            .nodes(32)
            .byzantine(ByzantineStrategy::Forking, 4)
            .block_size(100)
            .payload_size(1024)
            .timeout(SimDuration::from_millis(50))
            .concurrency(20)
            .arrival_rate(50_000.0)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(c.nodes, 32);
        assert_eq!(c.byz_nodes, 4);
        assert_eq!(c.byzantine_strategy, ByzantineStrategy::Forking);
        assert_eq!(c.block_size, 100);
        assert_eq!(c.payload_size, 1024);
        assert_eq!(c.arrival_rate, Some(50_000.0));
        assert_eq!(c.seed, 99);
        assert_eq!(c.quorum(), 22);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(Config::builder().nodes(0).build().is_err());
        assert!(Config::builder()
            .nodes(4)
            .byzantine(ByzantineStrategy::Silence, 2)
            .build()
            .is_err());
        assert!(Config::builder().block_size(0).build().is_err());
        assert!(Config::builder()
            .runtime(SimDuration::ZERO)
            .build()
            .is_err());
        assert!(Config::builder().client_population(0).build().is_err());
    }

    #[test]
    fn client_pipeline_defaults_preserve_legacy_behaviour() {
        let c = Config::default();
        assert_eq!(c.client_population, None);
        assert!(!c.signed_requests);
        let tuned = Config::builder()
            .client_population(1_000_000)
            .signed_requests(true)
            .build()
            .unwrap();
        assert_eq!(tuned.client_population, Some(1_000_000));
        assert!(tuned.signed_requests);
    }

    #[test]
    fn durable_storage_defaults_preserve_legacy_behaviour() {
        let c = Config::default();
        assert!(
            !c.durable_log,
            "durability is opt-in: old fingerprints hold"
        );
        assert_eq!(c.fsync_interval, 8);
        assert_eq!(c.segment_bytes, 1 << 20);
        let tuned = Config::builder()
            .durable_log(true)
            .fsync_interval(1)
            .segment_bytes(64 * 1024)
            .build()
            .unwrap();
        assert!(tuned.durable_log);
        assert_eq!(tuned.fsync_interval, 1);
        assert_eq!(tuned.segment_bytes, 64 * 1024);
        assert!(Config::builder().fsync_interval(0).build().is_err());
        assert!(Config::builder().segment_bytes(100).build().is_err());
    }

    #[test]
    fn byzantine_membership_uses_low_ids() {
        let c = Config::builder()
            .nodes(32)
            .byzantine(ByzantineStrategy::Silence, 3)
            .build()
            .unwrap();
        assert!(c.is_byzantine(NodeId(0)));
        assert!(c.is_byzantine(NodeId(2)));
        assert!(!c.is_byzantine(NodeId(3)));
        let honest = Config::default();
        assert!(!honest.is_byzantine(NodeId(0)));
    }

    #[test]
    fn protocol_labels_match_paper_legends() {
        assert_eq!(ProtocolKind::HotStuff.label(), "HS");
        assert_eq!(ProtocolKind::TwoChainHotStuff.label(), "2CHS");
        assert_eq!(ProtocolKind::Streamlet.label(), "SL");
        assert_eq!(ProtocolKind::OriginalHotStuff.label(), "OHS");
        assert_eq!(ProtocolKind::evaluated().len(), 3);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for kind in [
            ProtocolKind::HotStuff,
            ProtocolKind::TwoChainHotStuff,
            ProtocolKind::Streamlet,
            ProtocolKind::OriginalHotStuff,
        ] {
            assert_eq!(ProtocolKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_label("nope"), None);
        for strategy in [
            ByzantineStrategy::Honest,
            ByzantineStrategy::Forking,
            ByzantineStrategy::Silence,
            ByzantineStrategy::ForgedVote,
            ByzantineStrategy::ForgedQc,
        ] {
            assert_eq!(
                ByzantineStrategy::from_label(&strategy.to_string()),
                Some(strategy)
            );
        }
        assert_eq!(ByzantineStrategy::from_label("evil"), None);
    }

    #[test]
    fn configs_are_cloneable_and_comparable() {
        let c = Config::builder().nodes(8).seed(3).build().unwrap();
        let copy = c.clone();
        assert_eq!(c, copy);
        let mut other = c.clone();
        other.seed = 4;
        assert_ne!(c, other);
    }
}
