//! Configuration — the Rust equivalent of the paper's Table I plus the
//! parameters of the simulated deployment substrate.
//!
//! A [`Config`] is fixed for one run and shared (conceptually, as a JSON file)
//! by every node, exactly as in Bamboo. It is written as a struct update over
//! the Table-I defaults and checked by [`Config::validate`] where a run
//! starts:
//!
//! ```
//! use bamboo_types::{Config, SimDuration};
//!
//! let config = Config {
//!     nodes: 8,
//!     payload_size: 128,
//!     timeout: SimDuration::from_millis(50),
//!     seed: 7,
//!     ..Config::default()
//! };
//! config.validate().expect("valid config");
//! assert_eq!(config.quorum(), 6);
//! ```

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};

/// Which chained-BFT protocol a replica runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Three-chain HotStuff (chained HotStuff).
    HotStuff,
    /// Two-chain HotStuff (2CHS).
    TwoChainHotStuff,
    /// Streamlet (longest notarized chain, broadcast votes, echoing).
    Streamlet,
}

impl ProtocolKind {
    /// Short label used in benchmark output (matches the paper's figure
    /// legends: HS, 2CHS, SL).
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::HotStuff => "HS",
            ProtocolKind::TwoChainHotStuff => "2CHS",
            ProtocolKind::Streamlet => "SL",
        }
    }

    /// How many certified blocks a commit waits for, the committed block
    /// included: 3 for three-chain HotStuff, 2 for 2CHS and
    /// Streamlet (whose three notarized blocks commit the middle one). It is
    /// HotStuff's `k` in `bamboo_protocols::make_protocol` and the depth of
    /// the analytical model's commit delay.
    pub fn commit_depth(&self) -> usize {
        match self {
            ProtocolKind::HotStuff => 3,
            ProtocolKind::TwoChainHotStuff | ProtocolKind::Streamlet => 2,
        }
    }

    /// Every protocol that ships: the three the paper evaluates head-to-head.
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

/// A Byzantine seat: `node` runs `strategy` from `from` on (DESIGN.md §2.4),
/// an entry of [`Config::attacks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeatAttack {
    /// The attacking seat.
    pub node: NodeId,
    /// What it does from `from` on.
    pub strategy: ByzantineStrategy,
    /// When the attack starts.
    pub from: SimTime,
}

impl SeatAttack {
    /// Table I's `byzNo`/`strategy` pair as a list: seats `0..count` run
    /// `strategy` from time zero.
    pub fn first_seats(count: usize, strategy: ByzantineStrategy) -> Vec<SeatAttack> {
        let seat = |node| SeatAttack {
            node: NodeId(node as u64),
            strategy,
            from: SimTime::ZERO,
        };
        (0..count).map(seat).collect()
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
    /// Which seats attack, how, and from when (`byzNo` and `strategy`, as
    /// [`SeatAttack::first_seats`]): at most one entry per seat, at most f in
    /// all, and a seat without one is honest. Empty by default.
    pub attacks: Vec<SeatAttack>,
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
    /// spec key or check reads it.
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
            attacks: Vec::new(),
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
    /// Quorum threshold (`2f + 1`) for this configuration.
    pub fn quorum(&self) -> usize {
        crate::ids::quorum_threshold(self.nodes)
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::TypeError::InvalidConfig`] describing the first
    /// violated constraint: zero nodes; an attack on a seat outside the
    /// cluster, a second attack on one seat, an `Honest` attack or more than
    /// f of them; zero block size; an empty runtime; and so on.
    pub fn validate(&self) -> Result<(), crate::TypeError> {
        let invalid = |why: String| Err(crate::TypeError::InvalidConfig(why));
        if self.nodes == 0 {
            return invalid("nodes must be positive".into());
        }
        let (n, f) = (self.nodes, crate::ids::max_faults(self.nodes));
        for (at, attack) in self.attacks.iter().enumerate() {
            let why = if attack.node.index() >= n {
                "outside the cluster"
            } else if self.attacks[..at].iter().any(|a| a.node == attack.node) {
                "a second one on the seat"
            } else if attack.strategy == ByzantineStrategy::Honest {
                "honest"
            } else if at >= f {
                "more than f byzantine seats"
            } else {
                continue;
            };
            let seat = attack.node;
            return invalid(format!("attack on {seat}: {why} (n = {n}, f = {f})"));
        }
        if self.block_size == 0 {
            return invalid("block size must be positive".into());
        }
        if self.runtime.is_zero() {
            return invalid("runtime must be positive".into());
        }
        if self.checkpoint_interval == Some(0) {
            return invalid("checkpoint interval must be positive when set".into());
        }
        if self.client_population == Some(0) {
            return invalid("client population must be positive when set".into());
        }
        if self.fsync_interval == 0 {
            return invalid("fsync interval must be positive".into());
        }
        if self.segment_bytes < 4096 {
            return invalid("segment size must be at least 4096 bytes".into());
        }
        Ok(())
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
        assert!(c.attacks.is_empty(), "byzNo default");
        assert_eq!(
            c.leader_policy,
            LeaderPolicy::RoundRobin,
            "master=0 means rotating"
        );
        assert_eq!(c.extra_delay, SimDuration::ZERO, "delay default");
        // The client pipeline and durable storage are opt-in.
        assert_eq!(c.client_population, None);
        assert!(!c.signed_requests);
        assert!(
            !c.durable_log,
            "durability is opt-in: old fingerprints hold"
        );
        assert_eq!(c.fsync_interval, 8);
        assert_eq!(c.segment_bytes, 1 << 20);
        assert_eq!(c.checkpoint_interval, None);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad = [
            Config {
                nodes: 0,
                ..Config::default()
            },
            Config {
                nodes: 4,
                attacks: SeatAttack::first_seats(2, ByzantineStrategy::Silence),
                ..Config::default()
            },
            // A seat outside the cluster, a seat attacked twice, an honest
            // attack.
            Config {
                attacks: vec![attack(4, ByzantineStrategy::Silence)],
                ..Config::default()
            },
            Config {
                nodes: 7,
                attacks: vec![
                    attack(3, ByzantineStrategy::Silence),
                    attack(3, ByzantineStrategy::Forking),
                ],
                ..Config::default()
            },
            Config {
                attacks: vec![attack(1, ByzantineStrategy::Honest)],
                ..Config::default()
            },
            Config {
                block_size: 0,
                ..Config::default()
            },
            Config {
                runtime: SimDuration::ZERO,
                ..Config::default()
            },
            Config {
                checkpoint_interval: Some(0),
                ..Config::default()
            },
            Config {
                client_population: Some(0),
                ..Config::default()
            },
            Config {
                fsync_interval: 0,
                ..Config::default()
            },
            Config {
                segment_bytes: 100,
                ..Config::default()
            },
        ];
        for config in bad {
            assert!(config.validate().is_err(), "{config:?}");
        }
        // The bounds themselves are valid: f faulty seats (the last seat,
        // starting late, among them), a 4096-byte segment, a one-block
        // checkpoint cadence — and no attack at all.
        let late = SeatAttack {
            from: SimTime::ZERO + SimDuration::from_secs(10),
            ..attack(6, ByzantineStrategy::Forking)
        };
        let edge = Config {
            nodes: 7,
            attacks: vec![attack(0, ByzantineStrategy::Silence), late],
            checkpoint_interval: Some(1),
            segment_bytes: 4096,
            ..Config::default()
        };
        assert!(edge.validate().is_ok());
        assert!(Config::default().validate().is_ok());
    }

    fn attack(node: u64, strategy: ByzantineStrategy) -> SeatAttack {
        SeatAttack {
            node: NodeId(node),
            strategy,
            from: SimTime::ZERO,
        }
    }

    #[test]
    fn byzantine_membership_uses_low_ids() {
        let attacks = SeatAttack::first_seats(3, ByzantineStrategy::Silence);
        let seats: Vec<NodeId> = attacks.iter().map(|a| a.node).collect();
        assert_eq!(seats, [NodeId(0), NodeId(1), NodeId(2)]);
        assert!(attacks
            .iter()
            .all(|a| *a == attack(a.node.0, ByzantineStrategy::Silence)));
        assert!(SeatAttack::first_seats(0, ByzantineStrategy::Forking).is_empty());
    }

    #[test]
    fn protocol_labels_match_paper_legends() {
        assert_eq!(ProtocolKind::HotStuff.label(), "HS");
        assert_eq!(ProtocolKind::TwoChainHotStuff.label(), "2CHS");
        assert_eq!(ProtocolKind::Streamlet.label(), "SL");
        assert_eq!(ProtocolKind::evaluated().len(), 3);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for kind in ProtocolKind::evaluated() {
            assert_eq!(ProtocolKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_label("nope"), None);
        assert_eq!(ProtocolKind::from_label("OHS"), None);
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
        let c = Config {
            nodes: 8,
            seed: 3,
            ..Config::default()
        };
        let copy = c.clone();
        assert_eq!(c, copy);
        let mut other = c.clone();
        other.seed = 4;
        assert_ne!(c, other);
    }
}
