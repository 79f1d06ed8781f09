//! # Bamboo-rs
//!
//! A Rust reproduction of **Bamboo**, the prototyping and evaluation framework
//! for chained-BFT (cBFT) protocols from *Dissecting the Performance of
//! Chained-BFT* (ICDCS 2021).
//!
//! This crate is a convenience facade that re-exports the workspace crates
//! under one roof. The layering is:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `bamboo-types` | blocks, QCs, messages, Table-I configuration |
//! | [`crypto`] | `bamboo-crypto` | SHA-256, simulated signatures, aggregation |
//! | [`forest`] | `bamboo-forest` | block forest, the `k`-chain predicate, ledger |
//! | [`mempool`] | `bamboo-mempool` | bidirectional-queue memory pool |
//! | [`pacemaker`] | `bamboo-pacemaker` | view synchronisation, leader election |
//! | [`protocols`] | `bamboo-protocols` | Safety rules on one rule kit: HotStuff, 2CHS, Streamlet, …; the `Attack` type |
//! | [`sim`] | `bamboo-sim` | discrete-event engine, latency/NIC/CPU models |
//! | [`core`] | `bamboo-core` | replica, quorum, workload, the simulation runner, `run_all` (the one experiment runner), the one live cluster |
//! | [`net`] | `bamboo-net` | TCP transport: framing, reconnecting peers, the socket and process links |
//! | [`model`] | `bamboo-model` | analytical queuing model (§V of the paper) |
//!
//! # Example
//!
//! Run a 4-node HotStuff deployment on the deterministic simulator and check
//! that it commits transactions:
//!
//! ```
//! use bamboo::core::{RunOptions, SimRunner};
//! use bamboo::types::{Config, ProtocolKind, SimDuration};
//!
//! let config = Config {
//!     nodes: 4,
//!     block_size: 100,
//!     runtime: SimDuration::from_millis(200),
//!     arrival_rate: Some(5_000.0),
//!     ..Config::default()
//! };
//! let report = SimRunner::new(config, ProtocolKind::HotStuff, RunOptions::default()).run();
//! assert!(report.committed_txs > 0);
//! assert_eq!(report.safety_violations, 0);
//! ```
//!
//! # The replica boundary, by type
//!
//! A message reaches a replica only with a `VerifiedMessage` proof token
//! (`NodeHost::deliver`); a replica event is a local deadline, never a
//! message:
//!
//! ```compile_fail
//! fn is_message(event: &bamboo::core::ReplicaEvent) -> bool {
//!     matches!(event, bamboo::core::ReplicaEvent::Message { .. })
//! }
//! ```
//!
//! A message carries only what one replica sends another; transactions
//! enter through the edge check (`NodeHost::admit`), never the wire. The one
//! message that carries transactions, `Message::Handoff`, copies a batch its
//! sender already admitted there:
//!
//! ```compile_fail
//! fn is_request(message: &bamboo::types::Message) -> bool {
//!     matches!(message, bamboo::types::Message::Request(_))
//! }
//! ```
//!
//! A relay is the author's own message re-broadcast, told apart by the
//! envelope's sender; it has no variant of its own:
//!
//! ```compile_fail
//! fn is_relay(message: &bamboo::types::Message) -> bool {
//!     matches!(message, bamboo::types::Message::ProposalEcho(_))
//! }
//! ```
//!
//! The pacemaker says what it did, and the replica spells every effect as a
//! call on the host's one `BufferedTransport`; there is no second vocabulary
//! of actions:
//!
//! ```compile_fail
//! fn pending() -> Vec<bamboo::pacemaker::PacemakerAction> {
//!     Vec::new()
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Core data types: blocks, certificates, messages, configuration.
pub mod types {
    pub use bamboo_types::*;
}

/// Cryptographic primitives (SHA-256, simulated signatures).
pub mod crypto {
    pub use bamboo_crypto::*;
}

/// Block forest storage and the committed ledger.
pub mod forest {
    pub use bamboo_forest::*;
}

/// The memory pool.
pub mod mempool {
    pub use bamboo_mempool::*;
}

/// Pacemaker (view synchronisation) and leader election.
pub mod pacemaker {
    pub use bamboo_pacemaker::*;
}

/// Chained-BFT protocol implementations and Byzantine strategies.
pub mod protocols {
    pub use bamboo_protocols::*;
}

/// Discrete-event simulation substrate.
pub mod sim {
    pub use bamboo_sim::*;
}

/// Replica, simulation runner, workload generation and the experiment runner.
pub mod core {
    pub use bamboo_core::*;
}

/// TCP transport backend: framed sockets, reconnecting peer links, loopback
/// clusters (same-process and one-process-per-replica).
pub mod net {
    pub use bamboo_net::*;
}

/// Analytical performance model.
pub mod model {
    pub use bamboo_model::*;
}
