//! Core data types shared by every crate in the bamboo-rs workspace.
//!
//! This crate defines the vocabulary of a chained-BFT (cBFT) system as
//! described in *Dissecting the Performance of Chained-BFT* (ICDCS 2021):
//!
//! * identifiers — [`NodeId`], [`View`], [`Height`], [`BlockId`],
//! * payload — [`Transaction`], [`Block`],
//! * certificates — [`Vote`], [`QuorumCert`], [`TimeoutVote`], [`TimeoutCert`],
//! * the wire [`Message`] enum exchanged by replicas and clients,
//! * the canonical binary codec for blocks, certificates and messages —
//!   [`wire`] — shared by checkpoint images, durable log records and the TCP
//!   transport frames,
//! * the authenticated ingress stage — [`Authenticator`] verifies every
//!   inbound message against the validator set and mints [`VerifiedMessage`]
//!   proof tokens (and [`VerifiedRequests`] for client arrival batches);
//!   forgeries are rejected with a typed [`AuthError`],
//! * simulated time — [`SimTime`], [`SimDuration`],
//! * the Table-I [`Config`] surface,
//! * a dependency-free JSON document model — [`Json`] / [`ToJson`] — used by
//!   the bench artifacts and the scenario-spec files.
//!
//! Everything here is a plain, serialisable data structure; behaviour lives in
//! the other crates (`bamboo-forest`, `bamboo-protocols`, `bamboo-core`, ...).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod block;
pub mod bytes;
pub mod certificate;
pub mod config;
pub mod error;
pub mod ids;
pub mod json;
pub mod message;
pub mod time;
pub mod transaction;
pub mod wire;

pub use auth::{AuthError, Authenticator, VerifiedMessage, VerifiedRequests};
// Tables keyed by a `TxId` or `BlockId` hash with the digest hasher.
pub use bamboo_crypto::{DigestBuildHasher, DigestMap, DigestSet};
pub use block::{Block, BlockId, SharedBlock};
pub use bytes::Bytes;
pub use certificate::{QuorumCert, TimeoutCert, TimeoutVote, Vote};
pub use config::{ByzantineStrategy, Config, ConfigBuilder, LeaderPolicy, ProtocolKind};
pub use error::TypeError;
pub use ids::{Height, NodeId, View};
pub use json::{Json, ToJson};
pub use message::{ClientRequest, Message, SharedMessage, SyncRequest, SyncResponse};
pub use time::{SimDuration, SimTime};
pub use transaction::{Transaction, TxId};
pub use wire::{WireCursor, WireError};
