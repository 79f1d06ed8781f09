//! Real-socket seat links: chained-BFT replicas talking over TCP.
//!
//! The simulation backend ([`bamboo_core::runner`]) measures protocol
//! behaviour under a modelled network; the one live cluster
//! ([`bamboo_core::live::LiveCluster`]) runs real concurrency on the wall
//! clock. This crate adds its two socket links: replicas exchanging
//! length-prefixed frames over real TCP connections, with the send/receive
//! split a deployment needs — per-peer writer threads draining bounded
//! outbound queues, reader threads feeding a per-node verify pool — so the
//! consensus thread never blocks on a socket.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — the `[u32 len][u8 kind][payload]` framing (the storage
//!   record discipline applied to sockets) and the small control-frame
//!   vocabulary (challenge, hello, peer table, client batch, status probe,
//!   shutdown); consensus messages ride the canonical [`bamboo_types::wire`]
//!   codec.
//! * [`peer`] — one outbound link: a bounded queue drained by a writer
//!   thread that owns connect, the signed hello, exponential-backoff retry
//!   and reconnect. While a peer is down its frames are dropped and counted,
//!   never buffered unboundedly — chained BFT tolerates loss by design
//!   (timeouts and the sync protocol), so the queue models a real NIC, not a
//!   log.
//! * [`node`] — one replica: listener, challenged readers, verify pool, the
//!   shared live driver ([`bamboo_core::live::run_live_node`]) as its
//!   consensus thread, and the [`bamboo_core::live::Link`] impl that turns
//!   sends into frames.
//! * [`cluster`] — the loopback-socket link ([`Sockets`], aliased
//!   [`TcpCluster`]): every node in this process, real sockets between them.
//! * [`process`] — the child-process link ([`Processes`]): one process per
//!   seat, its seat and `Config` handed over as a scenario document, driven
//!   over the same frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod node;
pub mod peer;
pub mod process;

pub use bamboo_core::live::{NodeNetStats, PeerStats};
pub use cluster::{Sockets, TcpCluster, TcpClusterReport};
pub use frame::{Frame, FrameDecoder, FrameError, FrameKind, StatusReply, CLIENT_SENDER};
pub use node::{TcpNode, DEFAULT_NODE_VERIFY_WORKERS};
pub use peer::{BackoffPolicy, PeerSender};
pub use process::{maybe_run_replica, Processes, REPLICA_ENV};
