//! Real-socket transport backend: chained-BFT replicas talking over TCP.
//!
//! The simulation backend ([`bamboo_core::runner`]) measures protocol
//! behaviour under a modelled network; the threaded backend
//! ([`bamboo_core::threaded`]) runs real concurrency over in-process
//! channels. This crate adds the third rung: replicas exchanging
//! length-prefixed frames over real TCP connections, with the send/receive
//! split a deployment needs — per-peer writer threads draining bounded
//! outbound queues, reader threads feeding a per-node verify pool — so the
//! consensus thread never blocks on a socket.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — the `[u32 len][u8 kind][payload]` framing (the storage
//!   record discipline applied to sockets) and the small control-frame
//!   vocabulary (hello, peer table, client batch, status probe, shutdown);
//!   consensus messages ride the canonical [`bamboo_types::wire`] codec.
//! * [`peer`] — one outbound link: a bounded queue drained by a writer
//!   thread that owns connect, exponential-backoff retry and reconnect.
//!   While a peer is down its frames are dropped and counted, never
//!   buffered unboundedly — chained BFT tolerates loss by design (timeouts
//!   and the sync protocol), so the queue models a real NIC, not a log.
//! * [`node`] — one replica: listener, readers, verify pool, the shared
//!   live driver ([`bamboo_core::live::run_live_node`]) as its consensus
//!   thread, and the [`bamboo_core::live::Link`] impl that turns sends into
//!   frames.
//! * [`cluster`] — same-process loopback cluster (every node in one
//!   process, real sockets between them); the agreement tests' harness.
//! * [`process`] — one process per replica: spec via environment variable,
//!   `PORT`/`REPORT` stdout protocol, and the driver that distributes the
//!   peer table, submits load, probes progress and collects reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod node;
pub mod peer;
pub mod process;

pub use cluster::{TcpCluster, TcpClusterReport};
pub use frame::{Frame, FrameDecoder, FrameError, FrameKind, StatusReply, CLIENT_SENDER};
pub use node::{NodeNetStats, TcpNode, TcpNodeReport, DEFAULT_NODE_VERIFY_WORKERS};
pub use peer::{BackoffPolicy, PeerSender, PeerStats};
pub use process::{maybe_run_replica, ClusterSpec, ProcessCluster, ReplicaSpec, REPLICA_ENV};
