//! bamboo-core — the Bamboo framework assembled.
//!
//! This crate wires the shared modules (block forest, mempool, pacemaker,
//! quorum, safety/protocols, network simulation) into runnable replicas and
//! provides the benchmark facilities of the paper:
//!
//! * [`Replica`] — the event-driven replica node: a pure state machine that
//!   consumes verified messages, admitted transactions and local deadlines
//!   ([`ReplicaEvent`]), writes its effects into the host's [`Transport`]
//!   and returns CPU-cost accounting, so the same code runs on the
//!   deterministic simulator and on the live backends.
//! * [`QuorumTracker`] — the Quorum component (`voted()` / `certified()`).
//! * [`SimRunner`] — the discrete-event simulation runner: network latency,
//!   NIC and CPU models, workload generation, fault injection. It shows
//!   every replica step to one observer, which keeps the run's books and
//!   writes the [`RunReport`].
//! * [`Benchmarker`] — saturation sweeps producing the latency/throughput
//!   curves of the paper's figures; independent sweep points execute on a
//!   bounded std-thread pool ([`parallel`]) with input-order results.
//! * [`Metrics`] / [`RunReport`] — throughput, latency, chain growth rate and
//!   block interval (§IV-B).
//! * [`Scenario`] — the scenario engine: declarative experiment specs (JSON)
//!   describing topology, workload, Byzantine strategy and a fault schedule,
//!   compiled into simulator runs and audited into [`ScenarioReport`]s.
//! * [`runtime`] — the shared runtime spine: the [`Transport`] trait and the
//!   [`NodeHost`] driver both deployment backends are built on. The host is
//!   also the authenticated ingress stage: a message reaches the replica
//!   only with a `VerifiedMessage` proof token, and a client transaction
//!   only inside a `VerifiedRequests` token.
//! * [`verify::VerifyPool`] — the threaded runtime's verification worker
//!   pool: signature checking runs on dedicated threads and pipelines with
//!   consensus instead of serialising onto it.
//! * [`threaded::ThreadedCluster`] — a live, multi-threaded in-process cluster
//!   used by the examples and the cross-runtime agreement tests.
//!
//! # Quickstart
//!
//! ```
//! use bamboo_core::{RunOptions, SimRunner};
//! use bamboo_types::{Config, ProtocolKind, SimDuration};
//!
//! let config = Config::builder()
//!     .nodes(4)
//!     .block_size(100)
//!     .runtime(SimDuration::from_millis(200))
//!     .arrival_rate(5_000.0)
//!     .build()
//!     .expect("valid config");
//! let report = SimRunner::new(config, ProtocolKind::HotStuff, RunOptions::default()).run();
//! assert!(report.committed_blocks > 0);
//! assert_eq!(report.safety_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
mod durability;
pub mod live;
pub mod metrics;
mod observe;
pub mod parallel;
pub mod quorum;
pub mod replica;
pub mod runner;
pub mod runtime;
pub mod scenario;
pub mod storage;
mod sync;
pub mod threaded;
pub mod verify;
pub mod workload;

pub use bamboo_sim::{DelayDist, FluctuationWindow, LinkFault, Topology};
pub use benchmark::{Benchmarker, CurvePoint, SweepOptions};
pub use live::ClusterReport;
pub use metrics::{
    LatencyStats, MempoolTotals, Metrics, RecoveryReport, RecoveryStats, RunReport,
    ThroughputSample, Utilization,
};
pub use parallel::run_ordered;
pub use quorum::QuorumTracker;
pub use replica::{Replica, ReplicaOptions};
pub use runner::{FaultTrigger, NodeFault, RunOptions, SimRunner};
pub use runtime::{BufferedTransport, NodeHost, RecoverMode, ReplicaEvent, StepReport, Transport};
pub use scenario::{Expectations, Scenario, ScenarioReport, ScenarioRun};
pub use storage::{
    DecodedStream, FileBackend, MemoryBackend, Record, RecordKind, ReplayResult, SegmentBackend,
    SegmentLog, StorageFault,
};
pub use threaded::{ThreadedCluster, DEFAULT_VERIFY_WORKERS};
pub use verify::{VerifyHandle, VerifyPool};
pub use workload::{Arrival, ClosedLoopWorkload, OpenLoopWorkload, Workload, CLIENT_ID_BASE};
