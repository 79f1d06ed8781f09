//! Discrete-event simulation substrate for bamboo-rs.
//!
//! The original Bamboo deploys replicas on cloud VMs connected by TCP. This
//! crate replaces that deployment substrate with a deterministic
//! discrete-event simulator whose delay composition follows the paper's own
//! performance model (§V):
//!
//! * a pending-event queue ordered by simulated time ([`EventQueue`]),
//! * a network latency model with normally distributed one-way delays drawn
//!   per link from a heterogeneous [`Topology`] (regions + per-link
//!   overrides; a uniform topology reproduces the paper's §V-A2 network),
//!   configurable added delay (the Table-I `delay` knob), run-time network
//!   fluctuation windows and partitions ([`LatencyModel`]),
//! * a NIC/bandwidth model charging `2·m/b` per message ([`NicModel`]),
//! * a CPU model charging a constant `t_CPU` per cryptographic operation
//!   ([`CpuModel`]),
//! * a deterministic RNG seeded from the run configuration ([`SimRng`]).
//!
//! All components are pure data + sampling; the orchestration loop lives in
//! `bamboo-core::runner`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod latency;
pub mod nic;
pub mod queue;
pub mod rng;
pub mod topology;

pub use cpu::CpuModel;
pub use latency::{FluctuationWindow, LatencyModel, LinkFault};
pub use nic::NicModel;
pub use queue::{EventQueue, Popped};
pub use rng::SimRng;
pub use topology::{DelayDist, Topology};
