//! Pacemaker — the liveness module of the Bamboo architecture (§III-B).
//!
//! The pacemaker advances views and keeps "a sufficient number of honest
//! replicas in the same view for a sufficiently long period of time". The
//! implementation follows the LibraBFT-style design the paper adopts:
//!
//! * every replica arms a timer when it enters a view,
//! * if the timer fires before progress is made, the replica broadcasts a
//!   `⟨TIMEOUT, v⟩` vote carrying its highest QC,
//! * on collecting a quorum (`2f + 1`) of timeout votes for view `v` a
//!   [`bamboo_types::TimeoutCert`] is formed, the replica advances to `v + 1`
//!   and forwards the TC to the new leader,
//! * receiving a QC for view `v` also advances the replica to `v + 1`.
//!
//! The pacemaker is purely reactive: it never performs I/O, never reads a
//! clock and emits no effects. The runner owns time and feeds timer
//! expirations in; each [`Pacemaker`] method returns what it did — a timeout
//! vote to broadcast, a TC it formed, whether it entered a new view — and the
//! replica turns that into its own effects (entering the view, arming the
//! view's timer).
//!
//! Leader election ([`LeaderElection`]) also lives here because it is a pure
//! function of the view number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod election;
pub mod pacemaker;

pub use election::LeaderElection;
pub use pacemaker::Pacemaker;
