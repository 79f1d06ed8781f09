//! Chained-BFT protocol implementations — the Safety module of Bamboo.
//!
//! A cBFT protocol is characterised by four rules (§II-A of the paper):
//! *Proposing*, *Voting*, *State Updating* and *Commit*. The [`Safety`] trait
//! captures exactly those four rules plus a few bits of protocol metadata
//! (where votes are sent, whether messages are echoed, responsiveness).
//! Everything else — block storage, the pacemaker, quorum collection,
//! networking — is shared infrastructure provided by the other crates, which
//! is what makes the comparison between protocols apples-to-apples. The rules
//! are assembled from the kit in [`safety`], so a protocol file states only
//! what differs.
//!
//! Provided implementations:
//!
//! * [`HotStuffSafety`] — chained HotStuff with the three-chain commit rule,
//! * [`TwoChainHotStuffSafety`] — the two-chain variant (2CHS),
//! * [`StreamletSafety`] — Streamlet with broadcast votes, message echoing and
//!   the consecutive-view commit rule,
//! * [`OhsSafety`] — an independent HotStuff implementation used as the
//!   "original HotStuff" baseline of Fig. 9 (deliberately *not* built on the
//!   kit: it is the reference the kit-built HotStuff is compared against).
//!
//! Byzantine behaviour is not a fifth protocol: an [`Attack`] sits beside
//! the honest rules and can replace only the proposal (forking and silence,
//! §IV-A; QC forgery) and the votes put on the wire (vote forgery).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod hotstuff;
pub mod ohs;
pub mod safety;
pub mod streamlet;
pub mod twochain;

pub use byzantine::Attack;
pub use hotstuff::HotStuffSafety;
pub use ohs::OhsSafety;
pub use safety::{build_block, ProposalInput, Safety, VoteDestination};
pub use streamlet::StreamletSafety;
pub use twochain::TwoChainHotStuffSafety;

use bamboo_types::ProtocolKind;

/// Instantiates the [`Safety`] implementation for `kind`.
pub fn make_protocol(kind: ProtocolKind) -> Box<dyn Safety> {
    match kind {
        ProtocolKind::HotStuff => Box::new(HotStuffSafety::new()),
        ProtocolKind::TwoChainHotStuff => Box::new(TwoChainHotStuffSafety::new()),
        ProtocolKind::Streamlet => Box::new(StreamletSafety::new()),
        ProtocolKind::OriginalHotStuff => Box::new(OhsSafety::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::testutil::chain3;

    /// Each kind's metadata and commit depth on a certified chain
    /// g <- a <- b <- c: the three-chain protocols commit `a` on c's QC, the
    /// two-chain ones (and Streamlet's "first two of three") commit `b`.
    #[test]
    fn factory_builds_the_protocol_it_names() {
        use VoteDestination::{Broadcast, NextLeader};
        let (forest, ids) = chain3();
        let qc_c = forest.qc_of(ids[2]).cloned().unwrap();
        for (kind, destination, echo, responsive, commits) in [
            (ProtocolKind::HotStuff, NextLeader, false, true, ids[0]),
            (
                ProtocolKind::TwoChainHotStuff,
                NextLeader,
                false,
                false,
                ids[1],
            ),
            (ProtocolKind::Streamlet, Broadcast, true, false, ids[1]),
            (
                ProtocolKind::OriginalHotStuff,
                NextLeader,
                false,
                true,
                ids[0],
            ),
        ] {
            let mut protocol = make_protocol(kind);
            assert_eq!(protocol.vote_destination(), destination, "{kind:?}");
            assert_eq!(protocol.echo_messages(), echo, "{kind:?}");
            assert_eq!(protocol.is_responsive(), responsive, "{kind:?}");
            assert_eq!(protocol.epoch_based(), echo, "{kind:?}: only Streamlet");
            protocol.update_state(&qc_c, &forest);
            assert_eq!(
                protocol.try_commit(&qc_c, &forest),
                Some(commits),
                "{kind:?}"
            );
        }
    }
}
