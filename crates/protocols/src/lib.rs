//! Chained-BFT protocol implementations — the Safety module of Bamboo.
//!
//! A cBFT protocol is characterised by four rules (§II-A of the paper):
//! *Proposing*, *Voting*, *State Updating* and *Commit*. The [`Safety`] trait
//! captures exactly those four rules plus a few bits of protocol metadata
//! (where votes are sent, whether messages are echoed, whether views are
//! epochs). Everything else — block storage, the pacemaker, quorum
//! collection, networking — is shared infrastructure provided by the other
//! crates, which is what makes the comparison between protocols
//! apples-to-apples. The rules are assembled from the kit in [`safety`], so a
//! protocol file states only what differs.
//!
//! Provided implementations:
//!
//! * [`ChainedSafety`] — chained HotStuff at commit depth `k`: HotStuff is
//!   `k` = 3 (the three-chain rule), two-chain HotStuff (2CHS) `k` = 2,
//! * [`StreamletSafety`] — Streamlet with broadcast votes, message echoing and
//!   the consecutive-view commit rule.
//!
//! Byzantine behaviour is not a fourth protocol: an [`Attack`] sits beside
//! the honest rules and can replace only the proposal (forking and silence,
//! §IV-A; QC forgery) and the votes put on the wire (vote forgery).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod hotstuff;
pub mod safety;
pub mod streamlet;

pub use byzantine::Attack;
pub use hotstuff::ChainedSafety;
pub use safety::{build_block, ProposalInput, Safety, VoteDestination};
pub use streamlet::StreamletSafety;

use bamboo_types::ProtocolKind;

/// Instantiates the [`Safety`] implementation for `kind`. HotStuff and 2CHS
/// are one rule set at the kind's [`ProtocolKind::commit_depth`].
pub fn make_protocol(kind: ProtocolKind) -> Box<dyn Safety> {
    match kind {
        ProtocolKind::HotStuff | ProtocolKind::TwoChainHotStuff => {
            Box::new(ChainedSafety::new(kind.commit_depth()))
        }
        ProtocolKind::Streamlet => Box::new(StreamletSafety::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::testutil::chain3;

    /// Each kind's metadata and commit depth on a certified chain
    /// g <- a <- b <- c: the three-chain protocols commit `a` on c's QC, the
    /// two-chain ones (and Streamlet's "first two of three") commit `b` —
    /// the block [`ProtocolKind::commit_depth`] − 1 below the tip.
    #[test]
    fn factory_builds_the_protocol_it_names() {
        use VoteDestination::{Broadcast, NextLeader};
        let (forest, ids) = chain3();
        let qc_c = forest.qc_of(ids[2]).cloned().unwrap();
        for (kind, destination, echo, commits) in [
            (ProtocolKind::HotStuff, NextLeader, false, ids[0]),
            (ProtocolKind::TwoChainHotStuff, NextLeader, false, ids[1]),
            (ProtocolKind::Streamlet, Broadcast, true, ids[1]),
        ] {
            let mut protocol = make_protocol(kind);
            assert_eq!(protocol.vote_destination(), destination, "{kind:?}");
            assert_eq!(protocol.echo_messages(), echo, "{kind:?}");
            assert_eq!(protocol.epoch_based(), echo, "{kind:?}: only Streamlet");
            protocol.update_state(&qc_c, &forest);
            assert_eq!(
                protocol.try_commit(&qc_c, &forest),
                Some(commits),
                "{kind:?}"
            );
            assert_eq!(ids[3 - kind.commit_depth()], commits, "{kind:?}");
        }
    }
}
