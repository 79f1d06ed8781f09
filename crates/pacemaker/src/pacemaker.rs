//! The view-synchronisation state machine.

use std::collections::BTreeMap;

use bamboo_crypto::KeyPair;
use bamboo_types::{
    ids::quorum_threshold, NodeId, QuorumCert, SimDuration, TimeoutCert, TimeoutVote, View,
};

/// Per-replica pacemaker.
///
/// Drives view advancement from three inputs: local timer expirations,
/// received timeout votes, and observed QCs/TCs. Each input method says what
/// it did — the timeout vote to broadcast, the TC it formed, whether it
/// entered a new view — and the replica acts on that: it enters the view and
/// arms the view's timer, `now +` [`Pacemaker::timeout`].
#[derive(Debug)]
pub struct Pacemaker {
    node: NodeId,
    nodes: usize,
    timeout: SimDuration,
    current_view: View,
    /// Highest view for which we already broadcast a timeout vote.
    last_timeout_broadcast: Option<View>,
    /// Timeout votes collected per view (pruned once the view is passed).
    timeout_votes: BTreeMap<View, Vec<TimeoutVote>>,
    /// Number of view changes caused by timeouts (for metrics).
    timeout_view_changes: u64,
}

impl Pacemaker {
    /// Creates a pacemaker for `node` in a system of `nodes` replicas with the
    /// given view timeout. The replica starts in view 1 (view 0 is genesis).
    pub fn new(node: NodeId, nodes: usize, timeout: SimDuration) -> Self {
        Self {
            node,
            nodes,
            timeout,
            current_view: View(1),
            last_timeout_broadcast: None,
            timeout_votes: BTreeMap::new(),
            timeout_view_changes: 0,
        }
    }

    /// The replica's current view.
    pub fn current_view(&self) -> View {
        self.current_view
    }

    /// The configured view timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Number of view changes that were caused by timeouts rather than QCs.
    pub fn timeout_view_changes(&self) -> u64 {
        self.timeout_view_changes
    }

    /// Handles a local timer expiration for `view`. If the replica is still in
    /// that view, it gives up and returns the timeout vote, carrying its
    /// highest QC, to sign and broadcast; a repeated timer returns `None`, as
    /// would one for a left view, which no backend's deadline book fires.
    pub fn on_timer(
        &mut self,
        view: View,
        high_qc: QuorumCert,
        keypair: &KeyPair,
    ) -> Option<TimeoutVote> {
        if view != self.current_view || self.last_timeout_broadcast == Some(view) {
            return None;
        }
        self.last_timeout_broadcast = Some(view);
        Some(TimeoutVote::new(view, self.node, high_qc, keypair))
    }

    /// Handles a timeout vote received from the network (our own broadcast is
    /// also fed back through this path). When a quorum of timeout votes for
    /// the current (or a later) view accumulates, a TC forms: the pacemaker
    /// enters the view after it and returns the TC.
    ///
    /// A view's TC forms once: entering the next view prunes the view's
    /// votes, and votes below the current view are refused.
    pub fn on_timeout_vote(&mut self, vote: &TimeoutVote) -> Option<TimeoutCert> {
        if vote.view < self.current_view {
            return None;
        }
        let entry = self.timeout_votes.entry(vote.view).or_default();
        if entry.iter().any(|v| v.voter == vote.voter) {
            return None;
        }
        entry.push(vote.clone());
        if entry.len() < quorum_threshold(self.nodes) {
            return None;
        }
        let tc = TimeoutCert::from_votes(vote.view, entry);
        self.timeout_view_changes += 1;
        self.enter_view(vote.view.next());
        Some(tc)
    }

    /// Handles a timeout certificate received directly (e.g. forwarded by
    /// another replica that formed it first). Returns whether it entered a
    /// new view.
    pub fn on_timeout_cert(&mut self, tc: &TimeoutCert) -> bool {
        if tc.view.next() <= self.current_view {
            return false;
        }
        self.timeout_view_changes += 1;
        self.enter_view(tc.view.next());
        true
    }

    /// Handles an observed QC: a QC for view `v` lets the replica advance to
    /// `v + 1` (the happy-path view change). Returns whether it entered a new
    /// view.
    pub fn on_qc(&mut self, qc: &QuorumCert) -> bool {
        if qc.view.next() <= self.current_view {
            return false;
        }
        self.enter_view(qc.view.next());
        true
    }

    fn enter_view(&mut self, view: View) {
        debug_assert!(view > self.current_view);
        self.current_view = view;
        // Garbage-collect vote buffers for passed views.
        self.timeout_votes = self.timeout_votes.split_off(&view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<KeyPair> {
        (0..n).map(KeyPair::from_seed).collect()
    }

    fn make(node: u64, nodes: usize) -> Pacemaker {
        Pacemaker::new(NodeId(node), nodes, SimDuration::from_millis(100))
    }

    #[test]
    fn starts_in_view_one_with_the_configured_timeout() {
        let pm = make(0, 4);
        assert_eq!(pm.current_view(), View(1));
        assert_eq!(pm.timeout(), SimDuration::from_millis(100));
    }

    #[test]
    fn timer_expiry_broadcasts_timeout_once() {
        let kps = keys(4);
        let mut pm = make(0, 4);
        let vote = pm.on_timer(View(1), QuorumCert::genesis(), &kps[0]);
        assert_eq!(vote.map(|v| (v.view, v.voter)), Some((View(1), NodeId(0))));
        // A duplicate timer for the same view does nothing.
        assert!(pm
            .on_timer(View(1), QuorumCert::genesis(), &kps[0])
            .is_none());
        // A stale timer for an old view does nothing either.
        assert!(pm
            .on_timer(View(0), QuorumCert::genesis(), &kps[0])
            .is_none());
    }

    #[test]
    fn quorum_of_timeouts_forms_tc_and_advances() {
        let kps = keys(4);
        let mut pm = make(0, 4);
        let mut produced_tc = None;
        for i in 0..3u64 {
            let vote =
                TimeoutVote::new(View(1), NodeId(i), QuorumCert::genesis(), &kps[i as usize]);
            let tc = pm.on_timeout_vote(&vote);
            if i < 2 {
                assert!(tc.is_none(), "no TC before quorum");
            } else {
                produced_tc = tc;
            }
        }
        let tc = produced_tc.expect("tc formed");
        assert_eq!(tc.view, View(1));
        assert_eq!(tc.signer_count(), 3);
        assert_eq!(pm.current_view(), View(2));
        assert_eq!(pm.timeout_view_changes(), 1);
        // A fourth vote for the view is stale now: no second TC.
        let late = TimeoutVote::new(View(1), NodeId(3), QuorumCert::genesis(), &kps[3]);
        assert!(pm.on_timeout_vote(&late).is_none());
        assert_eq!(pm.timeout_view_changes(), 1);
    }

    #[test]
    fn duplicate_timeout_votes_are_ignored() {
        let kps = keys(4);
        let mut pm = make(0, 4);
        let vote = TimeoutVote::new(View(1), NodeId(1), QuorumCert::genesis(), &kps[1]);
        for _ in 0..3 {
            assert!(pm.on_timeout_vote(&vote).is_none());
        }
        assert_eq!(pm.current_view(), View(1), "one voter cannot force a TC");
    }

    #[test]
    fn qc_advances_view() {
        let mut pm = make(0, 4);
        let qc = QuorumCert {
            block: Default::default(),
            view: View(3),
            signatures: Default::default(),
        };
        assert!(pm.on_qc(&qc));
        assert_eq!(pm.current_view(), View(4));
        // An older QC does nothing.
        let old = QuorumCert {
            block: Default::default(),
            view: View(1),
            signatures: Default::default(),
        };
        assert!(!pm.on_qc(&old));
        assert_eq!(pm.timeout_view_changes(), 0);
    }

    #[test]
    fn forwarded_tc_advances_lagging_replica() {
        let kps = keys(4);
        let mut pm = make(3, 4);
        let votes: Vec<TimeoutVote> = (0..3)
            .map(|i| TimeoutVote::new(View(5), NodeId(i), QuorumCert::genesis(), &kps[i as usize]))
            .collect();
        let tc = TimeoutCert::from_votes(View(5), &votes);
        assert!(pm.on_timeout_cert(&tc));
        assert_eq!(pm.current_view(), View(6));
        // Re-delivering the same TC is a no-op.
        assert!(!pm.on_timeout_cert(&tc));
    }

    #[test]
    fn stale_timeout_votes_for_past_views_are_dropped() {
        let kps = keys(4);
        let mut pm = make(0, 4);
        let qc = QuorumCert {
            block: Default::default(),
            view: View(9),
            signatures: Default::default(),
        };
        pm.on_qc(&qc);
        assert_eq!(pm.current_view(), View(10));
        let vote = TimeoutVote::new(View(3), NodeId(1), QuorumCert::genesis(), &kps[1]);
        assert!(pm.on_timeout_vote(&vote).is_none());
    }
}
