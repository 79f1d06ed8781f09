//! The view-synchronisation state machine.

use std::collections::BTreeMap;

use bamboo_crypto::KeyPair;
use bamboo_types::{
    ids::quorum_threshold, NodeId, QuorumCert, SimDuration, SimTime, TimeoutCert, TimeoutVote, View,
};

/// Actions the pacemaker asks the replica to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum PacemakerAction {
    /// Broadcast this timeout vote to every replica.
    BroadcastTimeout(TimeoutVote),
    /// A timeout certificate formed; enter `new_view` and forward the TC to
    /// that view's leader.
    NewView {
        /// The view to enter.
        new_view: View,
        /// The TC that justifies entering it (None when the view advanced
        /// because of a QC rather than a TC).
        tc: Option<TimeoutCert>,
    },
    /// Re-arm the local view timer: schedule a timer event for `deadline`.
    ScheduleTimer {
        /// The view the timer guards.
        view: View,
        /// Absolute simulated time at which it fires.
        deadline: SimTime,
    },
}

/// Per-replica pacemaker.
///
/// Drives view advancement from three inputs: local timer expirations,
/// received timeout votes, and observed QCs/TCs. All outputs are returned as
/// [`PacemakerAction`]s for the replica to execute.
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
    /// Views for which a TC was already emitted (to avoid duplicates).
    tc_emitted: BTreeMap<View, bool>,
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
            tc_emitted: BTreeMap::new(),
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

    /// Called when the replica enters a view (at start-up and after every view
    /// change): returns the timer-arming action.
    pub fn arm_timer(&self, now: SimTime) -> PacemakerAction {
        PacemakerAction::ScheduleTimer {
            view: self.current_view,
            deadline: now + self.timeout,
        }
    }

    /// Handles a local timer expiration for `view`. If the replica is still in
    /// that view, it gives up and broadcasts a timeout vote carrying its
    /// highest QC; stale timers are ignored.
    pub fn on_timer(
        &mut self,
        view: View,
        high_qc: QuorumCert,
        keypair: &KeyPair,
    ) -> Vec<PacemakerAction> {
        if view != self.current_view {
            return Vec::new();
        }
        if self.last_timeout_broadcast == Some(view) {
            return Vec::new();
        }
        self.last_timeout_broadcast = Some(view);
        let vote = TimeoutVote::new(view, self.node, high_qc, keypair);
        vec![PacemakerAction::BroadcastTimeout(vote)]
    }

    /// Handles a timeout vote received from the network (our own broadcast is
    /// also fed back through this path). When a quorum of timeout votes for
    /// the current (or a later) view accumulates, a TC forms and the replica
    /// advances.
    pub fn on_timeout_vote(&mut self, vote: &TimeoutVote, now: SimTime) -> Vec<PacemakerAction> {
        if vote.view < self.current_view {
            return Vec::new();
        }
        let entry = self.timeout_votes.entry(vote.view).or_default();
        if entry.iter().any(|v| v.voter == vote.voter) {
            return Vec::new();
        }
        entry.push(vote.clone());
        if entry.len() >= quorum_threshold(self.nodes)
            && !self.tc_emitted.get(&vote.view).copied().unwrap_or(false)
        {
            self.tc_emitted.insert(vote.view, true);
            let tc = TimeoutCert::from_votes(vote.view, entry);
            self.timeout_view_changes += 1;
            let mut actions = self.enter_view(vote.view.next(), now);
            actions.insert(
                0,
                PacemakerAction::NewView {
                    new_view: vote.view.next(),
                    tc: Some(tc),
                },
            );
            return actions;
        }
        Vec::new()
    }

    /// Handles a timeout certificate received directly (e.g. forwarded by
    /// another replica that formed it first).
    pub fn on_timeout_cert(&mut self, tc: &TimeoutCert, now: SimTime) -> Vec<PacemakerAction> {
        if tc.view.next() <= self.current_view {
            return Vec::new();
        }
        self.timeout_view_changes += 1;
        let mut actions = self.enter_view(tc.view.next(), now);
        actions.insert(
            0,
            PacemakerAction::NewView {
                new_view: tc.view.next(),
                tc: Some(tc.clone()),
            },
        );
        actions
    }

    /// Handles an observed QC: a QC for view `v` lets the replica advance to
    /// `v + 1` (the happy-path view change).
    pub fn on_qc(&mut self, qc: &QuorumCert, now: SimTime) -> Vec<PacemakerAction> {
        if qc.view.next() <= self.current_view {
            return Vec::new();
        }
        let mut actions = self.enter_view(qc.view.next(), now);
        actions.insert(
            0,
            PacemakerAction::NewView {
                new_view: qc.view.next(),
                tc: None,
            },
        );
        actions
    }

    fn enter_view(&mut self, view: View, now: SimTime) -> Vec<PacemakerAction> {
        debug_assert!(view > self.current_view);
        self.current_view = view;
        // Garbage-collect vote buffers for passed views.
        self.timeout_votes = self.timeout_votes.split_off(&view);
        self.tc_emitted = self.tc_emitted.split_off(&view);
        vec![self.arm_timer(now)]
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
    fn starts_in_view_one_and_arms_timer() {
        let pm = make(0, 4);
        assert_eq!(pm.current_view(), View(1));
        match pm.arm_timer(SimTime(5)) {
            PacemakerAction::ScheduleTimer { view, deadline } => {
                assert_eq!(view, View(1));
                assert_eq!(deadline, SimTime(5) + SimDuration::from_millis(100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timer_expiry_broadcasts_timeout_once() {
        let kps = keys(4);
        let mut pm = make(0, 4);
        let actions = pm.on_timer(View(1), QuorumCert::genesis(), &kps[0]);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], PacemakerAction::BroadcastTimeout(_)));
        // A duplicate timer for the same view does nothing.
        assert!(pm
            .on_timer(View(1), QuorumCert::genesis(), &kps[0])
            .is_empty());
        // A stale timer for an old view does nothing either.
        assert!(pm
            .on_timer(View(0), QuorumCert::genesis(), &kps[0])
            .is_empty());
    }

    #[test]
    fn quorum_of_timeouts_forms_tc_and_advances() {
        let kps = keys(4);
        let mut pm = make(0, 4);
        let now = SimTime(1_000);
        let mut produced_tc = None;
        for i in 0..3u64 {
            let vote =
                TimeoutVote::new(View(1), NodeId(i), QuorumCert::genesis(), &kps[i as usize]);
            let actions = pm.on_timeout_vote(&vote, now);
            if i < 2 {
                assert!(actions.is_empty(), "no TC before quorum");
            } else {
                assert_eq!(actions.len(), 2);
                match &actions[0] {
                    PacemakerAction::NewView { new_view, tc } => {
                        assert_eq!(*new_view, View(2));
                        produced_tc = tc.clone();
                    }
                    other => panic!("unexpected {other:?}"),
                }
                assert!(matches!(actions[1], PacemakerAction::ScheduleTimer { .. }));
            }
        }
        let tc = produced_tc.expect("tc formed");
        assert_eq!(tc.view, View(1));
        assert_eq!(tc.signer_count(), 3);
        assert_eq!(pm.current_view(), View(2));
        assert_eq!(pm.timeout_view_changes(), 1);
    }

    #[test]
    fn duplicate_timeout_votes_are_ignored() {
        let kps = keys(4);
        let mut pm = make(0, 4);
        let vote = TimeoutVote::new(View(1), NodeId(1), QuorumCert::genesis(), &kps[1]);
        for _ in 0..3 {
            assert!(pm.on_timeout_vote(&vote, SimTime(0)).is_empty());
        }
        assert_eq!(pm.current_view(), View(1), "one voter cannot force a TC");
    }

    #[test]
    fn qc_advances_view_and_rearms_timer() {
        let mut pm = make(0, 4);
        let qc = QuorumCert {
            block: Default::default(),
            view: View(3),
            signatures: Default::default(),
        };
        let actions = pm.on_qc(&qc, SimTime(10));
        assert_eq!(pm.current_view(), View(4));
        assert!(matches!(
            actions[0],
            PacemakerAction::NewView {
                new_view: View(4),
                tc: None
            }
        ));
        // An older QC does nothing.
        let old = QuorumCert {
            block: Default::default(),
            view: View(1),
            signatures: Default::default(),
        };
        assert!(pm.on_qc(&old, SimTime(20)).is_empty());
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
        let actions = pm.on_timeout_cert(&tc, SimTime(0));
        assert_eq!(pm.current_view(), View(6));
        assert!(!actions.is_empty());
        // Re-delivering the same TC is a no-op.
        assert!(pm.on_timeout_cert(&tc, SimTime(0)).is_empty());
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
        pm.on_qc(&qc, SimTime(0));
        assert_eq!(pm.current_view(), View(10));
        let vote = TimeoutVote::new(View(3), NodeId(1), QuorumCert::genesis(), &kps[1]);
        assert!(pm.on_timeout_vote(&vote, SimTime(0)).is_empty());
    }
}
