//! Leader election policies.

use bamboo_crypto::Digest;
use bamboo_types::config::LeaderPolicy;
use bamboo_types::{NodeId, View};

/// Maps views to leaders.
///
/// # Example
///
/// ```
/// use bamboo_pacemaker::LeaderElection;
/// use bamboo_types::config::LeaderPolicy;
/// use bamboo_types::{NodeId, View};
///
/// let election = LeaderElection::new(4, LeaderPolicy::RoundRobin);
/// assert_eq!(election.leader_of(View(1)), NodeId(1));
/// assert_eq!(election.leader_of(View(5)), NodeId(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaderElection {
    nodes: usize,
    policy: LeaderPolicy,
}

impl LeaderElection {
    /// Creates an election over `nodes` replicas with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, policy: LeaderPolicy) -> Self {
        assert!(nodes > 0, "cannot elect a leader among zero nodes");
        Self { nodes, policy }
    }

    /// Number of participating replicas.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The leader of `view`.
    pub fn leader_of(&self, view: View) -> NodeId {
        match self.policy {
            LeaderPolicy::RoundRobin => NodeId(view.as_u64() % self.nodes as u64),
            LeaderPolicy::Static(leader) => leader,
            LeaderPolicy::Hashed => {
                let digest = Digest::of(&view.as_u64().to_be_bytes());
                let mut value = [0u8; 8];
                value.copy_from_slice(&digest.as_bytes()[..8]);
                NodeId(u64::from_be_bytes(value) % self.nodes as u64)
            }
        }
    }

    /// Returns true if `node` leads `view`.
    pub fn is_leader(&self, node: NodeId, view: View) -> bool {
        self.leader_of(view) == node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_through_all_nodes() {
        let election = LeaderElection::new(4, LeaderPolicy::RoundRobin);
        let leaders: Vec<NodeId> = (0..8).map(|v| election.leader_of(View(v))).collect();
        assert_eq!(
            leaders,
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3)
            ]
        );
    }

    #[test]
    fn static_leader_never_changes() {
        let election = LeaderElection::new(4, LeaderPolicy::Static(NodeId(2)));
        for v in 0..100 {
            assert_eq!(election.leader_of(View(v)), NodeId(2));
        }
    }

    #[test]
    fn hashed_policy_is_deterministic_and_in_range() {
        let election = LeaderElection::new(7, LeaderPolicy::Hashed);
        for v in 0..200 {
            let a = election.leader_of(View(v));
            let b = election.leader_of(View(v));
            assert_eq!(a, b);
            assert!(a.index() < 7);
        }
        // All nodes should lead at least once over a long horizon.
        let mut seen = [false; 7];
        for v in 0..2_000 {
            seen[election.leader_of(View(v)).index()] = true;
        }
        assert!(seen.iter().all(|s| *s), "hashed election covers all nodes");
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_nodes_panics() {
        let _ = LeaderElection::new(0, LeaderPolicy::RoundRobin);
    }
}
