//! Identifier newtypes: nodes, views and heights.

use std::fmt;

/// Identifier of a replica (or client) in the system.
///
/// Node ids are dense integers `0..N`; the quorum size and round-robin leader
/// election are computed from them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Returns the raw integer id.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Returns the id as a usize index (for dense per-node vectors).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

/// A protocol view (round). Each view has a single designated leader.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct View(pub u64);

impl View {
    /// The genesis view.
    pub const GENESIS: View = View(0);

    /// Returns the raw view number.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// The next view.
    pub fn next(&self) -> View {
        View(self.0 + 1)
    }

    /// The previous view, saturating at zero.
    pub fn prev(&self) -> View {
        View(self.0.saturating_sub(1))
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for View {
    fn from(v: u64) -> Self {
        View(v)
    }
}

/// The height of a block in the block forest (distance from genesis along its
/// branch). Heights increase strictly monotonically from parent to child.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Height(pub u64);

impl Height {
    /// The genesis height.
    pub const GENESIS: Height = Height(0);

    /// Returns the raw height.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// The next (child) height.
    pub fn next(&self) -> Height {
        Height(self.0 + 1)
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl From<u64> for Height {
    fn from(v: u64) -> Self {
        Height(v)
    }
}

/// Computes the classic BFT quorum threshold `2f + 1` for `n = 3f + 1 + r`
/// nodes, i.e. `ceil(2n/3)` votes are required (strictly more than two thirds
/// when `n` is not of the form `3f + 1`).
///
/// # Example
///
/// ```
/// use bamboo_types::ids::quorum_threshold;
/// assert_eq!(quorum_threshold(4), 3);
/// assert_eq!(quorum_threshold(7), 5);
/// assert_eq!(quorum_threshold(32), 22);
/// ```
pub fn quorum_threshold(n: usize) -> usize {
    // Maximum tolerated faults f = floor((n - 1) / 3); quorum = n - f.
    let f = (n.saturating_sub(1)) / 3;
    n - f
}

/// Maximum number of Byzantine faults tolerated by `n` replicas.
pub fn max_faults(n: usize) -> usize {
    (n.saturating_sub(1)) / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_arithmetic() {
        let v = View(5);
        assert_eq!(v.next(), View(6));
        assert_eq!(v.prev(), View(4));
        assert_eq!(View(0).prev(), View(0));
    }

    #[test]
    fn height_ordering() {
        assert!(Height(3) < Height(4));
        assert_eq!(Height::GENESIS.next(), Height(1));
    }

    #[test]
    fn quorum_thresholds_match_bft_bounds() {
        assert_eq!(quorum_threshold(1), 1);
        assert_eq!(quorum_threshold(4), 3);
        assert_eq!(quorum_threshold(5), 4);
        assert_eq!(quorum_threshold(7), 5);
        assert_eq!(quorum_threshold(8), 6);
        assert_eq!(quorum_threshold(16), 11);
        assert_eq!(quorum_threshold(32), 22);
        assert_eq!(quorum_threshold(64), 43);
    }

    #[test]
    fn max_faults_is_consistent_with_quorum() {
        for n in 1..200usize {
            let f = max_faults(n);
            let q = quorum_threshold(n);
            // Two quorums always intersect in at least one honest node.
            assert!(2 * q > n + f, "n={n} q={q} f={f}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(View(9).to_string(), "v9");
        assert_eq!(Height(2).to_string(), "h2");
    }
}
