//! Heterogeneous network topology: regions and per-link delay distributions.
//!
//! The paper assumes the RTT between *any* two nodes follows one normal
//! distribution (§V-A2) — a homogeneous network. Real WAN deployments are
//! not like that: replicas cluster into regions with sub-millisecond
//! intra-region delay and tens of milliseconds between regions, and
//! individual links can be asymmetric (satellite backhaul, congested
//! transit). "Unraveling Responsiveness of Chained BFT Consensus with
//! Network Delay" shows such heterogeneity qualitatively changes chained-BFT
//! behaviour, so the scenario engine models it.
//!
//! A [`Topology`] maps an ordered pair of nodes to a [`DelayDist`] — the
//! parameters of the normal distribution their one-way delay is drawn from:
//!
//! 1. an exact per-link override, if one was registered (checked first, so
//!    any link can be specialised — asymmetrically, since the pair is
//!    ordered);
//! 2. the region matrix, when both endpoints belong to regions: the
//!    diagonal holds intra-region distributions, off-diagonal entries the
//!    inter-region ones (asymmetric entries allowed, symmetric by default —
//!    see [`Topology::symmetrize`]);
//! 3. the default distribution otherwise — in particular for the simulated
//!    clients, which live outside every region.
//!
//! The topology is pure data: sampling stays in
//! [`crate::LatencyModel`], which draws `Normal(dist.mean, dist.std)` from
//! the run's [`crate::SimRng`]. A [`Topology::uniform`] topology therefore
//! consumes the RNG exactly like the pre-topology scalar model and produces
//! bit-identical delay streams — the property tests pin this.

use bamboo_types::{NodeId, SimDuration};

/// Parameters of one link class: one-way delay `~ Normal(mean, std)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayDist {
    /// Mean one-way delay.
    pub mean: SimDuration,
    /// Standard deviation of the one-way delay.
    pub std: SimDuration,
}

impl DelayDist {
    /// Creates a distribution from mean and standard deviation.
    pub fn new(mean: SimDuration, std: SimDuration) -> Self {
        Self { mean, std }
    }
}

/// A named group of replicas sharing an intra-region delay distribution.
#[derive(Clone, Debug)]
struct Region {
    name: String,
}

/// Per-pair delay-distribution map: regions, an inter-region matrix and
/// sparse per-link overrides.
#[derive(Clone, Debug)]
pub struct Topology {
    default: DelayDist,
    regions: Vec<Region>,
    /// `node id -> region index`, `None` for nodes outside every region
    /// (and implicitly for ids beyond the vector, e.g. the client id).
    node_region: Vec<Option<u32>>,
    /// Row-major `regions × regions` matrix; `[r][r]` is the intra-region
    /// distribution.
    matrix: Vec<DelayDist>,
    /// Which matrix entries were set explicitly (vs. inherited defaults) —
    /// consulted by [`Topology::symmetrize`].
    explicit: Vec<bool>,
    /// Exact ordered-pair overrides, checked before the region matrix.
    overrides: Vec<(NodeId, NodeId, DelayDist)>,
}

impl Topology {
    /// A homogeneous topology: every link (including client links) uses one
    /// distribution. Equivalent to the paper's §V-A2 assumption and to the
    /// pre-topology scalar latency model.
    pub fn uniform(mean: SimDuration, std: SimDuration) -> Self {
        Self::new(DelayDist::new(mean, std))
    }

    /// Creates a topology with the given default distribution and no regions.
    pub fn new(default: DelayDist) -> Self {
        Self {
            default,
            regions: Vec::new(),
            node_region: Vec::new(),
            matrix: Vec::new(),
            explicit: Vec::new(),
            overrides: Vec::new(),
        }
    }

    /// The fallback distribution (also used for client links).
    pub fn default_dist(&self) -> DelayDist {
        self.default
    }

    /// Resolves a region name to its index.
    pub fn region_id(&self, name: &str) -> Option<usize> {
        self.regions.iter().position(|r| r.name == name)
    }

    /// The region a node belongs to, if any.
    pub fn region_of(&self, node: NodeId) -> Option<usize> {
        usize::try_from(node.0)
            .ok()
            .and_then(|i| self.node_region.get(i).copied())
            .flatten()
            .map(|r| r as usize)
    }

    /// Declares a region containing `nodes` with intra-region distribution
    /// `intra`, returning its index. The inter-region entries to and from
    /// every existing region start as the default distribution until
    /// [`Topology::set_inter`] overrides them.
    ///
    /// # Panics
    ///
    /// Panics if a node is already assigned to another region or the region
    /// name is already taken — scenario specs are static data, so overlap is
    /// a spec bug worth failing loudly on.
    pub fn add_region(
        &mut self,
        name: &str,
        nodes: impl IntoIterator<Item = u64>,
        intra: DelayDist,
    ) -> usize {
        assert!(
            self.region_id(name).is_none(),
            "duplicate region name {name:?}"
        );
        let id = self.regions.len();
        self.regions.push(Region {
            name: name.to_string(),
        });
        // Grow the matrix from (id)² to (id + 1)², preserving row-major
        // layout, with the new row/column at the default distribution.
        let old = id;
        let new = id + 1;
        let mut matrix = vec![self.default; new * new];
        let mut explicit = vec![false; new * new];
        for r in 0..old {
            for c in 0..old {
                matrix[r * new + c] = self.matrix[r * old + c];
                explicit[r * new + c] = self.explicit[r * old + c];
            }
        }
        matrix[id * new + id] = intra;
        explicit[id * new + id] = true;
        self.matrix = matrix;
        self.explicit = explicit;
        for node in nodes {
            let index = usize::try_from(node).expect("node id fits in usize");
            if index >= self.node_region.len() {
                self.node_region.resize(index + 1, None);
            }
            assert!(
                self.node_region[index].is_none(),
                "node {node} assigned to two regions"
            );
            self.node_region[index] = Some(id as u32);
        }
        id
    }

    /// Sets the one-way inter-region distribution `from → to`. Directions
    /// are independent, so asymmetric region pairs are expressible; call
    /// [`Topology::symmetrize`] afterwards to mirror the unset reverses.
    ///
    /// # Panics
    ///
    /// Panics if either region index is out of range.
    pub fn set_inter(&mut self, from: usize, to: usize, dist: DelayDist) {
        let n = self.regions.len();
        assert!(from < n && to < n, "region index out of range");
        self.matrix[from * n + to] = dist;
        self.explicit[from * n + to] = true;
    }

    /// Mirrors every explicitly set `a → b` matrix entry onto an
    /// unset `b → a` — the "symmetric by default" rule: one
    /// [`Topology::set_inter`] call describes a bidirectional link unless
    /// the opposite direction was also set explicitly.
    pub fn symmetrize(&mut self) {
        let n = self.regions.len();
        for a in 0..n {
            for b in 0..n {
                if a != b && self.explicit[a * n + b] && !self.explicit[b * n + a] {
                    self.matrix[b * n + a] = self.matrix[a * n + b];
                }
            }
        }
    }

    /// Registers an exact override for the ordered link `from → to`,
    /// shadowing the region matrix. Overrides are one-directional — register
    /// both directions for a symmetric special link.
    pub fn override_link(&mut self, from: NodeId, to: NodeId, dist: DelayDist) {
        if let Some(entry) = self
            .overrides
            .iter_mut()
            .find(|(f, t, _)| *f == from && *t == to)
        {
            entry.2 = dist;
        } else {
            self.overrides.push((from, to, dist));
        }
    }

    /// The delay distribution of the ordered link `from → to`.
    pub fn dist(&self, from: NodeId, to: NodeId) -> DelayDist {
        for (f, t, dist) in &self.overrides {
            if *f == from && *t == to {
                return *dist;
            }
        }
        match (self.region_of(from), self.region_of(to)) {
            (Some(a), Some(b)) => self.matrix[a * self.regions.len() + b],
            _ => self.default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn dist(mean: SimDuration) -> DelayDist {
        DelayDist::new(mean, SimDuration::from_micros(10))
    }

    #[test]
    fn uniform_topology_resolves_every_pair_to_default() {
        let topo = Topology::uniform(us(250), us(50));
        assert_eq!(topo.dist(NodeId(0), NodeId(1)).mean, us(250));
        assert_eq!(topo.dist(NodeId(7), NodeId(3)).mean, us(250));
        // Client links fall back to the default too.
        assert_eq!(topo.dist(NodeId(u64::MAX), NodeId(0)).mean, us(250));
    }

    #[test]
    fn regions_give_intra_and_inter_distributions() {
        let mut topo = Topology::new(dist(us(250)));
        let us_east = topo.add_region("us-east", [0, 1], dist(us(300)));
        let eu = topo.add_region("eu-west", [2, 3], dist(us(400)));
        topo.set_inter(us_east, eu, dist(ms(40)));
        topo.symmetrize();

        assert_eq!(topo.dist(NodeId(0), NodeId(1)).mean, us(300), "intra us");
        assert_eq!(topo.dist(NodeId(2), NodeId(3)).mean, us(400), "intra eu");
        assert_eq!(topo.dist(NodeId(0), NodeId(2)).mean, ms(40), "inter");
        assert_eq!(topo.dist(NodeId(3), NodeId(1)).mean, ms(40), "mirrored");
        // A node outside every region uses the default.
        assert_eq!(topo.dist(NodeId(9), NodeId(0)).mean, us(250));
    }

    #[test]
    fn inter_region_links_can_be_asymmetric() {
        let mut topo = Topology::new(dist(us(100)));
        let a = topo.add_region("a", [0], dist(us(100)));
        let b = topo.add_region("b", [1], dist(us(100)));
        topo.set_inter(a, b, dist(ms(10)));
        topo.set_inter(b, a, dist(ms(90)));
        topo.symmetrize();
        assert_eq!(topo.dist(NodeId(0), NodeId(1)).mean, ms(10));
        assert_eq!(topo.dist(NodeId(1), NodeId(0)).mean, ms(90));
    }

    #[test]
    fn link_overrides_shadow_the_region_matrix_one_way() {
        let mut topo = Topology::new(dist(us(100)));
        topo.add_region("all", [0, 1, 2], dist(us(100)));
        topo.override_link(NodeId(0), NodeId(1), dist(ms(80)));
        assert_eq!(topo.dist(NodeId(0), NodeId(1)).mean, ms(80));
        assert_eq!(topo.dist(NodeId(1), NodeId(0)).mean, us(100), "reverse");
        // Re-registering replaces.
        topo.override_link(NodeId(0), NodeId(1), dist(ms(5)));
        assert_eq!(topo.dist(NodeId(0), NodeId(1)).mean, ms(5));
    }

    #[test]
    #[should_panic(expected = "two regions")]
    fn overlapping_regions_panic() {
        let mut topo = Topology::new(dist(us(100)));
        topo.add_region("a", [0, 1], dist(us(100)));
        topo.add_region("b", [1, 2], dist(us(100)));
    }

    #[test]
    fn region_lookup_by_name_and_node() {
        let mut topo = Topology::new(dist(us(100)));
        topo.add_region("east", [0, 1], dist(us(100)));
        topo.add_region("west", [5], dist(us(100)));
        assert_eq!(topo.region_id("west"), Some(1));
        assert_eq!(topo.region_id("north"), None);
        assert_eq!(topo.region_of(NodeId(5)), Some(1));
        assert_eq!(topo.region_of(NodeId(3)), None);
        assert_eq!(topo.region_of(NodeId(u64::MAX)), None);
    }
}
