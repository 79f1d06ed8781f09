//! Network latency model.
//!
//! One-way message delay from `from` to `to` is sampled as
//!
//! ```text
//! delay = max(1 µs, Normal(link.mean, link.std)) + extra ± jitter + fluctuation(t) + slow(node)
//! ```
//!
//! where the 1 µs clamp is the causality floor (no message arrives before it
//! was sent; the Normal's left tail is otherwise untouched) and `link` is
//! the per-pair delay distribution resolved by the [`Topology`] — regions
//! with intra/inter-region distributions and exact (possibly asymmetric)
//! per-link overrides. A [`Topology::uniform`]
//! topology reduces to the paper's assumption that the RTT between any two
//! nodes follows one normal distribution (§V-A2) and consumes the RNG
//! identically to the pre-topology scalar model. On top of the base draw sit
//! the Table-I `delay` knob, the run-time "slow" command, and the network
//! fluctuation window used in the responsiveness experiment (Fig. 15).
//! Partitions — pairwise or group-based — drop messages entirely.

use bamboo_types::{NodeId, SimDuration, SimTime};

use crate::rng::SimRng;
use crate::topology::Topology;

/// A time window during which every link experiences additional, uniformly
/// distributed delay in `[min_extra, max_extra]` — the paper's "network
/// fluctuation" injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FluctuationWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Minimum extra one-way delay during the window.
    pub min_extra: SimDuration,
    /// Maximum extra one-way delay during the window.
    pub max_extra: SimDuration,
}

impl FluctuationWindow {
    /// Returns true if `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// A link-level fault: either a partition (messages dropped) or a slow link
/// (extra delay), active during a time window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Drop every message from `from` to `to` during the window.
    Partition {
        /// Sender side of the severed link (`None` = any sender).
        from: Option<NodeId>,
        /// Receiver side of the severed link (`None` = any receiver).
        to: Option<NodeId>,
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
    },
    /// Add a fixed extra delay to every message sent by `node` during the
    /// window (the run-time "slow" command).
    SlowNode {
        /// The slowed node.
        node: NodeId,
        /// Extra one-way delay.
        extra: SimDuration,
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
    },
    /// Sever the cluster into two groups during the window: every message
    /// whose endpoints fall on opposite sides of `members` is dropped, in
    /// both directions. One fault models a whole group partition — the
    /// scenario engine's oscillating-partition schedule compiles into a list
    /// of these, one per oscillation period.
    ///
    /// `members` is a bitmask over node ids; only replicas with id < 64 can
    /// be partition members (the simulated client, `NodeId(u64::MAX)`, is
    /// never cut off, and clusters larger than 64 nodes need pairwise
    /// [`LinkFault::Partition`] entries instead).
    GroupPartition {
        /// Bitmask of node ids forming one side of the partition.
        members: u64,
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
    },
}

impl LinkFault {
    /// Builds the membership bitmask for [`LinkFault::GroupPartition`] from
    /// a list of node ids.
    ///
    /// # Panics
    ///
    /// Panics if a node id is 64 or larger — group partitions are
    /// mask-based and cover the first 64 replicas only.
    pub fn group_mask(nodes: impl IntoIterator<Item = u64>) -> u64 {
        let mut mask = 0u64;
        for node in nodes {
            assert!(node < 64, "group partitions support node ids < 64");
            mask |= 1 << node;
        }
        mask
    }
}

/// The minimum possible one-way delay: the causality floor of the base draw
/// and the cost of a self-delivery.
const FLOOR: SimDuration = SimDuration(1_000);

/// Samples one-way network delays and applies injected faults.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    topology: Topology,
    extra: SimDuration,
    extra_jitter: SimDuration,
    fluctuations: Vec<FluctuationWindow>,
    faults: Vec<LinkFault>,
}

impl LatencyModel {
    /// Creates a homogeneous model: every link draws from one normal
    /// distribution (the paper's §V-A2 network).
    pub fn new(mean: SimDuration, std: SimDuration) -> Self {
        Self::with_topology(Topology::uniform(mean, std))
    }

    /// Creates a model whose per-link base distributions come from a
    /// [`Topology`].
    pub fn with_topology(topology: Topology) -> Self {
        Self {
            topology,
            extra: SimDuration::ZERO,
            extra_jitter: SimDuration::ZERO,
            fluctuations: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Adds the Table-I style constant extra delay with ± jitter.
    pub fn with_extra_delay(mut self, extra: SimDuration, jitter: SimDuration) -> Self {
        self.extra = extra;
        self.extra_jitter = jitter;
        self
    }

    /// Registers a network-fluctuation window.
    pub fn add_fluctuation(&mut self, window: FluctuationWindow) {
        self.fluctuations.push(window);
    }

    /// Registers a link fault (partition or slow node).
    pub fn add_fault(&mut self, fault: LinkFault) {
        self.faults.push(fault);
    }

    /// The mean one-way delay of the topology's default link class.
    pub fn mean(&self) -> SimDuration {
        self.topology.default_dist().mean
    }

    /// The per-link topology the base delays are drawn from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Returns `None` if the message is dropped (partition), otherwise the
    /// sampled one-way delay from `from` to `to` at send time `now`.
    pub fn sample(
        &self,
        rng: &mut SimRng,
        from: NodeId,
        to: NodeId,
        now: SimTime,
    ) -> Option<SimDuration> {
        // Partitions first.
        for fault in &self.faults {
            match fault {
                LinkFault::Partition {
                    from: f,
                    to: t,
                    start,
                    end,
                } => {
                    let from_matches = f.map(|n| n == from).unwrap_or(true);
                    let to_matches = t.map(|n| n == to).unwrap_or(true);
                    if from_matches && to_matches && now >= *start && now < *end {
                        return None;
                    }
                }
                LinkFault::GroupPartition {
                    members,
                    start,
                    end,
                } => {
                    // Only replica-to-replica traffic with representable ids
                    // can cross the cut; clients (NodeId::MAX) never do.
                    if from.0 < 64
                        && to.0 < 64
                        && ((members >> from.0) & 1) != ((members >> to.0) & 1)
                        && now >= *start
                        && now < *end
                    {
                        return None;
                    }
                }
                LinkFault::SlowNode { .. } => {}
            }
        }

        // Base normally distributed propagation delay of this link class,
        // clamped at the causality floor only.
        let dist = self.topology.dist(from, to);
        let base_ns = rng
            .normal(dist.mean.as_nanos() as f64, dist.std.as_nanos() as f64)
            .max(FLOOR.as_nanos() as f64);
        let mut total = SimDuration::from_nanos(base_ns as u64);

        // Constant extra delay with uniform jitter in [-jitter, +jitter].
        if !self.extra.is_zero() || !self.extra_jitter.is_zero() {
            let jitter_ns = self.extra_jitter.as_nanos() as i64;
            let offset = if jitter_ns > 0 {
                rng.uniform_range(0, (2 * jitter_ns + 1) as u64) as i64 - jitter_ns
            } else {
                0
            };
            let extra_ns = (self.extra.as_nanos() as i64 + offset).max(0) as u64;
            total += SimDuration::from_nanos(extra_ns);
        }

        // Fluctuation windows.
        for window in &self.fluctuations {
            if window.contains(now) {
                let lo = window.min_extra.as_nanos();
                let hi = window.max_extra.as_nanos().max(lo + 1);
                total += SimDuration::from_nanos(rng.uniform_range(lo, hi));
            }
        }

        // Slow-node faults on the sender.
        for fault in &self.faults {
            if let LinkFault::SlowNode {
                node,
                extra,
                start,
                end,
            } = fault
            {
                if *node == from && now >= *start && now < *end {
                    total += *extra;
                }
            }
        }

        // Local delivery is cheap but not free.
        if from == to {
            return Some(FLOOR);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// `n` draws of the link 0 → 1 at time zero.
    fn draws(model: &LatencyModel, seed: u64, n: usize) -> Vec<SimDuration> {
        let mut rng = SimRng::new(seed);
        let draw = |_| model.sample(&mut rng, NodeId(0), NodeId(1), SimTime::ZERO);
        (0..n).map(draw).collect::<Option<_>>().unwrap()
    }

    fn mean_ms(draws: &[SimDuration]) -> f64 {
        draws.iter().map(|d| d.as_millis_f64()).sum::<f64>() / draws.len() as f64
    }

    #[test]
    fn base_delay_matches_distribution() {
        let model = LatencyModel::new(ms(5), SimDuration::from_micros(500));
        let mean = mean_ms(&draws(&model, 1, 5_000));
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn extra_delay_shifts_the_mean() {
        let model =
            LatencyModel::new(ms(1), SimDuration::from_micros(100)).with_extra_delay(ms(10), ms(2));
        let mean = mean_ms(&draws(&model, 2, 5_000));
        assert!((mean - 11.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn delay_never_goes_below_floor() {
        let model = LatencyModel::new(SimDuration::from_nanos(10), ms(50));
        assert!(draws(&model, 3, 1_000).iter().all(|&d| d >= FLOOR));
    }

    #[test]
    fn fluctuation_applies_only_inside_window() {
        let mut model = LatencyModel::new(ms(1), SimDuration::ZERO);
        model.add_fluctuation(FluctuationWindow {
            start: SimTime(1_000_000_000),
            end: SimTime(2_000_000_000),
            min_extra: ms(10),
            max_extra: ms(100),
        });
        let mut rng = SimRng::new(4);
        let before = model
            .sample(&mut rng, NodeId(0), NodeId(1), SimTime(0))
            .unwrap();
        let during = model
            .sample(&mut rng, NodeId(0), NodeId(1), SimTime(1_500_000_000))
            .unwrap();
        let after = model
            .sample(&mut rng, NodeId(0), NodeId(1), SimTime(2_500_000_000))
            .unwrap();
        assert!(before < ms(5));
        assert!(during >= ms(10));
        assert!(after < ms(5));
    }

    #[test]
    fn partition_drops_messages_in_window() {
        let mut model = LatencyModel::new(ms(1), SimDuration::ZERO);
        model.add_fault(LinkFault::Partition {
            from: Some(NodeId(0)),
            to: None,
            start: SimTime(0),
            end: SimTime(1_000),
        });
        let mut rng = SimRng::new(5);
        assert!(model
            .sample(&mut rng, NodeId(0), NodeId(1), SimTime(500))
            .is_none());
        assert!(model
            .sample(&mut rng, NodeId(1), NodeId(0), SimTime(500))
            .is_some());
        assert!(model
            .sample(&mut rng, NodeId(0), NodeId(1), SimTime(5_000))
            .is_some());
    }

    #[test]
    fn slow_node_fault_only_affects_sender() {
        let mut model = LatencyModel::new(ms(1), SimDuration::ZERO);
        model.add_fault(LinkFault::SlowNode {
            node: NodeId(2),
            extra: ms(20),
            start: SimTime(0),
            end: SimTime(u64::MAX),
        });
        let mut rng = SimRng::new(6);
        let slow = model
            .sample(&mut rng, NodeId(2), NodeId(0), SimTime(0))
            .unwrap();
        let normal = model
            .sample(&mut rng, NodeId(0), NodeId(2), SimTime(0))
            .unwrap();
        assert!(slow >= ms(20));
        assert!(normal < ms(5));
    }

    #[test]
    fn group_partition_cuts_cross_group_links_both_ways() {
        let mut model = LatencyModel::new(ms(1), SimDuration::ZERO);
        model.add_fault(LinkFault::GroupPartition {
            members: LinkFault::group_mask([0, 1]),
            start: SimTime(0),
            end: SimTime(1_000),
        });
        let mut rng = SimRng::new(9);
        // Cross-group: dropped in both directions.
        assert!(model
            .sample(&mut rng, NodeId(0), NodeId(2), SimTime(500))
            .is_none());
        assert!(model
            .sample(&mut rng, NodeId(3), NodeId(1), SimTime(500))
            .is_none());
        // Same side: delivered.
        assert!(model
            .sample(&mut rng, NodeId(0), NodeId(1), SimTime(500))
            .is_some());
        assert!(model
            .sample(&mut rng, NodeId(2), NodeId(3), SimTime(500))
            .is_some());
        // Clients are never cut off.
        assert!(model
            .sample(&mut rng, NodeId(u64::MAX), NodeId(0), SimTime(500))
            .is_some());
        // Outside the window: delivered.
        assert!(model
            .sample(&mut rng, NodeId(0), NodeId(2), SimTime(5_000))
            .is_some());
    }

    #[test]
    fn topology_links_sample_their_own_distribution() {
        let mut topo = crate::topology::Topology::uniform(ms(1), SimDuration::ZERO);
        let a = topo.add_region(
            "a",
            [0, 1],
            crate::topology::DelayDist::new(ms(1), SimDuration::ZERO),
        );
        let b = topo.add_region(
            "b",
            [2, 3],
            crate::topology::DelayDist::new(ms(2), SimDuration::ZERO),
        );
        topo.set_inter(
            a,
            b,
            crate::topology::DelayDist::new(ms(50), SimDuration::ZERO),
        );
        topo.symmetrize();
        let model = LatencyModel::with_topology(topo);
        let mut rng = SimRng::new(10);
        let intra = model
            .sample(&mut rng, NodeId(0), NodeId(1), SimTime::ZERO)
            .unwrap();
        let inter = model
            .sample(&mut rng, NodeId(1), NodeId(3), SimTime::ZERO)
            .unwrap();
        let back = model
            .sample(&mut rng, NodeId(2), NodeId(0), SimTime::ZERO)
            .unwrap();
        assert!(intra < ms(2), "intra {intra:?}");
        assert!(inter >= ms(45), "inter {inter:?}");
        assert!(back >= ms(45), "mirrored inter {back:?}");
    }

    #[test]
    fn the_left_tail_of_the_normal_is_not_truncated() {
        // The paper's network (§V-A2) is a plain Normal: about 0.13 % of the
        // draws of a 250 µs ± 50 µs link fall below mean − 3σ = 100 µs.
        let us = SimDuration::from_micros;
        let draws = draws(&LatencyModel::new(us(250), us(50)), 11, 200_000);
        let share = draws.iter().filter(|&&d| d < us(100)).count() as f64 / draws.len() as f64;
        assert!(
            (0.0005..=0.003).contains(&share),
            "share below mean − 3σ: {share}"
        );
    }

    #[test]
    fn self_delivery_uses_floor() {
        let model = LatencyModel::new(ms(5), ms(1));
        let mut rng = SimRng::new(7);
        let d = model
            .sample(&mut rng, NodeId(3), NodeId(3), SimTime::ZERO)
            .unwrap();
        assert_eq!(d, SimDuration::from_micros(1));
    }
}
