//! Property tests for per-link topology sampling (deterministic seed grids,
//! no external property-testing framework):
//!
//! 1. **Determinism** — the same seed produces bit-identical delay streams,
//!    whatever the region/override structure.
//! 2. **Scalar-model agreement** — a uniform (override-free) topology is
//!    indistinguishable from the pre-topology scalar model: the sampled
//!    stream equals a from-first-principles reference implementation of
//!    `max(floor, Normal(mean, std))`, draw for draw. Layering regions whose
//!    distributions all equal the default changes nothing either.
//! 3. **Symmetric by default** — without per-link overrides or explicit
//!    asymmetric matrix entries, `dist(a, b) == dist(b, a)` for every pair.

use bamboo_sim::{DelayDist, LatencyModel, SimRng, Topology};
use bamboo_types::{NodeId, SimDuration, SimTime};

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A 4-region, 16-node WAN-ish topology derived from a seed so the grid
/// covers different shapes.
fn wan_topology(seed: u64) -> Topology {
    let mut topo = Topology::new(DelayDist::new(us(250), us(50)));
    let regions: Vec<usize> = (0..4)
        .map(|r| {
            topo.add_region(
                &format!("r{r}"),
                (0..4).map(|i| (r * 4 + i) as u64),
                DelayDist::new(us(200 + 100 * r as u64), us(20 + 10 * (seed % 5))),
            )
        })
        .collect();
    for (i, &a) in regions.iter().enumerate() {
        for &b in &regions[i + 1..] {
            let mean = ms(10 + 7 * ((seed + a as u64 + 3 * b as u64) % 11));
            topo.set_inter(a, b, DelayDist::new(mean, us(500)));
        }
    }
    topo.symmetrize();
    topo
}

/// Walks a deterministic schedule of (from, to, now) probes and collects the
/// sampled delays.
fn sample_stream(model: &LatencyModel, seed: u64, probes: usize) -> Vec<Option<SimDuration>> {
    let mut rng = SimRng::new(seed);
    let mut schedule = SimRng::new(seed ^ 0xDEAD_BEEF);
    (0..probes)
        .map(|i| {
            let from = NodeId(schedule.uniform_range(0, 16));
            let to = NodeId(schedule.uniform_range(0, 16));
            model.sample(&mut rng, from, to, SimTime(i as u64 * 1_000_000))
        })
        .collect()
}

#[test]
fn same_seed_gives_identical_delay_streams() {
    for seed in [1u64, 7, 42, 2021, 0xFFFF] {
        let a = LatencyModel::with_topology(wan_topology(seed));
        let b = LatencyModel::with_topology(wan_topology(seed));
        assert_eq!(
            sample_stream(&a, seed, 500),
            sample_stream(&b, seed, 500),
            "seed {seed} diverged"
        );
    }
}

#[test]
fn uniform_topology_matches_the_scalar_reference_model() {
    // The reference implementation of the scalar model:
    // delay = max(1us, Normal(mean, std)), and the same 1 us floor for
    // self-delivery.
    for seed in [3u64, 11, 99, 4096] {
        let mean = us(250 + 10 * (seed % 7));
        let std = us(50);
        let model = LatencyModel::new(mean, std);
        let mut model_rng = SimRng::new(seed);
        let mut reference_rng = SimRng::new(seed);
        let mut schedule = SimRng::new(seed ^ 1);
        for i in 0..2_000 {
            let from = NodeId(schedule.uniform_range(0, 8));
            let to = NodeId(schedule.uniform_range(0, 8));
            let sampled = model
                .sample(&mut model_rng, from, to, SimTime(i))
                .expect("no faults configured");
            let base = reference_rng
                .normal(mean.as_nanos() as f64, std.as_nanos() as f64)
                .max(us(1).as_nanos() as f64);
            let expected = if from == to {
                us(1)
            } else {
                SimDuration::from_nanos(base as u64)
            };
            assert_eq!(sampled, expected, "seed {seed}, probe {i}");
        }
    }
}

#[test]
fn all_default_regions_are_indistinguishable_from_uniform() {
    // A topology whose regions all use the default distribution must sample
    // exactly like the uniform one: region structure without heterogeneity
    // is a no-op.
    let default = DelayDist::new(us(300), us(40));
    let uniform = LatencyModel::with_topology(Topology::new(default));
    let mut regioned_topo = Topology::new(default);
    let a = regioned_topo.add_region("a", [0, 1, 2, 3], default);
    let b = regioned_topo.add_region("b", [4, 5, 6, 7], default);
    regioned_topo.set_inter(a, b, default);
    regioned_topo.symmetrize();
    let regioned = LatencyModel::with_topology(regioned_topo);
    for seed in [5u64, 17, 1234] {
        assert_eq!(
            sample_stream(&uniform, seed, 1_000),
            sample_stream(&regioned, seed, 1_000),
            "seed {seed}"
        );
    }
}

#[test]
fn override_free_topologies_are_symmetric() {
    for seed in [2u64, 13, 77, 900] {
        let topo = wan_topology(seed);
        for from in 0..16u64 {
            for to in 0..16u64 {
                assert_eq!(
                    topo.dist(NodeId(from), NodeId(to)),
                    topo.dist(NodeId(to), NodeId(from)),
                    "seed {seed}: link {from} <-> {to} asymmetric without overrides"
                );
            }
        }
    }
}

#[test]
fn asymmetric_overrides_break_symmetry_only_where_registered() {
    let mut topo = wan_topology(4);
    topo.override_link(NodeId(0), NodeId(9), DelayDist::new(ms(120), us(100)));
    assert_eq!(topo.dist(NodeId(0), NodeId(9)).mean, ms(120));
    assert_ne!(
        topo.dist(NodeId(0), NodeId(9)),
        topo.dist(NodeId(9), NodeId(0)),
        "registered override is one-directional"
    );
    // Every other pair stays symmetric.
    for from in 0..16u64 {
        for to in 0..16u64 {
            if (from, to) == (0, 9) || (from, to) == (9, 0) {
                continue;
            }
            assert_eq!(
                topo.dist(NodeId(from), NodeId(to)),
                topo.dist(NodeId(to), NodeId(from)),
            );
        }
    }
}
