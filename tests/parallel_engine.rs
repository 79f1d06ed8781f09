//! Layout-invariance property test for the window-barrier sharded engine.
//!
//! The determinism claim of the parallel engine is *exact*: for any thread
//! count, the simulation commits the same ledgers, processes the same events
//! and reports the same RNG-sensitive metrics as the inline `threads = 1`
//! run. This suite sweeps the full protocol matrix — all six protocol kinds,
//! three seeds, a homogeneous LAN-ish network and a heterogeneous geo-WAN
//! topology — and asserts equality at 2, 4 and 8 shards on every
//! layout-invariant report field:
//!
//! * `ledger_fingerprint` (every block id, view, commit time, payload tx id),
//! * `committed_txs` / `committed_blocks`,
//! * `events_processed` / `events_scheduled` / `messages_sent`,
//! * mean commit latency (a direct function of the RNG draw sequence).
//!
//! `queue_peak_len` is deliberately **not** compared: the per-shard queue
//! high-water marks depend on how replicas are partitioned, so its sum is
//! layout-dependent by construction (the report documents this).

use bamboo::core::{FaultTrigger, NodeFault, RecoverMode, RunOptions, RunReport, SimRunner};
use bamboo::sim::{DelayDist, Topology};
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration, SimTime, View};

const PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::HotStuff,
    ProtocolKind::TwoChainHotStuff,
    ProtocolKind::Streamlet,
    ProtocolKind::FastHotStuff,
    ProtocolKind::Lbft,
    ProtocolKind::OriginalHotStuff,
];

const SEEDS: [u64; 3] = [7, 42, 2021];

fn config(seed: u64) -> Config {
    Config::builder()
        .nodes(8)
        .block_size(50)
        .runtime(SimDuration::from_millis(100))
        .arrival_rate(4_000.0)
        .seed(seed)
        .build()
        .expect("valid config")
}

/// A small two-region WAN: intra-region links at the default latency,
/// cross-region links an order of magnitude slower — enough heterogeneity to
/// give the lookahead window a nontrivial minimum across link classes.
fn geo_wan_topology() -> Topology {
    let us = SimDuration::from_micros;
    let mut topo = Topology::new(DelayDist::new(us(250), us(50)));
    let west = topo.add_region(
        "west",
        (0..4u64).collect::<Vec<_>>(),
        DelayDist::new(us(200), us(30)),
    );
    let east = topo.add_region(
        "east",
        (4..8u64).collect::<Vec<_>>(),
        DelayDist::new(us(300), us(40)),
    );
    topo.set_inter(
        west,
        east,
        DelayDist::new(SimDuration::from_millis(3), us(400)),
    );
    topo.symmetrize();
    topo
}

fn run(protocol: ProtocolKind, seed: u64, geo: bool, threads: usize) -> RunReport {
    let options = RunOptions {
        topology: geo.then(geo_wan_topology),
        threads,
        ..RunOptions::default()
    };
    SimRunner::new(config(seed), protocol, options).run()
}

fn assert_layout_invariant(base: &RunReport, sharded: &RunReport, requested: usize, label: &str) {
    assert_eq!(
        base.ledger_fingerprint, sharded.ledger_fingerprint,
        "{label}: ledger diverged"
    );
    assert_eq!(base.committed_txs, sharded.committed_txs, "{label}");
    assert_eq!(base.committed_blocks, sharded.committed_blocks, "{label}");
    assert_eq!(base.events_processed, sharded.events_processed, "{label}");
    assert_eq!(base.events_scheduled, sharded.events_scheduled, "{label}");
    assert_eq!(base.messages_sent, sharded.messages_sent, "{label}");
    assert_eq!(base.bytes_sent, sharded.bytes_sent, "{label}");
    assert_eq!(base.views_advanced, sharded.views_advanced, "{label}");
    assert!(
        (base.latency.mean_ms - sharded.latency.mean_ms).abs() < 1e-12,
        "{label}: latency diverged ({} vs {})",
        base.latency.mean_ms,
        sharded.latency.mean_ms
    );
    assert_eq!(base.safety_violations, 0, "{label}");
    assert_eq!(sharded.threads, requested.min(sharded.nodes), "{label}");
}

fn sweep(geo: bool) {
    for protocol in PROTOCOLS {
        for seed in SEEDS {
            let base = run(protocol, seed, geo, 1);
            assert!(
                base.committed_txs > 0,
                "{protocol} seed {seed}: baseline committed nothing — the \
                 comparison would be vacuous"
            );
            for threads in [2usize, 4, 8] {
                let sharded = run(protocol, seed, geo, threads);
                let label = format!("{protocol} seed={seed} geo={geo} threads={threads}");
                assert_layout_invariant(&base, &sharded, threads, &label);
            }
        }
    }
}

#[test]
fn uniform_network_runs_are_identical_across_thread_counts() {
    sweep(false);
}

#[test]
fn geo_wan_runs_are_identical_across_thread_counts() {
    sweep(true);
}

/// Crash-fault runs shard too: time-triggered crashes land in the owning
/// shard's queue and view-triggered ones resolve at barriers, so faulty
/// configurations must stay layout-invariant as well.
#[test]
fn crash_faulted_runs_are_identical_across_thread_counts() {
    let faults = vec![NodeFault {
        node: NodeId(2),
        crash: FaultTrigger::At(SimTime(30_000_000)),
        recover: Some(FaultTrigger::At(SimTime(70_000_000))),
        mode: RecoverMode::Resume,
    }];
    let mut cfg = config(7);
    cfg.timeout = SimDuration::from_millis(20);
    let base = SimRunner::new(
        cfg.clone(),
        ProtocolKind::HotStuff,
        RunOptions {
            node_faults: faults.clone(),
            ..RunOptions::default()
        },
    )
    .run();
    for threads in [2usize, 4, 8] {
        let sharded = SimRunner::new(
            cfg.clone(),
            ProtocolKind::HotStuff,
            RunOptions {
                node_faults: faults.clone(),
                threads,
                ..RunOptions::default()
            },
        )
        .run();
        let label = format!("crash-fault threads={threads}");
        assert_layout_invariant(&base, &sharded, threads, &label);
    }
}

/// A thread count beyond the node count clamps to one shard per replica.
#[test]
fn oversized_thread_counts_clamp_to_the_node_count() {
    let base = run(ProtocolKind::HotStuff, 7, false, 1);
    let clamped = run(ProtocolKind::HotStuff, 7, false, 64);
    assert_eq!(clamped.threads, 8);
    assert_layout_invariant(&base, &clamped, 64, "threads=64 on n=8");
}

/// A *view-triggered* recovery restarts the replica at the opening edge of
/// the window after the barrier that saw the view — a different code path
/// from the time-triggered restarts every other recovery test schedules. It
/// must bring the victim back (from its checkpoint, or from its durable log)
/// at the same simulated instant whatever the layout.
#[test]
fn view_triggered_restarts_are_identical_across_thread_counts() {
    for mode in [RecoverMode::Amnesia, RecoverMode::Durable(None)] {
        let durable = mode != RecoverMode::Amnesia;
        let mut cfg = config(7);
        cfg.timeout = SimDuration::from_millis(20);
        cfg.checkpoint_interval = Some(8);
        cfg.durable_log = durable;
        let options = |threads| RunOptions {
            node_faults: vec![NodeFault {
                node: NodeId(2),
                crash: FaultTrigger::AtView(View(5)),
                recover: Some(FaultTrigger::AtView(View(12))),
                mode,
            }],
            threads,
            ..RunOptions::default()
        };
        let base = SimRunner::new(cfg.clone(), ProtocolKind::HotStuff, options(1)).run();
        assert_eq!(base.recovery.amnesia_recoveries, 1, "{mode:?}: no restart");
        assert_eq!(
            base.recovery.durable_restarts,
            u64::from(durable),
            "{mode:?}"
        );
        assert!(base.recovery.recovered_caught_up, "{mode:?}: {base:?}");
        for threads in [2usize, 4] {
            let sharded =
                SimRunner::new(cfg.clone(), ProtocolKind::HotStuff, options(threads)).run();
            let label = format!("view-triggered {mode:?} threads={threads}");
            assert_layout_invariant(&base, &sharded, threads, &label);
            assert_eq!(base.recovery, sharded.recovery, "{label}");
        }
    }
}
