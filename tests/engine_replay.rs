//! Golden-replay determinism tests for the simulation engine.
//!
//! The fingerprints below are the **third deliberate engine re-pin** (last
//! paragraph). The first moved
//! latency draws to per-replica RNG streams (`derive(node)` of the run seed)
//! and cut time into lookahead-wide ordering epochs; PR 18 dropped the
//! sharded side of that engine without moving a pin. PR 19 removed the
//! epochs themselves (DESIGN.md §5 has the audit), which changed three
//! things on purpose: same-instant events pop in the order they were
//! scheduled instead of a `(deliver_at, origin, seq)` key sorted at window
//! boundaries; workload ticks and view-triggered faults fire at their own
//! instant instead of the next boundary; and the base latency draw is
//! clamped at the 1 µs causality floor only, so the ~0.13 % of Normal draws
//! below `mean − 3σ` are no longer lifted (the clamp existed only to make
//! the lookahead positive). The run also stopped generating the phantom
//! tick at `t = runtime`. Every further engine change must again commit
//! **byte-identical ledgers** for the same seeds: every block id, proposal
//! view, commit view, commit time and payload transaction id, across all four
//! protocol kinds. Any divergence in event ordering, RNG call order or
//! delivery timing changes the fingerprint and fails the test.
//!
//! The third deliberate re-pin gave the engine the live loop's deadline
//! book (DESIGN.md §5): the book drops timers for views the replica has
//! left, so they no longer fire and no longer bill a signature, and a
//! crashed replica's deadlines follow the live rules — a resume keeps them,
//! a restart drops them. The four n = 4 runs, the signed open-loop run and
//! the forged-and-partitioned Streamlet run moved; the n = 16 run did not.
//!
//! To re-record after an *intentional* behaviour change, run:
//! `GOLDEN_DUMP=1 cargo test --test engine_replay -- --nocapture`
//! and paste the printed table.

use bamboo::core::{
    FaultTrigger, LinkFault, NodeFault, RecoverMode, RecoveryReport, RunOptions, RunReport,
    SimRunner,
};
use bamboo::types::{ByzantineStrategy, Config, NodeId, ProtocolKind, SimDuration, SimTime};

fn run(protocol: ProtocolKind, nodes: usize, runtime_ms: u64, rate: f64, seed: u64) -> RunReport {
    let config = Config::builder()
        .nodes(nodes)
        .block_size(50)
        .runtime(SimDuration::from_millis(runtime_ms))
        .arrival_rate(rate)
        .seed(seed)
        .build()
        .expect("valid config");
    SimRunner::new(config, protocol, RunOptions::default()).run()
}

/// `(protocol, nodes, runtime_ms, rate, seed, committed_txs, fingerprint)`
/// recorded from the plain event loop with one deadline book.
const GOLDEN: &[(ProtocolKind, usize, u64, f64, u64, u64, &str)] = &[
    (
        ProtocolKind::HotStuff,
        4,
        300,
        3_000.0,
        7,
        916,
        "0182a80f8a15456f685746150fd1e3dbe1c7c50dac25853aa5dba71841e154e3",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        4,
        300,
        3_000.0,
        7,
        919,
        "0a338122544e3a2f20886da15a9cf18fd9f4aa1ab381650473222a0431583252",
    ),
    (
        ProtocolKind::Streamlet,
        4,
        300,
        3_000.0,
        7,
        919,
        "cc82f5da03ad8d394eb23f6a253e3740a933eca524bc6d0dbbf1579515eea6e8",
    ),
    (
        ProtocolKind::OriginalHotStuff,
        4,
        300,
        3_000.0,
        7,
        916,
        "0182a80f8a15456f685746150fd1e3dbe1c7c50dac25853aa5dba71841e154e3",
    ),
    // A broadcast-heavy mid-size run: covers the shared-envelope fan-out
    // and a deep event queue under real event pressure.
    (
        ProtocolKind::HotStuff,
        16,
        100,
        8_000.0,
        2021,
        726,
        "da5671e459f8174d6c1aade8d2de73280a4b9b2db7f58d9e534c5911bb44a622",
    ),
];

#[test]
fn engine_replays_the_pinned_golden_ledgers_byte_for_byte() {
    let dump = std::env::var_os("GOLDEN_DUMP").is_some();
    for &(protocol, nodes, runtime_ms, rate, seed, txs, fingerprint) in GOLDEN {
        let report = run(protocol, nodes, runtime_ms, rate, seed);
        if dump {
            println!(
                "({protocol:?}, {nodes}, {runtime_ms}, {rate:.1}, {seed}, {}, \"{}\"),",
                report.committed_txs, report.ledger_fingerprint
            );
            continue;
        }
        assert_eq!(
            report.ledger_fingerprint, fingerprint,
            "{protocol} n={nodes}: ledger diverged from the pinned golden run"
        );
        assert_eq!(
            report.committed_txs, txs,
            "{protocol} n={nodes}: committed work diverged"
        );
        assert_eq!(report.safety_violations, 0, "{protocol} n={nodes}");
    }
}

/// A signed open-loop run: a million-client population whose requests are
/// signed at generation and checked at the edge — the run whose client ticks
/// are generated on a producer thread ahead of the event loop.
fn signed_open_loop(max_events: Option<u64>) -> RunReport {
    let config = Config::builder()
        .nodes(16)
        .block_size(400)
        .runtime(SimDuration::from_millis(1_000))
        .arrival_rate(20_000.0)
        .client_population(1_000_000)
        .signed_requests(true)
        .seed(2027)
        .build()
        .expect("valid config");
    let mut options = RunOptions::default();
    if let Some(cap) = max_events {
        options.max_events = cap;
    }
    SimRunner::new(config, ProtocolKind::HotStuff, options).run()
}

/// `(max_events, committed_txs, pending_txs, events_processed, fingerprint)`
/// of [`signed_open_loop`], recorded from the engine that generated every
/// tick inline: the whole run, and one cut by the event cap a third of the
/// way in, while the producer still has ticks in hand the loop never takes.
const SIGNED_GOLDEN: &[(Option<u64>, u64, u64, u64, &str)] = &[
    (
        None,
        19_617,
        184,
        52_305,
        "721ee4ec6979d1ebce4ea094e9a031747e6394ae942f7012263e47e52db41d2f",
    ),
    (
        Some(23_692),
        8_809,
        206,
        23_693,
        "df9c76dfd5f720f8ae2295dd135973c9c59a69952072e05984d9a8aea6f37826",
    ),
];

#[test]
fn a_signed_open_loop_run_replays_its_pinned_golden_whole_and_cut() {
    let dump = std::env::var_os("GOLDEN_DUMP").is_some();
    for &(cap, txs, pending, events, fingerprint) in SIGNED_GOLDEN {
        let report = signed_open_loop(cap);
        if dump {
            println!(
                "({cap:?}, {}, {}, {}, \"{}\"),",
                report.committed_txs,
                report.pending_txs,
                report.events_processed,
                report.ledger_fingerprint
            );
            continue;
        }
        let label = format!("max_events {cap:?}");
        assert_eq!(report.ledger_fingerprint, fingerprint, "{label}");
        assert_eq!(report.committed_txs, txs, "{label}");
        // Issued counts what the loop took, not what was generated ahead.
        assert_eq!(report.pending_txs, pending, "{label}");
        assert_eq!(report.events_processed, events, "{label}");
        assert_eq!(report.client_auth_rejections, 0, "{label}");
        assert_eq!(report.safety_violations, 0, "{label}");
    }
}

/// Streamlet at n = 7 under everything that makes a broadcast's recipients
/// differ: two vote forgers (their broadcasts fail verification once and
/// every recipient books the rejection), a one-way link cut and a group
/// partition (some recipients of a broadcast are dropped, their delays still
/// drawn), and one replica crashed and resumed (deliveries to it are lost).
fn forged_partitioned_streamlet() -> RunReport {
    let config = Config::builder()
        .nodes(7)
        .block_size(50)
        .runtime(SimDuration::from_millis(600))
        .arrival_rate(3_000.0)
        .byzantine(ByzantineStrategy::ForgedVote, 2)
        .timeout(SimDuration::from_millis(20))
        .seed(2030)
        .build()
        .expect("valid config");
    let ms = |ms: u64| SimTime(ms * 1_000_000);
    let options = RunOptions {
        link_faults: vec![
            LinkFault::Partition {
                from: Some(NodeId(2)),
                to: Some(NodeId(4)),
                start: ms(50),
                end: ms(250),
            },
            LinkFault::GroupPartition {
                members: 0b000_1001,
                start: ms(300),
                end: ms(380),
            },
        ],
        node_faults: vec![NodeFault {
            node: NodeId(5),
            crash: FaultTrigger::At(ms(150)),
            recover: Some(FaultTrigger::At(ms(220))),
            mode: RecoverMode::Resume,
        }],
        ..RunOptions::default()
    };
    SimRunner::new(config, ProtocolKind::Streamlet, options).run()
}

/// What [`forged_partitioned_streamlet`] produces: the fingerprint, the
/// rejections, and every counter a replay must reproduce. A broadcast's
/// recipients each had their own queue entry when it was first recorded, and
/// the pin held when a broadcast became one entry; it moved with the
/// deadline book.
const FORGED_PARTITIONED_GOLDEN: (&str, u64, [u64; 8]) = (
    "a11a9b8f12ecec2ee63b2b601f7112bb093cdf3336839373e57c7ca634f6407a",
    24_744,
    [1_717, 296, 100_671, 100_735, 99_313, 16_878_952, 302, 271],
);

#[test]
fn forged_and_partitioned_streamlet_replays_its_pinned_golden() {
    let report = forged_partitioned_streamlet();
    let counters = [
        report.committed_txs,
        report.committed_blocks,
        report.events_processed,
        report.events_scheduled,
        report.messages_sent,
        report.bytes_sent,
        report.views_advanced,
        report.queue_peak_len,
    ];
    if std::env::var_os("GOLDEN_DUMP").is_some() {
        println!(
            "(\"{}\", {}, {counters:?})\n{:?}",
            report.ledger_fingerprint, report.rejected_messages, report.recovery
        );
        return;
    }
    let (fingerprint, rejections, pinned) = FORGED_PARTITIONED_GOLDEN;
    assert_eq!(report.ledger_fingerprint, fingerprint);
    assert_eq!(report.rejected_messages, rejections);
    assert_eq!(
        counters, pinned,
        "committed txs/blocks, events processed/scheduled, messages, bytes, views, queue peak"
    );
    // The crashed replica resumed behind and caught up over state transfer.
    let synced = RecoveryReport {
        sync_requests: 3,
        sync_responses: 3,
        sync_bytes: 39_752,
        blocks_synced: 17,
        ..RecoveryReport::default()
    };
    assert_eq!(report.recovery, synced);
    assert_eq!(report.safety_violations, 0);
}

/// Two fresh runs of the rebuilt engine at n = 256 must agree exactly — the
/// scalability sweep's largest point is deterministic, not just the small
/// golden configurations.
#[test]
fn n256_run_is_deterministic() {
    let a = run(ProtocolKind::HotStuff, 256, 20, 4_000.0, 11);
    let b = run(ProtocolKind::HotStuff, 256, 20, 4_000.0, 11);
    assert_eq!(a.ledger_fingerprint, b.ledger_fingerprint);
    assert_eq!(a.committed_txs, b.committed_txs);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.messages_sent, b.messages_sent);
    assert!(a.committed_blocks > 0, "n=256 must make progress");
    assert_eq!(a.safety_violations, 0);
}
