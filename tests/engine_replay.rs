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
//! view, commit view, commit time and payload transaction id, across every
//! protocol kind. Any divergence in event ordering, RNG call order or
//! delivery timing changes the fingerprint and fails the test.
//!
//! The third deliberate re-pin gave the engine the live loop's deadline
//! book (DESIGN.md §5): the book drops timers for views the replica has
//! left, so they no longer fire and no longer bill a signature, and a
//! crashed replica's deadlines follow the live rules — a resume keeps them,
//! a restart drops them. The n = 4 runs, the signed open-loop run and the
//! forged-and-partitioned Streamlet run moved; the n = 16 run did not.
//!
//! Two further re-pins, not engine changes: a replica that leads none of
//! the next views hands a copy of each batch it admits to a leader ahead
//! (DESIGN.md §7.4). The copies are messages, so every run here moved, the
//! n = 4 runs included (a seat that already proposed in its view hands
//! off). The first sent every copy three views ahead; the second aims it
//! at the leader the sender's next vote helps wake and hands a copy its
//! view's block missed on once more, and moved every run again.
//! CHANGES.md has both audit tables. Another re-pin moved every run: the
//! NIC charges a message what the codec writes (`wire::encoded_len`), not
//! a hand-kept size model with 40 B per certificate signer (DESIGN.md
//! §1.3); CHANGES.md has its audit table too. The next moved every run
//! again: a quorum's votes are checked in one batched pass where the QC
//! forms, `⌈q/4⌉·t_CPU`, instead of one `t_CPU` per vote on arrival, and a
//! relayed copy of a counted vote is not checked at all (DESIGN.md §3);
//! CHANGES.md has its table. The next moved the three runs with n > 5
//! (the n = 16 run, the signed open-loop run and the n = 7 forged Streamlet
//! run) and left the n = 4 runs byte-identical: those `⌈q/4⌉` passes are
//! paid as the votes arrive — the vote that fills a pass of four pays one,
//! the vote that completes the quorum pays one for the rest — and a first
//! forgery fails a pass of `min(4, q)` votes, not the whole quorum
//! (DESIGN.md §2.2, §3); CHANGES.md has its table. The next moved every
//! run: a client request leaves its client at its own issue instant with
//! its own delay (drawn from a stream of its own), not with the last
//! request of its 1 ms tick bound for the same replica, and a busy replica
//! admits the requests that waited in one checked batch when its CPU frees
//! up (DESIGN.md §5). More admissions mean more handoff copies, so the
//! message counts rose with the commits; the signed run's cut at 23,692
//! events now ends earlier in simulated time, since each request is an
//! event. CHANGES.md has its table. The next moved every run: a proposer
//! stores its own block and votes on it without checking it (no
//! `process_proposal` charge), and a send leaves its sender when the step's
//! CPU reaches it, not when the step ends (DESIGN.md §3, §5). A view is
//! shorter by up to `3·t_CPU`, so views and handoff copies go faster and
//! the signed run's cut ends with fewer commits. CHANGES.md has its table.
//! The next moved the three runs with n > 5 and left the n = 4 ledgers
//! byte-identical: a collector counts its own vote as checked, and a
//! quorum's passes run short pass first, so the vote that completes the
//! quorum closes a full pass (DESIGN.md §3). A commit's replies also leave
//! when its records are logged, before the step's vote is signed
//! (DESIGN.md §5); the ledger's commit instant is the step's start, so that
//! moves no fingerprint. CHANGES.md has its table. The latest moved no
//! pin: a replica commits on a received proposal's QC once that QC is
//! checked, before it hashes the block (DESIGN.md §3). That moves commit
//! instants and replies only: the CPU a proposal costs is the same, the
//! pacemaker moves after the whole check, and a step that relays the block
//! checks it whole first, so every send — vote, relay, proposal, sync
//! request — leaves at the mark it had, and these open-loop ledgers and
//! counters stay as they were.
//!
//! To re-record after an *intentional* behaviour change, run:
//! `GOLDEN_DUMP=1 cargo test --test engine_replay -- --nocapture`
//! and paste the printed table.

use bamboo::core::{
    FaultTrigger, LinkFault, NodeFault, RecoverMode, RecoveryReport, RunOptions, RunReport,
    SimRunner,
};
use bamboo::types::{
    ByzantineStrategy, Config, NodeId, ProtocolKind, SeatAttack, SimDuration, SimTime,
};

fn run(protocol: ProtocolKind, nodes: usize, runtime_ms: u64, rate: f64, seed: u64) -> RunReport {
    let config = Config {
        nodes,
        block_size: 50,
        runtime: SimDuration::from_millis(runtime_ms),
        arrival_rate: Some(rate),
        seed,
        ..Config::default()
    };
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
        936,
        "3c9960481547952ba4705292e6b5d97c35c5116e8329ccb1742b7a82eb0b580d",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        4,
        300,
        3_000.0,
        7,
        936,
        "63455556ad3958f1a7becba8ace45fd16d3a9204bff42ced02594457a3b9fcaa",
    ),
    (
        ProtocolKind::Streamlet,
        4,
        300,
        3_000.0,
        7,
        937,
        "07a7264dc302e72e86ee6700c91665aa3351703d1f219812c8747004c8d68692",
    ),
    // A broadcast-heavy mid-size run: covers the shared-envelope fan-out
    // and a deep event queue under real event pressure.
    (
        ProtocolKind::HotStuff,
        16,
        100,
        8_000.0,
        2021,
        767,
        "d64e2d76f6d72e43d37effb8f09a216e9bfff8a1f81244383ff353ebe276babe",
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
/// signed at generation and checked at the edge — the run whose client
/// windows are generated on a producer thread ahead of the event loop.
fn signed_open_loop(max_events: Option<u64>) -> RunReport {
    let config = Config {
        nodes: 16,
        block_size: 400,
        runtime: SimDuration::from_millis(1_000),
        arrival_rate: Some(20_000.0),
        client_population: Some(1_000_000),
        signed_requests: true,
        seed: 2027,
        ..Config::default()
    };
    let mut options = RunOptions::default();
    if let Some(cap) = max_events {
        options.max_events = cap;
    }
    SimRunner::new(config, ProtocolKind::HotStuff, options).run()
}

/// `(max_events, committed_txs, pending_txs, events_processed, fingerprint)`
/// of [`signed_open_loop`], recorded from the engine that generated every
/// window inline: the whole run, and one cut by the event cap about a
/// quarter of the way in, while the producer still has windows in hand the
/// loop never takes.
const SIGNED_GOLDEN: &[(Option<u64>, u64, u64, u64, &str)] = &[
    (
        None,
        19_934,
        67,
        89_397,
        "e7d2ebb5355567c1259fa3aa5cdb5349c9b5a9c01ef425a443a9bd0823cf3ee7",
    ),
    (
        Some(23_692),
        5_288,
        76,
        23_693,
        "a4020d23e708f87bca24ca2033a8322b072f22658c00d903da7993589657ef81",
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
    let config = Config {
        nodes: 7,
        block_size: 50,
        runtime: SimDuration::from_millis(600),
        arrival_rate: Some(3_000.0),
        attacks: SeatAttack::first_seats(2, ByzantineStrategy::ForgedVote),
        timeout: SimDuration::from_millis(20),
        seed: 2030,
        ..Config::default()
    };
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
/// deadline book, again when a copy whose view times out began to be
/// handed on (the partitions time views out), again when the NIC began
/// to charge the codec's lengths, again when a quorum's votes began to
/// be checked in one batched pass where the QC forms: a view's relayed vote
/// copies no longer cost a check each, so the run got through 441 views,
/// not 302, and its forgers sent more; and again when those passes began
/// to be paid as the votes arrive, four to a pass (q = 5 here: vote 4 pays
/// one, vote 5 the other), and a first forgery to fail a pass of four, not
/// a quorum of five: 418 views; and again when each client request began to
/// leave at its own issue instant and a busy replica to admit what waited
/// in one batch: 437 views; and again when a proposer stopped checking its
/// own block and a send began to leave when its step's CPU reaches it:
/// 446 views; and again when a collector stopped checking its own vote and
/// began its passes with the short one: 453 views.
const FORGED_PARTITIONED_GOLDEN: (&str, u64, [u64; 8]) = (
    "13557298b6f46d2a99574f3e9416c391ea5b2c5928f61d5a1234ac2e17d02718",
    37_380,
    [1_726, 447, 153_894, 153_944, 151_134, 16_149_365, 453, 279],
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
        sync_bytes: 11_254,
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
