//! Golden-replay determinism tests for the simulation engine.
//!
//! The fingerprints below were recorded from the window-epoch engine of
//! PR 6, which replaced the single-queue global-RNG engine: latency draws
//! moved to **per-replica RNG streams** (`derive(node)` of the run seed),
//! and all replica-to-replica deliveries enter the queue at lookahead-wide
//! window boundaries in a canonical `(deliver_at, origin, seq)` order
//! (DESIGN.md §5). That re-pin was a one-time, deliberate break from the
//! PR 3 fingerprints. The engine has since lost its sharded side (PR 18)
//! without moving a pin, and every further engine change must again commit
//! **byte-identical ledgers** for the same seeds: every block id, proposal
//! view, commit view, commit time and payload transaction id, across all six
//! protocol kinds. Any divergence in event ordering, RNG call order or
//! delivery timing changes the fingerprint and fails the test.
//!
//! To re-record after an *intentional* behaviour change, run:
//! `GOLDEN_DUMP=1 cargo test --test engine_replay -- --nocapture`
//! and paste the printed table.

use bamboo::core::{RunOptions, RunReport, SimRunner};
use bamboo::types::{Config, ProtocolKind, SimDuration};

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
/// recorded from the PR 6 window-epoch engine, which the sequential engine
/// reproduces bit for bit.
const GOLDEN: &[(ProtocolKind, usize, u64, f64, u64, u64, &str)] = &[
    (
        ProtocolKind::HotStuff,
        4,
        300,
        3_000.0,
        7,
        917,
        "11874219f970ca87dba47d9aaf29b373cb71cb351eab7a751ac4d798d95301db",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        4,
        300,
        3_000.0,
        7,
        919,
        "ec80c17c8b665c42b25379b006eb390f45c193f9876c9fd2c1ae06ead6906765",
    ),
    (
        ProtocolKind::Streamlet,
        4,
        300,
        3_000.0,
        7,
        918,
        "777544340b112d8d822a23ebad4353cfec959d4870ed5e20e22e6a546d0e15de",
    ),
    (
        ProtocolKind::FastHotStuff,
        4,
        300,
        3_000.0,
        7,
        919,
        "ec80c17c8b665c42b25379b006eb390f45c193f9876c9fd2c1ae06ead6906765",
    ),
    (
        ProtocolKind::Lbft,
        4,
        300,
        3_000.0,
        7,
        920,
        "339645a97413adc287a66d1db6f1f028d741f22682ed8450ec885dc803c88879",
    ),
    (
        ProtocolKind::OriginalHotStuff,
        4,
        300,
        3_000.0,
        7,
        917,
        "11874219f970ca87dba47d9aaf29b373cb71cb351eab7a751ac4d798d95301db",
    ),
    // A broadcast-heavy mid-size run: covers the shared-envelope fan-out,
    // bucket-wheel and barrier-exchange paths under real event pressure.
    (
        ProtocolKind::HotStuff,
        16,
        100,
        8_000.0,
        2021,
        726,
        "7a02f354eb7313c7f36881e5d40826244bf7c6e06c01b89ea87dc37192629287",
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
