//! Scenario replay: the shipped scenario library is deterministic and its
//! results are pinned.
//!
//! Three named scenarios (`lan`, `geo_wan`, `crash_f`) are parsed from the
//! actual `scenarios/*.json` files, executed at the quick tier, and their
//! ledger fingerprints compared byte-for-byte against recorded values — any
//! engine, protocol or spec change that shifts scheduling shows up here
//! first (update the constants deliberately when the change is intended; to
//! re-record run `GOLDEN_DUMP=1 cargo test --test scenario_replay -- --nocapture`).
//! The pins were re-recorded from the PR 19 plain event loop — the second
//! deliberate engine re-pin after PR 6's: the ordering epochs went, so
//! same-instant events pop in scheduling order, ticks and view triggers fire
//! at their own instant, and latency draws below `mean − 3σ` are no longer
//! lifted (`tests/engine_replay.rs` and DESIGN.md §5 have the full record).
//! `lan` and `crash_f` moved; the three `geo_wan` ledgers came out
//! byte-identical and keep their PR 6 values.
//! The third re-pin gave the engine the live loop's deadline book: `lan`
//! HS/2CHS moved because a timer for a left view no longer fires, `crash_f`
//! because a crashed replica's deadlines now follow the live rules; `lan`
//! SL and `geo_wan` did not move.
//! The same configurations are also driven through the live threaded
//! cluster, which must stay safe on the heterogeneous-WAN workload too, and
//! the repo benchmark's frozen workload files must keep parsing.
//!
//! The geo-WAN scenario is additionally held to the orderings the paper and
//! the responsiveness literature predict: 2CHS commits with lower latency
//! than HS (one chained round less), and heterogeneous delays degrade
//! Streamlet — whose synchronous epochs must be provisioned for the worst
//! link — more than (responsive) HotStuff.

use std::path::PathBuf;
use std::time::Duration;

use bamboo::core::{Scenario, ScenarioReport, ThreadedCluster};
use bamboo::types::ProtocolKind;

fn load(name: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn run_quick(name: &str) -> ScenarioReport {
    let report = load(name).run(true);
    assert!(
        report.passed(),
        "{name} failed at the quick tier: {:?}",
        report.failures
    );
    report
}

fn fingerprint(report: &ScenarioReport, protocol: ProtocolKind) -> &str {
    &report
        .runs
        .iter()
        .find(|r| r.protocol == protocol)
        .unwrap_or_else(|| panic!("{} does not run {protocol}", report.name))
        .report
        .ledger_fingerprint
}

/// Pinned quick-tier ledger fingerprints of three named scenarios. These are
/// golden values: a diff here means replica scheduling changed — bump them
/// only for intentional behavioural changes.
const LAN_PINS: [(ProtocolKind, &str); 3] = [
    (
        ProtocolKind::HotStuff,
        "08b10c0fa4944384cb34762bad3a934b623c0549b994bdb4fdc9fe08d0096d3b",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "399dbfef1cde5a78172f22afe59939cf94a442d725f5ac61ff67111f81276695",
    ),
    (
        ProtocolKind::Streamlet,
        "6cdd9f6a220ba67022cce1b96865b1ea88ba76dc294480ba6d044987fb7c97f4",
    ),
];

const GEO_WAN_PINS: [(ProtocolKind, &str); 3] = [
    (
        ProtocolKind::HotStuff,
        "5eb5d268b3f63ed1b374447b648ef5cc5bc11f88f513345d9c59960b58f0c6bb",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "c08fb616963154294a949018631932f71f28985de841a658e2e5661096fac52e",
    ),
    (
        ProtocolKind::Streamlet,
        "408c7f4ecc506a02c0c7c5897badd8ccbb129bb56e99b547b21285aace3d9494",
    ),
];

// Re-pinned when crash recovery gained active catch-up (checkpoints + state
// transfer): recovering replicas now fetch the blocks they missed instead of
// waiting for the chain to reach them, which shifts scheduling in crash runs.
// The healthy-run pins above were unaffected. Re-pinned again with `lan` by
// PR 19's event-order change (module docs), and a third time when the
// HotStuff-family commit rule began to require adjacent views: only a run
// that loses views (here to the crashed seats) has a chain with view gaps, so
// `lan` and `geo_wan` did not move. Re-pinned a fourth time when a crashed
// replica's deadlines began to follow the live loop's rules (module docs).
const CRASH_F_PINS: [(ProtocolKind, &str); 2] = [
    (
        ProtocolKind::HotStuff,
        "28fb4d0f62ae49f10fa91ed702414bf00a3353c56dd55da0cf0a1cf5743cccc9",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "44140186a32da49f368e76a9276ecede7ea9ad1790d4e72d9e4c8446d2557115",
    ),
];

/// Checks (or, under `GOLDEN_DUMP=1`, prints paste-ready rows for) one
/// scenario's pins.
fn check_pins(name: &str, pins: &[(ProtocolKind, &str)]) {
    let report = run_quick(name);
    if std::env::var_os("GOLDEN_DUMP").is_some() {
        for (protocol, _) in pins {
            println!(
                "({name}) (ProtocolKind::{protocol:?}, \"{}\"),",
                fingerprint(&report, *protocol)
            );
        }
        return;
    }
    for (protocol, pin) in pins {
        assert_eq!(fingerprint(&report, *protocol), *pin, "{name}/{protocol}");
    }
}

#[test]
fn lan_scenario_fingerprints_are_pinned() {
    check_pins("lan", &LAN_PINS);
}

#[test]
fn geo_wan_scenario_fingerprints_are_pinned() {
    check_pins("geo_wan", &GEO_WAN_PINS);
}

#[test]
fn crash_f_scenario_fingerprints_are_pinned() {
    check_pins("crash_f", &CRASH_F_PINS);
}

#[test]
fn geo_wan_reproduces_the_expected_protocol_ordering() {
    let lan = run_quick("lan");
    let geo = run_quick("geo_wan");
    let stats = |report: &ScenarioReport, protocol: ProtocolKind| {
        let run = report
            .runs
            .iter()
            .find(|r| r.protocol == protocol)
            .expect("protocol present");
        (
            run.report.latency.mean_ms,
            run.report.latency.p99_ms,
            run.report.throughput_tx_per_sec,
        )
    };
    let (hs_mean, hs_p99, hs_thr) = stats(&geo, ProtocolKind::HotStuff);
    let (chs_mean, _, _) = stats(&geo, ProtocolKind::TwoChainHotStuff);
    let (_, sl_p99, sl_thr) = stats(&geo, ProtocolKind::Streamlet);
    let (_, _, hs_lan_thr) = stats(&lan, ProtocolKind::HotStuff);
    let (_, _, sl_lan_thr) = stats(&lan, ProtocolKind::Streamlet);

    // One chained round less: 2CHS commits faster than HS on the WAN.
    assert!(
        chs_mean < hs_mean,
        "2CHS mean commit latency {chs_mean:.1} ms should beat HS {hs_mean:.1} ms"
    );
    // Heterogeneous delays tax Streamlet's synchronous epochs on every view,
    // while responsive HotStuff only pays for the links it actually crosses:
    // SL keeps a smaller fraction of its LAN throughput than HS does, and
    // its latency tail in the WAN is heavier than HotStuff's.
    let hs_kept = hs_thr / hs_lan_thr;
    let sl_kept = sl_thr / sl_lan_thr;
    assert!(
        sl_kept < hs_kept,
        "SL should keep a smaller throughput fraction than HS ({sl_kept:.3} vs {hs_kept:.3})"
    );
    assert!(
        sl_p99 > hs_p99,
        "SL p99 {sl_p99:.1} ms should exceed HS p99 {hs_p99:.1} ms in the WAN"
    );
}

/// The repo benchmark's workload files are scenario documents frozen with
/// the benchmark; a schema change that would stop one parsing must fail
/// here, not only in the benchmark package's own tests. `tcp-hs-n4-sat`
/// still carries the key of the removed `"transport": "tcp"` tier, which the
/// parser now ignores like any unknown key.
#[test]
fn the_frozen_benchmark_workloads_still_parse() {
    let workloads = [
        (
            "sim-hs-n32-lan",
            include_str!("../benchmark/workloads/sim-hs-n32-lan.json"),
        ),
        (
            "sim-sl-n32-geo-crash",
            include_str!("../benchmark/workloads/sim-sl-n32-geo-crash.json"),
        ),
        (
            "threaded-hs-n4-durable",
            include_str!("../benchmark/workloads/threaded-hs-n4-durable.json"),
        ),
        (
            "tcp-hs-n4-sat",
            include_str!("../benchmark/workloads/tcp-hs-n4-sat.json"),
        ),
    ];
    for (name, text) in workloads {
        let scenario = Scenario::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(scenario.name, name);
        assert_eq!(scenario.protocols.len(), 1, "{name}");
    }
    assert!(workloads[3].1.contains(r#""transport": "tcp""#));
}

#[test]
fn lan_scenario_config_is_safe_on_the_threaded_cluster() {
    // Cross-runtime: the same configuration the simulator scenario compiles
    // must stay safe on the live threaded runtime (wall-clock, so no
    // fingerprint pinning — the determinism claims are simulator-side).
    let scenario = load("lan");
    let (mut config, _) = scenario.build(true);
    config.block_size = 50;
    let cluster = ThreadedCluster::spawn(config, ProtocolKind::HotStuff);
    cluster.submit_round_robin(400, 16);
    cluster.run_for(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert_eq!(report.safety_violations, 0);
    assert!(report.ledgers_consistent);
    assert!(
        report.committed_txs > 0,
        "threaded cluster committed nothing"
    );
}
