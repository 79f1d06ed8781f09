//! Scenario replay: the shipped scenario library is deterministic and its
//! results are pinned.
//!
//! Three named scenarios (`lan`, `geo_wan`, `crash_f`) are parsed from the
//! actual `scenarios/*.json` files, executed at the quick tier, and their
//! ledger fingerprints compared byte-for-byte against recorded values — any
//! engine, protocol or spec change that shifts scheduling shows up here
//! first (update the constants deliberately when the change is intended; to
//! re-record run `GOLDEN_DUMP=1 cargo test --test scenario_replay -- --nocapture`).
//! The pins were recorded from the PR 6 window-epoch engine; the sequential
//! engine that remains of it reproduces them bit-for-bit.
//! The same configurations are also driven through the live threaded
//! cluster, which must stay safe on the heterogeneous-WAN workload too.
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
        "d6a4b6ef7a3c116e8fac05a92f9ba583e823ef2b9ad1c87a4805df0e1338e827",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "59ffe0747ba792210fb18e5dbd4f70ad263ada255ad306037f7e5ce0c6ed9509",
    ),
    (
        ProtocolKind::Streamlet,
        "69daf8059379ee2ff9adf92f244c2ca6619a82b725465c7e5918a73025630dd3",
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
// The healthy-run pins above were unaffected.
const CRASH_F_PINS: [(ProtocolKind, &str); 2] = [
    (
        ProtocolKind::HotStuff,
        "ac212354d26b7509a4063b11754b33666033ec2a6486a396f162cb731d218cfe",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "50423c007af9324572236f3093e29702eaf8cbba1f1c40e8263c6c1bcdd695a8",
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
