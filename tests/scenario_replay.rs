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
//! The fourth re-pin moved all three: a replica that leads none of the
//! next views hands a copy of each batch it admits to a leader ahead
//! (DESIGN.md §7.4), so transactions stop waiting for their own replica's
//! turn. The fifth moved all three again: the copy goes to the leader the
//! sender's next vote helps wake instead of three views ahead, and a copy
//! its view's block missed is handed on once more. CHANGES.md has both
//! audit tables. The next moved `crash_f` alone: a copy whose view times
//! out is handed on to the sender's current target, and the ledger executes
//! each transaction once (DESIGN.md §7.4); CHANGES.md has its table too.
//! The next moved all three: the NIC charges a message what the codec
//! writes (`wire::encoded_len`) instead of a hand-kept size model
//! (DESIGN.md §1.3); CHANGES.md has its table.
//! The next moved only the Streamlet pins of `lan` and `geo_wan`, the
//! two specs with synchronous epochs: there a copy goes to the next view's
//! leader, which proposes at its epoch boundary rather than on a vote
//! (DESIGN.md §7.4); CHANGES.md has its table.
//! The next moved all three: a quorum's votes are checked in one batched
//! pass where the QC forms, not one `t_CPU` each on arrival (DESIGN.md §3);
//! CHANGES.md has its table.
//! The next moved only the HS and 2CHS pins of `geo_wan`: a copy is
//! handed on each time a view it is stamped with is over without carrying
//! it, by its block or by its timeout, where a copy a block missed used to
//! go on only once (DESIGN.md §7.4); CHANGES.md has its table.
//! The next moved all three (each runs n > 5): a quorum's votes are
//! checked four to a pass as they arrive, so only the last pass sits
//! between the quorum and the proposal it releases (DESIGN.md §3);
//! CHANGES.md has its table.
//! The next moved all three: a client request leaves its client at its
//! own issue instant instead of with the last request of its 1 ms tick
//! bound for the same replica, and a busy replica admits the requests that
//! waited in one checked batch (DESIGN.md §5); CHANGES.md has its table.
//! The next moved all three: a proposer does not check its own block,
//! and a send leaves when its step's CPU reaches it rather than when the
//! step ends (DESIGN.md §3, §5); CHANGES.md has its table.
//! The latest moved `lan` and `crash_f` and left `geo_wan` byte-identical:
//! a collector does not check its own vote, and a quorum's passes run short
//! pass first (DESIGN.md §3). A commit's replies now leave when its records
//! are logged (DESIGN.md §5), which moves no open-loop ledger; CHANGES.md
//! has its table.
//! The same configurations are also driven through the live threaded
//! cluster, which must stay safe on the heterogeneous-WAN workload too, and
//! the repo benchmark's frozen workload files must keep parsing.
//!
//! The geo-WAN scenario is additionally held to the orderings the paper and
//! the responsiveness literature predict: 2CHS commits with lower latency
//! than HS (one chained round less), and heterogeneous delays degrade
//! Streamlet — whose synchronous epochs must be provisioned for the worst
//! link — more than (responsive) HotStuff.
//!
//! `one_seat_down` holds every shipped protocol to liveness across the view
//! a crashed seat loses on each rotation.

use std::path::PathBuf;
use std::time::Duration;

use bamboo::core::{Scenario, ScenarioReport, ThreadedCluster};
use bamboo::types::ProtocolKind;

fn spec(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn load(name: &str) -> Scenario {
    Scenario::parse(&spec(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
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
        "e22440eea0c3a64ab3cfeb8939ca5607226850223ce33f07b5760906c69522db",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "1d08a86e52e7a84515e3de870a222a849842b5133a62f5dcf94c3e86cbb291d4",
    ),
    (
        ProtocolKind::Streamlet,
        "41b3c9c61c3406246e0cff21dd2556994c9423f4bf36f51c60b5e3b3c3e8a991",
    ),
];

const GEO_WAN_PINS: [(ProtocolKind, &str); 3] = [
    (
        ProtocolKind::HotStuff,
        "0b591a72c2836556e5354c62f7293f29b538a91c3ff3d1e245cd9197d1174a38",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "f199aab56e86841c9d1d6cc9262311b243479570ed38b06a1b1ec884662376e4",
    ),
    (
        ProtocolKind::Streamlet,
        "5a4c41208d2376b105190400271dac4262a69bc0f5c2ff6347e2aaf0658451cf",
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
// replica's deadlines began to follow the live loop's rules (module docs),
// a fifth time, with `lan` and `geo_wan`, by the handoff, and a sixth, with
// them again, when the handoff's target began to follow the sender's vote
// (module docs), a seventh, alone, when a copy whose view times out
// began to be handed on: its two crashed seats are adjacent, an eighth,
// with them, when a quorum's votes began to be checked where the QC forms,
// a ninth, with them, when those votes began to be checked four to a
// pass as they arrive, a tenth, with them, when each client request
// began to leave at its own issue instant, and an eleventh, with them, when
// a proposer stopped checking its own block and a send began to leave when
// its step's CPU reaches it, and a twelfth, with `lan`, when a collector
// stopped checking its own vote and a commit's replies began to leave when
// its records are logged.
const CRASH_F_PINS: [(ProtocolKind, &str); 2] = [
    (
        ProtocolKind::HotStuff,
        "b773647ff39230b77fea256de054fb3ca0f963345962f86d8d0e2efcd860ab52",
    ),
    (
        ProtocolKind::TwoChainHotStuff,
        "7e54d91ce648e0e43664b872850ccc6eca3c490580258816f855edb5934a39a9",
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

/// One seat of seven down from the start loses a view on every rotation.
/// Every shipped protocol must commit across those lost views: the spec's
/// `expect` block (checked by `run_quick`) holds each to 3,000 tx/s and 2CHS
/// to a lower mean commit latency than HS. A rule set that votes by height
/// and re-proposes on its highest QC stalls here for good. The seat before
/// the crashed one never gets a HotStuff block certified (its votes would go
/// to the crashed seat), so HotStuff reaches 3,000 only because that seat
/// hands its batches to a leader ahead.
#[test]
fn one_seat_down_keeps_every_shipped_protocol_live() {
    let report = run_quick("one_seat_down");
    for protocol in ProtocolKind::evaluated() {
        let run = report
            .runs
            .iter()
            .find(|r| r.protocol == protocol)
            .unwrap_or_else(|| panic!("one_seat_down does not run {protocol}"));
        assert_eq!(run.report.safety_violations, 0, "{protocol}");
        assert!(
            run.report.throughput_tx_per_sec >= 3_000.0,
            "{protocol} committed {:.0} tx/s with one seat down",
            run.report.throughput_tx_per_sec
        );
    }
}

/// On the LAN a transaction waits for a proposer one or two views: the
/// replica it reached hands it to the leader its own next vote helps wake,
/// and hands on again what that leader's block missed. So each
/// protocol's mean commit latency stays within its commit depth plus three
/// views (HS 5.3, 2CHS 4.3, SL 2.6 views). With the copy sent three views
/// ahead HS took 6.2 and 2CHS 5.2 views; without the handoff a transaction
/// waits for its own replica's turn, about n/2 views on average, and all
/// three take 8.5 to 12.3 views.
#[test]
fn lan_commit_latency_is_the_commit_depth_plus_a_few_views() {
    let report = run_quick("lan");
    for protocol in ProtocolKind::evaluated() {
        let run = report
            .runs
            .iter()
            .find(|r| r.protocol == protocol)
            .unwrap_or_else(|| panic!("lan does not run {protocol}"));
        let view_ms = run.report.utilization.view_qc.mean_ms;
        let views = run.report.latency.mean_ms / view_ms;
        let bound = (protocol.commit_depth() + 3) as f64;
        assert!(
            views <= bound,
            "{protocol}: mean commit latency is {views:.1} views of {view_ms:.3} ms, over {bound}"
        );
    }
}

/// A handed-off batch has two or more holders and each transaction still
/// counts once: the observer's ledger executes an id one of its newest
/// committed blocks carried as a duplicate (`RunReport::duplicates_filtered`,
/// DESIGN.md §7.4), and every transaction it counts is staged once. These
/// specs reached the ways a copy once committed twice: a restarted seat's
/// forked block re-queueing what the winning branch committed
/// (`durable_restart`, `rolling_restart`), a copy delayed behind a CPU flood
/// reaching its leader after the original committed (`forged_vote_flood`),
/// and, with copies handed on when their view times out, a holder taking
/// a copy after it committed the first carrier (`crash_f`, whose adjacent
/// crashed seats make it the one spec that commits duplicates). `mixed`
/// hands on the most copies of the specs that run in seconds.
#[test]
fn no_transaction_commits_twice_across_restarts_and_floods() {
    for name in [
        "durable_restart",
        "rolling_restart",
        "forged_vote_flood",
        "mixed",
        "crash_f",
    ] {
        for run in run_quick(name).runs {
            let (report, label) = (&run.report, run.protocol.label());
            assert_eq!(
                report.stages.dispatched.count, report.committed_txs,
                "{name}/{label}"
            );
            let filtered = report.duplicates_filtered;
            assert_eq!(
                filtered > 0,
                name == "crash_f",
                "{name}/{label}: {filtered} filtered"
            );
        }
    }
}

/// Every replica `rolling_restart` restarts catches up, on twenty seeds:
/// the recovery audit waits out the blocks committed in the run's last view
/// (`observe::tests` has its controls), so a block still on its way to a
/// replica that caught up long ago fails no seed.
#[test]
fn rolling_restart_catches_up_on_twenty_seeds() {
    let text = spec("rolling_restart");
    assert!(text.contains("\"seed\": 2021"));
    for seed in 2021..2041 {
        let reseeded = text.replace("\"seed\": 2021", &format!("\"seed\": {seed}"));
        let report = Scenario::parse(&reseeded).unwrap().run(true);
        assert!(report.passed(), "seed {seed}: {:?}", report.failures);
    }
}

/// A spec that names a protocol the tree no longer ships fails to parse
/// with the ordinary unknown-protocol error, not a silent fallback.
#[test]
fn a_spec_naming_a_removed_protocol_is_rejected() {
    let spec = r#"{"name":"x","protocols":["HS","OHS"],"nodes":4,"runtime_ms":100,
                   "workload":{"open_loop_tx_per_sec":1}}"#;
    let err = Scenario::parse(spec).expect_err("OHS is not a shipped protocol");
    assert!(err.contains("unknown protocol \"OHS\""), "{err}");
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
    std::thread::sleep(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert_eq!(report.safety_violations, 0);
    assert!(report.ledgers_consistent);
    assert!(
        report.committed_txs > 0,
        "threaded cluster committed nothing"
    );
}
