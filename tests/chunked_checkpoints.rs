//! Incremental chunked checkpoints, end to end on the simulator.
//!
//! A checkpoint encodes only the ledger entries committed since the previous
//! one plus a small head, so what one checkpoint costs is set by the
//! checkpoint interval, not by how long the replica has been up. These tests
//! hold that property through the `RunReport` counters, and check that a
//! restart from a many-chunk image still re-joins the honest chain.

use bamboo::core::{FaultTrigger, NodeFault, RecoverMode, RunOptions, RunReport, SimRunner};
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration, SimTime};

const INTERVAL: u64 = 8;

fn run(nodes: usize, runtime_ms: u64, durable_log: bool, faults: Vec<NodeFault>) -> RunReport {
    let config = Config::builder()
        .nodes(nodes)
        .block_size(20)
        .runtime(SimDuration::from_millis(runtime_ms))
        .arrival_rate(4_000.0)
        .timeout(SimDuration::from_millis(20))
        .checkpoint_interval(INTERVAL)
        .durable_log(durable_log)
        .fsync_interval(4)
        .seed(11)
        .build()
        .expect("valid config");
    let options = RunOptions {
        node_faults: faults,
        ..RunOptions::default()
    };
    SimRunner::new(config, ProtocolKind::HotStuff, options).run()
}

#[test]
fn checkpoint_cost_is_flat_in_the_ledger_length() {
    for durable_log in [false, true] {
        let short = run(4, 60, durable_log, Vec::new());
        let long = run(4, 900, durable_log, Vec::new());
        assert!((48..=128).contains(&short.committed_blocks), "{short:?}");
        assert!(long.committed_blocks >= 1000, "{long:?}");
        let (short, long) = (short.recovery, long.recovery);
        assert!(long.checkpoints_taken > 10 * short.checkpoints_taken);

        // The largest chunk any replica ever wrote does not grow with the
        // ledger: at ~16x the history it is within a block or two of the
        // short run's, where a whole-ledger image would be ~16x larger.
        assert!(short.checkpoint_max_write_bytes > 0);
        assert!(
            long.checkpoint_max_write_bytes < 2 * short.checkpoint_max_write_bytes,
            "largest chunk grew: {} -> {} bytes",
            short.checkpoint_max_write_bytes,
            long.checkpoint_max_write_bytes
        );
        // And so the total is linear in the ledger, not quadratic.
        let per_checkpoint = |r: &bamboo::core::RecoveryReport| {
            r.checkpoint_bytes_written as f64 / r.checkpoints_taken as f64
        };
        assert!(per_checkpoint(&long) < 1.5 * per_checkpoint(&short));
    }
}

#[test]
fn restart_from_a_many_chunk_image_rejoins_the_chain() {
    for durable in [false, true] {
        let fault = NodeFault {
            node: NodeId(2),
            crash: FaultTrigger::At(SimTime(150_000_000)),
            recover: Some(FaultTrigger::At(SimTime(300_000_000))),
            mode: RecoverMode::Restart(None),
        };
        let report = run(8, 400, durable, vec![fault]);
        assert_eq!(report.safety_violations, 0);
        let recovery = report.recovery;
        assert!(recovery.checkpoints_taken > 100, "many chunks were cut");
        assert!(recovery.recovered_caught_up, "{recovery:?}");
        // The victim came back from a many-chunk image a dozen checkpoints
        // behind: it was served the chunk suffix above its height, and its
        // next checkpoint re-based — the one whole-ledger write of the run.
        assert!(recovery.snapshots_installed >= 1, "{recovery:?}");
        assert!(recovery.checkpoint_max_write_bytes > recovery.sync_bytes / 2);
    }
}
