//! Stand-alone probes: one layer's public API timed on the artifacts the
//! lockstep replay left behind (class P in the README's per-layer table).
//!
//! Each probe is a few milliseconds of the layer doing, in isolation, the
//! operation the measured runs make it do — so when an end-to-end number
//! moves, the probe of the layer that was changed should have moved too.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bamboo_core::storage::SegmentLog;
use bamboo_core::{SimRunner, VerifyPool};
use bamboo_crypto::{sha256, KeyPair};
use bamboo_forest::Snapshot;
use bamboo_mempool::Mempool;
use bamboo_sim::EventQueue;
use bamboo_types::{ClientRequest, Config, SimDuration, SimTime, TxId};

use crate::lockstep::Replay;
use crate::report::Outcome;
use crate::spec::{Backend, Spec};
use crate::stats;

/// Runs `op` `iterations` times and returns nanoseconds per iteration.
fn ns_per_iter(iterations: u64, mut op: impl FnMut(u64)) -> f64 {
    let begin = Instant::now();
    for i in 0..iterations {
        op(i);
    }
    begin.elapsed().as_nanos() as f64 / iterations.max(1) as f64
}

/// `crypto.*`: raw hash bandwidth and one signature each way over the
/// 40-byte message every client request and vote signs.
pub fn crypto(outcome: &mut Outcome) {
    let buffer = vec![0xA5u8; 1 << 20];
    let ns = ns_per_iter(32, |_| {
        black_box(sha256::sha256(black_box(&buffer)));
    });
    outcome.set("crypto.sha256_mb_s", buffer.len() as f64 / 1e6 / (ns / 1e9));
    let keypair = KeyPair::from_seed(7);
    let message = [0x5Au8; 40];
    let mut scratch = Vec::new();
    outcome.set(
        "crypto.sign_ns",
        ns_per_iter(20_000, |_| {
            black_box(keypair.sign_with_scratch(&mut scratch, black_box(&message)));
        }),
    );
    let signature = keypair.sign(&message);
    let public = keypair.public_key();
    outcome.set(
        "crypto.verify_ns",
        ns_per_iter(20_000, |_| {
            black_box(public.verify(black_box(&message), &signature));
        }),
    );
}

/// `mempool.*`: the replay's own requests pushed, drained in block-sized
/// batches and removed as committed, on a pool shaped like the replicas'.
pub fn mempool(outcome: &mut Outcome, config: &Config, requests: &[ClientRequest]) {
    if requests.is_empty() {
        return;
    }
    let txs = requests.len() as f64;
    let ids: Vec<TxId> = requests.iter().map(|r| r.transaction.id).collect();
    let capacity = config.mempool_size.max(requests.len());
    let mut pool = Mempool::with_shards(capacity, config.mempool_shards);
    let begin = Instant::now();
    for request in requests {
        black_box(pool.push(request.transaction.clone()));
    }
    outcome.set(
        "mempool.push_ns_per_tx",
        begin.elapsed().as_nanos() as f64 / txs,
    );
    let begin = Instant::now();
    while !pool.is_empty() {
        black_box(pool.next_batch(config.block_size));
    }
    outcome.set(
        "mempool.next_batch_ns_per_tx",
        begin.elapsed().as_nanos() as f64 / txs,
    );
    // What a non-proposer does: the transactions sit in its pool until the
    // block carrying them commits.
    for request in requests {
        pool.push(request.transaction.clone());
    }
    let begin = Instant::now();
    for block in ids.chunks(config.block_size) {
        black_box(pool.remove_committed(block));
    }
    outcome.set(
        "mempool.remove_ns_per_tx",
        begin.elapsed().as_nanos() as f64 / txs,
    );
}

/// `forest.*` and the read half of `storage.*`, on replica 0's final state:
/// the prefix fingerprint at the final chain length (what the TCP node
/// recomputes per commit), a checkpoint image encoded and decoded, and —
/// for durable workloads — that image installed into a fresh log and the
/// replay's own log replayed.
pub fn forest_and_storage(
    outcome: &mut Outcome,
    spec: &Spec,
    config: &Config,
    replay: &Replay,
    dir: &Path,
) {
    let Some(host) = replay.hosts.first() else {
        return;
    };
    let replica = host.replica();
    let (forest, ledger) = (replica.forest(), replica.ledger());
    let committed = ledger.committed_txs().max(1) as f64;
    outcome.set(
        "forest.prefix_fp_us",
        ns_per_iter(20, |_| {
            black_box(ledger.chain_fingerprint_prefix(black_box(ledger.len())));
        }) / 1e3,
    );
    let mut image = Vec::new();
    outcome.set(
        "forest.snapshot_encode_ms",
        ns_per_iter(5, |_| image = Snapshot::encode(forest, ledger)) / 1e6,
    );
    outcome.set(
        "forest.snapshot_decode_ms",
        ns_per_iter(5, |_| {
            black_box(Snapshot::decode(black_box(&image)).expect("own image decodes"));
        }) / 1e6,
    );
    outcome.set(
        "forest.snapshot_bytes_per_tx",
        image.len() as f64 / committed,
    );

    let Some(log) = replica.storage().filter(|_| config.durable_log) else {
        return;
    };
    let records = log.replay().records.len().max(1) as f64;
    let replay_ns = ns_per_iter(5, |_| {
        black_box(log.replay());
    });
    outcome.set("storage.replay_ms", replay_ns / 1e6);
    outcome.set("storage.replay_records_per_s", records / (replay_ns / 1e9));
    let mut fresh = if spec.backend == Backend::Sim {
        SegmentLog::in_memory(config.segment_bytes, config.fsync_interval)
    } else {
        let probe_dir = dir.join("probe-checkpoint");
        let _ = std::fs::remove_dir_all(&probe_dir);
        SegmentLog::on_disk(&probe_dir, config.segment_bytes, config.fsync_interval)
            .expect("create checkpoint probe directory")
    };
    let height = ledger.len() as u64;
    outcome.set(
        "storage.checkpoint_install_ms",
        ns_per_iter(5, |i| {
            black_box(fresh.install_checkpoint(height + i, &image));
        }) / 1e6,
    );
}

/// `storage.*` write half, from the traced backend's own counters.
pub fn storage_writes(outcome: &mut Outcome, replay: &Replay, nodes: usize) {
    let stats = replay.storage.lock().expect("storage stats lock poisoned");
    if stats.appends == 0 {
        return;
    }
    // The counters sum over all replicas; every replica logs every block.
    let per_replica_txs = (replay.committed_txs.max(1) * nodes as u64) as f64;
    let mut sync_us: Vec<f64> = stats.sync_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    outcome.set(
        "storage.sync_us_p50",
        stats::percentile(&mut sync_us, 0.50).unwrap_or(0.0),
    );
    outcome.set(
        "storage.sync_us_p99",
        stats::percentile_sorted(&sync_us, 0.99).unwrap_or(0.0),
    );
    outcome.set(
        "storage.records_per_tx",
        stats.appends as f64 / per_replica_txs,
    );
    outcome.set(
        "storage.syncs_per_ktx",
        stats.sync_ns.len() as f64 / (per_replica_txs / 1e3),
    );
    outcome.set(
        "storage.disk_bytes_per_tx",
        (stats.appended_bytes + stats.checkpoint_bytes) as f64 / per_replica_txs,
    );
}

/// `sim.queue_ns_per_event`: schedule + pop on an `EventQueue` held at the
/// depth the measured run peaked at, with the delay spread of a LAN run.
pub fn event_queue(outcome: &mut Outcome, depth: u64) {
    let depth = depth.clamp(1, 2_000_000);
    let mut queue: EventQueue<u64> = EventQueue::new();
    // A cheap LCG keeps the probe free of the simulator's own RNG.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut delay = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        100_000 + (state >> 44) % 400_000
    };
    for i in 0..depth {
        queue.schedule(SimTime(delay()), i);
    }
    let operations = 1_000_000u64;
    let ns = ns_per_iter(operations, |i| {
        let (now, _) = queue.pop().expect("queue stays at depth");
        queue.schedule(SimTime(now.as_nanos() + delay()), i);
    });
    outcome.set("sim.queue_ns_per_event", ns);
}

/// `sim.threads2_speedup`: the workload at a tenth of its length on one
/// engine thread against two. Below 1 means sharding costs more than the
/// second core returns.
pub fn threads2_speedup(outcome: &mut Outcome, spec: &Spec, seed: u64, runtime: SimDuration) {
    let short = SimDuration::from_nanos(runtime.as_nanos() / 10);
    let mut walls = [0.0f64; 2];
    let mut fingerprints = Vec::new();
    for (slot, threads) in [1usize, 2].into_iter().enumerate() {
        let (config, mut options) = spec.sim_run(seed, short);
        options.threads = threads;
        let begin = Instant::now();
        let report = SimRunner::new(config, spec.protocol, options).run();
        walls[slot] = begin.elapsed().as_secs_f64();
        fingerprints.push(report.ledger_fingerprint);
    }
    outcome.set("sim.threads2_speedup", walls[0] / walls[1]);
    outcome.require(
        fingerprints[0] == fingerprints[1],
        "engine threads 1 and 2 disagree on the ledger",
    );
}

/// `verify.pool_msgs_per_s`: the replay's envelopes through a `VerifyPool`
/// with the worker count the workload's backend gives it.
pub fn verify_pool(outcome: &mut Outcome, spec: &Spec, nodes: usize, replay: &Replay) {
    let workers = match spec.backend {
        Backend::Sim => return,
        Backend::Threaded => bamboo_core::DEFAULT_VERIFY_WORKERS,
        Backend::Tcp => bamboo_net::DEFAULT_NODE_VERIFY_WORKERS,
    };
    if replay.messages.is_empty() {
        return;
    }
    let pool = VerifyPool::new(nodes, workers, |_, verified| {
        black_box(verified);
    });
    let handle = pool.handle();
    let submitted = replay.messages.len() as u64;
    let begin = Instant::now();
    for (from, message) in &replay.messages {
        handle.submit_unicast(*from, *from, (**message).clone());
    }
    let deadline = begin + Duration::from_secs(5);
    while pool.processed() < submitted && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let elapsed = begin.elapsed().as_secs_f64();
    let processed = pool.processed();
    drop(handle);
    pool.shutdown();
    outcome.set("verify.pool_msgs_per_s", processed as f64 / elapsed);
    outcome.require(
        processed == submitted,
        "verify pool probe did not drain in 5 s",
    );
}
