//! Micro-benchmarks of the framework components (not a paper figure; used as
//! an ablation of where time goes inside a replica).
//!
//! Covers: SHA-256 hashing, signing/verification, block-forest insertion and
//! chain predicates, quorum accumulation, and mempool batching. Uses the
//! wall-clock harness from `bamboo_bench::harness` (no external bench
//! framework): the suite runs in passes, and every micro is the set of its
//! per-pass samples under one row name.

use bamboo_bench::harness::{bench, bench_with_setup, PASSES};
use bamboo_bench::{banner, bench_rows, save_rows, Higher, RowFile, Wall};
use bamboo_core::{Metrics, Record, RunOptions, SegmentLog, SimRunner, VerifyPool};
use bamboo_crypto::{sha256, KeyPair, Sha256};
use bamboo_forest::{BlockForest, CommittedBlock, Ledger, Snapshot};
use bamboo_mempool::Mempool;
use bamboo_sim::{EventQueue, SimRng};
use bamboo_types::{
    Authenticator, Block, BlockId, Config, Message, NodeId, ProtocolKind, QuorumCert, SharedBlock,
    SimDuration, SimTime, Transaction, TxId, View, Vote,
};

fn chain_blocks(len: u64, txs_per_block: u64) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut parent = BlockId::GENESIS;
    let mut height = bamboo_types::Height(0);
    for view in 1..=len {
        let payload: Vec<Transaction> = (0..txs_per_block)
            .map(|i| Transaction::new(NodeId(9), view * 10_000 + i, 128, SimTime::ZERO))
            .collect();
        let block = Block::new(
            View(view),
            height.next(),
            parent,
            NodeId(view % 4),
            QuorumCert::genesis(),
            payload,
        );
        parent = block.id;
        height = block.height;
        blocks.push(block);
    }
    blocks
}

fn bench_crypto(out: &mut RowFile) {
    let data = vec![0xa5u8; 1024];
    out.rows.push(bench("sha256_1k", || sha256(&data)));
    // The fallback rounds on the same host: the ratio of the two rows is the
    // SHA-NI kernel's gain, and a ratio near 1 says the host has no `sha_ni`.
    out.rows.push(bench("sha256_1k_portable", || {
        let mut hasher = Sha256::portable();
        hasher.update(&data);
        hasher.finalize()
    }));
    // A transaction id stores no digest: block ids, fingerprints and client
    // signatures hash it where they use it, one 16-byte SHA-256 each.
    let id = TxId {
        client: NodeId(1_000_042),
        seq: 77,
    };
    out.rows
        .push(bench("txid_digest", || std::hint::black_box(id).digest()));

    let kp = KeyPair::from_seed(1);
    out.rows.push(bench("sign", || kp.sign(&data)));
    let sig = kp.sign(&data);
    out.rows
        .push(bench("verify", || kp.public_key().verify(&data, &sig)));

    // The consensus hot path signs and verifies 40-byte vote messages, not
    // kilobyte payloads — these are the numbers the cost model's `t_CPU`
    // stands in for.
    let block = BlockId(bamboo_crypto::Digest::of(b"bench-vote"));
    out.rows.push(bench("sign_vote", || {
        Vote::new(block, View(7), NodeId(1), &kp)
    }));
    let vote = Vote::new(block, View(7), NodeId(1), &kp);
    let pk = kp.public_key();
    out.rows.push(bench("verify_vote", || vote.verify(&pk)));

    // 64 individual vote checks (each of which allocates its signing-bytes
    // buffer).
    let keys: Vec<KeyPair> = (0..64).map(KeyPair::from_seed).collect();
    let votes: Vec<Vote> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| Vote::new(block, View(7), NodeId(i as u64), k))
        .collect();
    out.rows.push(bench("verify_64_individual", || {
        votes
            .iter()
            .zip(&keys)
            .all(|(vote, key)| vote.verify(&key.public_key()))
    }));
}

/// The authenticated ingress stage at n = 32: a proposal carrying a
/// 22-signer justify QC is broadcast to 31 peers.
///
/// * `verify_inline_throughput` — what per-replica inline ingress costs: all
///   31 recipients verify the certificate independently.
/// * `verify_pool_throughput` — the cluster-level verify pool: each unique
///   message is verified once by a worker and the proof token is fanned out.
///
/// The pool wins on redundancy elimination alone (31x less signature work
/// per broadcast), before any thread-level parallelism is counted.
fn bench_verify_stage(out: &mut RowFile) {
    const NODES: usize = 32;
    const MSGS_PER_ITER: u64 = 4;
    let keys: Vec<KeyPair> = (0..NODES as u64).map(KeyPair::from_seed).collect();
    let parent = BlockId(bamboo_crypto::Digest::of(b"certified-parent"));
    let quorum_votes: Vec<Vote> = keys
        .iter()
        .enumerate()
        .take(bamboo_types::ids::quorum_threshold(NODES))
        .map(|(i, k)| Vote::new(parent, View(1), NodeId(i as u64), k))
        .collect();
    let justify = QuorumCert::from_votes(parent, View(1), &quorum_votes);
    let messages: Vec<Message> = (0..MSGS_PER_ITER)
        .map(|i| {
            Message::Proposal(SharedBlock::new(Block::new(
                View(2),
                bamboo_types::Height(2),
                parent,
                NodeId(i % NODES as u64),
                justify.clone(),
                Vec::new(),
            )))
        })
        .collect();

    let mut auth = Authenticator::for_nodes(NODES);
    out.rows.push(bench("verify_inline_throughput", || {
        let mut accepted = 0u32;
        for message in &messages {
            // Every one of the 31 recipients re-verifies the same broadcast.
            for _ in 1..NODES {
                if auth.authenticate(NodeId(0), message.clone()).is_ok() {
                    accepted += 1;
                }
            }
        }
        accepted
    }));

    let pool = VerifyPool::new(NODES, 2, |_to, _verified| {});
    let handle = pool.handle();
    let mut submitted = 0u64;
    out.rows.push(bench("verify_pool_throughput", || {
        for message in &messages {
            handle.submit_broadcast(NodeId(0), message.clone());
        }
        submitted += MSGS_PER_ITER;
        // Wait until the pool has drained this iteration's submissions;
        // yield so the workers get the core on small machines.
        while pool.processed() < submitted {
            std::thread::yield_now();
        }
    }));
    drop(handle);
    pool.shutdown();
}

fn bench_forest(out: &mut RowFile) {
    let blocks = chain_blocks(200, 10);
    // Insert the shared handles the way the replica does with blocks received
    // off the wire: each insert is a pointer bump, never a payload copy.
    let shared: Vec<SharedBlock> = blocks.iter().cloned().map(SharedBlock::new).collect();
    out.rows.push(bench_with_setup(
        "forest_insert_200_blocks",
        BlockForest::new,
        |mut forest| {
            for block in &shared {
                forest.insert(block.clone()).unwrap();
            }
            forest
        },
    ));

    let mut forest = BlockForest::new();
    for block in &blocks {
        forest.insert(block.clone()).unwrap();
        forest
            .register_qc(QuorumCert {
                block: block.id,
                view: block.view,
                signatures: Default::default(),
            })
            .unwrap();
    }
    let tip = blocks.last().unwrap().id;
    out.rows.push(bench("forest_certified_chain_k3", || {
        forest.certified_chain(tip, 3, false).map(|head| head.id)
    }));
    out.rows.push(bench("forest_extends_deep", || {
        forest.extends(tip, BlockId::GENESIS)
    }));

    // QC registration over a long chain: with the incremental
    // highest-certified tracking this is O(1) per QC regardless of forest
    // size (the seed implementation fell back to a full-vertex scan).
    let qc_blocks = chain_blocks(1_000, 1);
    let mut uncertified = BlockForest::new();
    for block in &qc_blocks {
        uncertified.insert(block.clone()).unwrap();
    }
    let qcs: Vec<QuorumCert> = qc_blocks
        .iter()
        .map(|block| QuorumCert {
            block: block.id,
            view: block.view,
            signatures: Default::default(),
        })
        .collect();
    out.rows.push(bench_with_setup(
        "forest_register_qc_1k",
        || uncertified.clone(),
        |mut forest| {
            for qc in &qcs {
                forest.register_qc(qc.clone()).unwrap();
            }
            forest
        },
    ));
}

fn bench_broadcast(out: &mut RowFile) {
    // A 400-transaction proposal fanned out to 32 peers — the hot path of
    // every view at n = 32. The message holds the block behind a shared
    // handle, so each per-peer clone is a pointer bump, not a payload copy.
    let payload: Vec<Transaction> = (0..400)
        .map(|i| Transaction::new(NodeId(1), i, 128, SimTime::ZERO))
        .collect();
    let block = Block::new(
        View(1),
        bamboo_types::Height(1),
        BlockId::GENESIS,
        NodeId(0),
        QuorumCert::genesis(),
        payload,
    );
    let message = Message::Proposal(SharedBlock::new(block));
    out.rows.push(bench("broadcast_fanout_32_peers", || {
        let mut outbox: Vec<Message> = Vec::with_capacity(32);
        for _ in 0..32 {
            outbox.push(message.clone());
        }
        outbox
    }));
}

fn bench_quorum(out: &mut RowFile) {
    let keys: Vec<KeyPair> = (0..32).map(KeyPair::from_seed).collect();
    let block = BlockId(bamboo_crypto::Digest::of(b"bench"));
    let votes: Vec<Vote> = keys
        .iter()
        .enumerate()
        .map(|(i, kp)| Vote::new(block, View(5), NodeId(i as u64), kp))
        .collect();
    out.rows.push(bench_with_setup(
        "quorum_accumulate_32_votes",
        || bamboo_core::QuorumTracker::new(32),
        |mut tracker| {
            for vote in &votes {
                let _ = tracker.add_vote(vote);
            }
            tracker
        },
    ));
}

/// What a certificate and a commit sample cost to keep: a QC is cloned at
/// least three times per delivered proposal (a reference-count bump at any
/// quorum size), built once per view from unordered votes (one sort and the
/// aggregate hash), verified at every recipient's ingress, and every
/// committed transaction is recorded into the latency histograms.
fn bench_bookkeeping(out: &mut RowFile) {
    let block = BlockId(bamboo_crypto::Digest::of(b"bench-qc"));
    let votes: Vec<Vote> = (0..667u64)
        .map(|i| (i * 389 + 17) % 667)
        .map(|i| Vote::new(block, View(7), NodeId(i), &KeyPair::from_seed(i)))
        .collect();
    let qc_22 = QuorumCert::from_votes(block, View(7), &votes[..22]);
    let qc_667 = QuorumCert::from_votes(block, View(7), &votes);
    out.rows
        .push(bench("qc_clone_22_signers", || qc_22.clone()));
    out.rows
        .push(bench("qc_clone_667_signers", || qc_667.clone()));
    out.rows.push(bench("qc_from_votes_667", || {
        QuorumCert::from_votes(block, View(7), &votes)
    }));
    // Ingress: the threshold, the signer range, then every signer's
    // signature recomputed into the one aggregate hash (22 of n = 32, and
    // 667 of n = 1,000).
    let in_32: Vec<Vote> = (votes.iter())
        .filter(|vote| vote.voter.as_u64() < 32)
        .take(22)
        .cloned()
        .collect();
    let qc_22_of_32 = QuorumCert::from_votes(block, View(7), &in_32);
    for (name, qc, nodes) in [
        ("qc_verify_22_signers", &qc_22_of_32, 32),
        ("qc_verify_667_signers", &qc_667, 1_000),
    ] {
        let mut auth = Authenticator::for_nodes(nodes);
        assert_eq!(auth.verify_qc(qc), Ok(()));
        out.rows.push(bench(name, || auth.verify_qc(qc).is_ok()));
    }

    // Latencies spread over 1-50 ms, as in the tx-heavy benchmark run.
    let mut rng = SimRng::new(21);
    let latencies: Vec<u64> = (0..1_000_000)
        .map(|_| rng.uniform_range(1_000_000, 50_000_000))
        .collect();
    out.rows.push(bench_with_setup(
        "metrics_record_commit_1m",
        || Metrics::new(SimDuration::from_secs(1)),
        |mut metrics| {
            for &ns in &latencies {
                metrics.record_commit(SimTime::ZERO, SimTime(ns / 2), SimTime(ns));
            }
            (metrics.latency(), metrics.client_latency())
        },
    ));
}

fn bench_mempool(out: &mut RowFile) {
    let txs: Vec<Transaction> = (0..4_000)
        .map(|i| Transaction::new(NodeId(1), i, 128, SimTime::ZERO))
        .collect();
    out.rows.push(bench_with_setup(
        "mempool_push_4000_batch_400",
        || Mempool::new(10_000),
        |mut pool| {
            // The client-ingest hot path: workload arrivals land in batches,
            // so capacity is reserved once and each id is hashed once.
            pool.push_batch(txs.iter().cloned());
            while !pool.is_empty() {
                pool.next_batch(400);
            }
            pool
        },
    ));

    // What every replica does for every committed block it did not propose:
    // probe its pool for a block's worth of ids, none of which it holds.
    let mut pool = Mempool::new(10_000);
    pool.push_batch(txs.iter().cloned());
    let elsewhere: Vec<Transaction> = (0..400)
        .map(|i| Transaction::new(NodeId(2), i, 128, SimTime::ZERO))
        .collect();
    out.rows.push(bench("txid_set_lookup_miss", || {
        pool.remove_committed(elsewhere.iter().map(|tx| &tx.id))
    }));
}

/// The durable segment log: the write-ahead path every committed block and
/// pre-vote safety record takes in durable-log mode, and the replay path a
/// restarting replica walks. In-memory backend, so the append micro times
/// the log's sizing, batching and rotation (the backend keeps the record as
/// handles) and the replay micro the layout, CRC and decode a restart pays.
fn bench_storage(out: &mut RowFile) {
    const RECORDS: u64 = 1_024;
    // A small committed block: one 128-byte transaction, ~300 bytes framed.
    let block = chain_blocks(1, 1).pop().expect("one block");
    let record = Record::Committed(CommittedBlock {
        block: SharedBlock::new(block),
        committed_in_view: View(2),
        committed_at: SimTime::ZERO,
    });
    out.rows.push(bench_with_setup(
        "log_append_1k",
        || SegmentLog::in_memory(1 << 20, 8),
        |mut log| {
            for _ in 0..RECORDS {
                log.append(record.clone());
            }
            log.sync();
            log
        },
    ));

    // Replay of a 1k-record log (what a durable restart pays before it can
    // rejoin), decoded across several rotated segments.
    let mut log = SegmentLog::in_memory(64 * 1024, 8);
    for _ in 0..1_000 {
        log.append(record.clone());
    }
    log.sync();
    out.rows.push(bench("log_replay_1k", || {
        let replayed = log.replay();
        assert_eq!(replayed.records.len(), 1_000);
        replayed
    }));
}

/// One checkpoint cut — cut the chunk for the last 16 committed blocks and
/// install it into the log, the replica's path — at two ledger lengths. The
/// pair is the flatness probe: a checkpoint costs O(interval), so
/// `bench_diff` should see the 1024-block cut stay level with the 64-block
/// one. `checkpoint_image_1024` is the cost the cut defers: laying out a
/// 1024-block image stored as 64 cuts, which a restart or a served state
/// transfer pays once.
fn bench_checkpoint(out: &mut RowFile) {
    const INTERVAL: usize = 16;
    for (name, len) in [("checkpoint_cut_64", 64), ("checkpoint_cut_1024", 1_024)] {
        let mut forest = BlockForest::new();
        let mut ledger = Ledger::new();
        let mut stored = SegmentLog::in_memory(1 << 20, 8);
        for block in chain_blocks(len, 4) {
            let id = block.id;
            forest.insert(block).unwrap();
            let newly = forest.commit(id).unwrap();
            ledger.append(newly, View(len), SimTime::ZERO);
            forest.prune_to_committed();
            if ledger.len().is_multiple_of(INTERVAL) {
                let cut = Snapshot::cut(&forest, &ledger, ledger.len() - INTERVAL);
                stored.install_cut(ledger.len() as u64, cut);
            }
        }
        let base = Snapshot::encode(&forest, &Ledger::new());
        out.rows.push(bench_with_setup(
            name,
            || {
                // A fresh log per iteration, so the stored image does not
                // grow with the iteration count.
                let mut log = SegmentLog::in_memory(1 << 20, 8);
                log.install_checkpoint(0, &base);
                log
            },
            |mut log| {
                let cut = Snapshot::cut(&forest, &ledger, ledger.len() - INTERVAL);
                log.install_cut(len, cut);
                log
            },
        ));
        if len == 1_024 {
            out.rows.push(bench("checkpoint_image_1024", || {
                let (_, image) = stored.checkpoint().expect("64 cuts stored");
                image
            }));
        }
    }
}

/// The event queue under a simulator-shaped schedule: 64k events pushed as a
/// mix of near-future deliveries (µs-scale deltas), same-instant ties and
/// far-out timers, interleaved with pops — the access pattern of one
/// `SimRunner` run compressed into a micro — and 64k deliveries as
/// broadcast fan-outs, the shape most of a message-heavy run's traffic
/// takes.
fn bench_event_queue(out: &mut RowFile) {
    const EVENTS: u64 = 65_536;
    let mut rng = SimRng::new(42);
    // Pre-generate the schedule so the micro times the queue, not the RNG.
    let mut deltas: Vec<u64> = Vec::with_capacity(EVENTS as usize);
    for i in 0..EVENTS {
        deltas.push(match i % 16 {
            // Far timer (pacemaker view timeout scale).
            0 => 100_000_000 + rng.choose_index(1_000_000) as u64,
            // Same-instant tie with the previous event.
            1 | 2 => 0,
            // Near-future delivery: NIC + link latency scale.
            _ => 50_000 + rng.choose_index(400_000) as u64,
        });
    }
    out.rows.push(bench("event_queue_schedule_pop_64k", || {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        let mut popped = 0u64;
        for (i, delta) in deltas.iter().enumerate() {
            let at = if *delta == 0 {
                last
            } else {
                last = SimTime(now.as_nanos() + delta);
                last
            };
            queue.schedule(at, i as u64);
            // Keep roughly half the schedule in flight, like a live run.
            if i % 2 == 1 {
                let (t, _) = queue.pop().expect("queue is non-empty");
                now = t;
                popped += 1;
            }
        }
        while queue.pop().is_some() {
            popped += 1;
        }
        popped
    }));
    // The same volume as the deliveries of broadcasts to 31 peers (n = 32):
    // one fan-out entry per broadcast, every recipient's delay drawn up
    // front, about half the deliveries in flight.
    const PEERS: usize = 31;
    let delays: Vec<u64> = (0..EVENTS)
        .map(|_| 50_000 + rng.choose_index(400_000) as u64)
        .collect();
    out.rows.push(bench("event_queue_fanout_64k", || {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut deliveries = Vec::with_capacity(PEERS);
        let mut now = SimTime::ZERO;
        let mut popped = 0u64;
        for (broadcast, delays) in delays.chunks(PEERS).enumerate() {
            deliveries.clear();
            let to = (0..PEERS as u32).zip(delays);
            deliveries.extend(to.map(|(to, delay)| (SimTime(now.as_nanos() + delay), to)));
            queue.schedule_fanout(broadcast as u64, &deliveries);
            for _ in 0..delays.len() / 2 {
                let (t, _) = queue.pop().expect("queue is non-empty");
                now = t;
                popped += 1;
            }
        }
        while queue.pop().is_some() {
            popped += 1;
        }
        popped
    }));
}

/// End-to-end engine throughput: a broadcast-heavy n = 64 HotStuff run,
/// reported as simulation events per wall-clock second (the engine's
/// headline speed metric; higher is better).
fn bench_sim_engine(out: &mut RowFile) {
    let config = Config {
        nodes: 64,
        block_size: 400,
        payload_size: 128,
        runtime: SimDuration::from_millis(100),
        arrival_rate: Some(30_000.0),
        timeout: SimDuration::from_millis(100),
        seed: bamboo_bench::EVAL_SEED,
        ..Config::default()
    };
    let run = || {
        SimRunner::new(
            config.clone(),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .run()
    };
    // The run is deterministic, so the event count is a constant of the
    // configuration; take it from one untimed run.
    let events = run().events_processed as f64;
    let pass = bench("sim_events_per_sec_n64", run);
    let events_per_sec = events / (pass.value / 1e9);
    println!(
        "{:<36} {events_per_sec:>14.0} events/s  ({events} events per run)",
        ""
    );
    out.push(Wall, pass.name, events_per_sec, "events_per_sec", Higher);
}

fn main() {
    banner("Micro-benchmarks: component costs inside a replica");
    let mut out = bench_rows("micro_components");
    // Every pass visits every micro once, so the samples of one micro are
    // seconds apart (see `harness::PASSES`).
    for pass in 1..=PASSES {
        println!("\n--- pass {pass} of {PASSES} ---");
        bench_crypto(&mut out);
        bench_verify_stage(&mut out);
        bench_forest(&mut out);
        bench_broadcast(&mut out);
        bench_quorum(&mut out);
        bench_bookkeeping(&mut out);
        bench_mempool(&mut out);
        bench_storage(&mut out);
        bench_checkpoint(&mut out);
        bench_event_queue(&mut out);
        bench_sim_engine(&mut out);
    }
    save_rows(&out);
}
