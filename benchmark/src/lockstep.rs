//! The traced lockstep replay: the benchmark itself is the backend.
//!
//! All `n` `NodeHost`s of a workload run on one thread over
//! `BufferedTransport`, driven by one loop on a virtual clock, with a span
//! around every call into a layer. The loop stands where `SimRunner`, the
//! threaded cluster and the TCP node stand in the measured runs, and does
//! what they do between layers — and nothing else, so a span's self time is
//! that layer's cost per call:
//!
//! * client batches pass the **edge**: `Authenticator::verify_client_batch`
//!   (the benchmark's own authenticator, so the check gets its own span),
//!   then `NodeHost::handle_client_batch` on hosts configured without signed
//!   clients, whose time is then admission alone;
//! * every outbound message is authenticated with
//!   `Authenticator::authenticate_shared` — once per envelope, as the
//!   simulator and the threaded verify pool do, or once per recipient behind
//!   `wire`/`frame` encode and decode for the TCP workload — and delivered
//!   with `NodeHost::handle_verified`;
//! * durable workloads mount a [`TracedBackend`] under each replica's
//!   `SegmentLog`, so appends, syncs and checkpoint writes show up as child
//!   spans of the step that caused them.
//!
//! Virtual clock: a message sent at `t` is delivered at `t + hop` (FIFO, one
//! fixed hop per workload), view timers, delayed proposals and sync timers
//! fire at their deadlines, open-loop client ticks at their due instants.
//! Modelled CPU charges are ignored — host time is what is being measured.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bamboo_core::replica::ReplicaEvent;
use bamboo_core::storage::{FileBackend, MemoryBackend, SegmentBackend, SegmentLog};
use bamboo_core::{BufferedTransport, NodeHost, StepReport};
use bamboo_crypto::KeyPair;
use bamboo_net::frame::{encode_frame, FrameDecoder, FrameKind};
use bamboo_types::wire::{decode_message, encode_message};
use bamboo_types::{
    Authenticator, ClientRequest, Config, NodeId, SharedMessage, SimTime, Transaction,
    VerifiedMessage,
};

use crate::driver::{into_ticks, request_stream, Tick};
use crate::spec::{Backend, Spec};
use crate::trace::Tracer;

/// Host-time budget of one replay.
const REPLAY_DEADLINE: Duration = Duration::from_secs(10);
/// Envelopes and requests kept for the stand-alone probes.
const KEPT_MESSAGES: usize = 20_000;

/// Byte and call counters of the storage backend, with every sync's
/// duration (the spans only keep totals).
#[derive(Default)]
pub struct StorageStats {
    pub appends: u64,
    pub appended_bytes: u64,
    pub sync_ns: Vec<u64>,
    pub checkpoint_bytes: u64,
}

/// A `SegmentBackend` that records a span around the operations a replica
/// performs on its commit path and forwards everything to `inner`.
struct TracedBackend<B> {
    inner: B,
    tracer: Tracer,
    stats: Arc<Mutex<StorageStats>>,
}

impl<B: SegmentBackend> SegmentBackend for TracedBackend<B> {
    fn append(&mut self, segment: u64, bytes: &[u8]) {
        self.tracer.enter_nested("storage.append");
        self.inner.append(segment, bytes);
        self.tracer.exit();
        let mut stats = self.stats.lock().expect("storage stats lock poisoned");
        stats.appends += 1;
        stats.appended_bytes += bytes.len() as u64;
    }

    fn sync(&mut self) {
        let begin = Instant::now();
        self.tracer.enter_nested("storage.sync");
        self.inner.sync();
        self.tracer.exit();
        self.stats
            .lock()
            .expect("storage stats lock poisoned")
            .sync_ns
            .push(begin.elapsed().as_nanos() as u64);
    }

    fn drop_buffered(&mut self) {
        self.inner.drop_buffered();
    }

    fn crash(&mut self) {
        self.inner.crash();
    }

    fn segments(&self) -> Vec<(u64, Vec<u8>)> {
        self.inner.segments()
    }

    fn set_segment(&mut self, segment: u64, bytes: Vec<u8>) {
        self.inner.set_segment(segment, bytes);
    }

    fn drop_below(&mut self, segment: u64) {
        self.inner.drop_below(segment);
    }

    fn put_checkpoint(&mut self, height: u64, bytes: &[u8]) {
        self.tracer.enter_nested("storage.put_checkpoint");
        self.inner.put_checkpoint(height, bytes);
        self.tracer.exit();
        self.stats
            .lock()
            .expect("storage stats lock poisoned")
            .checkpoint_bytes += bytes.len() as u64;
    }

    fn checkpoint(&self) -> Option<(u64, Vec<u8>)> {
        self.inner.checkpoint()
    }
}

/// What is in flight between two hosts.
enum Payload {
    /// Authenticated at the sender, as the in-process backends do.
    Verified(VerifiedMessage),
    /// An encoded frame; the recipient decodes and authenticates it.
    Frame { from: NodeId, bytes: Arc<[u8]> },
}

struct Delivery {
    at: u64,
    to: usize,
    view: u64,
    payload: Payload,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Deadline {
    Timer(u64),
    Proposal(u64),
    Sync,
}

/// How client requests enter the replay.
enum Feed {
    /// The pre-scheduled ticks of the request stream, in due order.
    Open(VecDeque<Tick>),
    /// Keep `outstanding` transactions in flight, topped up in `chunk`s of
    /// single-request batches (what `TcpCluster::submit_round_robin` sends).
    Closed {
        outstanding: u64,
        chunk: u64,
        next_seq: u64,
        payload: usize,
        keypair: KeyPair,
    },
}

/// What one replay produced.
pub struct Replay {
    pub wall_ns: u64,
    pub committed_txs: u64,
    pub admitted_txs: u64,
    pub delivered_msgs: u64,
    pub encoded_msgs: u64,
    pub wire_bytes: u64,
    pub frame_bytes_decoded: u64,
    pub rejections: u64,
    pub hit_deadline: bool,
    /// Final hosts, for the stand-alone probes (ledger, forest, log).
    pub hosts: Vec<NodeHost>,
    pub storage: Arc<Mutex<StorageStats>>,
    /// A sample of the envelopes and requests that crossed the replay.
    pub messages: Vec<(NodeId, SharedMessage)>,
    pub requests: Vec<ClientRequest>,
}

struct Lockstep {
    hosts: Vec<NodeHost>,
    auth: Authenticator,
    signed: bool,
    codec: bool,
    hop_ns: u64,
    tracer: Tracer,
    effects: BufferedTransport,
    inflight: VecDeque<Delivery>,
    deadlines: BinaryHeap<Reverse<(u64, u64, usize, Deadline)>>,
    deadline_seq: u64,
    decoders: Vec<FrameDecoder>,
    now: u64,
    replay: Replay,
}

impl Lockstep {
    fn absorb(&mut self, node: usize, report: StepReport) {
        if node == 0 {
            self.replay.committed_txs += report
                .committed
                .iter()
                .map(|b| b.payload.len() as u64)
                .sum::<u64>();
        }
        let mut effects = std::mem::take(&mut self.effects);
        for (view, at) in effects.timers.drain(..) {
            self.push_deadline(at, node, Deadline::Timer(view.as_u64()));
        }
        for (view, at) in effects.proposals.drain(..) {
            self.push_deadline(at, node, Deadline::Proposal(view.as_u64()));
        }
        for at in effects.sync_timers.drain(..) {
            self.push_deadline(at, node, Deadline::Sync);
        }
        let from = NodeId(node as u64);
        let nodes = self.hosts.len();
        for (dest, message) in effects.sends.drain(..) {
            let view = message.view().map_or(0, |v| v.as_u64());
            let recipients = match dest {
                // Replies to clients have no host to go to.
                Some(to) if to.index() >= nodes => continue,
                Some(to) => to.index()..to.index() + 1,
                None => 0..nodes,
            };
            if self.replay.messages.len() < KEPT_MESSAGES {
                self.replay.messages.push((from, message.clone()));
            }
            if self.codec {
                self.tracer.enter_nested("wire.encode_message");
                let body = encode_message(&message);
                self.tracer.exit();
                self.tracer.enter_nested("frame.encode_frame");
                let bytes: Arc<[u8]> = encode_frame(FrameKind::Msg, &body).into();
                self.tracer.exit();
                self.replay.encoded_msgs += 1;
                self.replay.wire_bytes += body.len() as u64;
                for to in recipients.filter(|&to| to != node) {
                    self.inflight.push_back(Delivery {
                        at: self.now + self.hop_ns,
                        to,
                        view,
                        payload: Payload::Frame {
                            from,
                            bytes: Arc::clone(&bytes),
                        },
                    });
                }
            } else {
                self.tracer.enter_nested("auth.authenticate_shared");
                let verdict = self.auth.authenticate_shared(from, message);
                self.tracer.exit();
                let Ok(token) = verdict else {
                    self.replay.rejections += 1;
                    continue;
                };
                for to in recipients.filter(|&to| to != node) {
                    self.inflight.push_back(Delivery {
                        at: self.now + self.hop_ns,
                        to,
                        view,
                        payload: Payload::Verified(token.clone()),
                    });
                }
            }
        }
        self.effects = effects;
    }

    fn push_deadline(&mut self, at: SimTime, node: usize, kind: Deadline) {
        self.deadline_seq += 1;
        self.deadlines
            .push(Reverse((at.as_nanos(), self.deadline_seq, node, kind)));
    }

    fn deliver(&mut self, delivery: Delivery) {
        let Delivery {
            to, view, payload, ..
        } = delivery;
        self.tracer.enter("driver.step", view);
        let token = match payload {
            Payload::Verified(token) => Some(token),
            Payload::Frame { from, bytes } => {
                self.tracer.enter_nested("frame.decode");
                self.decoders[to].push(&bytes);
                let frame = self.decoders[to].next_frame();
                self.tracer.exit();
                self.replay.frame_bytes_decoded += bytes.len() as u64;
                let frame = frame
                    .expect("own frames are well-formed")
                    .expect("one whole frame was pushed");
                self.tracer.enter_nested("wire.decode_message");
                let message = decode_message(&frame.payload);
                self.tracer.exit();
                let message = SharedMessage::new(message.expect("own encoding decodes"));
                self.tracer.enter_nested("auth.authenticate_shared");
                let verdict = self.auth.authenticate_shared(from, message);
                self.tracer.exit();
                verdict.ok()
            }
        };
        match token {
            Some(token) => {
                self.tracer.enter_nested("replica.handle_verified");
                let report =
                    self.hosts[to].handle_verified(token, SimTime(self.now), &mut self.effects);
                self.tracer.exit();
                self.replay.delivered_msgs += 1;
                self.absorb(to, report);
            }
            None => self.replay.rejections += 1,
        }
        self.tracer.exit();
    }

    fn fire(&mut self, node: usize, kind: Deadline) {
        let (event, view) = match kind {
            Deadline::Timer(view) => (
                ReplicaEvent::TimerFired {
                    view: bamboo_types::View(view),
                },
                view,
            ),
            Deadline::Proposal(view) => (
                ReplicaEvent::ProposeNow {
                    view: bamboo_types::View(view),
                },
                view,
            ),
            Deadline::Sync => (ReplicaEvent::SyncTimer, 0),
        };
        self.tracer.enter("driver.step", view);
        self.tracer.enter_nested("replica.handle_event");
        let report = self.hosts[node].handle(event, SimTime(self.now), &mut self.effects);
        self.tracer.exit();
        self.absorb(node, report);
        self.tracer.exit();
    }

    fn admit(&mut self, node: usize, batch: Vec<ClientRequest>, ordinal: u64) {
        self.tracer.enter("driver.step", ordinal);
        let count = batch.len() as u64;
        if self.replay.requests.len() < KEPT_MESSAGES {
            self.replay.requests.extend(batch.iter().cloned());
        }
        let admitted = if self.signed {
            self.tracer.enter_nested("auth.verify_client_batch");
            let ok = self.auth.verify_client_batch(&batch);
            self.tracer.exit();
            ok
        } else {
            true
        };
        if admitted {
            // The hosts run without signed clients: the edge check above is
            // theirs, moved out so it can be timed on its own.
            let stripped = batch
                .into_iter()
                .map(|r| ClientRequest::unsigned(r.transaction))
                .collect();
            self.tracer.enter_nested("replica.handle_client_batch");
            let report = self.hosts[node].handle_client_batch(
                stripped,
                SimTime(self.now),
                &mut self.effects,
            );
            self.tracer.exit();
            self.replay.admitted_txs += count;
            self.absorb(node, report);
        } else {
            self.replay.rejections += count;
        }
        self.tracer.exit();
    }

    fn run(mut self, mut feed: Feed, target_txs: u64) -> Replay {
        let begin = Instant::now();
        for node in 0..self.hosts.len() {
            self.tracer.enter("driver.step", 0);
            self.tracer.enter_nested("replica.handle_event");
            let report = self.hosts[node].start(SimTime::ZERO, &mut self.effects);
            self.tracer.exit();
            self.absorb(node, report);
            self.tracer.exit();
        }
        let mut batch_ordinal = 0u64;
        let mut offered = 0u64;
        let mut steps = 0u64;
        while self.replay.committed_txs < target_txs {
            steps += 1;
            if steps % 4096 == 0 && begin.elapsed() > REPLAY_DEADLINE {
                self.replay.hit_deadline = true;
                break;
            }
            if let Feed::Closed {
                outstanding,
                chunk,
                next_seq,
                payload,
                keypair,
            } = &mut feed
            {
                while offered - self.replay.committed_txs + *chunk <= *outstanding {
                    for _ in 0..*chunk {
                        let seq = *next_seq;
                        *next_seq += 1;
                        let tx = Transaction::new(NodeId(999), seq, *payload, SimTime(self.now));
                        let request = ClientRequest::signed(tx, keypair);
                        let node = (seq % self.hosts.len() as u64) as usize;
                        batch_ordinal += 1;
                        self.admit(node, vec![request], batch_ordinal);
                    }
                    offered += *chunk;
                }
            }
            // The earliest of: next delivery, next deadline, next client tick.
            let delivery_at = self.inflight.front().map(|d| d.at);
            let deadline_at = self.deadlines.peek().map(|Reverse((at, ..))| *at);
            let tick_at = match &feed {
                Feed::Open(ticks) => ticks.front().map(|tick| tick.due_ns),
                Feed::Closed { .. } => None,
            };
            let Some(next) = [delivery_at, deadline_at, tick_at]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };
            self.now = self.now.max(next);
            if tick_at == Some(next) {
                if let Feed::Open(ticks) = &mut feed {
                    let tick = ticks.pop_front().expect("peeked");
                    offered += tick.request_dues.len() as u64;
                    for (node, batch) in tick.batches.into_iter().enumerate() {
                        if !batch.is_empty() {
                            batch_ordinal += 1;
                            self.admit(node, batch, batch_ordinal);
                        }
                    }
                }
            } else if delivery_at == Some(next) {
                let delivery = self.inflight.pop_front().expect("peeked");
                self.deliver(delivery);
            } else {
                let Reverse((_, _, node, kind)) = self.deadlines.pop().expect("peeked");
                self.fire(node, kind);
            }
        }
        self.replay.wall_ns = begin.elapsed().as_nanos() as u64;
        self.replay.hosts = self.hosts;
        self.replay
    }
}

/// Runs the workload's lockstep replay with `tracer` (enabled for the traced
/// pass, disabled for the overhead baseline).
pub fn replay(spec: &Spec, seed: u64, target_txs: u64, tracer: &Tracer, dir: &Path) -> Replay {
    let config = spec.config_for(seed);
    let storage = Arc::new(Mutex::new(StorageStats::default()));
    // Hosts run without signed clients; the replay's own authenticator does
    // the edge check (see `Lockstep::admit`).
    let host_config = Config {
        signed_requests: false,
        ..config.clone()
    };
    let hosts: Vec<NodeHost> = (0..config.nodes)
        .map(|index| {
            let mut host = NodeHost::new(
                NodeId(index as u64),
                spec.protocol,
                host_config.clone(),
                spec.replica_options(),
            );
            if config.durable_log {
                let log = traced_log(spec, &config, index, tracer, &storage, dir);
                host.replica_mut().set_storage(log);
            }
            host
        })
        .collect();

    let feed = match config.arrival_rate {
        Some(rate) => {
            // A fifth more than the target needs, so the tail of the stream
            // is still arriving when the target commits.
            let duration_ns = (target_txs as f64 / rate * 1.2e9) as u64 + 1_000_000_000;
            let stream = request_stream(&config, seed, duration_ns);
            let ticks = into_ticks(stream, spec.tick.as_nanos(), config.nodes);
            let ticks = ticks.into_iter().filter(|t| !t.request_dues.is_empty());
            Feed::Open(ticks.collect())
        }
        None => Feed::Closed {
            outstanding: spec.outstanding(),
            chunk: spec.chunk,
            next_seq: 0,
            payload: config.payload_size,
            keypair: KeyPair::client_from_seed(999),
        },
    };

    let mut auth = Authenticator::for_nodes(config.nodes);
    auth.set_signed_clients(config.signed_requests);
    let nodes = config.nodes;
    Lockstep {
        hosts,
        auth,
        signed: config.signed_requests,
        codec: spec.backend == Backend::Tcp,
        hop_ns: spec.lockstep_hop.as_nanos(),
        tracer: tracer.clone(),
        effects: BufferedTransport::new(),
        inflight: VecDeque::new(),
        deadlines: BinaryHeap::new(),
        deadline_seq: 0,
        decoders: (0..nodes).map(|_| FrameDecoder::new()).collect(),
        now: 0,
        replay: Replay {
            wall_ns: 0,
            committed_txs: 0,
            admitted_txs: 0,
            delivered_msgs: 0,
            encoded_msgs: 0,
            wire_bytes: 0,
            frame_bytes_decoded: 0,
            rejections: 0,
            hit_deadline: false,
            hosts: Vec::new(),
            storage,
            messages: Vec::new(),
            requests: Vec::new(),
        },
    }
    .run(feed, target_txs)
}

/// The replica's log over a traced backend: real files for the live durable
/// workload, the deterministic in-memory backend the simulator uses for a
/// simulated one.
fn traced_log(
    spec: &Spec,
    config: &Config,
    index: usize,
    tracer: &Tracer,
    stats: &Arc<Mutex<StorageStats>>,
    dir: &Path,
) -> SegmentLog {
    let (tracer, stats) = (tracer.clone(), Arc::clone(stats));
    let backend: Box<dyn SegmentBackend> = if spec.backend == Backend::Sim {
        Box::new(TracedBackend {
            inner: MemoryBackend::new(),
            tracer,
            stats,
        })
    } else {
        let node_dir = dir.join(format!("lockstep-node-{index}"));
        let _ = std::fs::remove_dir_all(&node_dir);
        Box::new(TracedBackend {
            inner: FileBackend::open(&node_dir).expect("create lockstep log directory"),
            tracer,
            stats,
        })
    };
    SegmentLog::new(backend, config.segment_bytes, config.fsync_interval)
}
