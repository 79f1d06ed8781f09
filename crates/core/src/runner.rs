//! The discrete-event simulation runner: one deterministic, sequential
//! event loop.
//!
//! [`SimRunner`] wires `N` replicas (each behind a [`NodeHost`]), a workload
//! generator, and the network / NIC / CPU models of `bamboo-sim` into one
//! deterministic simulation of one benchmark configuration (one point of a
//! figure); experiments run whole simulations side by side
//! ([`crate::parallel::run_all`], DESIGN.md §5). The runner only
//! simulates: it shows every replica step to its `Observer`
//! (`crate::observe`), which keeps the books and writes the [`RunReport`].
//!
//! # Clients
//!
//! The client side of a run (`Clients`) reads no loop state: its requests,
//! their client → replica delays and the edge check of their signatures are
//! a function of the workload's own RNG stream, the delays' own stream and
//! the request bytes. Each request leaves its client at its own issue instant
//! and is its own event; the generation window (`WORKLOAD_TICK`) only sets
//! how far ahead requests are made, never when one leaves. When the arrivals
//! do not depend on commits (an open-loop workload) and there are signatures
//! to check, [`SimRunner::run`] moves the client side onto one producer
//! thread at most `TICKS_AHEAD` windows ahead of the loop; otherwise each
//! window is generated inline when it falls due, and a closed-loop follow-up
//! is sent from the step that confirms its predecessor. Both paths run the
//! same window function and the loop schedules its output at the same
//! point, so the run is the same.
//!
//! # Admission
//!
//! A replica is one busy server, and a request that finds it idle is
//! admitted at its arrival instant. One that finds it busy waits in the
//! replica's inbox, and the whole inbox is admitted in one step (one checked
//! batch, `CpuModel::verify_batch`) at the first instant the CPU is free
//! with no consensus message queued: a message that arrives while the
//! replica is busy is served first.
//!
//! # Event order
//!
//! Pop the earliest event, step the replica it addresses, schedule what the
//! step produced: the queue's `(time, insertion)` order is the only order,
//! and three rules make a run a pure function of `(Config, RunOptions)`:
//!
//! * **per-replica RNG streams** — replica `r` draws all of its latency
//!   samples (the observer's client-response delays included) from
//!   `SimRng::new(seed).derive(r)`; the workload and the client → replica
//!   delays own a stream each;
//! * **windows run at their own instant** — the client window of every
//!   millisecond in `[0, runtime)` is generated before any event queued
//!   for it, and each of its requests arrives at its issue instant plus a
//!   delay drawn from the delays' own stream, in issue order;
//! * **view triggers fire where they say** — a view-triggered fault boundary
//!   takes effect right after the event that lifted the highest view any
//!   replica has reached to its view.
//!
//! The golden ledgers of `tests/engine_replay.rs` and
//! `tests/scenario_replay.rs` pin exactly this order.
//!
//! Replica effects are collected through a [`BufferedTransport`] and mapped
//! onto the event queue with the paper's delay composition (§V): normal
//! propagation delay, `2·m/b` NIC serialisation and a constant CPU cost per
//! crypto operation at a per-replica busy server (the M/D/1-style queueing
//! the model assumes). Deadlines go into the live loop's book, `Deadlines`,
//! fired by one wake-up per replica. A broadcast is **one queue entry**:
//! every recipient's delay is drawn at send time and the [`EventQueue`] holds
//! the envelope once. Each unique envelope is verified **at most once**, and
//! every recipient reads the one [`VerifiedMessage`] token by reference (a
//! forged envelope is delivered as a rejection, so every recipient still
//! books the modeled cost). Buffers and queue entries are reused across
//! events.

use std::sync::mpsc;

use bamboo_sim::{EventQueue, LatencyModel, LinkFault, NicModel, Popped, SimRng, Topology};
use bamboo_types::{
    Authenticator, Config, NodeId, ProtocolKind, SharedMessage, SimDuration, SimTime,
    VerifiedMessage, VerifiedRequests, View,
};

use crate::metrics::RunReport;
use crate::observe::{Observer, StepView};
use crate::replica::ReplicaOptions;
use crate::runtime::{
    BufferedTransport, Deadlines, NodeHost, RecoverMode, ReplicaEvent, StepReport,
};
use crate::storage::StorageFault;
use crate::workload::{Arrival, ClosedLoopWorkload, OpenLoopWorkload, Workload};

/// RNG stream label of the workload generator. Replica `r` uses stream `r`;
/// no simulation has 2^64 − 1 replicas, so the label can never collide with
/// a replica stream.
const WORKLOAD_STREAM: u64 = u64::MAX;

/// RNG stream label of the client → replica delays, one drawn per request
/// in issue order, so a run does not depend on where a window ends.
const CLIENT_DELAY_STREAM: u64 = u64::MAX - 1;

/// Width of one client generation window: 1 ms. It sets how far ahead
/// requests are generated, not when one leaves its client.
const WORKLOAD_TICK: SimDuration = SimDuration(1_000_000);

/// How many generated windows the client producer may hold that the loop
/// has not taken yet. A few suffice to keep the producer busy; each
/// buffered window holds its requests' memory.
const TICKS_AHEAD: usize = 16;

/// When a scheduled node fault begins or ends: at an absolute simulated time,
/// or when the cluster (any honest replica) first reaches a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// At this simulated time.
    At(SimTime),
    /// When the highest view observed across replicas first reaches `View`.
    AtView(View),
}

/// A scheduled crash (with optional recovery) of one replica.
///
/// A crashed node is blacked out at the network layer: events addressed to
/// it are discarded and — since it therefore never handles anything — it
/// sends nothing. Its deadlines do not fire either. How it comes back —
/// resuming its pre-crash heap and deadlines, or restarting from whatever its
/// disk kept — is the fault's [`RecoverMode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeFault {
    /// The replica to crash.
    pub node: NodeId,
    /// When the crash begins.
    pub crash: FaultTrigger,
    /// When the node recovers; `None` means it stays down.
    pub recover: Option<FaultTrigger>,
    /// How the node rebuilds its state when it recovers.
    pub mode: RecoverMode,
}

/// Run-level options that are not part of the shared Table-I [`Config`].
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Behavioural options applied to every replica.
    pub replica: ReplicaOptions,
    /// Link faults injected into the latency model (partitions, group
    /// partitions, slow nodes, fluctuation windows); fluctuations draw their
    /// extra delays in this list's order.
    pub link_faults: Vec<LinkFault>,
    /// Scheduled node crashes/recoveries (time- or view-triggered).
    pub node_faults: Vec<NodeFault>,
    /// Per-link base-delay topology; `None` uses the homogeneous
    /// `Config::link_latency_mean/std` network of the paper.
    pub topology: Option<Topology>,
    /// Per-replica `t_CPU` overrides (heterogeneous-CPU deployments).
    pub cpu_overrides: Vec<(NodeId, SimDuration)>,
    /// Bucket width of the committed-throughput time series.
    pub series_bucket: SimDuration,
    /// The replica whose ledger is used for reporting; defaults to the
    /// highest-id seat without an entry in [`Config::attacks`].
    pub observer: Option<NodeId>,
    /// Safety cap on the number of simulation events processed (client
    /// windows included), checked before every event.
    pub max_events: u64,
    /// Ignored: the engine is sequential and never reads this field. It is
    /// kept only because the frozen `benchmark/` package assigns it
    /// (`benchmark/src/probes.rs`, the `sim.threads2_speedup` row) and must
    /// keep compiling; drop it together with that row.
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            replica: ReplicaOptions::default(),
            link_faults: Vec::new(),
            node_faults: Vec::new(),
            topology: None,
            cpu_overrides: Vec::new(),
            series_bucket: SimDuration::from_millis(500),
            observer: None,
            max_events: 200_000_000,
            threads: 1,
        }
    }
}

impl RunOptions {
    /// Fits `config` and this fault schedule, written for a run of
    /// `config.runtime`, to a run of `new_runtime`: the runtime becomes
    /// `new_runtime`, and every [`FaultTrigger::At`], every attack's start
    /// ([`Config::attacks`]) and every link-fault window is multiplied by
    /// `new_runtime / runtime`, so the schedule keeps its shape. View
    /// triggers and the faults' extra delays are not scaled.
    pub fn scale_fault_times(&mut self, config: &mut Config, new_runtime: SimDuration) {
        let scale = new_runtime.as_nanos() as f64 / config.runtime.as_nanos() as f64;
        config.runtime = new_runtime;
        let scaled = |at: &mut SimTime| at.0 = (at.0 as f64 * scale) as u64;
        for fault in &mut self.node_faults {
            for trigger in std::iter::once(&mut fault.crash).chain(&mut fault.recover) {
                if let FaultTrigger::At(at) = trigger {
                    scaled(at);
                }
            }
        }
        for attack in &mut config.attacks {
            scaled(&mut attack.from);
        }
        for fault in &mut self.link_faults {
            let (start, end) = fault.window_mut();
            scaled(start);
            scaled(end);
        }
    }
}

/// A simulation event addressed to one replica. A broadcast's event sits in
/// the queue once for all its recipients and names its sender; the queue
/// names each recipient as it pops the delivery.
struct SimEvent {
    node: NodeId,
    kind: EventKind,
}

/// What a [`SimEvent`] asks its replica's host to do.
enum EventKind {
    /// A message on its way to a recipient.
    Deliver(Envelope),
    /// The replica's wake-up: its earliest deadline is due.
    Wake,
    /// One client request arriving at the replica's edge, already
    /// edge-checked when its window was generated: admitted at once by an
    /// idle replica, put in the inbox of a busy one.
    ClientBatch(VerifiedRequests),
    /// The replica's inbox admission: the requests that arrived while it
    /// was busy, admitted in one step if the CPU is free by now.
    Admit,
    /// A time-triggered node fault boundary: crash the node, or bring it
    /// back in `mode` (which applies to recoveries only). View-triggered
    /// boundaries never enter the queue; they fire right after the event
    /// that lifted the highest observed view to theirs.
    SetCrashed { crashed: bool, mode: RecoverMode },
}

/// A sent message as its recipients get it. Each unique envelope is
/// verified **once**, when its sender's step is absorbed, and every
/// recipient reads the one verdict by reference — the simulator counterpart
/// of the verify pool's verify-once fan-out. The verdict is a pure function
/// of the (immutable) message bytes, so sharing it changes nothing
/// observable; each recipient is still charged its own modeled verification
/// CPU.
enum Envelope {
    /// The message passed ingress verification: the proof token.
    Verified(VerifiedMessage),
    /// The message failed it. It is still delivered: each recipient books
    /// the rejection and is charged the modeled CPU cost of the verification
    /// work that exposed the forgery at its own busy server, exactly as with
    /// inline verification.
    Forged(SharedMessage),
}

impl Envelope {
    /// Hands the envelope to one recipient's host, by reference.
    fn hand_to(
        &self,
        host: &mut NodeHost,
        start: SimTime,
        effects: &mut BufferedTransport,
    ) -> StepReport {
        match self {
            // No further wall-clock crypto: the replica charges the modeled
            // cost.
            Envelope::Verified(token) => host.deliver(token, start, effects),
            Envelope::Forged(message) => host.reject_forged(message),
        }
    }
}

/// One client request on its way: the replica it goes to, the instant it
/// arrives there, and its edge-checked token.
type ClientBatch = (NodeId, SimTime, VerifiedRequests);

/// The client side of a run: everything a request is made from, and nothing
/// the event loop writes.
struct Clients {
    workload: Box<dyn Workload + Send>,
    /// The workload generator's own RNG stream, independent of every
    /// replica's.
    rng: SimRng,
    /// The client → replica delays' own stream, drawn per request in issue
    /// order.
    delays: SimRng,
    /// A copy of the runner's latency model (it is immutable once the
    /// runner is built), for the client → replica delays.
    latency: LatencyModel,
    /// The edge check of client signatures; it needs no validator keys.
    edge: Authenticator,
    /// Reusable arrival buffer handed to the workload each window (cleared,
    /// capacity kept — arrival generation allocates nothing in steady state).
    arrivals: Vec<Arrival>,
}

impl Clients {
    /// Appends the requests the workload issues in `[from, to)` to `out`,
    /// each sent on its own at its issue instant, in issue order.
    fn issue(&mut self, from: SimTime, to: SimTime, out: &mut Vec<ClientBatch>) {
        self.arrivals.clear();
        (self.workload).arrivals(from, to, &mut self.rng, &mut self.arrivals);
        for arrival in self.arrivals.drain(..) {
            let (replica, leaves) = (arrival.replica, arrival.issued_at);
            let delay = (self.latency)
                .sample(&mut self.delays, NodeId(u64::MAX), replica, leaves)
                .unwrap_or(SimDuration::ZERO);
            let request = self.edge.verify_requests(vec![arrival.into_request()]);
            out.push((replica, leaves + delay, request));
        }
    }

    /// The requests of the window of `width` at `now`.
    fn window(&mut self, now: SimTime, width: SimDuration) -> Vec<ClientBatch> {
        let mut requests = Vec::new();
        self.issue(now, now + width, &mut requests);
        requests
    }
}

/// A replica's client requests that arrived while it was busy, and the
/// instant of its queued [`EventKind::Admit`].
#[derive(Default)]
struct Inbox {
    waiting: Option<VerifiedRequests>,
    admit: Option<SimTime>,
}

/// A replica's deadline book and its queued wake-up.
#[derive(Default)]
struct Alarm {
    book: Deadlines,
    wake: Option<SimTime>,
}

/// A deterministic discrete-event simulation of one Bamboo deployment. All
/// per-replica state is indexed by node id.
pub struct SimRunner {
    config: Config,
    protocol: ProtocolKind,
    options: RunOptions,
    pub(crate) hosts: Vec<NodeHost>,
    /// Per-replica latency RNG streams (`derive(node)` of the run seed).
    rngs: Vec<SimRng>,
    busy_until: Vec<SimTime>,
    crashed: Vec<bool>,
    alarms: Vec<Alarm>,
    inboxes: Vec<Inbox>,
    queue: EventQueue<SimEvent>,
    latency: LatencyModel,
    nic: NicModel,
    auth: Authenticator,
    /// The run's books; every step is shown to it.
    observer: Observer,
    /// Reused across every event (cleared, capacity kept).
    effects: BufferedTransport,
    /// Reused across every step of the observer replica: the instant each
    /// committed transaction's confirmation reaches its client.
    confirmed: Vec<SimTime>,
    /// Reused across every send: the `(time, recipient)` of each delivery,
    /// in ascending node order.
    deliveries: Vec<(SimTime, u32)>,
    /// The client side; `None` while (and after) it runs on the producer
    /// thread.
    clients: Option<Clients>,
    /// Reused across every step that confirms a closed-loop request: the
    /// follow-ups it sends.
    follow_ups: Vec<ClientBatch>,
    /// Client requests in the windows the loop has taken so far.
    offered: u64,
    /// Unresolved view-triggered fault boundaries:
    /// `(node, view, crash?, recover mode)`.
    view_triggers: Vec<(NodeId, View, bool, RecoverMode)>,
    /// Highest view any replica has reached (drives view triggers).
    max_view: View,
    /// Events popped so far.
    processed: u64,
}

impl SimRunner {
    /// Builds a runner for `config` running `protocol` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if [`Config::validate`] refuses the configuration.
    pub fn new(config: Config, protocol: ProtocolKind, options: RunOptions) -> Self {
        config.validate().expect("invalid configuration");
        let topology = options.topology.clone().unwrap_or_else(|| {
            Topology::uniform(config.link_latency_mean, config.link_latency_std)
        });
        let mut latency = LatencyModel::with_topology(topology)
            .with_extra_delay(config.extra_delay, config.extra_delay_jitter);
        for fault in &options.link_faults {
            latency.add_fault(*fault);
        }
        let nic = NicModel::new(config.bandwidth_bytes_per_sec);

        let mut hosts: Vec<NodeHost> = (0..config.nodes as u64)
            .map(|i| {
                let id = NodeId(i);
                // A heterogeneous-CPU seat runs on its own machine's `t_CPU`.
                let cpu = options.cpu_overrides.iter().find(|(node, _)| *node == id);
                let cpu_delay = cpu.map_or(config.cpu_delay, |&(_, delay)| delay);
                let config = Config {
                    cpu_delay,
                    ..config.clone()
                };
                NodeHost::new(id, protocol, config, options.replica)
            })
            .collect();

        let workload: Box<dyn Workload + Send> = match config.arrival_rate {
            Some(rate) => {
                let mut open = OpenLoopWorkload::new(rate, config.payload_size, config.nodes);
                if let Some(clients) = config.client_population {
                    open = open.with_population(clients);
                }
                Box::new(open.with_signing(config.signed_requests))
            }
            None => Box::new(ClosedLoopWorkload::new(
                config.concurrency,
                config.payload_size,
                config.nodes,
            )),
        };

        // Register the node-fault schedule: time triggers become queue
        // events, view triggers wait for the cluster to reach their view.
        let mut queue = EventQueue::new();
        let mut view_triggers = Vec::new();
        for fault in &options.node_faults {
            let node = fault.node;
            if let RecoverMode::Restart(Some(dropped @ StorageFault::DropFsync { .. })) = fault.mode
            {
                // The fsync that fails does so while the victim is still
                // writing, long before the crash that exposes the hole: arm
                // it now. (The byte-mauling faults fire at the crash.)
                hosts[node.index()].replica_mut().arm_storage_fault(dropped);
            }
            let boundaries = [
                (Some(fault.crash), true, RecoverMode::Resume),
                (fault.recover, false, fault.mode),
            ];
            for (trigger, crashed, mode) in boundaries {
                match trigger {
                    Some(FaultTrigger::At(at)) => {
                        let kind = EventKind::SetCrashed { crashed, mode };
                        queue.schedule(at, SimEvent { node, kind });
                    }
                    Some(FaultTrigger::AtView(view)) => {
                        view_triggers.push((node, view, crashed, mode));
                    }
                    None => {}
                }
            }
        }

        let nodes = config.nodes;
        let seed_rng = SimRng::new(config.seed);
        let mut auth = Authenticator::for_nodes(nodes);
        auth.set_signed_clients(config.signed_requests);
        let mut edge = Authenticator::from_keys(Vec::new());
        edge.set_signed_clients(config.signed_requests);
        let clients = Clients {
            workload,
            rng: seed_rng.derive(WORKLOAD_STREAM),
            delays: seed_rng.derive(CLIENT_DELAY_STREAM),
            latency: latency.clone(),
            edge,
            arrivals: Vec::new(),
        };
        Self {
            protocol,
            hosts,
            rngs: (0..nodes as u64)
                .map(|node| seed_rng.derive(node))
                .collect(),
            busy_until: vec![SimTime::ZERO; nodes],
            crashed: vec![false; nodes],
            alarms: (0..nodes).map(|_| Alarm::default()).collect(),
            inboxes: (0..nodes).map(|_| Inbox::default()).collect(),
            queue,
            latency,
            nic,
            auth,
            observer: Observer::new(&config, options.observer, options.series_bucket),
            effects: BufferedTransport::new(),
            confirmed: Vec::new(),
            deliveries: Vec::new(),
            clients: Some(clients),
            follow_ups: Vec::new(),
            offered: 0,
            view_triggers,
            max_view: View::GENESIS,
            processed: 0,
            options,
            config,
        }
    }

    /// Runs the simulation to completion and produces the report.
    ///
    /// Boots every replica at time zero, then runs the event loop. A signed
    /// open-loop run generates its client windows on a producer thread that
    /// runs ahead of the loop (the module docs say why that changes nothing);
    /// every other run generates each window inline when it falls due.
    pub fn run(mut self) -> RunReport {
        self.run_to_end()
    }

    /// [`SimRunner::run`], keeping the runner and its replicas.
    pub(crate) fn run_to_end(&mut self) -> RunReport {
        self.run_with_client_window(WORKLOAD_TICK)
    }

    /// [`SimRunner::run_to_end`] with client windows of `width`.
    fn run_with_client_window(&mut self, width: SimDuration) -> RunReport {
        let end = SimTime::ZERO + self.config.runtime;
        for node in 0..self.config.nodes as u64 {
            self.step(NodeId(node), SimTime::ZERO, |host, start, effects| {
                host.start(start, effects)
            });
        }
        // Closed-loop arrivals wait on commits, so they cannot run ahead; an
        // unsigned run has no edge check worth moving, and timed on the
        // producer it ran slower (DESIGN §5, "One stage runs ahead").
        let ahead = self.config.arrival_rate.is_some() && self.config.signed_requests;
        let windows = if ahead {
            let mut clients = self.clients.take().expect("a run starts with its clients");
            std::thread::scope(|scope| {
                let (windows, taken) = mpsc::sync_channel(TICKS_AHEAD);
                scope.spawn(move || {
                    let mut now = SimTime::ZERO;
                    // A send fails once the loop has stopped and dropped its
                    // end: the producer exits with it.
                    while now < end && windows.send(clients.window(now, width)).is_ok() {
                        now += width;
                    }
                });
                self.drive(end, width, |_, _| {
                    taken.recv().expect("the client producer died")
                })
            })
        } else {
            self.drive(end, width, |runner, now| {
                let clients = runner
                    .clients
                    .as_mut()
                    .expect("an inline run keeps its clients");
                clients.window(now, width)
            })
        };
        self.report(windows)
    }

    /// The run's report once the loop has taken `windows` client windows.
    fn report(&self, windows: u64) -> RunReport {
        let (config, options) = (&self.config, &self.options);
        let mut report = self
            .observer
            .finish(config, self.protocol, &self.hosts, options);
        // Issued is what the loop took, never what a producer generated
        // ahead of it. An inline workload counts for itself: a closed loop
        // also issues at commits, between windows.
        let issued = (self.clients.as_ref()).map_or(self.offered, |c| c.workload.total_issued());
        report.pending_txs = issued.saturating_sub(report.committed_txs);
        // Windows never occupy a queue slot, but they count as engine events
        // for continuity with the event-queued tick of earlier engines.
        report.events_processed = self.processed + windows;
        report.events_scheduled = self.queue.total_scheduled() + windows;
        report.queue_peak_len = self.queue.live_high_water() as u64;
        report.queue_heap_peak = self.queue.heap_high_water() as u64;
        report
    }

    /// The event loop: pop the earliest event strictly before the next
    /// client window (before the instant after the run's last once windows
    /// are exhausted), else take the window's requests from `next_window`
    /// and schedule them, else stop. Returns the number of windows taken.
    fn drive(
        &mut self,
        end: SimTime,
        width: SimDuration,
        mut next_window: impl FnMut(&mut Self, SimTime) -> Vec<ClientBatch>,
    ) -> u64 {
        // Events at or beyond the instant after the run's last stay queued.
        let stop = end + SimDuration::from_nanos(1);
        let mut windows: u64 = 0;
        // Windows cover `[0, runtime)`: one at `runtime` would issue
        // arrivals the run never simulates.
        let mut window_at = SimTime::ZERO;
        while self.processed + windows <= self.options.max_events {
            let window_due = window_at < end;
            let limit = if window_due { window_at } else { stop };
            if let Some((time, popped)) = self.queue.pop_if_before(limit) {
                self.processed += 1;
                match popped {
                    Popped::Event(event) => self.fire(time, event),
                    Popped::Delivery { to, slot } => self.deliver(time, NodeId(to.into()), slot),
                }
                self.fire_view_triggers(time);
            } else if window_due {
                let requests = next_window(self, window_at);
                self.send_requests(window_at, requests);
                windows += 1;
                window_at += width;
            } else {
                break;
            }
        }
        windows
    }

    /// Puts client requests on their way at `now`, each as its own event.
    fn send_requests(&mut self, now: SimTime, requests: impl IntoIterator<Item = ClientBatch>) {
        for (replica, at, request) in requests {
            self.offered += request.offered() as u64;
            self.schedule(now, at, replica, EventKind::ClientBatch(request));
        }
    }

    /// Hands one popped event to the replica it addresses.
    fn fire(&mut self, time: SimTime, SimEvent { node, kind }: SimEvent) {
        match kind {
            EventKind::Deliver(envelope) => self.step(node, time, |host, start, effects| {
                envelope.hand_to(host, start, effects)
            }),
            EventKind::ClientBatch(request) => self.arrive(node, time, request),
            EventKind::Admit => self.admit_waiting(node, time),
            EventKind::Wake => self.wake(node, time),
            EventKind::SetCrashed { crashed, mode } => self.set_crashed(node, crashed, mode, time),
        }
    }

    /// A client request reaches `node` at `time`. An idle replica with an
    /// empty inbox admits it at once; otherwise it joins the inbox, and the
    /// inbox's admission is queued for the instant the CPU frees up.
    fn arrive(&mut self, node: NodeId, time: SimTime, request: VerifiedRequests) {
        let index = node.index();
        // A crashed node hears nothing.
        if self.crashed[index] {
            return;
        }
        let (busy, inbox) = (self.busy_until[index], &mut self.inboxes[index]);
        if busy <= time && inbox.waiting.is_none() {
            self.admit(node, time, request);
            return;
        }
        match &mut inbox.waiting {
            Some(waiting) => waiting.append(request),
            None => inbox.waiting = Some(request),
        }
        if inbox.admit.is_none() {
            let at = busy.max(time);
            inbox.admit = Some(at);
            self.schedule(time, at, node, EventKind::Admit);
        }
    }

    /// `node`'s queued inbox admission falls due at `time`. A consensus
    /// message that arrived meanwhile was served first and kept the CPU
    /// busy: the admission then waits for that step to finish. A crash
    /// emptied the inbox and superseded the admission.
    fn admit_waiting(&mut self, node: NodeId, time: SimTime) {
        let index = node.index();
        let (busy, inbox) = (self.busy_until[index], &mut self.inboxes[index]);
        if inbox.admit != Some(time) {
            return;
        }
        if busy > time {
            inbox.admit = Some(busy);
            self.schedule(time, busy, node, EventKind::Admit);
        } else {
            inbox.admit = None;
            let waiting = inbox
                .waiting
                .take()
                .expect("a queued admission has requests");
            self.admit(node, time, waiting);
        }
    }

    /// One admission step of `node`: the host charges the batch's edge check
    /// (one `CpuModel::verify_batch` of its requests), admits the stripped
    /// transactions to the mempool and may hand a copy to a leader ahead, a
    /// send like any other.
    fn admit(&mut self, node: NodeId, time: SimTime, requests: VerifiedRequests) {
        self.step(node, time, |host, start, effects| {
            host.admit(requests, start, effects)
        });
    }

    /// Fires, at `time`, every view-triggered fault boundary whose view the
    /// cluster's high-water mark has reached. The mark is re-read per
    /// boundary: a restart it causes is a step like any other.
    fn fire_view_triggers(&mut self, time: SimTime) {
        while let Some(index) =
            (self.view_triggers.iter()).position(|&(_, view, _, _)| view <= self.max_view)
        {
            let (node, _, crashed, mode) = self.view_triggers.remove(index);
            self.set_crashed(node, crashed, mode, time);
        }
    }

    /// Puts one event on the queue. The engine never schedules into the
    /// simulated past: `at` is at or after `now`, the instant being
    /// processed.
    fn schedule(&mut self, now: SimTime, at: SimTime, node: NodeId, kind: EventKind) {
        debug_assert!(at >= now, "event at {at:?} scheduled from {now:?}");
        self.queue.schedule(at, SimEvent { node, kind });
    }

    /// Fires one due deadline of `node`'s book (live loop order) and queues the
    /// next wake-up; superseded wake-ups and crashed replicas fire nothing.
    fn wake(&mut self, node: NodeId, time: SimTime) {
        let (index, alarm) = (node.index(), &mut self.alarms[node.index()]);
        if alarm.wake.take_if(|wake| *wake == time).is_none() || self.crashed[index] {
            return;
        }
        if let Some(event) = alarm.book.pop_due(time) {
            let view = self.hosts[index].replica().current_view();
            debug_assert!(!matches!(event, ReplicaEvent::TimerFired { view: v } if v != view));
            self.step(node, time, |host, at, out| host.handle(event, at, out));
        }
        self.arm_wake(node, time);
    }

    /// Queues a wake-up for `node`'s earliest deadline (at `now` if overdue)
    /// unless one is queued no later.
    fn arm_wake(&mut self, node: NodeId, now: SimTime) {
        let alarm = &mut self.alarms[node.index()];
        let next = alarm.book.next_deadline().map(|due| due.max(now));
        if let Some(at) = next.filter(|&at| alarm.wake.is_none_or(|wake| at < wake)) {
            alarm.wake = Some(at);
            self.schedule(now, at, node, EventKind::Wake);
        }
    }

    /// Runs one host step of `node` for an event arriving at `time` and
    /// absorbs its effects, unless the node is crashed.
    fn step(
        &mut self,
        node: NodeId,
        time: SimTime,
        run: impl FnOnce(&mut NodeHost, SimTime, &mut BufferedTransport) -> StepReport,
    ) {
        let Some((start, mut effects)) = self.begin(node, time) else {
            return;
        };
        let report = run(&mut self.hosts[node.index()], start, &mut effects);
        self.absorb(node, report, effects, start);
    }

    /// One delivery of a broadcast: the envelope stays in the queue's entry
    /// (at `slot`), and `to` reads it by reference.
    fn deliver(&mut self, time: SimTime, to: NodeId, slot: u32) {
        let Some((start, mut effects)) = self.begin(to, time) else {
            return;
        };
        let SimEvent {
            kind: EventKind::Deliver(envelope),
            ..
        } = self.queue.shared(slot)
        else {
            unreachable!("only messages are broadcast");
        };
        let report = envelope.hand_to(&mut self.hosts[to.index()], start, &mut effects);
        self.absorb(to, report, effects, start);
    }

    /// When a step of `node` for an event arriving at `time` starts, and the
    /// cleared effect buffer it writes into; `None` if the node is crashed
    /// (a crashed node hears nothing). The replica is a single busy server:
    /// processing starts when both the event has arrived and the CPU is
    /// free. Client input reaches it only where the CPU is free already
    /// (`arrive`, `admit_waiting`), so an admission step starts at its
    /// event's own instant.
    fn begin(&mut self, node: NodeId, time: SimTime) -> Option<(SimTime, BufferedTransport)> {
        if self.crashed[node.index()] {
            return None;
        }
        let mut effects = std::mem::take(&mut self.effects);
        effects.clear();
        Some((time.max(self.busy_until[node.index()]), effects))
    }

    /// Crashes `node` or brings it back at `time`. A [`RecoverMode::Resume`]
    /// fires an overdue deadline at once; a [`RecoverMode::Restart`] drops
    /// them and restarts the replica from what its disk kept, after the
    /// crash-point fault mangled it, and the restart effects (view timer, the
    /// immediate state-transfer request) flow through absorb like any step's.
    fn set_crashed(&mut self, node: NodeId, crashed: bool, mode: RecoverMode, time: SimTime) {
        let was = std::mem::replace(&mut self.crashed[node.index()], crashed);
        if crashed {
            // The requests that waited die with the process.
            self.inboxes[node.index()] = Inbox::default();
        } else if was && mode == RecoverMode::Resume {
            self.arm_wake(node, time);
        } else if was {
            // A rebooted process starts with an idle CPU; whatever the busy
            // server was doing pre-crash died with it.
            self.busy_until[node.index()] = time;
            self.alarms[node.index()].book.clear();
            self.step(node, time, |host, start, effects| {
                host.restart(mode, start, effects)
            });
        }
    }

    /// Maps one step's effects onto the simulated substrate: commits into
    /// the workload, timers, proposals and outbound messages onto the
    /// queue; then shows the step to the observer. The effect buffer is kept
    /// for the next step.
    fn absorb(
        &mut self,
        node: NodeId,
        report: StepReport,
        mut effects: BufferedTransport,
        start: SimTime,
    ) {
        let index = node.index();
        let finish = start + report.cpu;
        self.busy_until[index] = finish;

        // Track the view high-water mark; view-triggered fault boundaries
        // resolve from it once this event is done.
        let view = self.hosts[index].replica().current_view();
        self.max_view = self.max_view.max(view);

        // Commits count at the observer replica only, so every transaction
        // is counted exactly once. A reply leaves when its commit is
        // logged — at `start` plus the step's commit mark, ahead of the vote
        // the step signs next — and each response leg is drawn from the
        // observer's own stream, before any send's delay. Closed-loop
        // clients hear of the commit here and send each follow-up now, to
        // leave at its predecessor's confirmation instant. (An open-loop
        // workload ignores commits, so one on the producer thread misses
        // nothing.)
        let committed = start + report.commit_mark;
        self.confirmed.clear();
        if node == self.observer.node && !report.committed.is_empty() {
            for tx in report.committed.iter().flat_map(|block| &block.payload) {
                let delay = (self.latency)
                    .sample(&mut self.rngs[index], node, NodeId(u64::MAX), committed)
                    .unwrap_or(SimDuration::ZERO);
                self.confirmed.push(committed + delay);
                if let Some(clients) = &mut self.clients {
                    clients.workload.on_commit(tx.id, committed + delay);
                }
            }
            if let Some(clients) =
                (self.clients.as_mut()).filter(|_| self.config.arrival_rate.is_none())
            {
                let mut follow_ups = std::mem::take(&mut self.follow_ups);
                clients.issue(committed, committed, &mut follow_ups);
                self.send_requests(start, follow_ups.drain(..));
                self.follow_ups = follow_ups;
            }
        }

        // A book the step left alone keeps its queued wake-up.
        if self.alarms[index].book.absorb(&mut effects, view) {
            self.arm_wake(node, start);
        }

        // An outbound message leaves the sender once its CPU reaches it: at
        // `start` plus the step's bill when it was buffered, its mark (the
        // CPU stays busy until `finish`). Every recipient's delay is drawn
        // now, in ascending node order; one dropped by a partition or a dead
        // link gets no delivery. The envelope is verified once if anyone
        // receives it, and a broadcast becomes one queue entry whose
        // deliveries take the insertion numbers n − 1 separate schedules
        // would have.
        let nodes = self.config.nodes;
        let tally = effects.tally_sends(nodes, |dest, message, bytes, mark| {
            let sent = start + mark;
            let leaves = sent + self.nic.transfer(bytes);
            let recipients = match dest {
                Some(to) => to.0..to.0 + 1,
                None => 0..nodes as u64,
            };
            self.deliveries.clear();
            for to in recipients.map(NodeId) {
                // A broadcast skips its sender.
                if dest.is_none() && to == node {
                    continue;
                }
                if let Some(delay) = self.latency.sample(&mut self.rngs[index], node, to, sent) {
                    let to = u32::try_from(to.0).expect("replica ids fit in 32 bits");
                    self.deliveries.push((leaves + delay, to));
                }
            }
            let Some(&(at, to)) = self.deliveries.first() else {
                return sent;
            };
            let envelope = match self.auth.authenticate_shared(node, message.clone()) {
                Ok(token) => Envelope::Verified(token),
                Err(_) => Envelope::Forged(message),
            };
            let kind = EventKind::Deliver(envelope);
            // A unicast stays a plain event.
            match dest {
                Some(_) => self.schedule(start, at, NodeId(to.into()), kind),
                None => (self.queue).schedule_fanout(SimEvent { node, kind }, &self.deliveries),
            }
            sent
        });
        self.effects = effects;
        self.observer.on_step(&StepView {
            replica: self.hosts[index].replica(),
            start,
            finish,
            committed,
            report: &report,
            sends: tally,
            confirmed: &self.confirmed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use bamboo_forest::ExecWindow;
    use bamboo_types::{ByzantineStrategy, DigestSet, SeatAttack, SharedBlock};

    /// The execute-once window checked against a whole ledger: in every
    /// spec whose transactions find several holders (restarts, floods, a
    /// late joiner, crashed leaders, adjacent ones in `crash_f`, a 64-seat
    /// rotation, a WAN whose copies miss their views and move on), no
    /// transaction the window lets execute is carried by an earlier block
    /// of the longest honest ledger, and every one it filters is. A whole-ledger id set is what the window replaces outside tests
    /// (DESIGN.md §7.4).
    #[test]
    fn the_window_executes_what_a_whole_ledger_executes() {
        let specs = [
            include_str!("../../../scenarios/crash_f.json"),
            include_str!("../../../scenarios/durable_restart.json"),
            include_str!("../../../scenarios/forged_vote_flood.json"),
            include_str!("../../../scenarios/geo_wan.json"),
            include_str!("../../../scenarios/late_joiner.json"),
            include_str!("../../../scenarios/mixed.json"),
            include_str!("../../../scenarios/one_seat_down.json"),
            include_str!("../../../scenarios/rolling_restart.json"),
            include_str!("../../../scenarios/nightly/rolling_restart_n64.json"),
        ];
        let mut filtered = 0;
        for spec in specs {
            let scenario = Scenario::parse(spec).unwrap();
            for &protocol in &scenario.protocols {
                let (config, options) = scenario.build(true);
                let mut runner = SimRunner::new(config.clone(), protocol, options);
                runner.run_to_end();
                let honest = (runner.hosts.iter().map(NodeHost::replica))
                    .filter(|replica| config.attacks.iter().all(|a| a.node != replica.id()));
                let ledger = honest.map(|r| r.ledger()).max_by_key(|l| l.len()).unwrap();
                let (mut window, mut executes) = (ExecWindow::default(), Vec::new());
                let mut seen = DigestSet::default();
                for at in 0..ledger.len() {
                    filtered += window.execute(ledger, at, &mut executes);
                    let payload = &ledger.get(at).unwrap().block.payload;
                    for (tx, &executes) in payload.iter().zip(&executes) {
                        let label = (&scenario.name, protocol, at, tx.id);
                        assert_eq!(executes, seen.insert(tx.id), "{label:?}");
                    }
                }
            }
        }
        assert!(filtered > 0, "crash_f commits duplicates");
    }

    fn base_config(nodes: usize, rate: f64) -> Config {
        Config {
            nodes,
            block_size: 100,
            runtime: SimDuration::from_millis(400),
            arrival_rate: Some(rate),
            seed: 11,
            ..Config::default()
        }
    }

    #[test]
    fn hotstuff_run_commits_transactions_without_violations() {
        let report = SimRunner::new(
            base_config(4, 5_000.0),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .run();
        assert_eq!(report.safety_violations, 0);
        assert!(report.committed_txs > 0, "no transactions committed");
        assert!(report.latency.mean_ms > 0.0);
        assert!(report.chain_growth_rate > 0.5);
    }

    #[test]
    fn all_three_protocols_complete_and_agree_on_safety() {
        for protocol in [
            ProtocolKind::HotStuff,
            ProtocolKind::TwoChainHotStuff,
            ProtocolKind::Streamlet,
        ] {
            let report =
                SimRunner::new(base_config(4, 2_000.0), protocol, RunOptions::default()).run();
            assert_eq!(report.safety_violations, 0, "{protocol} violated safety");
            assert!(report.committed_blocks > 0, "{protocol} committed nothing");
        }
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let a = SimRunner::new(
            base_config(4, 3_000.0),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .run();
        let b = SimRunner::new(
            base_config(4, 3_000.0),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .run();
        assert_eq!(a.committed_txs, b.committed_txs);
        assert_eq!(a.committed_blocks, b.committed_blocks);
        assert_eq!(a.views_advanced, b.views_advanced);
        assert!((a.latency.mean_ms - b.latency.mean_ms).abs() < 1e-9);
    }

    /// `RunOptions::threads` survives only for the frozen benchmark package;
    /// whatever it holds, the run is the same.
    #[test]
    fn the_vestigial_threads_field_changes_nothing() {
        let run = |threads| {
            let options = RunOptions {
                threads,
                ..RunOptions::default()
            };
            SimRunner::new(base_config(4, 3_000.0), ProtocolKind::HotStuff, options).run()
        };
        let one = run(1);
        assert!(one.committed_txs > 0, "the comparison would be vacuous");
        for threads in [2usize, 64] {
            assert_eq!(
                one.replay_key(),
                run(threads).replay_key(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_small_event_cap_ends_the_run_early_with_a_well_formed_report() {
        let full = SimRunner::new(
            base_config(4, 3_000.0),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .run();
        let cap = full.events_processed / 4;
        let options = RunOptions {
            max_events: cap,
            ..RunOptions::default()
        };
        let capped = SimRunner::new(base_config(4, 3_000.0), ProtocolKind::HotStuff, options).run();
        // The cap is checked before every event: the run stops on the first
        // one past it.
        assert_eq!(capped.events_processed, cap + 1);
        assert!(capped.committed_txs > 0 && capped.committed_txs < full.committed_txs);
        assert_eq!(capped.safety_violations, 0);
        assert_eq!(capped.latency.count, capped.committed_txs);
        assert!(capped.pending_txs > 0, "issued work was cut off mid-flight");
        assert!(capped.events_scheduled >= capped.events_processed);
        assert_eq!(capped.duration_secs, full.duration_secs);
    }

    /// "Offered = committed + pending": the run issues exactly the arrivals
    /// of `[0, runtime)`, none for a window at `runtime` it never simulates.
    #[test]
    fn an_open_loop_run_offers_exactly_the_arrivals_of_its_runtime() {
        let (config, options) = (base_config(4, 3_000.0), RunOptions::default());
        let report = SimRunner::new(config.clone(), ProtocolKind::HotStuff, options).run();
        // Replay the workload's own stream the way the engine consumes it:
        // the arrivals alone, window by window (the client → replica delays
        // draw from a stream of their own).
        let mut rng = SimRng::new(config.seed).derive(WORKLOAD_STREAM);
        let mut workload = OpenLoopWorkload::new(3_000.0, config.payload_size, config.nodes);
        let mut arrivals = Vec::new();
        let mut window = SimTime::ZERO;
        while window < SimTime::ZERO + config.runtime {
            workload.arrivals(window, window + WORKLOAD_TICK, &mut rng, &mut arrivals);
            window += WORKLOAD_TICK;
        }
        assert!(report.pending_txs > 0, "the comparison would be vacuous");
        assert_eq!(
            report.committed_txs + report.pending_txs,
            arrivals.len() as u64
        );
    }

    /// A request leaves its client at its own issue instant with its own
    /// delay, so where a generation window ends changes nothing: a signed
    /// open-loop run with 1 ms windows and one with 0.25 ms windows commit
    /// the same ledger with the same latencies.
    #[test]
    fn a_run_does_not_depend_on_its_generation_window() {
        let config = Config {
            signed_requests: true,
            client_population: Some(1_000),
            ..base_config(4, 20_000.0)
        };
        let run = |width| {
            let options = RunOptions::default();
            let mut runner = SimRunner::new(config.clone(), ProtocolKind::HotStuff, options);
            let report = runner.run_with_client_window(width);
            (report, runner.observer.metrics)
        };
        let (whole, whole_books) = run(WORKLOAD_TICK);
        let (quarter, quarter_books) = run(SimDuration::from_micros(250));
        assert!(
            whole.committed_txs > 1_000,
            "the comparison would be vacuous"
        );
        assert!(
            whole.admissions < whole.admitted_requests,
            "no request waited"
        );
        assert_eq!(whole.ledger_fingerprint, quarter.ledger_fingerprint);
        assert!(
            whole_books == quarter_books,
            "the latency histograms differ"
        );
        assert_eq!(whole.stages, quarter.stages);
        assert_eq!(whole.pending_txs, quarter.pending_txs);
    }

    /// A runner over signed clients whose replicas have not booted, so its
    /// queue holds only what a test puts there, and `k` edge-checked
    /// requests of its clients.
    fn unbooted_with_requests(k: usize) -> (SimRunner, Vec<VerifiedRequests>) {
        unbooted_over(base_config(4, 100_000.0), k)
    }

    /// [`unbooted_with_requests`] over `config`'s cluster and links.
    fn unbooted_over(config: Config, k: usize) -> (SimRunner, Vec<VerifiedRequests>) {
        let config = Config {
            signed_requests: true,
            ..config
        };
        let mut runner = SimRunner::new(config, ProtocolKind::HotStuff, RunOptions::default());
        let clients = runner.clients.as_mut().unwrap();
        let mut requests = Vec::new();
        let mut at = SimTime::ZERO;
        while requests.len() < k {
            let window = clients.window(at, WORKLOAD_TICK);
            requests.extend(window.into_iter().map(|(_, _, request)| request));
            at += WORKLOAD_TICK;
        }
        requests.truncate(k);
        (runner, requests)
    }

    /// The node the admission tests drive, its `t_CPU`, and the instant
    /// until which it is busy.
    const SEAT: NodeId = NodeId(3);
    const T_CPU: SimDuration = SimDuration(20_000);
    const BUSY: SimTime = SimTime(5_000_000);

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A vote forged in node 0's name, on its way to `SEAT`.
    fn forged_vote() -> EventKind {
        let keys = bamboo_crypto::KeyPair::from_seed(99);
        let vote =
            bamboo_types::Vote::new(bamboo_types::BlockId::GENESIS, View(1), NodeId(0), &keys);
        let message = SharedMessage::new(bamboo_types::Message::Vote(vote));
        EventKind::Deliver(Envelope::Forged(message))
    }

    fn admitted(runner: &SimRunner) -> (u64, u64) {
        let host = &runner.hosts[SEAT.index()];
        (host.admissions().0, host.replica().mempool_stats().accepted)
    }

    /// A request that reaches an idle replica is admitted in its own step,
    /// at its arrival instant, before anything else pops.
    #[test]
    fn a_request_at_an_idle_replica_is_admitted_at_its_arrival() {
        let (mut runner, mut requests) = unbooted_with_requests(1);
        let arrival = at_us(1_000);
        runner.arrive(SEAT, arrival, requests.pop().unwrap());
        assert_eq!(admitted(&runner), (1, 1));
        assert_eq!(
            runner.busy_until[SEAT.index()],
            arrival + T_CPU,
            "one pass, from the arrival"
        );
        assert!(runner.inboxes[SEAT.index()].admit.is_none());
    }

    /// k requests that reach a busy replica wait, and are admitted in one
    /// step when it frees up, charged ⌈k/4⌉ passes.
    #[test]
    fn requests_at_a_busy_replica_are_admitted_in_one_step_of_ceil_k_over_4_passes() {
        let k = 7;
        let (mut runner, requests) = unbooted_with_requests(k);
        runner.busy_until[SEAT.index()] = BUSY;
        for (i, request) in requests.into_iter().enumerate() {
            runner.arrive(SEAT, at_us(1_000 + 100 * i as u64), request);
        }
        assert_eq!(admitted(&runner), (0, 0), "they wait");
        assert_eq!(fire_next(&mut runner), BUSY);
        assert_eq!(admitted(&runner), (1, k as u64));
        assert_eq!(runner.busy_until[SEAT.index()], BUSY + T_CPU * 2);
        assert!(runner.inboxes[SEAT.index()].waiting.is_none());
    }

    /// A vote that reaches a busy replica after a request is served first:
    /// its step starts when the CPU frees up, and the waiting request is
    /// admitted once that step is done.
    #[test]
    fn a_vote_at_a_busy_replica_is_served_before_the_waiting_requests() {
        let (mut runner, mut requests) = unbooted_with_requests(1);
        runner.busy_until[SEAT.index()] = BUSY;
        runner.arrive(SEAT, at_us(1_000), requests.pop().unwrap());
        let vote = SimEvent {
            node: SEAT,
            kind: forged_vote(),
        };
        runner.fire(at_us(2_000), vote);
        // The forgery costs three checks (a pass of q = 3), run from `BUSY`.
        let vote_done = BUSY + T_CPU * 3;
        assert_eq!(runner.hosts[SEAT.index()].auth_rejections(), 1);
        assert_eq!(runner.busy_until[SEAT.index()], vote_done);
        assert_eq!(admitted(&runner), (0, 0), "the request still waits");
        // The admission queued for `BUSY` finds the CPU busy and moves on.
        assert_eq!(fire_next(&mut runner), BUSY);
        assert_eq!(admitted(&runner), (0, 0));
        assert_eq!(fire_next(&mut runner), vote_done);
        assert_eq!(admitted(&runner), (1, 1));
        assert_eq!(runner.busy_until[SEAT.index()], vote_done + T_CPU);
    }

    /// An admission waits for nothing past the first instant the CPU is
    /// free with no consensus message queued: a message that arrives after
    /// that instant waits for the admission instead.
    #[test]
    fn an_admission_never_waits_past_the_first_free_instant() {
        let (mut runner, mut requests) = unbooted_with_requests(2);
        runner.busy_until[SEAT.index()] = BUSY;
        runner.arrive(SEAT, at_us(1_000), requests.pop().unwrap());
        runner.arrive(SEAT, at_us(4_999), requests.pop().unwrap());
        let later = BUSY + T_CPU / 2;
        let vote = forged_vote();
        runner.schedule(at_us(4_999), later, SEAT, vote);
        assert_eq!(fire_next(&mut runner), BUSY);
        assert_eq!(admitted(&runner), (1, 2));
        assert_eq!(runner.busy_until[SEAT.index()], BUSY + T_CPU);
        assert_eq!(fire_next(&mut runner), later);
        assert_eq!(
            runner.busy_until[SEAT.index()],
            BUSY + T_CPU * 4,
            "the vote went second"
        );
    }

    /// A crash empties the inbox: the admission it had queued admits
    /// nothing after a restart, and the requests it dropped are never
    /// committed, so they count as pending.
    #[test]
    fn a_crash_empties_the_inbox_and_its_requests_stay_pending() {
        let (mut runner, requests) = unbooted_with_requests(5);
        runner.busy_until[SEAT.index()] = BUSY;
        for request in requests {
            runner.arrive(SEAT, at_us(1_000), request);
        }
        runner.set_crashed(SEAT, true, RecoverMode::Resume, at_us(2_000));
        runner.set_crashed(SEAT, false, RecoverMode::Restart(None), at_us(3_000));
        let end = SimTime::ZERO + runner.config.runtime;
        let windows = runner.drive(end, WORKLOAD_TICK, |_, _| Vec::new());
        let report = runner.report(windows);
        assert_eq!(admitted(&runner), (0, 0));
        assert_eq!((report.admissions, report.committed_txs), (0, 0));
        let issued = runner.clients.as_ref().unwrap().workload.total_issued();
        assert!(issued >= 5);
        assert_eq!(report.pending_txs, issued);
    }

    /// A replica keeps one wake-up queued for its deadlines, not one event
    /// per timer it ever armed, so the queue holds little beside the
    /// messages in flight.
    #[test]
    fn the_queue_holds_a_wake_up_per_replica_not_every_armed_timer() {
        let options = RunOptions::default();
        let report =
            SimRunner::new(base_config(4, 10_000.0), ProtocolKind::HotStuff, options).run();
        assert!(report.committed_txs > 0, "the bound would be vacuous");
        assert!(
            report.queue_peak_len < 64,
            "queue peak {}",
            report.queue_peak_len
        );
    }

    /// Pops the next event off `runner`'s queue and fires it; returns its
    /// instant.
    fn fire_next(runner: &mut SimRunner) -> SimTime {
        let (time, popped) = runner.queue.pop().expect("an event is queued");
        let Popped::Event(event) = popped else {
            panic!("nothing is broadcast before the recovery");
        };
        runner.fire(time, event);
        time
    }

    /// Four replicas over links that add only the 1 µs causality floor to
    /// the NIC's `2·m/b`, so a message is due right after it leaves.
    fn instant_links() -> Config {
        Config {
            link_latency_mean: SimDuration::ZERO,
            link_latency_std: SimDuration::ZERO,
            ..base_config(4, 1_000.0)
        }
    }

    /// The message an event delivers, if it delivers one.
    fn delivered(kind: &EventKind) -> Option<bamboo_types::Message> {
        match kind {
            EventKind::Deliver(Envelope::Verified(token)) => Some(token.message().clone()),
            EventKind::Deliver(Envelope::Forged(message)) => Some((**message).clone()),
            _ => None,
        }
    }

    /// Pops everything queued at `runner`, firing nothing, and returns each
    /// delivery's instant, recipient and message in pop order.
    fn queued_deliveries(runner: &mut SimRunner) -> Vec<(SimTime, NodeId, bamboo_types::Message)> {
        let mut found = Vec::new();
        while let Some((at, popped)) = runner.queue.pop() {
            let (to, message) = match popped {
                Popped::Event(event) => (event.node, delivered(&event.kind)),
                Popped::Delivery { to, slot } => (
                    NodeId(to.into()),
                    delivered(&runner.queue.shared(slot).kind),
                ),
            };
            found.extend(message.map(|message| (at, to, message)));
        }
        found
    }

    /// A message leaves its sender when the CPU reaches it: the leader's
    /// proposal goes out once the block is assembled, so over near-instant
    /// links it is due before the step ends — the leader still signs its
    /// own vote after the send.
    #[test]
    fn a_proposal_is_due_before_its_proposing_step_ends() {
        let leader = NodeId(1);
        let mut runner =
            SimRunner::new(instant_links(), ProtocolKind::HotStuff, Default::default());
        runner.step(leader, SimTime::ZERO, |host, start, effects| {
            host.start(start, effects)
        });
        // An empty block: assembling it is one signature, and so is the vote.
        let (assembled, finish) = (SimTime::ZERO + T_CPU, runner.busy_until[leader.index()]);
        assert_eq!(finish, assembled + T_CPU);
        let due: Vec<SimTime> = (queued_deliveries(&mut runner).into_iter())
            .filter(|(_, _, message)| matches!(message, bamboo_types::Message::Proposal(_)))
            .map(|(at, _, _)| at)
            .collect();
        assert_eq!(due.len(), 3, "to every peer");
        for at in due {
            assert!(
                assembled < at && at < finish,
                "due at {at:?}, step {finish:?}"
            );
        }
    }

    /// An admission's handoff copy leaves once the edge check it follows
    /// is done, never before.
    #[test]
    fn a_handoff_copy_never_leaves_before_its_edge_check() {
        let (mut runner, mut requests) = unbooted_over(instant_links(), 1);
        let arrival = at_us(1_000);
        runner.arrive(SEAT, arrival, requests.pop().unwrap());
        let checked = arrival + T_CPU;
        assert_eq!(runner.busy_until[SEAT.index()], checked);
        let copies = queued_deliveries(&mut runner);
        let [(at, to, bamboo_types::Message::Handoff(_))] = &copies[..] else {
            panic!("one copy: {copies:?}");
        };
        assert_eq!(*to, NodeId(2), "to view 2's leader");
        assert!(*at > checked, "due at {at:?}, checked at {checked:?}");
    }

    /// With a durable log a vote goes to disk before it goes anywhere, on
    /// the simulated clock too: it leaves after the step's log write.
    #[test]
    fn under_a_durable_log_a_vote_leaves_after_its_log_write() {
        let config = Config {
            durable_log: true,
            ..instant_links()
        };
        let mut runner = SimRunner::new(config, ProtocolKind::HotStuff, Default::default());
        runner.step(NodeId(1), SimTime::ZERO, |host, start, effects| {
            host.start(start, effects)
        });
        // Node 3 takes node 1's proposal and votes to view 2's leader.
        let voter = NodeId(3);
        let start = loop {
            match runner.queue.pop().expect("the proposal reaches node 3") {
                (at, Popped::Delivery { to, slot }) if NodeId(to.into()) == voter => {
                    runner.deliver(at, voter, slot);
                    break at;
                }
                _ => continue,
            }
        };
        let finish = runner.busy_until[voter.index()];
        // Checking the block (two signatures) and signing the vote is three.
        assert!(finish - start > T_CPU * 3, "the vote was logged first");
        let votes: Vec<SimTime> = (queued_deliveries(&mut runner).into_iter())
            .filter(|(_, to, message)| {
                let ours = matches!(message, bamboo_types::Message::Vote(v) if v.voter == voter);
                *to == NodeId(2) && ours
            })
            .map(|(at, _, _)| at)
            .collect();
        assert_eq!(votes.len(), 1);
        assert!(
            votes[0] > finish,
            "due at {:?}, logged by {finish:?}",
            votes[0]
        );
    }

    /// The first step at which the observer replica of a run over `config`
    /// commits transactions: its start, the proposal it took, its finish,
    /// and the instants the replies reach their clients. Eight requests go
    /// to view 1's leader before the replicas boot; the queue is then fired
    /// event by event, with no client windows.
    fn first_confirming_step(config: Config) -> (SimTime, SharedBlock, SimTime, Vec<SimTime>) {
        let (mut runner, requests) = unbooted_over(config, 8);
        for request in requests {
            runner.arrive(NodeId(1), SimTime::ZERO, request);
        }
        for node in 0..runner.config.nodes as u64 {
            runner.step(NodeId(node), SimTime::ZERO, |host, start, effects| {
                host.start(start, effects)
            });
        }
        let observer = runner.observer.node;
        loop {
            let (at, popped) = runner.queue.pop().expect("the observer commits");
            let (to, message) = match &popped {
                Popped::Event(event) => (event.node, delivered(&event.kind)),
                Popped::Delivery { to, slot } => (
                    NodeId((*to).into()),
                    delivered(&runner.queue.shared(*slot).kind),
                ),
            };
            let start = at.max(runner.busy_until[to.index()]);
            match popped {
                Popped::Event(event) => runner.fire(at, event),
                Popped::Delivery { to, slot } => runner.deliver(at, NodeId(to.into()), slot),
            }
            if to == observer && !runner.confirmed.is_empty() {
                let Some(bamboo_types::Message::Proposal(block)) = message else {
                    panic!("a commit comes with a proposal's QC: {message:?}");
                };
                let finish = runner.busy_until[to.index()];
                return (start, block, finish, runner.confirmed.clone());
            }
        }
    }

    /// The response leg over links with mean and std 0: the causality
    /// floor alone.
    const FLOOR: SimDuration = SimDuration(1_000);

    /// A reply leaves when its commit is made: the observer commits once it
    /// has checked the proposal whose QC completes the chain, and the vote
    /// it signs after that does not hold the replies back.
    #[test]
    fn a_reply_leaves_when_its_commit_is_made_not_when_its_step_ends() {
        let (start, block, finish, confirmed) = first_confirming_step(instant_links());
        let checked = start + T_CPU * 2;
        assert_eq!(block.len(), 0, "the proposal carries the chain's QC only");
        assert!(
            finish >= checked + T_CPU,
            "the step goes on to sign its vote"
        );
        for at in confirmed {
            assert_eq!(at, checked + FLOOR, "step {start:?}–{finish:?}");
        }
    }

    /// Under a durable log a reply leaves once its commit records are
    /// written, and before the checkpoint the same commit makes due: the
    /// cut's image and write, like the vote's log write and signature,
    /// come after it.
    #[test]
    fn under_a_durable_log_a_reply_leaves_after_its_commit_record_and_before_a_checkpoint() {
        let config = Config {
            durable_log: true,
            checkpoint_interval: Some(1),
            ..instant_links()
        };
        let (start, _, finish, confirmed) = first_confirming_step(config);
        // Checking the proposal is two signatures, its commit records one
        // small write.
        let logged = start + T_CPU * 3;
        assert!(!confirmed.is_empty());
        for at in confirmed {
            assert_eq!(at, logged + FLOOR, "step {start:?}–{finish:?}");
        }
        // The checkpoint's image and write, the vote's log write and its
        // signature.
        assert_eq!(finish, logged + T_CPU * 4);
    }

    /// The live loop's crash rules: a resumed replica fires the deadline
    /// that fell due while it was down at the recovery instant; a restarted
    /// one fires nothing it armed before the crash.
    #[test]
    fn a_resume_fires_an_overdue_deadline_at_recovery_and_a_restart_drops_it() {
        let node = NodeId(3);
        let timeout = SimDuration::from_millis(100);
        let (crash, recover) = (SimTime(1_000_000), SimTime(150_000_000));
        for mode in [RecoverMode::Resume, RecoverMode::Restart(None)] {
            let (config, options) = (base_config(4, 2_000.0), RunOptions::default());
            let mut runner = SimRunner::new(config, ProtocolKind::HotStuff, options);
            // Node 3 does not lead view 1: its view timer is its one deadline.
            runner.step(node, SimTime::ZERO, |host, start, effects| {
                host.start(start, effects)
            });
            runner.set_crashed(node, true, RecoverMode::Resume, crash);
            // The timer falls due during the crash, and nothing fires.
            assert_eq!(fire_next(&mut runner), SimTime::ZERO + timeout);
            assert!(runner.queue.is_empty(), "{mode:?}");
            assert_eq!(
                runner.alarms[3].book.timers,
                [(View(1), SimTime::ZERO + timeout)]
            );

            runner.set_crashed(node, false, mode, recover);
            if mode == RecoverMode::Resume {
                assert_eq!(fire_next(&mut runner), recover, "fired at the recovery");
                let messages = runner.observer.messages;
                assert_eq!(messages, 3, "the overdue timer broadcast a timeout vote");
            } else {
                let alarm = &runner.alarms[3];
                assert!(alarm.wake > Some(recover), "{:?}", alarm.wake);
                assert_eq!(alarm.book.timers, [(View(1), recover + timeout)]);
            }
        }
    }

    #[test]
    fn two_chain_commits_with_lower_latency_than_three_chain() {
        let hs = SimRunner::new(
            base_config(4, 2_000.0),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .run();
        let two = SimRunner::new(
            base_config(4, 2_000.0),
            ProtocolKind::TwoChainHotStuff,
            RunOptions::default(),
        )
        .run();
        assert!(
            two.latency.mean_ms < hs.latency.mean_ms,
            "2CHS {} ms should beat HS {} ms",
            two.latency.mean_ms,
            hs.latency.mean_ms
        );
        assert!(two.block_interval < hs.block_interval);
    }

    #[test]
    fn silence_attack_reduces_chain_growth() {
        let honest = SimRunner::new(
            base_config(4, 2_000.0),
            ProtocolKind::HotStuff,
            RunOptions::default(),
        )
        .run();
        let mut cfg = base_config(4, 2_000.0);
        cfg.attacks = SeatAttack::first_seats(1, ByzantineStrategy::Silence);
        cfg.timeout = SimDuration::from_millis(20);
        let attacked = SimRunner::new(cfg, ProtocolKind::HotStuff, RunOptions::default()).run();
        assert_eq!(attacked.safety_violations, 0);
        assert!(attacked.chain_growth_rate < honest.chain_growth_rate);
        assert!(attacked.timeout_view_changes > 0);
    }

    /// A leader silent from mid-run strands none of its clients' requests:
    /// the attack withholds its proposal after the view counts as proposed,
    /// so the leader's handoff target lies past its own view and what it
    /// admits while that view times out is copied on to leaders that propose.
    #[test]
    fn a_seat_silent_from_mid_run_strands_none_of_its_requests() {
        let mut cfg = base_config(4, 4_000.0);
        (cfg.runtime, cfg.timeout) = (SimDuration::from_secs(8), SimDuration::from_millis(20));
        let from = SimTime::ZERO + SimDuration::from_secs(1);
        let until = SimTime::ZERO + cfg.runtime.saturating_sub(cfg.timeout * 5);
        let bucket = SimDuration::from_millis(100);
        let committed = |attacks| {
            let options = RunOptions {
                series_bucket: bucket,
                ..RunOptions::default()
            };
            let cfg = Config {
                attacks,
                ..cfg.clone()
            };
            let report = SimRunner::new(cfg, ProtocolKind::HotStuff, options).run();
            assert_eq!(report.safety_violations, 0);
            let window = (report.throughput_series.iter()).filter(|s| s.at >= from && s.at < until);
            window
                .map(|s| s.tx_per_sec * bucket.as_secs_f64())
                .sum::<f64>()
        };
        // The workload draws from its own stream, so both runs see the same
        // arrivals, and the honest one commits them within milliseconds:
        // its commits over the window are the offered load.
        let offered = committed(Vec::new());
        let strategy = ByzantineStrategy::Silence;
        let silent = committed(vec![SeatAttack {
            node: NodeId(0),
            strategy,
            from,
        }]);
        assert!(silent >= 0.97 * offered, "{silent} of {offered} committed");
    }

    #[test]
    fn scale_fault_times_moves_attack_starts_with_time_triggers_only() {
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let strategy = ByzantineStrategy::Silence;
        let mut config = Config {
            runtime: SimDuration::from_secs(2),
            attacks: vec![SeatAttack {
                node: NodeId(2),
                strategy,
                from: at(600),
            }],
            ..Config::default()
        };
        let mut options = RunOptions {
            node_faults: vec![NodeFault {
                node: NodeId(1),
                crash: FaultTrigger::At(at(400)),
                recover: Some(FaultTrigger::AtView(View(9))),
                mode: RecoverMode::Resume,
            }],
            ..RunOptions::default()
        };
        options.scale_fault_times(&mut config, SimDuration::from_millis(500));
        assert_eq!(config.runtime, SimDuration::from_millis(500));
        assert_eq!(config.attacks[0].from, at(150));
        let fault = options.node_faults[0];
        assert_eq!(fault.crash, FaultTrigger::At(at(100)));
        assert_eq!(
            fault.recover,
            Some(FaultTrigger::AtView(View(9))),
            "view triggers stay"
        );
    }

    #[test]
    fn time_triggered_crash_and_recovery_preserve_safety() {
        let mut cfg = base_config(4, 2_000.0);
        cfg.timeout = SimDuration::from_millis(20);
        let healthy =
            SimRunner::new(cfg.clone(), ProtocolKind::HotStuff, RunOptions::default()).run();
        let options = RunOptions {
            node_faults: vec![NodeFault {
                node: NodeId(0),
                crash: FaultTrigger::At(SimTime(100_000_000)),
                recover: Some(FaultTrigger::At(SimTime(250_000_000))),
                mode: RecoverMode::Resume,
            }],
            ..RunOptions::default()
        };
        let crashed = SimRunner::new(cfg, ProtocolKind::HotStuff, options).run();
        assert_eq!(crashed.safety_violations, 0);
        assert!(crashed.committed_txs > 0, "cluster survives f = 1 crash");
        assert!(
            crashed.timeout_view_changes > 0,
            "crashed leader views must time out"
        );
        assert!(
            crashed.committed_txs < healthy.committed_txs,
            "crash window should cost throughput ({} vs {})",
            crashed.committed_txs,
            healthy.committed_txs
        );
    }

    #[test]
    fn view_triggered_crash_fires_when_the_cluster_reaches_the_view() {
        let mut cfg = base_config(4, 2_000.0);
        cfg.timeout = SimDuration::from_millis(20);
        let options = RunOptions {
            node_faults: vec![NodeFault {
                node: NodeId(1),
                crash: FaultTrigger::AtView(View(4)),
                recover: None,
                mode: RecoverMode::Resume,
            }],
            ..RunOptions::default()
        };
        // 2CHS, not HS: with one of four seats down for good, round-robin
        // never has the four consecutive live leaders a three-chain in
        // adjacent views needs, and HS correctly commits nothing.
        let protocol = ProtocolKind::TwoChainHotStuff;
        let report = SimRunner::new(cfg.clone(), protocol, options.clone()).run();
        assert_eq!(report.safety_violations, 0);
        assert!(report.committed_txs > 0);
        assert!(
            report.timeout_view_changes > 0,
            "node 1's unrecovered crash must cost its leader views"
        );
        // The trigger resolves from simulated state alone, so a second
        // execution fires it at the same instant.
        let again = SimRunner::new(cfg, protocol, options).run();
        assert_eq!(report.replay_key(), again.replay_key());
    }

    #[test]
    fn forking_attack_is_harmless_to_streamlet_but_not_to_hotstuff() {
        let mut cfg = base_config(4, 2_000.0);
        cfg.attacks = SeatAttack::first_seats(1, ByzantineStrategy::Forking);
        let hs = SimRunner::new(cfg.clone(), ProtocolKind::HotStuff, RunOptions::default()).run();
        let sl = SimRunner::new(cfg, ProtocolKind::Streamlet, RunOptions::default()).run();
        assert_eq!(hs.safety_violations, 0);
        assert_eq!(sl.safety_violations, 0);
        assert!(
            sl.chain_growth_rate > 0.9,
            "streamlet CGR {} should stay near 1 under forking",
            sl.chain_growth_rate
        );
        assert!(
            hs.chain_growth_rate < sl.chain_growth_rate + 1e-9,
            "hotstuff CGR {} vs streamlet {}",
            hs.chain_growth_rate,
            sl.chain_growth_rate
        );
    }
}
