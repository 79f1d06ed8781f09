//! The child-process link: a [`LiveCluster`](bamboo_core::LiveCluster)
//! whose seats are OS processes on loopback. A binary hosts a seat by
//! calling [`maybe_run_replica`] first thing in `main`; the cluster spawns
//! it with [`REPLICA_ENV`] set to a scenario document
//! ([`bamboo_core::Scenario`]'s schema) of its `Config` and protocol plus the keys `seat`, `cluster` (the tag peers' hellos are
//! signed for) and, under `durable_log`, `log_dir`. The seat prints
//! `PORT <p>` and waits for the peer table; the cluster then drives it over a
//! [`CLIENT_SENDER`] connection: client batches, status probes, and at
//! shutdown one last probe — the seat's part of the report — and a shutdown
//! frame. A crash is a real `SIGKILL` that leaves only the seat's files, so a
//! replacement process replays its own segment directory under
//! `durable_log` (starts from genesis without one) and syncs the rest.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bamboo_core::live::{ClusterReport, SeatBoot, SeatEnd, SeatLink, SeatStatus};
use bamboo_core::runtime::{NodeHost, RecoverMode};
use bamboo_core::Scenario;
use bamboo_types::{ClientRequest, Json, LeaderPolicy, NodeId, SeatAttack, SimDuration};

use crate::frame::{
    decode_status_reply, encode_client_batch, encode_frame, encode_hello, encode_peer_table,
    encode_status, read_challenge, read_frame, FrameKind, StatusReply, CLIENT_SENDER,
};
use crate::node::{TcpNode, DEFAULT_NODE_VERIFY_WORKERS};
use crate::peer::BackoffPolicy;

/// Environment variable that turns a binary into a seat process when set to
/// a seat document.
pub const REPLICA_ENV: &str = "BAMBOO_TCP_REPLICA_SPEC";

/// How long the cluster waits for a seat's probe reply.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// Renders seat `boot` as a scenario document: the keys of the scenario
/// schema a live replica reads, plus `seat`, `cluster` and `log_dir`. Its
/// `byzantine` object says seats `0..count`, one strategy, from time zero;
/// any other list of attacks is [`io::ErrorKind::Unsupported`].
fn seat_document(boot: &SeatBoot<'_>) -> io::Result<String> {
    let config = boot.config;
    let num = |value: u64| Json::Num(value as f64);
    let size = |value: usize| Json::Num(value as f64);
    let span = |span: SimDuration, unit: f64| Json::Num(span.as_nanos() as f64 / unit);
    let text = |text: String| Json::Str(text);
    let workload = match config.arrival_rate {
        Some(rate) => ("open_loop_tx_per_sec", Json::Num(rate)),
        None => ("closed_loop_clients", size(config.concurrency)),
    };
    let leader = match config.leader_policy {
        LeaderPolicy::RoundRobin => text("round_robin".into()),
        LeaderPolicy::Hashed => text("hashed".into()),
        LeaderPolicy::Static(id) => Json::obj([("static", num(id.as_u64()))]),
    };
    let (attacks, count) = (&config.attacks, config.attacks.len());
    let strategy = attacks.first().map_or(Default::default(), |a| a.strategy);
    if *attacks != SeatAttack::first_seats(count, strategy) {
        let why = "a seat process's attacks are seats 0..k with one strategy from time zero";
        return Err(io::Error::new(io::ErrorKind::Unsupported, why));
    }
    let strategy = text(strategy.to_string());
    let byzantine = Json::obj([("strategy", strategy), ("count", size(count))]);
    let mut fields = vec![
        ("name", text(format!("seat-{}", boot.id))),
        ("protocols", Json::arr([text(boot.protocol.label().into())])),
        ("seat", num(boot.id.as_u64())),
        ("cluster", num(boot.cluster)),
        ("nodes", size(config.nodes)),
        ("runtime_ms", span(config.runtime, 1e6)),
        ("timeout_ms", span(config.timeout, 1e6)),
        ("cpu_us", span(config.cpu_delay, 1e3)),
        ("block_size", size(config.block_size)),
        ("payload_size", size(config.payload_size)),
        ("mempool_size", size(config.mempool_size)),
        ("fsync_interval", size(config.fsync_interval)),
        ("segment_bytes", size(config.segment_bytes)),
        ("seed", num(config.seed)),
        ("signed_requests", Json::Bool(config.signed_requests)),
        ("durable_log", Json::Bool(config.durable_log)),
        ("leader", leader),
        ("workload", Json::obj([workload])),
        ("byzantine", byzantine),
    ];
    let dir = boot.dir.as_ref().map(|dir| text(dir.display().to_string()));
    let interval = config.checkpoint_interval.map(num);
    let optional = [
        ("checkpoint_interval_blocks", interval),
        ("client_population", config.client_population.map(num)),
        ("log_dir", dir),
    ];
    fields.extend(
        optional
            .map(|(key, value)| value.map(|value| (key, value)))
            .into_iter()
            .flatten(),
    );
    // The pretty renderer is the only public one; no value holds a newline,
    // so joining its lines keeps the document intact.
    let doc = Json::obj(fields).render_pretty();
    Ok(doc.lines().map(str::trim).collect())
}

/// If [`REPLICA_ENV`] is set, runs this process as the seat it names until
/// the cluster says shutdown and returns `true` (the caller should exit).
/// Returns `false` in a normal invocation.
///
/// # Panics
/// Panics on a malformed seat document or an I/O failure while serving — a
/// seat process has nothing sensible to fall back to, and the non-zero exit
/// is what the cluster observes.
pub fn maybe_run_replica() -> bool {
    let Ok(text) = std::env::var(REPLICA_ENV) else {
        return false;
    };
    run_seat(&text).unwrap_or_else(|e| panic!("seat process failed: {e}"));
    true
}

/// Boots the seat a document rendered by [`seat_document`] names, announces
/// its port and serves until the cluster says shutdown.
fn run_seat(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let scenario = Scenario::from_json(&doc)?;
    let (config, _) = scenario.build(false);
    let field = |key| (doc.get(key).and_then(Json::as_uint)).ok_or(format!("bad field `{key}`"));
    let boot = SeatBoot {
        id: NodeId(field("seat")?),
        protocol: scenario.protocols[0],
        config: &config,
        dir: doc.get("log_dir").and_then(Json::as_str).map(PathBuf::from),
        cluster: field("cluster")?,
        // Another address space, another clock (DESIGN.md §9.3).
        epoch: Instant::now(),
    };
    if boot.id.index() >= config.nodes {
        return Err(format!("no seat {} among {}", boot.id, config.nodes));
    }
    let io = |e: io::Error| e.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let port = listener.local_addr().map_err(io)?.port();
    let mut stdout = io::stdout().lock();
    let announced = writeln!(stdout, "PORT {port}").and_then(|()| stdout.flush());
    announced.map_err(io)?;
    let host = boot.host();
    // A seat whose directory already holds a log was killed and comes back.
    let log = host.replica().storage();
    let kept = log.is_some_and(|log| log.records_appended() > 0 || log.checkpoint().is_some());
    let restart = kept.then_some(RecoverMode::Restart(None));
    let (workers, backoff) = (DEFAULT_NODE_VERIFY_WORKERS, BackoffPolicy::default());
    TcpNode::spawn(host, listener, &boot, workers, backoff, restart)
        .map_err(io)?
        .wait();
    Ok(())
}

/// The cluster's connection to one seat process. Nothing but the replies to
/// its own probes comes back on it.
struct DriverConn(TcpStream);

impl DriverConn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut stream = TcpStream::connect_timeout(&addr, PROBE_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(PROBE_TIMEOUT))?;
        let challenge = read_challenge(&mut stream)?;
        let mut conn = Self(stream);
        conn.send(
            FrameKind::Hello,
            &encode_hello(CLIENT_SENDER, 0, &challenge),
        )?;
        Ok(conn)
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
        self.0.write_all(&encode_frame(kind, payload))
    }

    /// Sends a probe and reads frames until its reply (a reply to an earlier
    /// probe that timed out is skipped).
    fn probe(&mut self, token: u64, prefix_len: u64) -> io::Result<StatusReply> {
        self.send(FrameKind::Status, &encode_status(token, prefix_len))?;
        loop {
            let frame = read_frame(&mut self.0)?;
            if frame.kind == FrameKind::StatusReply {
                let reply = decode_status_reply(&frame.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if reply.token == token {
                    return Ok(reply);
                }
            }
        }
    }
}

/// One running seat process.
pub struct ProcessSeat {
    child: Child,
    conn: Mutex<DriverConn>,
    addr: SocketAddr,
    /// The last probe's reply, taken when the seat is halted at shutdown.
    last: Option<StatusReply>,
}

impl ProcessSeat {
    fn conn(&self) -> std::sync::MutexGuard<'_, DriverConn> {
        self.conn.lock().expect("driver connection lock poisoned")
    }
}

impl Drop for ProcessSeat {
    /// A seat never outlives its cluster, even one that panicked; dropping
    /// a running seat is the crash's `SIGKILL`.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The child-process link: every seat a process of `exe`, a binary whose
/// `main` calls [`maybe_run_replica`].
pub struct Processes {
    exe: PathBuf,
    next_token: AtomicU64,
}

impl Processes {
    /// The link for seat processes of `exe`.
    pub fn new(exe: impl Into<PathBuf>) -> Self {
        Self {
            exe: exe.into(),
            next_token: AtomicU64::new(0),
        }
    }

    fn probe_reply(&self, seat: &ProcessSeat, prefix_len: u64) -> io::Result<StatusReply> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        seat.conn().probe(token, prefix_len)
    }
}

impl SeatLink for Processes {
    type Seat = ProcessSeat;
    type Finished = (ClusterReport, Vec<Option<NodeHost>>);

    /// A process keeps no host through a crash, and a new one decides on its
    /// own whether its directory holds a log to restart from.
    fn boot(
        &mut self,
        boot: &SeatBoot<'_>,
        _: Option<NodeHost>,
        restart: Option<RecoverMode>,
    ) -> io::Result<ProcessSeat> {
        if matches!(restart, Some(RecoverMode::Restart(Some(_)))) {
            let why = "a killed seat process's files are not faulted";
            return Err(io::Error::new(io::ErrorKind::Unsupported, why));
        }
        let mut child = Command::new(&self.exe)
            .env(REPLICA_ENV, seat_document(boot)?)
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let printed = BufReader::new(stdout).read_line(&mut line).ok();
        let port = printed.and_then(|_| line.trim_end().strip_prefix("PORT ")?.parse().ok());
        // A seat that printed no port gets port 0, which refuses the driver.
        let addr = SocketAddr::from(([127, 0, 0, 1], port.unwrap_or(0)));
        match DriverConn::connect(addr) {
            Ok(conn) => Ok(ProcessSeat {
                child,
                conn: Mutex::new(conn),
                addr,
                last: None,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn announce(&mut self, seats: &[Option<ProcessSeat>]) -> io::Result<()> {
        let table: Vec<(u64, SocketAddr)> = (seats.iter().enumerate())
            .filter_map(|(id, seat)| seat.as_ref().map(|seat| (id as u64, seat.addr)))
            .collect();
        let payload = encode_peer_table(&table);
        for seat in seats.iter().flatten() {
            seat.conn().send(FrameKind::PeerTable, &payload)?;
        }
        Ok(())
    }

    fn submit(&self, seat: &ProcessSeat, requests: Vec<ClientRequest>) {
        let _ = (seat.conn()).send(FrameKind::ClientBatch, &encode_client_batch(&requests));
    }

    fn probe(&self, seat: &ProcessSeat, prefix_len: u64) -> io::Result<SeatStatus> {
        Ok(self.probe_reply(seat, prefix_len)?.status)
    }

    /// A child's loop runs until it exits, so halting a seat probes it one
    /// last time: that reply is its part of the report.
    fn halt(&self, seat: &mut ProcessSeat) {
        seat.last = self.probe_reply(seat, 0).ok();
    }

    /// A crash drops the seat, which kills it; a shutdown asks it to exit,
    /// reporting what it answered when halted.
    fn stop(&mut self, mut seat: ProcessSeat, crash: bool) -> SeatEnd {
        if crash {
            return SeatEnd::default();
        }
        let last = seat.last.take();
        if seat.conn().send(FrameKind::Shutdown, &[]).is_ok() {
            let _ = seat.child.wait();
        }
        SeatEnd {
            status: last.as_ref().map(|reply| reply.status),
            net: last.map(|reply| reply.net),
            host: None,
        }
    }

    fn finished(report: ClusterReport, hosts: Vec<Option<NodeHost>>) -> Self::Finished {
        (report, hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::{ByzantineStrategy, Config, ProtocolKind, SimTime};

    fn boot(config: &Config) -> SeatBoot<'_> {
        SeatBoot {
            id: NodeId(5),
            protocol: ProtocolKind::Streamlet,
            config,
            dir: Some(PathBuf::from("/tmp/seat-5")),
            cluster: 1 << 47,
            epoch: Instant::now(),
        }
    }

    #[test]
    fn a_seat_document_carries_the_whole_config_through_the_scenario_schema() {
        let config = Config {
            nodes: 7,
            attacks: SeatAttack::first_seats(2, ByzantineStrategy::Silence),
            leader_policy: LeaderPolicy::Static(NodeId(3)),
            block_size: 50,
            payload_size: 16,
            timeout: SimDuration::from_nanos(50_000_123),
            cpu_delay: SimDuration::from_nanos(20_001),
            checkpoint_interval: Some(4),
            durable_log: true,
            fsync_interval: 3,
            signed_requests: true,
            seed: 2026,
            ..Config::default()
        };
        let doc = Json::parse(&seat_document(&boot(&config)).unwrap()).unwrap();
        let (read, _) = Scenario::from_json(&doc).unwrap().build(false);
        assert_eq!(read, config);
        assert_eq!(doc.get("seat").and_then(Json::as_uint), Some(5));
        assert_eq!(doc.get("cluster").and_then(Json::as_uint), Some(1 << 47));
        assert_eq!(
            doc.get("log_dir").and_then(Json::as_str),
            Some("/tmp/seat-5")
        );
    }

    /// The schema says Table I's form only; any other list is refused at
    /// boot, before a process starts.
    #[test]
    fn a_seat_document_refuses_attacks_the_schema_cannot_say() {
        let (silence, forking) = (ByzantineStrategy::Silence, ByzantineStrategy::Forking);
        let late = SeatAttack {
            from: SimTime(1),
            ..SeatAttack::first_seats(1, silence)[0]
        };
        let mut mixed = SeatAttack::first_seats(2, silence);
        mixed[1].strategy = forking;
        let mut skipped = SeatAttack::first_seats(2, silence);
        skipped[1].node = NodeId(2);
        for attacks in [vec![late], mixed, skipped] {
            let config = Config {
                nodes: 7,
                attacks,
                ..Config::default()
            };
            let refused = seat_document(&boot(&config)).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::Unsupported, "{config:?}");
        }
    }
}
