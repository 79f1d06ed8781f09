//! Multi-process loopback mode: one OS process per replica, driven over TCP.
//!
//! The handshake is deliberately minimal so any binary can host a replica by
//! calling [`maybe_run_replica`] first thing in `main`:
//!
//! 1. the driver spawns the replica binary with [`REPLICA_ENV`] set to a
//!    JSON [`ReplicaSpec`];
//! 2. the replica binds `127.0.0.1:0`, prints `PORT <p>` on stdout and
//!    waits — consensus is gated until it knows every peer's address;
//! 3. the driver collects every port, connects to each replica as
//!    [`CLIENT_SENDER`] and sends the full peer table; replicas dial each
//!    other and consensus starts;
//! 4. the driver submits load as [`FrameKind::ClientBatch`] frames and
//!    polls progress with status probes;
//! 5. on shutdown the driver sends a [`FrameKind::Shutdown`] frame; each
//!    replica tears down and prints `REPORT <json>` on stdout.
//!
//! Killing a replica is a real `SIGKILL` here — no destructor runs, peers
//! see dead sockets and reconnect on their backoff schedule, and a
//! replacement process starts from genesis and catches up through sync.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bamboo_core::live::RoundRobinLoad;
use bamboo_core::replica::ReplicaOptions;
use bamboo_core::runtime::NodeHost;
use bamboo_types::{Config, Json, NodeId, ProtocolKind, SimDuration, SimTime};

use crate::frame::{
    decode_status_reply, encode_client_batch, encode_frame, encode_hello, encode_peer_table,
    encode_status, FrameDecoder, FrameKind, StatusReply, CLIENT_SENDER,
};
use crate::node::{TcpNode, TcpNodeReport};
use crate::peer::BackoffPolicy;

/// Environment variable that turns a binary into a replica process when set
/// to a JSON [`ReplicaSpec`].
pub const REPLICA_ENV: &str = "BAMBOO_TCP_REPLICA_SPEC";

/// Cluster-wide parameters shared by every replica process.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Replica count.
    pub nodes: usize,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Transactions per block.
    pub block_size: usize,
    /// Transaction payload bytes.
    pub payload_size: usize,
    /// View timeout in milliseconds.
    pub timeout_ms: u64,
    /// Deterministic seed (key derivation).
    pub seed: u64,
    /// Verify workers per replica.
    pub verify_workers: usize,
    /// Checkpoint every N committed blocks; 0 disables checkpoints.
    pub checkpoint_interval: u64,
    /// Require client signatures at the replica edge.
    pub signed_requests: bool,
}

impl ClusterSpec {
    /// Builds the replica [`Config`] this spec describes.
    ///
    /// # Errors
    /// Returns the config-validation error text for out-of-range parameters.
    pub fn config(&self) -> Result<Config, String> {
        let mut builder = Config::builder()
            .nodes(self.nodes)
            .block_size(self.block_size)
            .payload_size(self.payload_size)
            .timeout(SimDuration::from_millis(self.timeout_ms))
            .seed(self.seed)
            .signed_requests(self.signed_requests);
        if self.checkpoint_interval > 0 {
            builder = builder.checkpoint_interval(self.checkpoint_interval);
        }
        builder.build().map_err(|e| e.to_string())
    }
}

/// What one replica process needs to know: the cluster parameters and which
/// seat it occupies.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaSpec {
    /// This replica's id.
    pub id: u64,
    /// The shared cluster parameters.
    pub cluster: ClusterSpec,
}

impl ReplicaSpec {
    /// Renders the spec as a single-line JSON document for [`REPLICA_ENV`].
    pub fn to_json(&self) -> String {
        let c = &self.cluster;
        let doc = Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("nodes", Json::Num(c.nodes as f64)),
            ("protocol", Json::Str(c.protocol.label().to_string())),
            ("block_size", Json::Num(c.block_size as f64)),
            ("payload_size", Json::Num(c.payload_size as f64)),
            ("timeout_ms", Json::Num(c.timeout_ms as f64)),
            ("seed", Json::Num(c.seed as f64)),
            ("verify_workers", Json::Num(c.verify_workers as f64)),
            (
                "checkpoint_interval",
                Json::Num(c.checkpoint_interval as f64),
            ),
            ("signed_requests", Json::Bool(c.signed_requests)),
        ]);
        compact(&doc)
    }

    /// Parses a spec rendered by [`ReplicaSpec::to_json`].
    ///
    /// # Errors
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_uint)
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
        };
        let protocol_label = doc
            .get("protocol")
            .and_then(Json::as_str)
            .ok_or("missing field `protocol`")?;
        let protocol = ProtocolKind::from_label(protocol_label)
            .ok_or_else(|| format!("unknown protocol label `{protocol_label}`"))?;
        let signed_requests = match doc.get("signed_requests") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing boolean field `signed_requests`".to_string()),
        };
        Ok(ReplicaSpec {
            id: num("id")?,
            cluster: ClusterSpec {
                nodes: num("nodes")? as usize,
                protocol,
                block_size: num("block_size")? as usize,
                payload_size: num("payload_size")? as usize,
                timeout_ms: num("timeout_ms")?,
                seed: num("seed")?,
                verify_workers: num("verify_workers")? as usize,
                checkpoint_interval: num("checkpoint_interval")?,
                signed_requests,
            },
        })
    }
}

/// Renders a [`Json`] document on one line. The pretty renderer is the only
/// public one; collapsing its lines is loss-free for our documents (no
/// string values contain whitespace).
fn compact(doc: &Json) -> String {
    doc.render_pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join("")
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// If [`REPLICA_ENV`] is set, runs this process as a replica until the
/// driver says shutdown, prints the final report, and returns `true` (the
/// caller should exit). Returns `false` in a normal invocation.
///
/// # Panics
/// Panics on a malformed spec or an I/O failure while serving — a replica
/// process has nothing sensible to fall back to, and the non-zero exit is
/// what the driver observes.
pub fn maybe_run_replica() -> bool {
    let Ok(text) = std::env::var(REPLICA_ENV) else {
        return false;
    };
    let spec =
        ReplicaSpec::from_json(&text).unwrap_or_else(|e| panic!("malformed {REPLICA_ENV}: {e}"));
    run_replica(&spec).expect("replica process failed");
    true
}

fn run_replica(spec: &ReplicaSpec) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let port = listener.local_addr()?.port();
    {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "PORT {port}")?;
        stdout.flush()?;
    }
    let config = spec
        .cluster
        .config()
        .unwrap_or_else(|e| panic!("invalid cluster spec: {e}"));
    let host = NodeHost::new(
        NodeId(spec.id),
        spec.cluster.protocol,
        config,
        ReplicaOptions::default(),
    );
    let node = TcpNode::spawn(
        host,
        listener,
        vec![None; spec.cluster.nodes],
        spec.cluster.verify_workers,
        BackoffPolicy::default(),
    )?;
    let report = node.wait();
    let doc = replica_report_json(&report);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "REPORT {}", compact(&doc))?;
    stdout.flush()
}

fn replica_report_json(report: &TcpNodeReport) -> Json {
    let replica = report.host.replica();
    let ledger = replica.ledger();
    let stats = &report.stats;
    Json::obj([
        ("node", Json::Num(stats.node as f64)),
        ("committed_txs", Json::Num(ledger.committed_txs() as f64)),
        ("committed_blocks", Json::Num(ledger.len() as f64)),
        ("view", Json::Num(replica.current_view().as_u64() as f64)),
        (
            "safety_violations",
            Json::Num(replica.safety_violations() as f64),
        ),
        (
            "timeout_view_changes",
            Json::Num(replica.timeout_view_changes() as f64),
        ),
        (
            "auth_rejections",
            Json::Num(report.host.auth_rejections() as f64),
        ),
        (
            "client_auth_rejections",
            Json::Num(report.host.client_auth_rejections() as f64),
        ),
        ("verify_accepted", Json::Num(stats.verify_accepted as f64)),
        ("verify_rejected", Json::Num(stats.verify_rejected as f64)),
        (
            "accepted_connections",
            Json::Num(stats.accepted_connections as f64),
        ),
        ("reconnects", Json::Num(stats.reconnects() as f64)),
        ("bytes_sent", Json::Num(stats.bytes_sent() as f64)),
        ("send_queue_dropped", Json::Num(stats.dropped() as f64)),
        (
            "chain_fingerprint",
            Json::Str(hex(ledger.chain_fingerprint().as_bytes())),
        ),
    ])
}

/// One driver-side connection to a replica process.
struct DriverConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl DriverConn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let mut conn = Self {
            stream,
            decoder: FrameDecoder::new(),
        };
        conn.send(FrameKind::Hello, &encode_hello(CLIENT_SENDER))?;
        Ok(conn)
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(&encode_frame(kind, payload))
    }

    /// Blocks until the probe with `token` answers or `deadline` passes.
    fn probe(
        &mut self,
        token: u64,
        prefix_len: u64,
        deadline: Instant,
    ) -> std::io::Result<StatusReply> {
        self.send(FrameKind::Status, &encode_status(token, prefix_len))?;
        let mut buf = [0u8; 4096];
        loop {
            loop {
                match self.decoder.next_frame() {
                    Ok(Some(frame)) if frame.kind == FrameKind::StatusReply => {
                        if let Ok(reply) = decode_status_reply(&frame.payload) {
                            if reply.token == token {
                                return Ok(reply);
                            }
                        }
                    }
                    Ok(Some(_)) | Ok(None) => break,
                    Err(_) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "bad frame from replica",
                        ))
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "status probe timed out",
                ));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "replica closed the connection",
                    ))
                }
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One spawned replica process and its stdout.
struct ProcessSeat {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

/// Driver for a cluster of replica processes on loopback.
pub struct ProcessCluster {
    exe: std::path::PathBuf,
    spec: ClusterSpec,
    seats: Vec<Option<ProcessSeat>>,
    conns: Vec<Option<DriverConn>>,
    load: RoundRobinLoad,
    next_token: u64,
}

impl ProcessCluster {
    /// Spawns one replica process per seat from `exe` (a binary whose `main`
    /// calls [`maybe_run_replica`]), collects the ports, and distributes the
    /// peer table so consensus starts.
    ///
    /// # Errors
    /// Fails if a process cannot spawn, a port line cannot be read, or a
    /// driver connection cannot be established.
    pub fn launch(exe: &std::path::Path, spec: ClusterSpec) -> std::io::Result<Self> {
        let mut seats: Vec<Option<ProcessSeat>> = Vec::with_capacity(spec.nodes);
        for id in 0..spec.nodes {
            seats.push(Some(spawn_seat(exe, spec, id as u64)?));
        }
        let mut cluster = Self {
            exe: exe.to_path_buf(),
            spec,
            seats,
            conns: (0..spec.nodes).map(|_| None).collect(),
            load: RoundRobinLoad::new(spec.nodes, spec.signed_requests),
            next_token: 0,
        };
        for id in 0..spec.nodes {
            cluster.connect(id)?;
        }
        cluster.broadcast_peer_table()?;
        Ok(cluster)
    }

    fn connect(&mut self, id: usize) -> std::io::Result<()> {
        let addr = self.seats[id].as_ref().expect("seat is live").addr;
        self.conns[id] = Some(DriverConn::connect(addr)?);
        Ok(())
    }

    fn broadcast_peer_table(&mut self) -> std::io::Result<()> {
        let table: Vec<(u64, SocketAddr)> = self
            .seats
            .iter()
            .enumerate()
            .filter_map(|(id, seat)| seat.as_ref().map(|s| (id as u64, s.addr)))
            .collect();
        let payload = encode_peer_table(&table);
        for conn in self.conns.iter_mut().flatten() {
            conn.send(FrameKind::PeerTable, &payload)?;
        }
        Ok(())
    }

    /// Submits `count` transactions of `payload` bytes round-robin across
    /// live replicas, continuing earlier sequence numbers.
    ///
    /// # Errors
    /// Fails if a batch cannot be written to a live replica's connection.
    pub fn submit_round_robin(&mut self, count: u64, payload: usize) -> std::io::Result<()> {
        let conns = &mut self.conns;
        let is_live = |seat: usize| conns[seat].is_some();
        let requests = self.load.next_requests(count, payload, SimTime(0), is_live);
        for (seat, request) in requests {
            if let Some(conn) = conns[seat].as_mut() {
                conn.send(FrameKind::ClientBatch, &encode_client_batch(&[request]))?;
            }
        }
        Ok(())
    }

    /// Probes replica `id` for its status.
    ///
    /// # Errors
    /// Fails if the replica is down or does not answer within the timeout.
    pub fn probe(&mut self, id: usize, prefix_len: u64) -> std::io::Result<StatusReply> {
        let token = self.next_token;
        self.next_token += 1;
        let conn = self.conns[id].as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "replica is down")
        })?;
        conn.probe(token, prefix_len, Instant::now() + Duration::from_secs(5))
    }

    /// The smallest committed-transaction count across live replicas.
    ///
    /// # Errors
    /// Fails if any live replica stops answering probes.
    pub fn committed_txs_floor(&mut self) -> std::io::Result<u64> {
        let mut floor = u64::MAX;
        for id in 0..self.spec.nodes {
            if self.conns[id].is_some() {
                floor = floor.min(self.probe(id, 0)?.committed_txs);
            }
        }
        Ok(if floor == u64::MAX { 0 } else { floor })
    }

    /// Polls until every live replica commits at least `min_txs` or
    /// `max_wait` elapses; returns whether the floor was reached.
    ///
    /// # Errors
    /// Fails if any live replica stops answering probes.
    pub fn run_until_committed(
        &mut self,
        min_txs: u64,
        max_wait: Duration,
    ) -> std::io::Result<bool> {
        let deadline = Instant::now() + max_wait;
        loop {
            if self.committed_txs_floor()? >= min_txs {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(self.committed_txs_floor()? >= min_txs);
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Checks prefix agreement across live replicas: probes everyone for
    /// their committed length, then asks everyone for the fingerprint of the
    /// shortest prefix and compares. Returns the common prefix length.
    ///
    /// # Errors
    /// Fails on probe I/O errors or if the fingerprints diverge.
    pub fn check_prefix_agreement(&mut self) -> std::io::Result<u64> {
        let mut min_len = u64::MAX;
        for id in 0..self.spec.nodes {
            if self.conns[id].is_some() {
                min_len = min_len.min(self.probe(id, 0)?.committed_blocks);
            }
        }
        if min_len == u64::MAX || min_len == 0 {
            return Ok(0);
        }
        let mut expected: Option<[u8; 32]> = None;
        for id in 0..self.spec.nodes {
            if self.conns[id].is_some() {
                let reply = self.probe(id, min_len)?;
                match expected {
                    None => expected = Some(reply.chain_fingerprint),
                    Some(fp) if fp == reply.chain_fingerprint => {}
                    Some(_) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("replica {id} disagrees on the committed prefix"),
                        ))
                    }
                }
            }
        }
        Ok(min_len)
    }

    /// Kills replica `id` with a real `SIGKILL` — no destructors, no
    /// farewell; peers discover the death through their sockets.
    ///
    /// # Errors
    /// Fails if the process cannot be killed.
    ///
    /// # Panics
    /// Panics if the replica is already down.
    pub fn kill(&mut self, id: usize) -> std::io::Result<()> {
        let mut seat = self.seats[id].take().expect("replica already down");
        self.conns[id] = None;
        seat.child.kill()?;
        let _ = seat.child.wait();
        Ok(())
    }

    /// Starts a replacement process for a killed seat (fresh state, new
    /// port), reconnects, and re-broadcasts the peer table so everyone
    /// redials.
    ///
    /// # Errors
    /// Fails if the replacement cannot spawn or connect.
    ///
    /// # Panics
    /// Panics if the replica is still running.
    pub fn restart(&mut self, id: usize) -> std::io::Result<()> {
        assert!(self.seats[id].is_none(), "replica still running");
        self.seats[id] = Some(spawn_seat(&self.exe, self.spec, id as u64)?);
        self.connect(id)?;
        self.broadcast_peer_table()
    }

    /// Sends shutdown to every live replica and collects their final
    /// reports (one parsed `REPORT` JSON document per live seat).
    ///
    /// # Errors
    /// Fails if a shutdown frame cannot be sent or a report cannot be read
    /// or parsed.
    pub fn shutdown(mut self) -> std::io::Result<Vec<Json>> {
        for conn in self.conns.iter_mut().flatten() {
            conn.send(FrameKind::Shutdown, &[])?;
        }
        let mut reports = Vec::new();
        for seat in self.seats.iter_mut().flatten() {
            let mut line = String::new();
            loop {
                line.clear();
                if seat.stdout.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "replica exited without a report",
                    ));
                }
                if let Some(json) = line.trim_end().strip_prefix("REPORT ") {
                    let doc = Json::parse(json).map_err(|e| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("bad replica report: {e}"),
                        )
                    })?;
                    reports.push(doc);
                    break;
                }
            }
            let _ = seat.child.wait();
        }
        Ok(reports)
    }
}

fn spawn_seat(exe: &std::path::Path, spec: ClusterSpec, id: u64) -> std::io::Result<ProcessSeat> {
    let replica_spec = ReplicaSpec { id, cluster: spec };
    let mut child = Command::new(exe)
        .env(REPLICA_ENV, replica_spec.to_json())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .stdin(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut stdout = BufReader::new(stdout);
    let mut line = String::new();
    let port = loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "replica exited before printing its port",
            ));
        }
        if let Some(port) = line.trim_end().strip_prefix("PORT ") {
            match port.parse::<u16>() {
                Ok(port) => break port,
                Err(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "malformed PORT line",
                    ))
                }
            }
        }
    };
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    Ok(ProcessSeat {
        child,
        stdout,
        addr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_spec_round_trips_through_json() {
        let spec = ReplicaSpec {
            id: 2,
            cluster: ClusterSpec {
                nodes: 4,
                protocol: ProtocolKind::Streamlet,
                block_size: 50,
                payload_size: 16,
                timeout_ms: 40,
                seed: 2024,
                verify_workers: 1,
                checkpoint_interval: 5,
                signed_requests: true,
            },
        };
        let parsed = ReplicaSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed.id, 2);
        assert_eq!(parsed.cluster.nodes, 4);
        assert_eq!(parsed.cluster.protocol, ProtocolKind::Streamlet);
        assert_eq!(parsed.cluster.block_size, 50);
        assert_eq!(parsed.cluster.payload_size, 16);
        assert_eq!(parsed.cluster.timeout_ms, 40);
        assert_eq!(parsed.cluster.seed, 2024);
        assert_eq!(parsed.cluster.verify_workers, 1);
        assert_eq!(parsed.cluster.checkpoint_interval, 5);
        assert!(parsed.cluster.signed_requests);

        // Integers are read strictly: `-1` is not replica 0, `4.9` not 4 nodes.
        for (good, bad) in [
            ("\"id\": 2", "\"id\": -1"),
            ("\"nodes\": 4", "\"nodes\": 4.9"),
        ] {
            let text = spec.to_json().replace(good, bad);
            assert!(text.contains(bad), "{text}");
            assert!(ReplicaSpec::from_json(&text).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn compact_rendering_is_reparseable() {
        let doc = Json::obj([
            ("a", Json::Num(1.0)),
            (
                "b",
                Json::arr([Json::Str("HS".to_string()), Json::Bool(true)]),
            ),
        ]);
        let compacted = compact(&doc);
        assert!(!compacted.contains('\n'));
        assert_eq!(Json::parse(&compacted).unwrap(), doc);
    }
}
