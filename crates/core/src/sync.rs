//! State transfer: how a replica that fell behind — a long partition, a
//! restart — gets the history it is missing from a peer.
//!
//! [`SyncState`] is the requester's machine; [`target`] picks the peer to ask
//! and [`serve`] assembles the answer, both plain functions of their
//! arguments. The consensus path asks this module questions
//! ([`SyncState::blocks_voting`]) and never reads its fields.

use bamboo_forest::{BlockForest, Ledger, Snapshot};
use bamboo_types::{Message, NodeId, SharedBlock, SimDuration, SimTime, SyncRequest, SyncResponse};

use crate::durability::Disk;
use crate::metrics::RecoveryStats;
use crate::runtime::Step;

/// Maximum number of ledger blocks shipped in one [`SyncResponse`]. A lagging
/// replica that is further behind than this converges over several
/// request/response rounds rather than in one unboundedly large message.
pub(crate) const SYNC_BATCH: usize = 256;

/// Cap on the snapshot part of one [`SyncResponse`], counted in whole
/// checkpoint chunks (at least one is always sent): far below the transport's
/// 64 MiB frame cap, and the requester re-requests the rest.
pub(crate) const SYNC_SNAPSHOT_BYTES: usize = 8 << 20;

/// The requester side of state transfer on one replica.
#[derive(Debug, Default)]
pub(crate) struct SyncState {
    /// True while a catch-up episode is running.
    active: bool,
    /// Whether a sync timer (debounce or retry) is currently armed; keeps the
    /// timer traffic to at most one outstanding deadline.
    timer_armed: bool,
    /// Consecutive attempts in the current episode (drives back-off and peer
    /// rotation).
    attempts: u64,
}

impl SyncState {
    /// A syncing replica neither votes nor proposes: it cannot evaluate the
    /// safety rules against a chain it does not yet have.
    pub fn blocks_voting(&self) -> bool {
        self.active
    }

    /// Gap detection: a proposal whose ancestry cannot be resolved sits in
    /// the forest's orphan buffer. Arms a debounced sync timer rather than
    /// requesting at once — on a healthy network the missing parent is
    /// usually just reordered and arrives before `debounce` expires, in which
    /// case the timer fires as a strict no-op (no CPU, no sends).
    pub fn watch(&mut self, forest: &BlockForest, debounce: SimDuration, out: &mut Step<'_>) {
        if forest.orphan_count() > 0 && !self.timer_armed {
            self.timer_armed = true;
            out.transport.arm_sync_timer(out.now + debounce);
        }
    }

    /// The sync timer fired: whether a request is due, or the gap healed
    /// through live traffic before the deadline.
    pub fn timer_fired(&mut self, forest: &BlockForest) -> bool {
        self.timer_armed = false;
        self.active || forest.orphan_count() > 0
    }

    /// Starts (or retries) a catch-up episode: sends the signed `request` to
    /// the peer [`target`] picks out of `nodes` and arms a retry timer with
    /// linear back-off, capped — a lost response costs one more round trip.
    /// With nobody to ask, the episode ends instead.
    pub fn request(
        &mut self,
        request: SyncRequest,
        nodes: usize,
        forest: &BlockForest,
        timeout: SimDuration,
        stats: &mut RecoveryStats,
        out: &mut Step<'_>,
    ) {
        if nodes <= 1 {
            self.active = false;
            return;
        }
        if !self.active {
            // A new episode begins: the previous caught-up mark no longer
            // describes the final state.
            stats.caught_up_at = None;
        }
        self.active = true;
        let orphan_proposer = forest.oldest_orphan().map(|orphan| orphan.proposer);
        let peer = target(request.requester, nodes, self.attempts, orphan_proposer);
        self.attempts += 1;
        stats.sync_requests_sent += 1;
        out.cpu += out.model.sign();
        out.transport.unicast(peer, Message::SyncRequest(request));
        let backoff = SimDuration::from_nanos(timeout.as_nanos() * self.attempts.min(8));
        self.timer_armed = true;
        out.transport.arm_sync_timer(out.now + backoff);
    }

    /// Installs the snapshot part of `response` — checkpoint chunks decoded
    /// onto our own ledger, since they may start inside it — if it takes the
    /// replica ahead of everything it has; the chunks `disk` holds then
    /// describe the state just left. `None` for a response nobody is waiting
    /// for (unsolicited, or a duplicate after catching up), else whether
    /// forest and ledger were replaced.
    pub fn install(
        &self,
        response: &SyncResponse,
        forest: &mut BlockForest,
        ledger: &mut Ledger,
        disk: &mut Disk,
        stats: &mut RecoveryStats,
        out: &mut Step<'_>,
    ) -> Option<bool> {
        if !self.active {
            return None;
        }
        stats.sync_bytes_received += response.wire_size() as u64;
        stats.blocks_synced += response.blocks.len() as u64;
        let Some(bytes) = &response.snapshot else {
            return Some(false);
        };
        out.cpu += out.model.snapshot(bytes.len());
        match Snapshot::decode_onto(ledger, bytes) {
            Ok(snap) if snap.ledger.len() > ledger.len() => {
                (*forest, *ledger) = (snap.forest, snap.ledger);
                stats.snapshots_installed += 1;
                disk.rebase();
                Some(true)
            }
            _ => Some(false),
        }
    }

    /// Ends the episode once a response left nothing unresolvable behind. If
    /// the replica is still behind the live tip, the next proposal will
    /// orphan and re-arm the machinery with a fresher head.
    pub fn settle(&mut self, forest: &BlockForest, now: SimTime, stats: &mut RecoveryStats) {
        if forest.orphan_count() == 0 {
            self.active = false;
            self.attempts = 0;
            stats.caught_up_at = Some(now);
        }
    }
}

/// Deterministic peer choice: the first attempt asks the proposer of the
/// oldest buffered orphan (it certainly holds the missing ancestry); retries
/// rotate through the validator set, skipping the requester.
pub(crate) fn target(
    id: NodeId,
    nodes: usize,
    attempts: u64,
    oldest_orphan_proposer: Option<NodeId>,
) -> NodeId {
    if attempts == 0 {
        if let Some(proposer) = oldest_orphan_proposer.filter(|&proposer| proposer != id) {
            return proposer;
        }
    }
    let n = nodes as u64;
    let mut candidate = (id.as_u64() + 1 + attempts) % n;
    if candidate == id.as_u64() {
        candidate = (candidate + 1) % n;
    }
    NodeId(candidate)
}

/// Answers a state-transfer request from `responder`'s local state. If the
/// requester is behind the latest checkpoint (or on a chain the responder
/// does not recognise), the response leads with the checkpoint chunks above
/// its height — all of them for an unrecognised chain — capped at
/// [`SYNC_SNAPSHOT_BYTES`]; the committed suffix above those and the
/// uncommitted main path follow, capped at [`SYNC_BATCH`] blocks.
pub(crate) fn serve(
    request: &SyncRequest,
    responder: NodeId,
    ledger: &Ledger,
    forest: &BlockForest,
    disk: &Disk,
) -> SyncResponse {
    // Where in our ledger does the requester's claimed head sit?
    let claimed = request.height.as_u64() as usize;
    let on_our_chain = claimed == 0
        || (claimed <= ledger.len()
            && ledger.get(claimed - 1).map(|c| c.block.id) == Some(request.head));
    let mut start = if on_our_chain { claimed } else { 0 };
    let mut snapshot = None;
    if (start as u64) < disk.checkpoint_height() {
        if let Some((bytes, to)) = disk.suffix(start as u64, SYNC_SNAPSHOT_BYTES) {
            snapshot = Some(bytes);
            start = to as usize;
        }
    }
    let mut blocks: Vec<SharedBlock> = (ledger.iter().skip(start).take(SYNC_BATCH))
        .map(|c| c.block.clone())
        .collect();
    if blocks.len() < SYNC_BATCH {
        // Room left in the batch: append the uncommitted main path so the
        // requester can rejoin live consensus immediately.
        let head = forest.committed_head().id;
        let tip = forest.highest_certified_block().id;
        if let Some(path) = forest.shared_path_from(head, tip) {
            blocks.extend(path.into_iter().take(SYNC_BATCH - blocks.len()).cloned());
        }
    }
    SyncResponse {
        responder,
        snapshot,
        blocks,
        high_qc: forest.high_qc().clone(),
    }
}

/// Serves `request` on the wire: charges the signature check and the chunks
/// read, and sends what [`serve`] assembled back to the requester.
pub(crate) fn answer(
    request: &SyncRequest,
    responder: NodeId,
    ledger: &Ledger,
    forest: &BlockForest,
    disk: &Disk,
    stats: &mut RecoveryStats,
    out: &mut Step<'_>,
) {
    out.cpu += out.model.verify(1);
    if request.requester == responder {
        return;
    }
    stats.sync_responses_served += 1;
    let response = serve(request, responder, ledger, forest, disk);
    if let Some(bytes) = &response.snapshot {
        out.cpu += out.model.snapshot(bytes.len());
    }
    out.transport
        .unicast(request.requester, Message::SyncResponse(response));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::testutil::{chain, grow};
    use crate::runtime::BufferedTransport;
    use bamboo_crypto::{Digest, KeyPair};
    use bamboo_forest::chunks;
    use bamboo_sim::CpuModel;
    use bamboo_types::{BlockId, Config, Height};
    use std::collections::BTreeSet;

    #[test]
    fn target_never_asks_the_requester_and_visits_every_peer() {
        for nodes in 2..=8usize {
            for id in (0..nodes as u64).map(NodeId) {
                let peers: BTreeSet<NodeId> = (0..nodes as u64)
                    .map(NodeId)
                    .filter(|&peer| peer != id)
                    .collect();
                for orphan in [None, Some(id), Some(NodeId((id.0 + 1) % nodes as u64))] {
                    let asked: BTreeSet<NodeId> = (0..64)
                        .map(|attempts| target(id, nodes, attempts, orphan))
                        .collect();
                    assert_eq!(asked, peers, "n = {nodes}, id = {id}, orphan = {orphan:?}");
                }
                // The first attempt goes to whoever proposed the oldest orphan.
                let proposer = *peers.iter().next_back().unwrap();
                assert_eq!(target(id, nodes, 0, Some(proposer)), proposer);
            }
        }
    }

    /// A hand-built server: `len` committed blocks, a checkpoint chunk cut
    /// every `interval` of them.
    fn server(len: usize, interval: u64, tx_bytes: usize) -> (BlockForest, Ledger, Disk) {
        let (mut forest, mut ledger) = chain(0, tx_bytes);
        let mut disk = Disk::new(&Config::default());
        let mut stats = RecoveryStats::default();
        let mut wire = BufferedTransport::new();
        let mut out = Step::new(SimTime::ZERO, &mut wire, CpuModel::new(SimDuration::ZERO));
        for _ in 0..len {
            grow(&mut forest, &mut ledger, tx_bytes);
            disk.checkpoint(Some(interval), &forest, &ledger, &mut stats, &mut out);
        }
        (forest, ledger, disk)
    }

    fn request(ledger: &Ledger, height: usize, known_head: bool) -> SyncRequest {
        let head = match (known_head, height) {
            (false, _) => BlockId(Digest::of(b"a chain nobody has seen")),
            (true, 0) => BlockId::GENESIS,
            (true, _) => ledger.get(height - 1).unwrap().block.id,
        };
        SyncRequest::new(
            NodeId(3),
            head,
            Height(height as u64),
            &KeyPair::from_seed(3),
        )
    }

    /// The ledger span `(from, to)` the snapshot part of a response covers.
    fn snapshot_span(response: &SyncResponse) -> Option<(u64, u64)> {
        let bytes = response.snapshot.as_ref()?;
        let spans: Vec<_> = chunks(bytes).map(|c| c.map(|c| (c.from, c.to))).collect();
        let spans = spans.into_iter().collect::<Result<Vec<_>, _>>().unwrap();
        Some((spans.first()?.0, spans.last()?.1))
    }

    #[test]
    fn serve_leads_with_chunks_only_for_a_requester_below_the_checkpoint_or_off_the_chain() {
        let (forest, ledger, disk) = server(300, 8, 8);
        assert_eq!(disk.checkpoint_height(), 296);
        for height in [0, 1, 7, 8, 9, 100, 295, 296, 297, 300] {
            for known_head in [true, false] {
                let req = request(&ledger, height, known_head);
                let response = serve(&req, NodeId(1), &ledger, &forest, &disk);
                assert_eq!(response.responder, NodeId(1));
                assert!(response.blocks.len() <= SYNC_BATCH, "{height}: batch cap");
                // On our chain the requester is served from its own height,
                // off it from genesis.
                let start = if known_head { height as u64 } else { 0 };
                let expected = (start < 296).then_some((start / 8 * 8, 296));
                assert_eq!(snapshot_span(&response), expected, "{height} {known_head}");
                // The blocks continue where the snapshot (or the requester) ends.
                let next = expected.map_or(start, |(_, to)| to) + 1;
                match response.blocks.first() {
                    Some(first) => assert_eq!(first.height, Height(next)),
                    None => assert_eq!(next, 301, "only a caught-up requester gets no blocks"),
                }
            }
        }
        // Without checkpoints the whole answer is blocks, a batch at a time.
        let (forest, ledger, disk) = server(300, 1_000, 8);
        let response = serve(
            &request(&ledger, 0, true),
            NodeId(1),
            &ledger,
            &forest,
            &disk,
        );
        assert!(response.snapshot.is_none());
        assert_eq!(response.blocks.len(), SYNC_BATCH);
    }

    #[test]
    fn serve_sends_one_chunk_even_when_it_alone_exceeds_the_snapshot_cap() {
        // Two chunks of three blocks, each block carrying 3 MiB: either chunk
        // is above the 8 MiB cap on its own.
        let (forest, ledger, disk) = server(6, 3, 3 << 20);
        let response = serve(
            &request(&ledger, 0, true),
            NodeId(1),
            &ledger,
            &forest,
            &disk,
        );
        let sent = response.snapshot.as_ref().expect("a chunk").len();
        assert!(sent > SYNC_SNAPSHOT_BYTES, "{sent} bytes");
        assert_eq!(
            snapshot_span(&response),
            Some((0, 3)),
            "one chunk, never none"
        );
        assert_eq!(response.blocks[0].height, Height(4));
    }
}
