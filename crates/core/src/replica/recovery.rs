//! A replica's state transfer and restart: the catch-up episode it starts
//! for the suffix its ledger lacks, the response it installs, and the
//! rebuild from its disk after a process death (DESIGN.md §6).

use bamboo_types::{Height, SimTime, SyncRequest, SyncResponse};

use super::Replica;
use crate::handoff;
use crate::runtime::{BufferedTransport, Step, StepReport};
use crate::storage::StorageFault;

impl Replica {
    /// Starts (or retries) a catch-up episode for the suffix our ledger lacks.
    pub(super) fn send_sync_request(&mut self, out: &mut Step<'_>) {
        let height = Height(self.ledger.len() as u64);
        let request = SyncRequest::new(self.id, self.ledger.head(), height, &self.keypair);
        let (nodes, timeout) = (self.config.nodes, self.pacemaker.timeout());
        let (sync, forest, stats) = (&mut self.sync, &self.forest, &mut self.recovery);
        sync.request(request, nodes, forest, timeout, stats, out);
    }

    /// Installs a state-transfer response: adopt the snapshot chunks if they
    /// take us ahead of everything we have, then replay the block suffix
    /// through the normal insert/QC path so commits fire through the
    /// protocol's own commit rule.
    pub(super) fn on_sync_response(&mut self, resp: &SyncResponse, out: &mut Step<'_>) {
        let before = self.ledger.len();
        let (forest, ledger, stats) = (&mut self.forest, &mut self.ledger, &mut self.recovery);
        match (self.sync).install(resp, forest, ledger, &mut self.disk, stats, out) {
            None => return,
            Some(false) => {}
            Some(true) => {
                self.pending_qcs.clear();
                self.deferred_proposal = None;
                handoff::forget_committed(&mut self.mempool, &self.ledger, before);
            }
        }
        for block in &resp.blocks {
            out.cpu += self.cpu.process_proposal(block.len());
            // Duplicates and orphans are handled inside the forest; either
            // way the carried QC is registered below.
            let _ = self.forest.insert(block.clone());
            self.register_qc(&block.justify, out);
        }
        self.register_qc(&resp.high_qc, out);
        self.sync.settle(&self.forest, out.now, &mut self.recovery);
    }

    /// Restarts this replica after a process death: every in-memory structure
    /// is discarded and rebuilt from what the disk kept — with
    /// [`Config::durable_log`](bamboo_types::Config::durable_log) the checkpoint image plus the log's longest
    /// valid record prefix, after the optional crash-point `fault` mauled it;
    /// without a log the checkpoint chunks alone (none: genesis). The replica
    /// then asks the network for the history its disk did not cover —
    /// *before* arming the view timer, so the running sync episode suppresses
    /// proposing from stale state.
    pub fn restart(
        &mut self,
        now: SimTime,
        fault: Option<StorageFault>,
        transport: &mut BufferedTransport,
    ) -> StepReport {
        let mut out = Step::new(now, transport, self.cpu);
        let (protocol, stats) = (self.protocol, &mut self.recovery);
        let rebuilt = self.disk.crash_and_replay(fault, protocol, stats, &mut out);
        // Everything else starts afresh, except what is not process state:
        // the disk, the recovery audit, and the counters of what went wrong
        // or what an attacker did so far.
        let fresh = Self::new(self.id, self.protocol, self.config.clone(), self.options);
        let dead = std::mem::replace(self, fresh);
        (self.disk, self.recovery, self.attack) = (dead.disk, dead.recovery, dead.attack);
        self.safety_violations = dead.safety_violations;
        (self.forest, self.ledger, self.safety) = (rebuilt.forest, rebuilt.ledger, rebuilt.safety);
        self.recovery.restarted_at = Some(now);
        self.recovery.caught_up_at = None;

        self.send_sync_request(&mut out);
        self.boot(&mut out);
        out.finish()
    }
}
