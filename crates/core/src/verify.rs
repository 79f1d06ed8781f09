//! The verification worker pool of the live backends.
//!
//! Signature checking is the dominant CPU cost of a chained-BFT replica (the
//! paper's `t_CPU` term), and doing it on the consensus thread serialises
//! crypto with the protocol logic. The [`VerifyPool`] moves authentication
//! into a stage of its own: transports submit raw inbound messages, a set of
//! worker threads (plain `std::thread` + mpsc channels — the workspace takes
//! no external dependencies) verifies them against the validator set, and
//! only [`VerifiedMessage`] proof tokens are delivered onward. The consensus
//! thread therefore pipelines with verification instead of blocking on it.
//!
//! The pool is a *cluster-level* service, which buys a second, larger win: a
//! broadcast is verified **once per unique message**, not once per recipient.
//! With `n = 32` replicas, inline per-replica ingress performs 31 redundant
//! verifications of every proposal; the pool performs one and fans the proof
//! token out (the token is `Clone`; proposals are `Arc`-backed, so the
//! fan-out is pointer bumps). In-process, all replicas share one trusted
//! computing base anyway — the transport — so sharing the verifier weakens
//! nothing. Since PR 4 the deterministic simulator applies the same
//! verify-once trick synchronously: each unique envelope is checked when the
//! runner absorbs it, and every recipient reads the one proof token by
//! reference, with modeled per-replica CPU accounting unchanged.
//!
//! Jobs are distributed round-robin over per-worker channels (no shared
//! receiver lock), and a forged message is counted exactly once however many
//! recipients it had.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use bamboo_types::{Authenticator, Message, NodeId, VerifiedMessage};

/// Where a verified message should be delivered.
#[derive(Clone, Copy, Debug)]
enum Recipients {
    /// A single replica.
    One(NodeId),
    /// Every replica except the sender.
    AllExceptSender,
}

struct VerifyJob {
    from: NodeId,
    recipients: Recipients,
    message: Message,
}

/// A cheap, cloneable handle for submitting messages to a [`VerifyPool`].
///
/// Each replica thread's transport owns one; dropping every handle (plus the
/// pool's own) is what lets the workers drain and exit.
#[derive(Clone)]
pub struct VerifyHandle {
    senders: Vec<Sender<VerifyJob>>,
    next: Arc<AtomicUsize>,
}

impl VerifyHandle {
    /// Submits a message addressed to a single replica.
    pub fn submit_unicast(&self, from: NodeId, to: NodeId, message: Message) {
        self.submit(VerifyJob {
            from,
            recipients: Recipients::One(to),
            message,
        });
    }

    /// Submits a broadcast: verified once, delivered to every replica except
    /// `from`.
    pub fn submit_broadcast(&self, from: NodeId, message: Message) {
        self.submit(VerifyJob {
            from,
            recipients: Recipients::AllExceptSender,
            message,
        });
    }

    fn submit(&self, job: VerifyJob) {
        let index = self.next.fetch_add(1, Ordering::Relaxed) % self.senders.len();
        // A send error means the pool is shutting down; messages in flight at
        // shutdown are dropped, exactly like the channel sends in the
        // threaded transport.
        let _ = self.senders[index].send(job);
    }
}

/// A pool of verification worker threads for one cluster.
pub struct VerifyPool {
    handle: VerifyHandle,
    workers: Vec<JoinHandle<()>>,
    accepted: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
}

impl VerifyPool {
    /// Spawns `workers` verification threads for a validator set of `nodes`
    /// replicas. Each verified message is handed to `deliver` once per
    /// recipient; forged messages are dropped (and counted) without ever
    /// reaching `deliver`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (both live backends clamp their pool size
    /// to at least one before calling this).
    pub fn new<F>(nodes: usize, workers: usize, deliver: F) -> Self
    where
        F: Fn(NodeId, VerifiedMessage) + Send + Sync + 'static,
    {
        assert!(workers > 0, "a verify pool needs at least one worker");
        let deliver = Arc::new(deliver);
        let accepted = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<VerifyJob>();
            senders.push(tx);
            let deliver = Arc::clone(&deliver);
            let accepted = Arc::clone(&accepted);
            let rejected = Arc::clone(&rejected);
            joins.push(std::thread::spawn(move || {
                run_worker(nodes, rx, &*deliver, &accepted, &rejected)
            }));
        }
        Self {
            handle: VerifyHandle {
                senders,
                next: Arc::new(AtomicUsize::new(0)),
            },
            workers: joins,
            accepted,
            rejected,
        }
    }

    /// A submission handle for transports.
    pub fn handle(&self) -> VerifyHandle {
        self.handle.clone()
    }

    /// Unique messages that passed verification.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Acquire)
    }

    /// Unique messages rejected as forged or malformed.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Acquire)
    }

    /// Total unique messages processed (accepted + rejected). Lets callers
    /// wait for a known amount of submitted work to drain.
    pub fn processed(&self) -> u64 {
        // Two relaxed loads can momentarily disagree mid-update; acquire
        // ordering on both keeps the sum monotone for pollers.
        self.accepted() + self.rejected()
    }

    /// Stops accepting work, drains in-flight jobs, joins the workers and
    /// returns the final `(accepted, rejected)` totals — sampled only after
    /// the drain, so jobs still queued at shutdown are counted. Handles still
    /// held elsewhere keep their workers alive until dropped.
    pub fn shutdown(self) -> (u64, u64) {
        let VerifyPool {
            handle,
            workers,
            accepted,
            rejected,
        } = self;
        drop(handle);
        for worker in workers {
            let _ = worker.join();
        }
        (
            accepted.load(Ordering::Acquire),
            rejected.load(Ordering::Acquire),
        )
    }
}

fn run_worker(
    nodes: usize,
    jobs: Receiver<VerifyJob>,
    deliver: &(dyn Fn(NodeId, VerifiedMessage) + Send + Sync),
    accepted: &AtomicU64,
    rejected: &AtomicU64,
) {
    // Each worker owns its authenticator: the batch-verifier buffers inside
    // are reused across jobs, so steady-state verification is allocation-free
    // and workers never contend on shared state.
    let mut authenticator = Authenticator::for_nodes(nodes);
    while let Ok(job) = jobs.recv() {
        match authenticator.authenticate(job.from, job.message) {
            Ok(verified) => {
                accepted.fetch_add(1, Ordering::Release);
                match job.recipients {
                    Recipients::One(to) => deliver(to, verified),
                    Recipients::AllExceptSender => {
                        for id in 0..nodes as u64 {
                            let to = NodeId(id);
                            if to != job.from {
                                deliver(to, verified.clone());
                            }
                        }
                    }
                }
            }
            Err(_) => {
                rejected.fetch_add(1, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_crypto::KeyPair;
    use bamboo_types::{BlockId, View, Vote};
    use std::sync::mpsc::channel as std_channel;
    use std::time::Duration;

    fn vote(voter: u64, seed: u64) -> Message {
        Message::Vote(Vote::new(
            BlockId::GENESIS,
            View(1),
            NodeId(voter),
            &KeyPair::from_seed(seed),
        ))
    }

    #[test]
    fn pool_delivers_valid_messages_and_drops_forgeries() {
        let (tx, rx) = std_channel::<(NodeId, VerifiedMessage)>();
        let pool = VerifyPool::new(4, 2, move |to, vm| {
            let _ = tx.send((to, vm));
        });
        let handle = pool.handle();
        handle.submit_unicast(NodeId(1), NodeId(2), vote(1, 1));
        handle.submit_unicast(NodeId(1), NodeId(2), vote(1, 3)); // forged
        let (to, vm) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("valid vote delivered");
        assert_eq!(to, NodeId(2));
        assert_eq!(vm.sender(), NodeId(1));
        // The forgery is never delivered.
        while pool.processed() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(pool.accepted(), 1);
        assert_eq!(pool.rejected(), 1);
        assert!(rx.try_recv().is_err());
        drop(handle);
        pool.shutdown();
    }

    #[test]
    fn broadcast_is_verified_once_and_fanned_out_to_everyone_else() {
        let (tx, rx) = std_channel::<NodeId>();
        let pool = VerifyPool::new(4, 1, move |to, _vm| {
            let _ = tx.send(to);
        });
        pool.handle().submit_broadcast(NodeId(0), vote(0, 0));
        let mut recipients: Vec<NodeId> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("delivered"))
            .collect();
        recipients.sort();
        assert_eq!(recipients, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(pool.accepted(), 1, "one verification for three deliveries");
        pool.shutdown();
    }

    #[test]
    fn shutdown_joins_workers_after_handles_drop() {
        let pool = VerifyPool::new(4, 3, |_, _| {});
        let handle = pool.handle();
        handle.submit_broadcast(NodeId(0), vote(0, 0));
        drop(handle);
        pool.shutdown(); // must not hang
    }
}
