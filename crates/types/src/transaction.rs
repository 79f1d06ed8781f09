//! Client transactions.

use std::fmt;

use bamboo_crypto::Digest;

use crate::bytes::Bytes;
use crate::ids::NodeId;
use crate::time::SimTime;

/// Unique identifier of a transaction: the issuing client and its per-client
/// sequence number. Its SHA-256, [`TxId::digest`], is computed where a block
/// id, a fingerprint or a signature binds it, and stored nowhere.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxId {
    /// Client that issued the transaction.
    pub client: NodeId,
    /// Per-client sequence number.
    pub seq: u64,
}

impl TxId {
    /// The SHA-256 of the big-endian `client ‖ seq`: what a block id, a ledger
    /// fingerprint and a client signature bind for this transaction.
    pub fn digest(&self) -> Digest {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&self.client.as_u64().to_be_bytes());
        buf[8..].copy_from_slice(&self.seq.to_be_bytes());
        Digest::of(&buf)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.digest().short_hex())
    }
}

/// A client transaction (an opaque payload in this reproduction, mirroring the
/// paper's in-memory key-value workload where only the payload size matters
/// to protocol-level performance).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Issuing client and per-client sequence number.
    pub id: TxId,
    /// Opaque payload bytes (`psize` in Table I).
    pub payload: Bytes,
    /// Simulated time at which the client issued the transaction. Used by the
    /// benchmarker to compute end-to-end latency.
    pub issued_at: SimTime,
}

impl Transaction {
    /// Creates a new transaction with a zero-filled payload of `payload_size`
    /// bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use bamboo_types::{NodeId, SimTime, Transaction};
    ///
    /// let tx = Transaction::new(NodeId(1), 7, 128, SimTime::ZERO);
    /// assert_eq!(tx.payload.len(), 128);
    /// assert_eq!(tx.wire_size(), 128 + Transaction::HEADER_BYTES);
    /// ```
    pub fn new(client: NodeId, seq: u64, payload_size: usize, issued_at: SimTime) -> Self {
        Self::with_payload(client, seq, Bytes::zeroed(payload_size), issued_at)
    }

    /// Creates a transaction carrying the given payload.
    pub fn with_payload(client: NodeId, seq: u64, payload: Bytes, issued_at: SimTime) -> Self {
        Self {
            id: TxId { client, seq },
            payload,
            issued_at,
        }
    }

    /// The per-transaction overhead the NIC model and `PerfModel` charge
    /// beside the payload, as if a 32-byte id, client, sequence number and
    /// timestamp were sent. The codec sends 28 (`wire::encode_transaction`).
    pub const HEADER_BYTES: usize = 32 + 8 + 8 + 8;

    /// Approximate wire size of the transaction in bytes.
    pub fn wire_size(&self) -> usize {
        Self::HEADER_BYTES + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_per_client_and_sequence() {
        let id = |client, seq| TxId {
            client: NodeId(client),
            seq,
        };
        assert_ne!(id(1, 1), id(1, 2));
        assert_ne!(id(1, 1), id(2, 1));
        assert_ne!(id(1, 1).digest(), id(1, 2).digest());
        assert_ne!(id(1, 1).digest(), id(2, 1).digest());
        assert_eq!(id(1, 1).digest(), id(1, 1).digest());
    }

    /// The digests the id stored before it became the pair: every block id,
    /// fingerprint and client signature depends on them staying put.
    #[test]
    fn digests_are_the_pinned_sha256_of_client_and_sequence() {
        let pins = [
            (
                5,
                77,
                "55ba14e60a1b44cfd1ca21dd524d65877f82b82a36b7a74cd9dcbd04cc3afc8a",
            ),
            (
                1_000_000,
                0,
                "3a620a4550780e07f48b9413422f1926196118b4489180e7cb353a1a9aaeeb44",
            ),
            (
                u64::MAX,
                u64::MAX,
                "5ac6a5945f16500911219129984ba8b387a06f24fe383ce4e81a73294065461b",
            ),
        ];
        for (client, seq, hex) in pins {
            let id = TxId {
                client: NodeId(client),
                seq,
            };
            assert_eq!(id.digest().to_hex(), hex, "({client}, {seq})");
        }
    }

    #[test]
    fn the_id_and_the_transaction_stay_small() {
        assert_eq!(std::mem::size_of::<TxId>(), 16);
        assert_eq!(std::mem::size_of::<Transaction>(), 40);
    }

    #[test]
    fn wire_size_includes_header_and_payload() {
        let tx = Transaction::new(NodeId(0), 0, 0, SimTime::ZERO);
        assert_eq!(tx.wire_size(), Transaction::HEADER_BYTES);
        let tx = Transaction::new(NodeId(0), 0, 1024, SimTime::ZERO);
        assert_eq!(tx.wire_size(), Transaction::HEADER_BYTES + 1024);
    }

    #[test]
    fn with_payload_preserves_bytes() {
        let payload = Bytes::from(&b"hello world"[..]);
        let tx = Transaction::with_payload(NodeId(3), 9, payload.clone(), SimTime(42));
        assert_eq!(tx.payload, payload);
        assert_eq!(tx.issued_at, SimTime(42));
        assert_eq!(
            tx.id,
            TxId {
                client: NodeId(3),
                seq: 9
            }
        );
    }

    #[test]
    fn display_of_txid_is_short() {
        let id = TxId {
            client: NodeId(5),
            seq: 77,
        };
        assert_eq!(id.to_string(), "tx:55ba14e6");
    }
}
