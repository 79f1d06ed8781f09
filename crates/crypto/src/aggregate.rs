//! Aggregation of per-replica signatures into quorum certificates.
//!
//! The paper's Quorum component exposes `voted()` and `certified()`; the
//! cryptographic side of that component lives here: an
//! [`AggregateSignature`] collects `(signer index, signature)` pairs over the
//! same message and can be verified against a set of public keys.

use std::sync::Arc;

use crate::keys::{PublicKey, Signature};

/// A multi-signature over a single message, keyed by signer index.
///
/// The entries are kept sorted by signer in one exact-size shared slice: a
/// clone is a reference-count bump, and [`AggregateSignature::add`] copies
/// the slice first, so it is never visible through another clone.
///
/// # Example
///
/// ```
/// use bamboo_crypto::{AggregateSignature, KeyPair};
///
/// let keys: Vec<KeyPair> = (0..4).map(KeyPair::from_seed).collect();
/// let msg = b"certify block";
/// let mut agg = AggregateSignature::new();
/// for (i, kp) in keys.iter().enumerate().take(3) {
///     agg.add(i as u64, kp.sign(msg));
/// }
/// assert_eq!(agg.len(), 3);
/// let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
/// assert!(agg.verify(msg, |i| pks.get(i as usize).copied()));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AggregateSignature {
    /// Strictly ascending by signer.
    entries: Arc<[(u64, Signature)]>,
}

/// Collects `(signer, signature)` pairs with one sort into one exact-size
/// allocation. Of several entries for one signer the first is kept, as with
/// repeated [`AggregateSignature::add`].
impl FromIterator<(u64, Signature)> for AggregateSignature {
    fn from_iter<I: IntoIterator<Item = (u64, Signature)>>(iter: I) -> Self {
        let mut entries: Vec<(u64, Signature)> = iter.into_iter().collect();
        // Stable, so a signer's first entry stays first; linear if sorted.
        entries.sort_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        Self {
            entries: Arc::from(entries),
        }
    }
}

impl AggregateSignature {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, index: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&index, |e| e.0)
    }

    /// Adds a signature from signer `index`. Returns `false` if the signer was
    /// already present (the signature is not replaced).
    ///
    /// Copies the entries (O(len)); build a whole certificate with
    /// [`FromIterator`] instead.
    pub fn add(&mut self, index: u64, signature: Signature) -> bool {
        let Err(at) = self.position(index) else {
            return false;
        };
        let mut entries = self.entries.to_vec();
        entries.insert(at, (index, signature));
        self.entries = Arc::from(entries);
        true
    }

    /// Number of distinct signers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no signer has contributed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns true if signer `index` has contributed.
    pub fn contains(&self, index: u64) -> bool {
        self.position(index).is_ok()
    }

    /// Iterates over the signer indices in ascending order.
    pub fn signers(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|(index, _)| *index)
    }

    /// Iterates over `(signer index, signature)` pairs in ascending signer
    /// order (used to stage certificates into a [`crate::BatchVerifier`]).
    pub fn entries(&self) -> impl Iterator<Item = (u64, Signature)> + '_ {
        self.entries.iter().copied()
    }

    /// Verifies every contained signature over `msg`, looking public keys up
    /// via `key_of`. Returns `false` if any key is unknown or any signature is
    /// invalid.
    pub fn verify<F>(&self, msg: &[u8], key_of: F) -> bool
    where
        F: Fn(u64) -> Option<PublicKey>,
    {
        self.entries.iter().all(|(index, sig)| {
            key_of(*index)
                .map(|pk| pk.verify(msg, sig))
                .unwrap_or(false)
        })
    }

    /// Approximate wire size in bytes (one signature plus index per signer).
    pub fn wire_size(&self) -> usize {
        self.entries.len() * (32 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn keys(n: u64) -> Vec<KeyPair> {
        (0..n).map(KeyPair::from_seed).collect()
    }

    #[test]
    fn collects_distinct_signers() {
        let kps = keys(4);
        let mut agg = AggregateSignature::new();
        for (i, kp) in kps.iter().enumerate() {
            assert!(agg.add(i as u64, kp.sign(b"m")));
        }
        assert_eq!(agg.len(), 4);
        assert!(agg.contains(0));
        assert!(!agg.contains(7));
    }

    #[test]
    fn duplicate_signer_is_rejected() {
        let kps = keys(2);
        let mut agg = AggregateSignature::new();
        assert!(agg.add(0, kps[0].sign(b"m")));
        assert!(!agg.add(0, kps[0].sign(b"m")));
        assert_eq!(agg.len(), 1);
    }

    #[test]
    fn verify_accepts_valid_set() {
        let kps = keys(4);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        let mut agg = AggregateSignature::new();
        for (i, kp) in kps.iter().enumerate() {
            agg.add(i as u64, kp.sign(b"block"));
        }
        assert!(agg.verify(b"block", |i| pks.get(i as usize).copied()));
    }

    #[test]
    fn verify_rejects_wrong_message_or_missing_key() {
        let kps = keys(3);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        let mut agg = AggregateSignature::new();
        for (i, kp) in kps.iter().enumerate() {
            agg.add(i as u64, kp.sign(b"block"));
        }
        assert!(!agg.verify(b"other", |i| pks.get(i as usize).copied()));
        assert!(!agg.verify(b"block", |_| None));
    }

    #[test]
    fn wire_size_scales_with_signers() {
        let kps = keys(5);
        let mut agg = AggregateSignature::new();
        assert_eq!(agg.wire_size(), 0);
        for (i, kp) in kps.iter().enumerate() {
            agg.add(i as u64, kp.sign(b"m"));
        }
        assert_eq!(agg.wire_size(), 5 * 40);
    }

    #[test]
    fn contents_are_independent_of_insertion_order() {
        let kps = keys(22);
        let entry = |i: u64| (i, kps[i as usize].sign(b"m"));
        let sorted: AggregateSignature = (0..22).map(entry).collect();
        assert_eq!(
            sorted.signers().collect::<Vec<_>>(),
            (0..22).collect::<Vec<_>>()
        );
        assert_eq!(
            sorted.entries().collect::<Vec<_>>(),
            (0..22).map(entry).collect::<Vec<_>>()
        );
        for stride in [3u64, 5, 7, 13] {
            let order = (0..22).map(|i| (i * stride + 1) % 22);
            let collected: AggregateSignature = order.clone().map(entry).collect();
            let mut added = AggregateSignature::new();
            for i in order {
                let (index, sig) = entry(i);
                assert!(added.add(index, sig));
            }
            assert_eq!(collected, sorted, "stride {stride}");
            assert_eq!(added, sorted, "stride {stride}");
            assert_eq!(
                added.entries().collect::<Vec<_>>(),
                sorted.entries().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn collecting_keeps_the_first_signature_of_a_signer() {
        let kps = keys(2);
        let first = kps[0].sign(b"first");
        let agg: AggregateSignature = [
            (4, first),
            (1, kps[1].sign(b"m")),
            (4, kps[0].sign(b"second")),
        ]
        .into_iter()
        .collect();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg.entries().last(), Some((4, first)));
    }

    #[test]
    fn a_clone_shares_storage_until_add_and_add_is_copy_on_write() {
        let kps = keys(4);
        let original: AggregateSignature =
            (0..3).map(|i| (i, kps[i as usize].sign(b"m"))).collect();
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.entries, &clone.entries));
        // A rejected add writes nothing, so it does not unshare either.
        assert!(!clone.add(1, kps[1].sign(b"m")));
        assert!(Arc::ptr_eq(&original.entries, &clone.entries));
        assert!(clone.add(3, kps[3].sign(b"m")));
        assert!(!Arc::ptr_eq(&original.entries, &clone.entries));
        assert_eq!(original.len(), 3);
        assert!(!original.contains(3));
        assert_eq!(clone.signers().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn signers_are_sorted() {
        let kps = keys(5);
        let mut agg = AggregateSignature::new();
        for i in [4u64, 1, 3, 0, 2] {
            agg.add(i, kps[i as usize].sign(b"m"));
        }
        let order: Vec<u64> = agg.signers().collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
