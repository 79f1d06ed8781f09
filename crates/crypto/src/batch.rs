//! Batched signature verification.
//!
//! Verifying a quorum certificate means checking `2f + 1` signatures over the
//! *same* message, and an ingress stage that authenticates every inbound
//! message checks long runs of signatures back to back. [`BatchVerifier`]
//! stages the tuples into one reusable arena and verifies them in a single
//! pass of [`crate::PublicKey::verify`] calls, so a batch of `k` checks
//! performs `k` hash evaluations and zero per-item allocations.
//!
//! The batch is *sound per item*: the simulated scheme has no aggregate
//! shortcut, so `verify_all` fails exactly when at least one staged tuple is
//! individually invalid (there are no false accepts introduced by batching).

use crate::aggregate::AggregateSignature;
use crate::keys::{PublicKey, Signature};

/// Verifies many `(public key, message, signature)` tuples in one pass.
///
/// The verifier owns its buffers and is intended to be reused: after
/// [`BatchVerifier::verify_all`] the staged tuples are cleared but the
/// allocations are kept, so steady-state operation is allocation-free.
///
/// # Example
///
/// ```
/// use bamboo_crypto::{BatchVerifier, KeyPair};
///
/// let keys: Vec<KeyPair> = (0..4).map(KeyPair::from_seed).collect();
/// let mut batch = BatchVerifier::new();
/// for kp in &keys {
///     batch.push(kp.public_key(), b"same message", kp.sign(b"same message"));
/// }
/// assert_eq!(batch.len(), 4);
/// assert!(batch.verify_all());
///
/// // The verifier is reusable; a single bad tuple fails the whole batch.
/// batch.push(keys[0].public_key(), b"message", keys[1].sign(b"message"));
/// assert!(!batch.verify_all());
/// ```
#[derive(Debug, Default)]
pub struct BatchVerifier {
    keys: Vec<PublicKey>,
    sigs: Vec<Signature>,
    /// End offset of each staged message inside `arena` (start is the
    /// previous entry's end, or 0).
    ends: Vec<usize>,
    /// All staged message bytes, back to back.
    arena: Vec<u8>,
}

impl BatchVerifier {
    /// Creates an empty batch verifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a verifier with capacity for `items` staged tuples.
    pub fn with_capacity(items: usize) -> Self {
        Self {
            keys: Vec::with_capacity(items),
            sigs: Vec::with_capacity(items),
            ends: Vec::with_capacity(items),
            arena: Vec::with_capacity(items * 48),
        }
    }

    /// Stages one `(public key, message, signature)` tuple.
    pub fn push(&mut self, key: PublicKey, msg: &[u8], sig: Signature) {
        self.keys.push(key);
        self.sigs.push(sig);
        self.arena.extend_from_slice(msg);
        self.ends.push(self.arena.len());
    }

    /// Stages every signature of an aggregate over `msg`, resolving public
    /// keys through `key_of`.
    ///
    /// # Errors
    ///
    /// Returns the offending signer index if `key_of` does not know one of the
    /// signers; in that case none of the aggregate's signatures are staged.
    pub fn push_aggregate<F>(
        &mut self,
        msg: &[u8],
        aggregate: &AggregateSignature,
        key_of: F,
    ) -> Result<(), u64>
    where
        F: Fn(u64) -> Option<PublicKey>,
    {
        let staged = self.len();
        for (index, sig) in aggregate.entries() {
            match key_of(index) {
                Some(key) => self.push(key, msg, sig),
                None => {
                    self.truncate(staged);
                    return Err(index);
                }
            }
        }
        Ok(())
    }

    /// Number of staged tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns true if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Discards all staged tuples (allocations are kept for reuse).
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Verifies every staged tuple, then clears the batch. Returns `false`
    /// if any tuple is invalid. An empty batch verifies trivially.
    ///
    /// One loop over one hashing path: every tuple costs one
    /// [`crate::PublicKey::verify`], whatever the lengths of its neighbours,
    /// so the verdict is per item by construction — the batch fails exactly
    /// when at least one tuple is individually invalid.
    pub fn verify_all(&mut self) -> bool {
        let mut start = 0usize;
        let ok = (self.keys.iter().zip(&self.sigs).zip(&self.ends)).all(|((key, sig), &end)| {
            let msg = &self.arena[start..end];
            start = end;
            key.verify(msg, sig)
        });
        self.clear();
        ok
    }

    fn truncate(&mut self, items: usize) {
        self.keys.truncate(items);
        self.sigs.truncate(items);
        self.arena
            .truncate(self.ends.get(items.wrapping_sub(1)).copied().unwrap_or(0));
        self.ends.truncate(items);
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
    fn empty_batch_verifies() {
        assert!(BatchVerifier::new().verify_all());
    }

    #[test]
    fn valid_batch_verifies_and_clears() {
        let kps = keys(8);
        let mut batch = BatchVerifier::with_capacity(8);
        for (i, kp) in kps.iter().enumerate() {
            let msg = [i as u8; 24];
            batch.push(kp.public_key(), &msg, kp.sign(&msg));
        }
        assert_eq!(batch.len(), 8);
        assert!(batch.verify_all());
        assert!(batch.is_empty());
    }

    #[test]
    fn one_bad_tuple_fails_the_batch() {
        let kps = keys(4);
        let mut batch = BatchVerifier::new();
        for kp in &kps[..3] {
            batch.push(kp.public_key(), b"m", kp.sign(b"m"));
        }
        // Signature by key 3 presented under key 0's public key.
        batch.push(kps[0].public_key(), b"m", kps[3].sign(b"m"));
        assert!(!batch.verify_all());
        // The failed pass still cleared the batch; a fresh valid pass works.
        batch.push(kps[0].public_key(), b"m", kps[0].sign(b"m"));
        assert!(batch.verify_all());
    }

    #[test]
    fn batch_matches_individual_verification() {
        let kps = keys(16);
        let mut batch = BatchVerifier::new();
        for (i, kp) in kps.iter().enumerate() {
            let msg = [0x40 | i as u8; 40];
            let sig = kp.sign(&msg);
            assert!(kp.public_key().verify(&msg, &sig));
            batch.push(kp.public_key(), &msg, sig);
        }
        assert!(batch.verify_all());
    }

    #[test]
    fn batch_verdicts_match_per_item_verify_for_every_layout() {
        // Batch sizes 1..=9, equal and mixed message lengths, and a forgery
        // planted at every position (or nowhere): the batch verdict is the
        // conjunction of the per-item `PublicKey::verify` verdicts.
        let kps = keys(16);
        for size in 1usize..=9 {
            for bad in std::iter::once(None).chain((0..size).map(Some)) {
                for mixed in [false, true] {
                    let mut batch = BatchVerifier::new();
                    let mut per_item = true;
                    for i in 0..size {
                        let len = if mixed && i % 3 == 1 { 40 } else { 24 };
                        let msg = vec![i as u8; len];
                        let signer = if bad == Some(i) { 15 - i } else { i };
                        let sig = kps[signer].sign(&msg);
                        per_item &= kps[i].public_key().verify(&msg, &sig);
                        batch.push(kps[i].public_key(), &msg, sig);
                    }
                    assert_eq!(per_item, bad.is_none());
                    assert_eq!(
                        batch.verify_all(),
                        per_item,
                        "size {size} bad {bad:?} mixed {mixed}"
                    );
                }
            }
        }
    }

    #[test]
    fn push_aggregate_stages_every_signer() {
        let kps = keys(4);
        let mut agg = AggregateSignature::new();
        for (i, kp) in kps.iter().enumerate() {
            agg.add(i as u64, kp.sign(b"certify"));
        }
        let pks: Vec<PublicKey> = kps.iter().map(|k| k.public_key()).collect();
        let mut batch = BatchVerifier::new();
        batch
            .push_aggregate(b"certify", &agg, |i| pks.get(i as usize).copied())
            .expect("all signers known");
        assert_eq!(batch.len(), 4);
        assert!(batch.verify_all());
    }

    #[test]
    fn push_aggregate_rejects_unknown_signer_and_unwinds() {
        let kps = keys(4);
        let mut agg = AggregateSignature::new();
        for (i, kp) in kps.iter().enumerate() {
            agg.add(i as u64, kp.sign(b"certify"));
        }
        let pks: Vec<PublicKey> = kps.iter().map(|k| k.public_key()).collect();
        let mut batch = BatchVerifier::new();
        batch.push(kps[0].public_key(), b"other", kps[0].sign(b"other"));
        let err = batch
            .push_aggregate(b"certify", &agg, |i| {
                if i < 2 {
                    pks.get(i as usize).copied()
                } else {
                    None
                }
            })
            .expect_err("signer 2 unknown");
        assert_eq!(err, 2);
        // Only the pre-existing tuple remains staged.
        assert_eq!(batch.len(), 1);
        assert!(batch.verify_all());
    }
}
