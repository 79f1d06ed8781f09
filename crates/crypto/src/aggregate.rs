//! Aggregation of per-replica signatures into quorum certificates.
//!
//! The paper's Quorum component exposes `voted()` and `certified()`; the
//! cryptographic side of that component lives here. An
//! [`AggregateSignature`] is a certificate as chained BFT treats it: one
//! compact value, the set of signers plus one 32-byte aggregate of their
//! signatures over the same message. The aggregate is
//! `SHA-256(tag ‖ sig_i …)` over the signers in ascending order, so it
//! verifies exactly when every signer's own signature would (up to SHA-256
//! collisions; DESIGN.md §1.3).

use std::sync::Arc;

use crate::keys::{PublicKey, Signature};
use crate::sha256::Sha256;

const AGGREGATE_TAG: &[u8] = b"bamboo-sim-aggregate-v1";
/// Words in front of the signer bitset that hold the aggregate.
const AGGREGATE_WORDS: usize = 4;

/// A multi-signature over a single message: a signer bitset and the
/// aggregate of the signers' signatures.
///
/// Both live in one exact-size shared allocation (56 B with its reference
/// counts for up to 64 signers), so a clone is a reference-count bump.
///
/// # Example
///
/// ```
/// use bamboo_crypto::{AggregateSignature, KeyPair};
///
/// let keys: Vec<KeyPair> = (0..4).map(KeyPair::from_seed).collect();
/// let msg = b"certify block";
/// let agg: AggregateSignature = (0..3).map(|i| (i, keys[i as usize].sign(msg))).collect();
/// assert_eq!(agg.len(), 3);
/// let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
/// assert!(agg.verify(msg, |i| pks.get(i as usize).copied()));
/// assert!(!agg.verify(b"another block", |i| pks.get(i as usize).copied()));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AggregateSignature {
    /// Empty for no signers; otherwise the aggregate's four words, then the
    /// signer bitset (bit `i % 64` of word `i / 64`), whose last word is
    /// non-zero.
    words: Arc<[u64]>,
}

/// Sorts the `(signer, signature)` pairs, keeps the first entry of each
/// signer, and folds the signatures into the aggregate.
///
/// # Panics
///
/// Panics on a signer index of [`AggregateSignature::MAX_WORDS`]` · 64` or
/// above: validator ids are dense from zero and far below it.
impl FromIterator<(u64, Signature)> for AggregateSignature {
    fn from_iter<I: IntoIterator<Item = (u64, Signature)>>(iter: I) -> Self {
        let mut entries: Vec<(u64, Signature)> = iter.into_iter().collect();
        // Stable, so a signer's first entry stays first; linear if sorted.
        entries.sort_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        let Some(&(last, _)) = entries.last() else {
            return Self::default();
        };
        assert!(
            last < (Self::MAX_WORDS * 64) as u64,
            "signer {last} out of range"
        );
        let mut words = vec![0u64; AGGREGATE_WORDS + last as usize / 64 + 1];
        let mut hasher = Sha256::new();
        hasher.update(AGGREGATE_TAG);
        for (signer, signature) in &entries {
            words[AGGREGATE_WORDS + *signer as usize / 64] |= 1 << (signer % 64);
            hasher.update(signature.as_bytes());
        }
        Self::with_aggregate(words, hasher.finalize())
    }
}

impl AggregateSignature {
    /// Most signer-bitset words an aggregate holds: 65,536 signers.
    pub const MAX_WORDS: usize = 1_024;

    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_aggregate(mut words: Vec<u64>, aggregate: [u8; 32]) -> Self {
        for (word, bytes) in words.iter_mut().zip(aggregate.chunks_exact(8)) {
            *word = u64::from_ne_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        Self {
            words: words.into(),
        }
    }

    /// Rebuilds an aggregate from [`AggregateSignature::bitset`] and
    /// [`AggregateSignature::aggregate`] — the decoder's way in. Refuses a
    /// pair no collection produces, so the encoding stays canonical.
    ///
    /// # Errors
    ///
    /// Names the fault: more than [`AggregateSignature::MAX_WORDS`] words, a
    /// zero last word, an empty set with a non-zero aggregate, or a
    /// non-empty set with a zero one.
    pub fn from_parts(bitset: &[u64], aggregate: [u8; 32]) -> Result<Self, &'static str> {
        if bitset.len() > Self::MAX_WORDS {
            return Err("signer bitset over 1,024 words");
        }
        match (bitset.last(), aggregate == [0; 32]) {
            (Some(0), _) => Err("trailing zero signer word"),
            (None, true) => Ok(Self::default()),
            (None, false) => Err("empty signer set carries an aggregate"),
            (Some(_), true) => Err("signer set without an aggregate"),
            (Some(_), false) => {
                let words = [[0; AGGREGATE_WORDS].as_slice(), bitset].concat();
                Ok(Self::with_aggregate(words, aggregate))
            }
        }
    }

    /// The signer bitset: bit `i % 64` of word `i / 64` is signer `i`. Empty
    /// for no signers, and never ends in a zero word.
    pub fn bitset(&self) -> &[u64] {
        self.words.get(AGGREGATE_WORDS..).unwrap_or_default()
    }

    /// The 32-byte aggregate; all zero for no signers.
    pub fn aggregate(&self) -> [u8; 32] {
        let mut bytes = [0; 32];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(self.words.iter()) {
            chunk.copy_from_slice(&word.to_ne_bytes());
        }
        bytes
    }

    /// Number of distinct signers.
    pub fn len(&self) -> usize {
        self.bitset().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns true if no signer has contributed yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Returns true if signer `index` has contributed.
    pub fn contains(&self, index: u64) -> bool {
        let word = usize::try_from(index / 64)
            .ok()
            .and_then(|at| self.bitset().get(at));
        word.is_some_and(|w| w >> (index % 64) & 1 == 1)
    }

    /// Iterates over the signer indices in ascending order.
    pub fn signers(&self) -> impl Iterator<Item = u64> + '_ {
        self.bitset().iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as u64)?;
                rest &= rest - 1;
                Some(at as u64 * 64 + bit)
            })
        })
    }

    /// Verifies the aggregate over `msg`, looking public keys up via
    /// `key_of`: recomputes every signer's signature, in signer order, into
    /// one streaming hasher (no allocation) and compares the result. Returns
    /// `false` if any key is unknown or any signer did not sign `msg`.
    pub fn verify<F>(&self, msg: &[u8], key_of: F) -> bool
    where
        F: Fn(u64) -> Option<PublicKey>,
    {
        let mut hasher = Sha256::new();
        hasher.update(AGGREGATE_TAG);
        for signer in self.signers() {
            let Some(key) = key_of(signer) else {
                return false;
            };
            hasher.update(Signature::create(&key, msg).as_bytes());
        }
        self.is_empty() || hasher.finalize() == self.aggregate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn keys(n: u64) -> Vec<KeyPair> {
        (0..n).map(KeyPair::from_seed).collect()
    }

    fn signed(kps: &[KeyPair], signers: impl IntoIterator<Item = u64>) -> AggregateSignature {
        (signers.into_iter())
            .map(|i| (i, kps[i as usize].sign(b"block")))
            .collect()
    }

    #[test]
    fn collects_distinct_signers() {
        let agg = signed(&keys(4), 0..4);
        assert_eq!(agg.len(), 4);
        assert!(agg.contains(0));
        assert!(!agg.contains(7));
        assert!(!agg.contains(u64::MAX));
    }

    #[test]
    fn verify_accepts_valid_set() {
        let kps = keys(4);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        assert!(signed(&kps, 0..4).verify(b"block", |i| pks.get(i as usize).copied()));
        assert!(AggregateSignature::new().verify(b"block", |_| None));
    }

    #[test]
    fn verify_rejects_wrong_message_or_missing_key() {
        let kps = keys(3);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        let agg = signed(&kps, 0..3);
        assert!(!agg.verify(b"other", |i| pks.get(i as usize).copied()));
        assert!(!agg.verify(b"block", |_| None));
    }

    #[test]
    fn the_verdict_is_the_conjunction_of_the_per_signer_verdicts() {
        // One signature at a time replaced by another key's, another
        // message's, or left honest: the aggregate verifies exactly when
        // every per-signer check passes.
        let kps = keys(70);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        let signers = [0u64, 3, 63, 64, 65, 69];
        for bad in std::iter::once(None).chain(signers.iter().copied().map(Some)) {
            for forge in [0u8, 1] {
                let entries: Vec<(u64, Signature)> = (signers.iter())
                    .map(|&i| match (bad == Some(i), forge) {
                        (false, _) => (i, kps[i as usize].sign(b"block")),
                        (true, 0) => (i, kps[(i as usize + 1) % 70].sign(b"block")),
                        (true, _) => (i, kps[i as usize].sign(b"other")),
                    })
                    .collect();
                let per_signer =
                    (entries.iter()).all(|(i, sig)| pks[*i as usize].verify(b"block", sig));
                let agg: AggregateSignature = entries.into_iter().collect();
                assert_eq!(per_signer, bad.is_none());
                let verdict = agg.verify(b"block", |i| pks.get(i as usize).copied());
                assert_eq!(verdict, per_signer, "bad {bad:?} forge {forge}");
            }
        }
    }

    #[test]
    fn a_signer_bit_added_or_removed_fails_verification() {
        let kps = keys(40);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        let key_of = |i: u64| pks.get(i as usize).copied();
        let agg = signed(&kps, (0..40).step_by(2));
        assert!(agg.verify(b"block", key_of));
        for flip in [0u64, 1, 17, 38, 39] {
            let mut bitset = agg.bitset().to_vec();
            bitset[0] ^= 1 << flip;
            let mutated = AggregateSignature::from_parts(&bitset, agg.aggregate()).unwrap();
            assert_eq!(mutated.len().abs_diff(agg.len()), 1);
            assert!(!mutated.verify(b"block", key_of), "bit {flip}");
        }
    }

    #[test]
    fn contents_are_independent_of_insertion_order() {
        let kps = keys(70);
        let sorted = signed(&kps, 0..70);
        assert_eq!(
            sorted.signers().collect::<Vec<_>>(),
            (0..70).collect::<Vec<_>>()
        );
        for stride in [3u64, 11, 13] {
            let shuffled = signed(&kps, (0..70).map(|i| (i * stride + 1) % 70));
            assert_eq!(shuffled, sorted, "stride {stride}");
        }
    }

    #[test]
    fn collecting_keeps_the_first_signature_of_a_signer() {
        let kps = keys(5);
        let first = kps[4].sign(b"block");
        let agg: AggregateSignature = [
            (4, first),
            (1, kps[1].sign(b"block")),
            (4, kps[0].sign(b"second")),
        ]
        .into_iter()
        .collect();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg, signed(&kps, [1, 4]));
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        assert!(agg.verify(b"block", |i| pks.get(i as usize).copied()));
    }

    #[test]
    fn one_allocation_shared_by_clones_and_small_at_64_signers() {
        let kps = keys(64);
        let original = signed(&kps, 0..64);
        let clone = original.clone();
        assert!(Arc::ptr_eq(&original.words, &clone.words));
        // Two reference counts plus the aggregate and one bitset word.
        assert_eq!(16 + std::mem::size_of_val(&*original.words), 56);
        assert_eq!(std::mem::size_of::<AggregateSignature>(), 16);
    }

    #[test]
    fn parts_round_trip_and_refuse_non_canonical_pairs() {
        let kps = keys(70);
        for agg in [
            AggregateSignature::new(),
            signed(&kps, [5]),
            signed(&kps, 0..70),
        ] {
            let rebuilt = AggregateSignature::from_parts(agg.bitset(), agg.aggregate());
            assert_eq!(rebuilt.as_ref(), Ok(&agg));
            assert_ne!(agg.bitset().last(), Some(&0));
        }
        let aggregate = signed(&kps, [5]).aggregate();
        let refuse =
            |bitset: &[u64], aggregate| AggregateSignature::from_parts(bitset, aggregate).err();
        assert_eq!(
            refuse(&[1, 0], aggregate),
            Some("trailing zero signer word")
        );
        assert_eq!(refuse(&[0], [0; 32]), Some("trailing zero signer word"));
        assert_eq!(
            refuse(&[], aggregate),
            Some("empty signer set carries an aggregate")
        );
        assert_eq!(
            refuse(&[1], [0; 32]),
            Some("signer set without an aggregate")
        );
        assert_eq!(
            refuse(&[1; 1_025], aggregate),
            Some("signer bitset over 1,024 words")
        );
        assert!(refuse(&[1; 1_024], aggregate).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_signer_beyond_the_bitset_is_refused() {
        let _: AggregateSignature = [(65_536, KeyPair::from_seed(0).sign(b"m"))]
            .into_iter()
            .collect();
    }
}
