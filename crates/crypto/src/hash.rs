//! Digest newtype and convenience hashing helpers used across the workspace.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

use crate::sha256::sha256;

/// A 32-byte SHA-256 digest.
///
/// `Digest` is used for block identifiers, transaction identifiers and
/// message binding in the simulated signature scheme.
///
/// # Example
///
/// ```
/// use bamboo_crypto::Digest;
///
/// let a = Digest::of(b"hello");
/// let b = Digest::of(b"hello");
/// assert_eq!(a, b);
/// assert_ne!(a, Digest::of(b"world"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest, used as the parent of the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes `data` and returns the digest.
    pub fn of(data: &[u8]) -> Self {
        Digest(sha256(data))
    }

    /// Builds a digest from raw bytes (no hashing performed).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns a short hexadecimal prefix, convenient for logging.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Returns the full hexadecimal representation.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Returns true if this is the all-zero digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// A [`HashMap`] keyed by a digest or a few words (a transaction id).
pub type DigestMap<K, V> = HashMap<K, V, DigestBuildHasher>;

/// A [`HashSet`] of digests or of few-word keys (transaction ids).
pub type DigestSet<K> = HashSet<K, DigestBuildHasher>;

/// The table hasher for digests and few-word keys: a keyed multiply-fold
/// over every word — four multiplies for a digest, two for a transaction id.
///
/// Keyed, and over every byte, because some keys are bytes a peer or client
/// chose (a vote's block id, both words of a transaction id): each
/// table draws its key from [`RandomState`] when it is built, so no byte
/// sequence sent from outside can be aimed at one bucket, and two tables
/// iterate the same keys in unrelated orders, exactly as with the default
/// hasher.
///
/// # Example
///
/// ```
/// use bamboo_crypto::{Digest, DigestSet};
///
/// let mut seen = DigestSet::default();
/// assert!(seen.insert(Digest::of(b"block")));
/// assert!(!seen.insert(Digest::of(b"block")));
/// ```
#[derive(Clone, Debug)]
pub struct DigestBuildHasher {
    key: u64,
}

impl Default for DigestBuildHasher {
    fn default() -> Self {
        // An odd multiplier, so no input word is annihilated by the key.
        Self {
            key: RandomState::new().build_hasher().finish() | 1,
        }
    }
}

impl BuildHasher for DigestBuildHasher {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher {
            state: self.key,
            key: self.key,
        }
    }
}

/// The [`Hasher`] of [`DigestBuildHasher`].
#[derive(Clone, Debug)]
pub struct DigestHasher {
    state: u64,
    key: u64,
}

impl DigestHasher {
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.key);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for DigestHasher {
    /// Folds the bytes in little-endian words, the last one zero-padded. A
    /// digest is four whole words, read as such: no per-chunk length check
    /// and copy into a scratch word.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    /// `[u8; 32]` hashes as a length prefix and the bytes; the prefix of a
    /// fixed-size key says nothing, so it costs nothing.
    fn write_usize(&mut self, _: usize) {}

    /// One fold per word, as [`Hasher::write`] of its native bytes folds it.
    fn write_u64(&mut self, word: u64) {
        self.fold(word.to_le());
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes a byte slice into a [`Digest`].
pub fn hash_bytes(data: &[u8]) -> Digest {
    Digest::of(data)
}

/// Hashes the concatenation of two byte slices, used for chaining structures
/// (for example `hash(parent_id || payload)`).
pub fn hash_two(a: &[u8], b: &[u8]) -> Digest {
    let mut hasher = crate::sha256::Sha256::new();
    hasher.update(a);
    hasher.update(b);
    Digest(hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_is_deterministic() {
        assert_eq!(Digest::of(b"x"), Digest::of(b"x"));
        assert_ne!(Digest::of(b"x"), Digest::of(b"y"));
    }

    #[test]
    fn zero_digest_is_zero() {
        assert!(Digest::ZERO.is_zero());
        assert!(!Digest::of(b"nonzero").is_zero());
    }

    #[test]
    fn hash_two_equals_concatenated_hash() {
        let direct = Digest::of(b"abcdef");
        let split = hash_two(b"abc", b"def");
        assert_eq!(direct, split);
    }

    #[test]
    fn hex_roundtrip_formats() {
        let d = Digest::of(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.short_hex().len(), 8);
        assert!(d.to_hex().starts_with(&d.short_hex()));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let d = Digest::default();
        assert!(!format!("{d}").is_empty());
        assert!(!format!("{d:?}").is_empty());
    }

    fn id(n: u32) -> Digest {
        Digest::of(&n.to_be_bytes())
    }

    /// The fold as first written: one zero-padded word per `chunks(8)`
    /// chunk. The word-wise `write` must hash every input to the same value.
    fn byte_chunk_fold(key: u64, bytes: &[u8]) -> u64 {
        let mut state = key;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let product = u128::from(state ^ u64::from_le_bytes(word)) * u128::from(key);
            state = (product as u64) ^ ((product >> 64) as u64);
        }
        state
    }

    #[test]
    fn the_word_fold_equals_the_byte_chunk_fold_at_every_length() {
        let bytes: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        for key in [1, 3, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            for len in 0..=64 {
                let mut hasher = DigestHasher { state: key, key };
                hasher.write(&bytes[..len]);
                assert_eq!(
                    hasher.finish(),
                    byte_chunk_fold(key, &bytes[..len]),
                    "key {key:#x}, {len} bytes"
                );
            }
        }
    }

    #[test]
    fn a_word_hashes_as_its_native_bytes() {
        for word in [0, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
            let key = 0x9e37_79b9_7f4a_7c15;
            let mut by_word = DigestHasher { state: key, key };
            by_word.write_u64(word);
            let mut by_bytes = DigestHasher { state: key, key };
            by_bytes.write(&word.to_ne_bytes());
            assert_eq!(by_word.finish(), by_bytes.finish(), "{word:#x}");
        }
    }

    #[test]
    fn digest_tables_are_keyed_per_table() {
        // Same 1,000 ids, two tables of one process: a fixed-key hasher would
        // walk them in the same order.
        let order = || -> Vec<Digest> {
            (0..1_000)
                .map(id)
                .collect::<DigestSet<_>>()
                .into_iter()
                .collect()
        };
        let (first, second) = (order(), order());
        assert_ne!(first, second);
        let sorted = |mut ids: Vec<Digest>| {
            ids.sort();
            ids
        };
        assert_eq!(sorted(first), sorted(second));
    }

    #[test]
    fn every_byte_of_a_digest_reaches_the_hash() {
        // 100 k ids that share their first 8 bytes, and 100 k that share
        // their last 24: a hasher that reads a prefix (or a suffix) sends
        // one of the families to a single bucket and the table goes
        // quadratic. Linear time is asserted as what it rests on — the
        // hashes spread over both the bucket-index bits and the tag bits —
        // and then exercised.
        const N: u32 = 100_000;
        for shared in [0..8, 8..32] {
            let family = |n: u32| {
                let mut bytes = *id(n).as_bytes();
                bytes[shared.clone()].fill(0x5a);
                Digest::from_bytes(bytes)
            };
            let build = DigestBuildHasher::default();
            let hashes: Vec<u64> = (0..N).map(|n| build.hash_one(family(n))).collect();
            // 2^17 buckets for 10^5 balls: a uniform hash leaves the fullest
            // bucket at about 8 and about 47 % of the buckets empty.
            for shift in [0, 64 - 17] {
                let mut load = vec![0u32; 1 << 17];
                for hash in &hashes {
                    load[(hash >> shift) as usize & ((1 << 17) - 1)] += 1;
                }
                assert!(*load.iter().max().unwrap() <= 24, "shift {shift}");
                let used = load.iter().filter(|&&n| n > 0).count();
                assert!(used > 60_000, "shift {shift}: {used} buckets used");
            }
            let mut table = DigestSet::with_hasher(build);
            assert!((0..N).all(|n| table.insert(family(n))));
            assert!((0..N).all(|n| table.contains(&family(n))));
            assert!(!table.contains(&id(N)));
        }
    }
}
