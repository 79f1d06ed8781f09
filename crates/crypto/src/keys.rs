//! Simulated signature scheme.
//!
//! The scheme is deliberately simple: a signature over `msg` by key `k` is
//! `H(tag || pk || msg)` where `pk = H(tag' || k)`. Any party can forge such a
//! signature if it knows the public key, so this is **only** meaningful inside
//! the honest-majority simulation where Byzantine behaviour is modelled at the
//! protocol level (forking / silence strategies) rather than by forging
//! signatures. The scheme exists so that votes, quorum certificates and
//! timeout certificates carry realistic payload bytes and so that a
//! configurable CPU cost can be charged per sign/verify operation, matching
//! the `t_CPU` parameter of the paper's analytical model.

use std::fmt;

use crate::hash::{hash_two, Digest};
use crate::sha256::Sha256;

const SIGN_TAG: &[u8] = b"bamboo-sim-signature-v1";
const PK_TAG: &[u8] = b"bamboo-sim-public-key-v1";

/// A secret signing key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(Digest);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        write!(f, "SecretKey(..)")
    }
}

/// A public verification key derived from a [`SecretKey`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(Digest);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self.0.short_hex())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.short_hex())
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg` under this public key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        Signature::create(self, msg) == *sig
    }

    /// Returns the underlying digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.0.as_bytes()
    }
}

/// A signature over a message.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(Digest);

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({})", self.0.short_hex())
    }
}

impl Signature {
    /// Reconstructs a signature from its raw bytes (checkpoint / state
    /// transfer decoding). The bytes are not validated here; a forged value
    /// simply fails verification downstream.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Signature(Digest::from_bytes(bytes))
    }

    /// `H(SIGN_TAG || pk || msg)`, streamed into the hasher: no buffer. The
    /// one construction behind every sign and verify.
    fn create(pk: &PublicKey, msg: &[u8]) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(SIGN_TAG);
        hasher.update(pk.as_bytes());
        hasher.update(msg);
        Signature(Digest::from_bytes(hasher.finalize()))
    }

    /// Returns the signature bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.0.as_bytes()
    }
}

/// A signing key pair for one replica.
///
/// # Example
///
/// ```
/// use bamboo_crypto::KeyPair;
///
/// let kp = KeyPair::from_seed(42);
/// let sig = kp.sign(b"vote for block 7");
/// assert!(kp.public_key().verify(b"vote for block 7", &sig));
/// assert!(!kp.public_key().verify(b"vote for block 8", &sig));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a `u64` seed.
    ///
    /// Replicas in the simulation derive their keys from their node id so the
    /// whole system is reproducible from a single configuration seed.
    pub fn from_seed(seed: u64) -> Self {
        let secret = SecretKey(hash_two(b"bamboo-sim-secret-key-v1", &seed.to_be_bytes()));
        let public = PublicKey(hash_two(PK_TAG, secret.0.as_bytes()));
        Self { secret, public }
    }

    /// Derives the key pair of simulated client `seed`.
    ///
    /// Clients live in a domain-separated keyspace (a distinct secret tag), so
    /// no client key can ever collide with a validator key derived by
    /// [`KeyPair::from_seed`]. Derivation is two streaming hashes and performs
    /// no allocation, which lets replicas re-derive a client's key lazily per
    /// request instead of holding O(clients) key material.
    pub fn client_from_seed(seed: u64) -> Self {
        let secret = SecretKey(hash_two(
            b"bamboo-sim-client-secret-key-v1",
            &seed.to_be_bytes(),
        ));
        let public = PublicKey(hash_two(PK_TAG, secret.0.as_bytes()));
        Self { secret, public }
    }

    /// Returns the public half of the key pair.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg`.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature::create(&self.public, msg)
    }

    /// Same as [`KeyPair::sign`]. Signing streams into the hasher and needs no
    /// buffer, so `_scratch` is left untouched; the parameter stays for
    /// callers written against the older buffered signature.
    pub fn sign_with_scratch(&self, _scratch: &mut Vec<u8>, msg: &[u8]) -> Signature {
        self.sign(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(1);
        let sig = kp.sign(b"message");
        assert!(kp.public_key().verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = KeyPair::from_seed(1);
        let sig = kp.sign(b"message");
        assert!(!kp.public_key().verify(b"other", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = KeyPair::from_seed(1);
        let kp2 = KeyPair::from_seed(2);
        let sig = kp1.sign(b"message");
        assert!(!kp2.public_key().verify(b"message", &sig));
    }

    #[test]
    fn keypairs_are_deterministic_per_seed() {
        assert_eq!(KeyPair::from_seed(9), KeyPair::from_seed(9));
        assert_ne!(
            KeyPair::from_seed(9).public_key(),
            KeyPair::from_seed(10).public_key()
        );
    }

    #[test]
    fn client_keys_are_domain_separated_from_validator_keys() {
        for seed in 0..64u64 {
            assert_ne!(
                KeyPair::client_from_seed(seed).public_key(),
                KeyPair::from_seed(seed).public_key(),
                "client {seed} collides with validator {seed}"
            );
        }
        assert_eq!(KeyPair::client_from_seed(3), KeyPair::client_from_seed(3));
        assert_ne!(
            KeyPair::client_from_seed(3).public_key(),
            KeyPair::client_from_seed(4).public_key()
        );
    }

    #[test]
    fn scratch_signing_matches_allocating_signing() {
        let kp = KeyPair::client_from_seed(7);
        let mut scratch = Vec::new();
        let a = kp.sign_with_scratch(&mut scratch, b"request");
        assert_eq!(a, kp.sign(b"request"));
        assert!(kp.public_key().verify(b"request", &a));
    }

    #[test]
    fn secret_key_debug_does_not_leak() {
        let kp = KeyPair::from_seed(5);
        let rendered = format!("{:?}", kp.secret);
        assert_eq!(rendered, "SecretKey(..)");
    }
}
