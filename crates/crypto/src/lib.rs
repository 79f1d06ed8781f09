//! Cryptographic primitives for bamboo-rs.
//!
//! The original Bamboo framework uses secp256k1 signatures for votes and
//! quorum certificates. For this reproduction the *cost* of cryptography is
//! what matters to the performance study (it is the `t_CPU` parameter of the
//! paper's analytical model), not its hardness, so this crate provides:
//!
//! * a from-scratch [`mod@sha256`] implementation used for block ids and
//!   chaining — one compression function that runs on the CPU's SHA
//!   extensions where they exist and on portable rounds elsewhere, with
//!   identical digests,
//! * a deterministic, simulated signature scheme ([`KeyPair`], [`Signature`])
//!   whose verification is honest-majority sound inside the simulation,
//! * the quorum certificate's aggregate ([`AggregateSignature`]): a signer
//!   bitset plus one 32-byte aggregate, verified in one streaming pass, and
//! * batched verification ([`BatchVerifier`]) that checks many
//!   `(key, message, signature)` tuples in one allocation-free pass — the
//!   primitive behind the client edge check.
//!
//! The simulated scheme binds a signature to `(public key, message)` via the
//! hash function; it is **not** secure against a real adversary and must never
//! be used outside the simulator. The substitution is documented in
//! `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use bamboo_crypto::{KeyPair, hash_bytes};
//!
//! let kp = KeyPair::from_seed(7);
//! let digest = hash_bytes(b"block payload");
//! let sig = kp.sign(digest.as_bytes());
//! assert!(kp.public_key().verify(digest.as_bytes(), &sig));
//! ```

// `deny`, not `forbid` as in every other crate of the workspace: the call into
// the SHA-NI kernel in `sha256.rs` is the workspace's one `unsafe` block and
// is allowed there by name.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod batch;
pub mod hash;
pub mod keys;
pub mod sha256;

pub use aggregate::AggregateSignature;
pub use batch::BatchVerifier;
pub use hash::{hash_bytes, hash_two, Digest, DigestBuildHasher, DigestMap, DigestSet};
pub use keys::{KeyPair, PublicKey, SecretKey, Signature};
pub use sha256::{sha256, Sha256};
