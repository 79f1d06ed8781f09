//! Block forest — the data module of the Bamboo architecture.
//!
//! The block forest keeps track of every block a replica has seen, organised
//! as a forest of trees keyed by parent links (§III-A of the paper):
//!
//! * every vertex has a height strictly greater than its parent's,
//! * a vertex can have many children (forks), one parent,
//! * the forest can be pruned up to a height, which may disconnect sub-trees,
//! * a *main chain* of committed blocks is always maintained, and a
//!   consistency check across replicas is a hash comparison at equal height.
//!
//! On top of raw storage the crate provides the one chain predicate the
//! safety rules need, [`BlockForest::certified_chain`]: direct-descendant
//! certified `k`-chains (one-chain / two-chain / three-chain in HotStuff's
//! sense), optionally restricted to consecutive views (Streamlet's commit
//! rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forest;
pub mod ledger;
pub mod snapshot;

pub use forest::{BlockForest, ForestError, ForestStats};
pub use ledger::{ChainFingerprint, CommittedBlock, Ledger};
pub use snapshot::{
    chunks, decode_committed_record, decode_qc_record, encode_committed_record, encode_qc_record,
    Chunk, Cut, Snapshot, SnapshotError,
};
