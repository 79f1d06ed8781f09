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
//! On top of raw storage the crate provides the chain predicates the safety
//! rules need: direct-descendant certified chains (one-chain / two-chain /
//! three-chain in HotStuff's sense, [`BlockForest::certified_chain_length`])
//! and consecutive-view chains (Streamlet's commit rule,
//! [`BlockForest::consecutive_view_chain`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forest;
pub mod ledger;
pub mod snapshot;

pub use forest::{BlockForest, ForestError, ForestStats};
pub use ledger::{ChainFingerprint, CommittedBlock, Ledger};
pub use snapshot::{
    chunks, decode_committed_record, decode_qc_record, encode_committed_record, encode_qc_record,
    Chunk, Snapshot, SnapshotError,
};
