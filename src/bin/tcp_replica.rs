//! Seat process for the child-process link.
//!
//! Not meant to be invoked by hand: a cluster over
//! [`bamboo::net::Processes`] spawns it with `BAMBOO_TCP_REPLICA_SPEC` set to
//! a seat document (the scenario JSON schema plus the seat's id), reads the
//! `PORT <p>` line it prints, and drives it over TCP. Run by the
//! `tests/live_cluster.rs` conformance suite.

fn main() {
    if !bamboo::net::maybe_run_replica() {
        eprintln!(
            "tcp_replica: set {} to a seat document (this binary is normally \
             spawned by a cluster over the child-process link, not by hand)",
            bamboo::net::REPLICA_ENV
        );
        std::process::exit(2);
    }
}
