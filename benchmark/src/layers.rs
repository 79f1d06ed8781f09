//! The per-layer run (`--trace 1`): the measured run's own counters (R), the
//! traced lockstep replay (T) and the stand-alone probes (P), folded into
//! one outcome.

use std::path::Path;

use bamboo_types::{Json, SimDuration};

use crate::lockstep::{self, Replay};
use crate::measured::{self, RunArgs};
use crate::probes;
use crate::report::Outcome;
use crate::spec::{Backend, Spec};
use crate::trace::Tracer;

/// Full span trees are kept for every this-many-th request.
const SAMPLE_EVERY: u64 = 100;

/// Runs all three sources and returns the outcome plus the span dump.
pub fn run(spec: &Spec, args: &RunArgs, dir: &Path) -> (Outcome, Json) {
    // R: the measured run, set up and run once (host times are not reported
    // from here).
    let once = RunArgs { setups: 1, ..*args };
    let mut outcome = measured::run(spec, &once, dir);

    // T: the replay with spans on, then the same replay with spans off.
    std::fs::create_dir_all(dir).expect("create durable-log scratch directory");
    let target_txs = ((spec.lockstep_txs as f64 * args.scale) as u64).max(100);
    let tracer = Tracer::enabled(SAMPLE_EVERY);
    let traced = lockstep::replay(spec, args.seed, target_txs, &tracer, dir);
    let plain = lockstep::replay(spec, args.seed, target_txs, &Tracer::disabled(), dir);
    traced_metrics(&mut outcome, &traced, &plain, &tracer, target_txs);

    // P: probes on what the traced replay left behind.
    let config = spec.config_for(args.seed);
    probes::crypto(&mut outcome);
    probes::mempool(&mut outcome, &config, &traced.requests);
    probes::forest_and_storage(&mut outcome, spec, &config, &traced, dir);
    probes::storage_writes(&mut outcome, &traced, config.nodes);
    probes::verify_pool(&mut outcome, spec, config.nodes, &traced);
    if spec.backend == Backend::Sim {
        let depth = outcome.get("sim.queue_peak_len").unwrap_or(1.0) as u64;
        probes::event_queue(&mut outcome, depth);
        let runtime = SimDuration::from_secs_f64(args.seconds * spec.sim_seconds_per_second);
        probes::threads2_speedup(&mut outcome, spec, args.seed, runtime);
    }
    let spans = tracer
        .read(|recorder| recorder.to_json())
        .unwrap_or(Json::Null);
    (outcome, spans)
}

fn traced_metrics(
    outcome: &mut Outcome,
    traced: &Replay,
    plain: &Replay,
    tracer: &Tracer,
    target_txs: u64,
) {
    outcome.require(
        traced.committed_txs >= target_txs && !traced.hit_deadline,
        format!(
            "lockstep replay committed {} of {target_txs} transactions",
            traced.committed_txs
        ),
    );
    outcome.require(
        traced.rejections == 0,
        format!("lockstep replay rejected {} inputs", traced.rejections),
    );
    let txs = traced.committed_txs.max(1) as f64;
    let per = |ns: u64, count: u64| ns as f64 / count.max(1) as f64;
    tracer.read(|spans| {
        let wall = traced.wall_ns.max(1) as f64;
        let self_sum = spans.self_ns_sum() as f64;
        outcome.note("lockstep_wall_ms", wall / 1e6);
        outcome.note("lockstep_self_time_sum_ms", self_sum / 1e6);
        let gap_pct = (wall - self_sum).abs() / wall * 100.0;
        outcome.note("lockstep_self_time_gap_pct", gap_pct);
        outcome.require(
            gap_pct <= 2.0,
            format!("layer self times miss the replay's wall time by {gap_pct:.2} %"),
        );
        outcome.set("lockstep.ns_per_tx", wall / txs);
        for (name, prefix) in [
            ("lockstep.share_auth", "auth."),
            ("lockstep.share_replica", "replica."),
            ("lockstep.share_storage", "storage."),
            ("lockstep.share_driver", "driver."),
        ] {
            outcome.set(name, spans.self_ns_of(prefix) as f64 / self_sum.max(1.0));
        }
        outcome.set(
            "lockstep.share_codec",
            (spans.self_ns_of("wire.") + spans.self_ns_of("frame.")) as f64 / self_sum.max(1.0),
        );

        let admit = spans.total("replica.handle_client_batch");
        outcome.set(
            "replica.admit_ns_per_tx",
            per(admit.self_ns, traced.admitted_txs),
        );
        let step = spans.total("replica.handle_verified");
        outcome.set("replica.step_ns_per_msg", per(step.self_ns, step.count));
        outcome.set("replica.step_ns_per_tx", step.self_ns as f64 / txs);
        let edge = spans.total("auth.verify_client_batch");
        outcome.set(
            "auth.client_verify_ns_per_tx",
            per(edge.self_ns, traced.admitted_txs),
        );
        let ingress = spans.total("auth.authenticate_shared");
        outcome.set(
            "auth.msg_verify_ns_per_msg",
            per(ingress.self_ns, ingress.count),
        );

        let encode = spans.total("wire.encode_message");
        outcome.set("wire.encode_ns_per_msg", per(encode.self_ns, encode.count));
        let decode = spans.total("wire.decode_message");
        outcome.set("wire.decode_ns_per_msg", per(decode.self_ns, decode.count));
        outcome.set(
            "wire.bytes_per_msg",
            per(traced.wire_bytes, traced.encoded_msgs),
        );
        let frame = spans.total("frame.encode_frame");
        outcome.set("frame.encode_ns_per_msg", per(frame.self_ns, frame.count));
        let unframe = spans.total("frame.decode");
        if unframe.self_ns > 0 {
            outcome.set(
                "frame.decode_mb_s",
                traced.frame_bytes_decoded as f64 / 1e6 / (unframe.self_ns as f64 / 1e9),
            );
        }
        let append = spans.total("storage.append");
        outcome.set(
            "storage.append_ns_per_record",
            per(append.self_ns, append.count),
        );
    });
    // The measured run counted its own rejections; add the replay's.
    let rejected = outcome.get("auth.rejections").unwrap_or(0.0);
    outcome.set("auth.rejections", rejected + traced.rejections as f64);
    outcome.set(
        "tracing.overhead_pct",
        ((traced.wall_ns as f64 / plain.wall_ns.max(1) as f64 - 1.0) * 100.0).max(0.0),
    );
    outcome.note("lockstep_committed_txs", traced.committed_txs);
    outcome.note("lockstep_delivered_msgs", traced.delivered_msgs);
    outcome.note("lockstep_plain_wall_ms", plain.wall_ns as f64 / 1e6);
}
