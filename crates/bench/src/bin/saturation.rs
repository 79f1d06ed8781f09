//! Open-loop saturation sweep over the client-ingress pipeline.
//!
//! Drives a fixed offered-load ladder against clusters running the full
//! client pipeline — a million-client signed population feeding a bounded
//! mempool with admission control — and records, per load point, the
//! committed *goodput* and the client-observed (submit → commit) latency
//! distribution. The ladder deliberately runs past the saturation knee so
//! the artifact shows the collapse: goodput flattens against the admission
//! cap while client p99 latency explodes, the §V methodology of the paper
//! applied to the simulated substrate.
//!
//! Points are independent simulations, so the sweep executes on the bounded
//! std-thread pool (`run_ordered`) — wall time is governed by the slowest
//! point, not the ladder length.
//!
//! Modes:
//!
//! * default — full sweep: HS and 2CHS at n = 32, a seven-point ladder
//!   crossing collapse for both protocols (nightly CI, snapshot material);
//! * `--quick` — one protocol, n = 8, three load points spanning
//!   under/at/over saturation (gating CI smoke: the pipeline end to end in
//!   a few seconds).
//!
//! Rows: `target/bamboo-bench/saturation.rows.json`, one `protocol/nN/oRATE/…`
//! group per load point (offered loads are different names, so `bench_diff`
//! never cross-compares them) plus the knee per protocol. All simulator
//! clock: a run of the same tree reproduces the file byte for byte.

use bamboo_bench::{banner, eval_config, save_rows, Higher, Lower, RowFile, Sim, Tier, EVAL_SEED};
use bamboo_core::{run_ordered, RunOptions, RunReport, SimRunner};
use bamboo_types::{Config, ProtocolKind};

/// Clients in the simulated population; far above any per-run arrival count,
/// so client keys must be derived lazily (the run would otherwise hold a
/// million-entry key table).
const POPULATION: u64 = 1_000_000;

/// The full-pipeline configuration of one load point.
fn point_config(nodes: usize, runtime_ms: u64, rate: f64) -> Config {
    let mut config = eval_config(nodes, 400, 128, runtime_ms);
    config.arrival_rate = Some(rate);
    config.client_population = Some(POPULATION);
    config.signed_requests = true;
    // A bounded pool (two blocks of headroom per replica) is what makes
    // overload visible: past the commit ceiling a replica's backlog hits the
    // cap within the run and the surplus shows up as counted admission
    // rejections instead of an ever-growing queue. Arrivals are spread
    // round-robin over the replicas, so each replica only sees 1/n of the
    // offered load — the cap must be sized against that share.
    config.mempool_size = 2 * config.block_size;
    config
}

fn measure(protocol: ProtocolKind, nodes: usize, runtime_ms: u64, rate: f64) -> RunReport {
    let config = point_config(nodes, runtime_ms, rate);
    let report = SimRunner::new(config, protocol, RunOptions::default()).run();
    assert_eq!(report.safety_violations, 0, "{protocol} @ {rate} tx/s");
    report
}

/// Runs the ladder for one protocol, records every load point and the knee,
/// and asserts the sweep is evidence of saturation.
fn sweep(
    out: &mut RowFile,
    protocol: ProtocolKind,
    nodes: usize,
    runtime_ms: u64,
    ladder: &[f64],
    workers: usize,
) {
    let jobs: Vec<_> = ladder
        .iter()
        .map(|&rate| move || measure(protocol, nodes, runtime_ms, rate))
        .collect();
    let reports = run_ordered(jobs, workers);
    let label = protocol.label();
    let key = format!("{label}/n{nodes}");
    let mut goodputs = Vec::new();
    for (&offered, report) in ladder.iter().zip(&reports) {
        let goodput = report.committed_txs as f64 / (runtime_ms as f64 / 1_000.0);
        let (p50, p99) = (report.client_latency.p50_ms, report.client_latency.p99_ms);
        let rejected = report.mempool.rejected;
        out.point(
            Sim,
            &format!("{key}/o{offered:.0}"),
            &[
                ("goodput", goodput, "tx/s", Higher),
                ("client_p50", p50, "ms", Lower),
                ("client_p99", p99, "ms", Lower),
                ("admission_rejected", rejected as f64, "tx", Lower),
            ],
        );
        goodputs.push(goodput);
    }

    // A sweep flattens into collapse when doubling the offered load stops
    // buying goodput (< 5% gain) — from that knee on, extra load only queues.
    // The sweep is only evidence of saturation if the ladder actually crossed
    // the knee; a ladder that never saturates measures nothing.
    let peak = goodputs.iter().copied().fold(0.0f64, f64::max);
    let knee = goodputs
        .windows(2)
        .position(|pair| pair[1] < pair[0] * 1.05)
        .map(|at| ladder[at + 1])
        .unwrap_or_else(|| {
            panic!("{label}: offered-load ladder never reached collapse — extend the ladder")
        });
    // Past the knee, surplus load must surface as counted admission
    // rejections, never as silent loss.
    let top = reports.last().expect("ladder is non-empty");
    assert!(
        top.mempool.rejected > 0,
        "{label}: overload must produce counted admission rejections"
    );
    assert_eq!(top.client_auth_rejections, 0, "honest clients only");
    out.point(
        Sim,
        &key,
        &[
            ("peak_goodput", peak, "tx/s", Higher),
            ("saturation_offered", knee, "tx/s", Higher),
        ],
    );
}

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (nodes, runtime_ms, protocols, ladder): (usize, u64, Vec<ProtocolKind>, Vec<f64>) = if quick
    {
        (
            8,
            100,
            vec![ProtocolKind::HotStuff],
            vec![40_000.0, 320_000.0, 1_280_000.0],
        )
    } else {
        (
            32,
            200,
            vec![ProtocolKind::HotStuff, ProtocolKind::TwoChainHotStuff],
            vec![
                20_000.0,
                40_000.0,
                80_000.0,
                160_000.0,
                320_000.0,
                640_000.0,
                1_280_000.0,
            ],
        )
    };

    banner(&format!(
        "Open-loop saturation: {} clients, signed requests, bounded mempool, n = {nodes} \
         ({} mode, {workers} pool worker(s))",
        POPULATION,
        if quick { "quick" } else { "full" },
    ));

    let mut out = RowFile::new("saturation", Tier::from_quick(quick), EVAL_SEED);
    for &protocol in &protocols {
        sweep(&mut out, protocol, nodes, runtime_ms, &ladder, workers);
    }
    save_rows(&out);
}
