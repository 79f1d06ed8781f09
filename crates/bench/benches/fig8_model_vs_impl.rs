//! Figure 8 — analytical model vs Bamboo implementation.
//!
//! Four configurations (nodes/block-size = 4/100, 8/100, 4/400, 8/400), three
//! protocols each. For every offered load the bench reports the simulator's
//! measured latency next to the model's Eq. (3) prediction, which is how the
//! paper validates the implementation, and where each point's views go: the
//! busiest replica's CPU utilization (`u_max`), the mean duration of the
//! observer's QC-ended views (`view_ms_qc`) and its timeout-ended views
//! (`views_by_timeout`) — and where each point's transactions' time goes:
//! the mean of each of the four commit stages (`stage_*_ms`).

use bamboo_bench::{
    banner, bench_rows, eval_config, model_for, save_rows, stage_rows, Higher, Lower, Sim,
};
use bamboo_core::{run_all, RunOptions};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Figure 8: model vs implementation (HS, 2CHS, SL)");
    let configs = [(4usize, 100usize), (8, 100), (4, 400), (8, 400)];
    let fractions = [0.2, 0.4, 0.6, 0.8];

    // Sample each curve at fractions of the modelled saturation rate so model
    // and implementation are probed at the same offered loads; the whole grid
    // runs as one batch.
    let mut grid = Vec::new();
    let mut jobs = Vec::new();
    for (nodes, bsize) in configs {
        let config = eval_config(nodes, bsize, 0, 500);
        for protocol in ProtocolKind::evaluated() {
            let model = model_for(protocol, &config);
            for fraction in fractions {
                let rate = model.saturation_rate() * fraction;
                let mut point = config.clone();
                point.arrival_rate = Some(rate);
                grid.push((nodes, bsize, protocol, fraction, rate, model.latency(rate)));
                jobs.push((point, protocol, RunOptions::default()));
            }
        }
    }
    let reports = run_all(jobs);

    let mut out = bench_rows("fig8_model_vs_impl");
    for ((nodes, bsize, protocol, fraction, rate, predicted), report) in
        grid.into_iter().zip(reports)
    {
        let predicted_ms = predicted * 1_000.0;
        // Where the view's time goes: the busiest replica's CPU
        // utilization, and how long the observer's QC-ended views last.
        let load = report.utilization;
        let timeouts = load.view_timeout.count as f64;
        // Keyed by the share of the modelled saturation rate, which
        // is what the ladder fixes; the rate itself is a model output.
        let key = format!(
            "{}/n{nodes}/b{bsize}/f{:.0}",
            protocol.label(),
            fraction * 100.0
        );
        out.point(
            Sim,
            &key,
            &[
                ("offered", rate, "tx/s", Higher),
                ("throughput", report.throughput_tx_per_sec, "tx/s", Higher),
                ("latency", report.latency.mean_ms, "ms", Lower),
                ("model_latency", predicted_ms, "ms", Lower),
                ("u_max", load.u_max, "ratio", Lower),
                ("view_ms_qc", load.view_qc.mean_ms, "ms", Lower),
                ("views_by_timeout", timeouts, "count", Lower),
            ],
        );
        out.point(Sim, &key, &stage_rows(&report.stages));
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): model and implementation curves track each other;\n2CHS sits below HS in latency, Streamlet saturates earlier."
    );
}
