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

use bamboo_bench::{banner, bench_rows, eval_config, model_for, record_figure, save_rows, Sim};
use bamboo_core::scenario::{metric, Metric};
use bamboo_core::{run_all, RunOptions};
use bamboo_types::ProtocolKind;

/// Eq. (3)'s latency at the point's offered load, in ms: the one reading of
/// this figure that is not a run's.
const MODEL_LATENCY: Metric = ("model_latency", "ms", false, |report, config| {
    let rate = config.arrival_rate.unwrap_or(0.0);
    model_for(report.protocol, config).latency(rate) * 1_000.0
});

/// What every point records, in order.
#[rustfmt::skip]
const ROWS: [&str; 11] = [
    "offered", "throughput", "latency", "model_latency", "u_max", "view_ms_qc", "views_by_timeout",
    "stage_dispatched_ms", "stage_certified_ms", "stage_committed_ms", "stage_confirmed_ms",
];

fn main() {
    banner("Figure 8: model vs implementation (HS, 2CHS, SL)");
    let configs = [(4usize, 100usize), (8, 100), (4, 400), (8, 400)];
    let fractions = [0.2, 0.4, 0.6, 0.8];

    // Sample each curve at fractions of the modelled saturation rate so model
    // and implementation are probed at the same offered loads; the whole grid
    // runs as one batch. A point is keyed by the share of the modelled
    // saturation rate, which is what the ladder fixes; the rate itself is a
    // model output.
    let (mut points, mut keys) = (Vec::new(), Vec::new());
    for (nodes, bsize) in configs {
        let config = eval_config(nodes, bsize, 0, 500);
        for protocol in ProtocolKind::evaluated() {
            let model = model_for(protocol, &config);
            for fraction in fractions {
                let mut point = config.clone();
                point.arrival_rate = Some(model.saturation_rate() * fraction);
                points.push((point, protocol, RunOptions::default()));
                let share = fraction * 100.0;
                keys.push(format!(
                    "{}/n{nodes}/b{bsize}/f{share:.0}",
                    protocol.label()
                ));
            }
        }
    }
    let reports = run_all(points.clone());

    let metrics = ROWS.map(|name| match name {
        "model_latency" => MODEL_LATENCY,
        name => metric(name).expect("a METRICS entry"),
    });
    let runs = (keys.into_iter().zip(&reports).zip(&points))
        .map(|((key, report), (config, _, _))| (key, report, config))
        .collect();
    let mut out = bench_rows("fig8_model_vs_impl");
    record_figure(&mut out, Sim, &metrics, runs);
    save_rows(&out);
    println!(
        "\nExpected shape (paper): model and implementation curves track each other;\n2CHS sits below HS in latency, Streamlet saturates earlier."
    );
}
