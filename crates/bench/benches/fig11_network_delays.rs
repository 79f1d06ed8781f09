//! Figure 11 — throughput vs latency under added network delays of 0 ms,
//! 5 ms ± 1 ms and 10 ms ± 2 ms (block size 400, payload 128 B, 4 replicas).
//!
//! Expected shape: every protocol suffers as delay grows; the gap between the
//! two HotStuff variants and Streamlet shrinks, and at 10 ms Streamlet becomes
//! comparable to 2CHS because propagation delay dominates the cost of its
//! message echoing.

use bamboo_bench::{
    banner, bench_rows, eval_config, evaluated_protocols, record_curve, save_rows, sweep,
};
use bamboo_core::SweepOptions;
use bamboo_types::SimDuration;

fn main() {
    banner("Figure 11: throughput vs latency, added network delay 0/5/10 ms");
    let mut out = bench_rows("fig11_network_delays");
    for (delay_ms, jitter_ms) in [(0u64, 0u64), (5, 1), (10, 2)] {
        let mut config = eval_config(4, 400, 128, 600);
        config.extra_delay = SimDuration::from_millis(delay_ms);
        config.extra_delay_jitter = SimDuration::from_millis(jitter_ms);
        // Longer timeouts so added delay does not trigger spurious view changes.
        config.timeout = SimDuration::from_millis(200);
        let sweep_opts = SweepOptions {
            start_rate: 2_000.0,
            growth: 2.0,
            max_points: 7,
            saturation_gain: 0.05,
            latency_ceiling_ms: 600.0,
        };
        for protocol in evaluated_protocols() {
            let label = format!("{}-d{delay_ms}", protocol.label());
            let points = sweep(protocol, &config, sweep_opts.clone());
            record_curve(&mut out, &label, &points);
        }
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): all protocols degrade with added delay; the Streamlet\nvs 2CHS gap closes at 10 ms because propagation dominates message echoing."
    );
}
