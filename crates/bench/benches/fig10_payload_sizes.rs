//! Figure 10 — throughput vs latency for transaction payloads of 0, 128 and
//! 1024 bytes (block size 400, 4 replicas).
//!
//! Expected shape: larger payloads reduce throughput for every protocol;
//! Streamlet is the most sensitive because every message is echoed; the
//! latency gap between HS and 2CHS narrows as the payload grows (transmission
//! delay starts to dominate).

use bamboo_bench::{
    banner, bench_rows, default_sweep, eval_config, record_curve, save_rows, sweep,
};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Figure 10: throughput vs latency, payload sizes 0/128/1024 B");
    let mut out = bench_rows("fig10_payload_sizes");
    for payload in [0usize, 128, 1024] {
        let config = eval_config(4, 400, payload, 500);
        for protocol in ProtocolKind::evaluated() {
            let label = format!("{}-p{payload}", protocol.label());
            let points = sweep(protocol, &config, default_sweep());
            record_curve(&mut out, &label, &points);
        }
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): throughput falls as payload grows; Streamlet is most\nsensitive; the HS vs 2CHS latency gap narrows at 1024-byte payloads."
    );
}
