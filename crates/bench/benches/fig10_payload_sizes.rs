//! Figure 10 — throughput vs latency for transaction payloads of 0, 128 and
//! 1024 bytes (block size 400, 4 replicas), on fig9's ladder of offered
//! loads (10 k → 1.28 M tx/s, every point recorded).
//!
//! Expected shape: larger payloads reduce throughput for every protocol;
//! Streamlet is the most sensitive because every message is echoed; the
//! latency gap between HS and 2CHS narrows as the payload grows (transmission
//! delay starts to dominate).

use bamboo_bench::{banner, bench_rows, doubling_ladder, eval_config, record_curves, save_rows};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Figure 10: throughput vs latency, payload sizes 0/128/1024 B");
    let mut out = bench_rows("fig10_payload_sizes");
    let mut curves = Vec::new();
    for payload in [0usize, 128, 1024] {
        let config = eval_config(4, 400, payload, 500);
        for protocol in ProtocolKind::evaluated() {
            curves.push((
                format!("{}-p{payload}", protocol.label()),
                protocol,
                config.clone(),
            ));
        }
    }
    record_curves(&mut out, &curves, &doubling_ladder(10_000.0, 8));
    save_rows(&out);
    println!(
        "\nExpected shape (paper): throughput falls as payload grows; Streamlet is most\nsensitive; the HS vs 2CHS latency gap narrows at 1024-byte payloads."
    );
}
