//! Figure 9 — throughput vs latency for block sizes 100, 400 and 800,
//! including the independent "original HotStuff" (OHS) baseline.
//!
//! Paper setting: 4 replicas, zero-payload transactions, client load increased
//! until saturation. Expected shape: L-shaped curves; a large gain from
//! b100 → b400, a much smaller one from b400 → b800; OHS lands in the same
//! envelope as Bamboo-HS; Streamlet has the lowest throughput at every block
//! size.

use bamboo_bench::{
    banner, bench_rows, default_sweep, eval_config, evaluated_protocols, record_curve, save_rows,
    sweep,
};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Figure 9: throughput vs latency, block sizes 100/400/800 (+ OHS baseline)");
    let mut out = bench_rows("fig9_block_sizes");
    for bsize in [100usize, 400, 800] {
        let config = eval_config(4, bsize, 0, 500);
        for protocol in evaluated_protocols() {
            let label = format!("{}-b{bsize}", protocol.label());
            let points = sweep(protocol, &config, default_sweep());
            record_curve(&mut out, &label, &points);
        }
    }
    // The paper only shows the OHS baseline at block sizes 100 and 800.
    for bsize in [100usize, 800] {
        let config = eval_config(4, bsize, 0, 500);
        let label = format!("OHS-b{bsize}");
        let points = sweep(ProtocolKind::OriginalHotStuff, &config, default_sweep());
        record_curve(&mut out, &label, &points);
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): large gain from b100 to b400, small gain beyond;\nOHS comparable to Bamboo-HS; Streamlet lowest throughput."
    );
}
