//! Figure 9 — throughput vs latency for block sizes 100, 400 and 800.
//!
//! Paper setting: 4 replicas, zero-payload transactions, client load increased
//! until saturation. Expected shape: L-shaped curves; a large gain from
//! b100 → b400, a much smaller one from b400 → b800; Streamlet has the lowest
//! throughput at every block size. The paper's OHS series (the C++
//! `libhotstuff` beside Bamboo's Go HotStuff) is not reproduced: it compares
//! two implementations of the same rules, not two rule sets.

use bamboo_bench::{
    banner, bench_rows, default_sweep, eval_config, record_curve, save_rows, sweep,
};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Figure 9: throughput vs latency, block sizes 100/400/800");
    let mut out = bench_rows("fig9_block_sizes");
    for bsize in [100usize, 400, 800] {
        let config = eval_config(4, bsize, 0, 500);
        for protocol in ProtocolKind::evaluated() {
            let label = format!("{}-b{bsize}", protocol.label());
            let points = sweep(protocol, &config, default_sweep());
            record_curve(&mut out, &label, &points);
        }
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): large gain from b100 to b400, small gain beyond;\nStreamlet lowest throughput. The OHS series is not reproduced."
    );
}
