//! Figure 9 — throughput vs latency for block sizes 100, 400 and 800.
//!
//! Paper setting: 4 replicas, zero-payload transactions, client load increased
//! until saturation — here one ladder for every curve, 10 k → 1.28 M tx/s
//! doubling per point, the highest load any curve needs to flatten; every
//! point is recorded, past the knee too. Expected shape: L-shaped curves; a large gain from
//! b100 → b400, a much smaller one from b400 → b800; Streamlet has the lowest
//! throughput at every block size. The paper's OHS series (the C++
//! `libhotstuff` beside Bamboo's Go HotStuff) is not reproduced: it compares
//! two implementations of the same rules, not two rule sets.

use bamboo_bench::{banner, bench_rows, doubling_ladder, eval_config, record_curves, save_rows};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Figure 9: throughput vs latency, block sizes 100/400/800");
    let mut out = bench_rows("fig9_block_sizes");
    let mut curves = Vec::new();
    for bsize in [100usize, 400, 800] {
        let config = eval_config(4, bsize, 0, 500);
        for protocol in ProtocolKind::evaluated() {
            curves.push((
                format!("{}-b{bsize}", protocol.label()),
                protocol,
                config.clone(),
            ));
        }
    }
    record_curves(&mut out, &curves, &doubling_ladder(10_000.0, 8));
    save_rows(&out);
    println!(
        "\nExpected shape (paper): large gain from b100 to b400, small gain beyond;\nStreamlet lowest throughput. The OHS series is not reproduced."
    );
}
