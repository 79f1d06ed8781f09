//! What one simulation costs the host: peak resident memory and wall time of
//! three fixed points, each run in a child process of its own so the kernel's
//! high-water mark (`VmHWM`) belongs to that point alone.
//!
//! * `hs_n32_lan_50ktx` — the tx-heavy shape of the repo benchmark's
//!   `sim-hs-n32-lan`: HotStuff, n = 32, LAN, a signed 100k-client population
//!   offering 50 000 tx/s. Memory here is the ledger plus per-transaction
//!   bookkeeping.
//! * `hs_n1000_geo` — `scenarios/nightly/geo_wan_n1000.json`: 1000 replicas
//!   in four regions. Memory and time here are per-replica and per-certificate
//!   bookkeeping (a quorum is 667 signers).
//! * `sl_n32_geo_crash` — the repo benchmark's own
//!   `benchmark/workloads/sim-sl-n32-geo-crash.json`, read as a scenario
//!   spec: Streamlet, n = 32 in four regions, a durable log with a
//!   checkpoint every 16 blocks, one crash and durable restart. Memory here
//!   is what the simulated disks hold.
//!
//! Usage: `cargo bench -p bamboo-bench --bench footprint [-- --quick]`. The
//! rows (`<point>/peak_rss_mib`, `<point>/wall_s`, one sample per child, and
//! the simulator-clock `<point>/ledger_fp32` every child must agree on) go to
//! `target/bamboo-bench/footprint.rows.json`. Off Linux there is no `VmHWM`
//! and the memory row is omitted.

use std::process::{Command, ExitCode};
use std::time::Instant;

use bamboo_bench::{banner, eval_config, save_rows, Lower, RowFile, Sim, Tier, Wall, EVAL_SEED};
use bamboo_core::{RunOptions, Scenario, SimRunner};
use bamboo_types::{Config, ProtocolKind};

const POINTS: [&str; 3] = ["hs_n32_lan_50ktx", "hs_n1000_geo", "sl_n32_geo_crash"];
/// Child runs per point: the wall and memory rows are sample sets.
const SAMPLES: usize = 3;

/// A committed spec's first protocol, at the spec's own tier.
fn from_spec(spec: &str, quick: bool) -> (Config, RunOptions, ProtocolKind) {
    let scenario = Scenario::parse(spec).expect("the committed spec parses");
    let (config, options) = scenario.build(quick);
    (config, options, scenario.protocols[0])
}

fn inputs(point: &str, quick: bool) -> (Config, RunOptions, ProtocolKind) {
    match point {
        "hs_n32_lan_50ktx" => {
            let mut config = eval_config(32, 400, 128, if quick { 2_000 } else { 15_000 });
            config.arrival_rate = Some(50_000.0);
            config.client_population = Some(100_000);
            config.signed_requests = true;
            (config, RunOptions::default(), ProtocolKind::HotStuff)
        }
        "hs_n1000_geo" => from_spec(
            include_str!("../../../scenarios/nightly/geo_wan_n1000.json"),
            quick,
        ),
        "sl_n32_geo_crash" => from_spec(
            include_str!("../../../benchmark/workloads/sim-sl-n32-geo-crash.json"),
            quick,
        ),
        other => panic!("unknown point {other:?}"),
    }
}

/// Peak resident set of this process in KiB, where the kernel reports one.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The child: one run of `point`, reported as `wall_s fp32 [rss_kib]`.
fn run_point(point: &str, quick: bool) {
    let (config, options, protocol) = inputs(point, quick);
    let started = Instant::now();
    let report = SimRunner::new(config, protocol, options).run();
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(report.safety_violations, 0, "{point} violated safety");
    let fp32 = u32::from_str_radix(&report.ledger_fingerprint[..8], 16).expect("hex fingerprint");
    let rss = peak_rss_kib().map_or(String::new(), |kib| kib.to_string());
    println!("{wall} {fp32} {rss}");
}

fn measure(point: &str, quick: bool) -> Result<(f64, u32, Option<u64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to re-exec: {e}"))?;
    let mut child = Command::new(exe);
    child.args(["--point", point]);
    if quick {
        child.arg("--quick");
    }
    let output = child.output().map_err(|e| format!("{point}: {e}"))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("{point}: child failed: {stderr}"));
    }
    let line = String::from_utf8_lossy(&output.stdout);
    let mut fields = line.split_whitespace();
    let mut field = || {
        let short = || format!("{point}: short report {line:?}");
        fields.next().ok_or_else(short)
    };
    let wall = field()?.parse().map_err(|e| format!("{point}: {e}"))?;
    let fp32 = field()?.parse().map_err(|e| format!("{point}: {e}"))?;
    Ok((wall, fp32, fields.next().and_then(|kib| kib.parse().ok())))
}

/// Every point, [`SAMPLES`] children each.
fn measure_all(quick: bool) -> Result<RowFile, String> {
    let mut out = RowFile::new("footprint", Tier::from_quick(quick), EVAL_SEED);
    for point in POINTS {
        let mut fingerprint = None;
        for _ in 0..SAMPLES {
            let (wall, fp32, rss_kib) = measure(point, quick)?;
            if *fingerprint.get_or_insert(fp32) != fp32 {
                return Err(format!("{point}: two runs disagree on the ledger"));
            }
            let mut rows = vec![("wall_s", wall, "s", Lower)];
            if let Some(kib) = rss_kib {
                rows.insert(0, ("peak_rss_mib", kib as f64 / 1024.0, "MiB", Lower));
            }
            out.point(Wall, point, &rows);
        }
        let fp32 = f64::from(fingerprint.expect("SAMPLES > 0"));
        out.point(Sim, point, &[("ledger_fp32", fp32, "u32", Lower)]);
    }
    Ok(out)
}

fn main() -> ExitCode {
    // `cargo bench` appends `--bench`; nothing else is accepted silently.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|arg| arg == "--quick");
    if let Some(at) = args.iter().position(|arg| arg == "--point") {
        run_point(args.get(at + 1).map_or("", String::as_str), quick);
        return ExitCode::SUCCESS;
    }
    let known = |arg: &&String| matches!(arg.as_str(), "--quick" | "--bench");
    if let Some(other) = args.iter().find(|arg| !known(arg)) {
        eprintln!("error: unknown argument {other:?}");
        return ExitCode::FAILURE;
    }
    banner("Footprint: peak RSS and wall time of one simulation, per point");
    match measure_all(quick) {
        Ok(out) => {
            save_rows(&out);
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
