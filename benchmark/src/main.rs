//! `bamboo-benchmark`: the repo benchmark. See `README.md` beside the
//! manifest for what is measured and why; `BENCHMARK.json` at the repo root
//! declares the metric names, units and bounds this binary must emit.

mod compare;
mod driver;
mod layers;
mod lockstep;
mod measured;
mod probes;
mod procfs;
mod report;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use bamboo_types::Json;

use report::{Outcome, Registry, RunId};
use spec::{Spec, WORKLOADS};

const USAGE: &str = "\
usage: bamboo-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out DIR]
       bamboo-benchmark run <name> [options]      measured run (--trace 0)
       bamboo-benchmark trace <name> [options]    per-layer run (--trace 1)
       bamboo-benchmark all [--runs K] [--measured-only] [options]
       bamboo-benchmark check [--out DIR]
       bamboo-benchmark compare <dirA> <dirB>";

/// Hard deadline for one child run of `all` (the contract's per-run cap).
const CHILD_DEADLINE: Duration = Duration::from_secs(180);

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: f64,
    out: PathBuf,
    runs: u64,
    measured_only: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 2021,
        seconds: None,
        trace: false,
        scale: 1.0,
        out: spec::out_dir(),
        runs: 1,
        measured_only: false,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => options.seed = number("--seed", value("--seed")?)?,
            "--seconds" => options.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => {
                options.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                }
            }
            "--scale" => options.scale = number("--scale", value("--scale")?)?,
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--runs" => options.runs = number("--runs", value("--runs")?)?,
            "--measured-only" => options.measured_only = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if !options.seconds.map_or(true, positive) || !positive(options.scale) {
        return Err("--seconds and --scale must be positive".to_string());
    }
    Ok(options)
}

/// One workload, one mode, in this process. Returns whether it was correct.
fn run_one(options: &Options, workload: &str, started: Instant) -> Result<bool, String> {
    let registry = Registry::load()?;
    let spec = Spec::load(workload)?;
    let seconds = options.seconds.unwrap_or(registry.run_seconds) * options.scale;
    let args = measured::RunArgs {
        seed: options.seed,
        seconds,
        scale: options.scale,
        setups: measured::SETUPS,
        started,
    };
    let durable_dir = options.out.join("tmp");
    let (mut outcome, spans): (Outcome, Option<Json>) = if options.trace {
        let (outcome, spans) = layers::run(&spec, &args, &durable_dir);
        (outcome, Some(spans))
    } else {
        (measured::run(&spec, &args, &durable_dir), None)
    };
    outcome.note(
        "host",
        report::host_facts(spec.durable().then_some(durable_dir.as_path())),
    );
    let _ = std::fs::remove_dir_all(&durable_dir);
    let run = RunId {
        workload,
        seed: options.seed,
        seconds,
        trace: options.trace,
        out_dir: &options.out,
    };
    Ok(report::finish(outcome, &registry, &run, spans))
}

/// Runs `program args` to completion or kills it at the deadline.
fn run_child(program: &Path, args: &[String]) -> Result<bool, String> {
    let mut child = Command::new(program)
        .args(args)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let deadline = Instant::now() + CHILD_DEADLINE;
    loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => return Ok(status.success()),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after {} s", CHILD_DEADLINE.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Every workload's measured and per-layer run, each a child process with a
/// hard deadline, so a wedged cluster fails one row instead of the suite.
fn run_all(options: &Options) -> Result<bool, String> {
    let program = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = options.seconds.unwrap_or(Registry::load()?.run_seconds);
    let mut clean = true;
    for run in 0..options.runs {
        let seed = options.seed + run;
        let out = if options.runs > 1 {
            options.out.join(format!("run-{seed}"))
        } else {
            options.out.clone()
        };
        for workload in WORKLOADS {
            for trace in [false, true] {
                if trace && options.measured_only {
                    continue;
                }
                let begin = Instant::now();
                let args: Vec<String> = [
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--scale",
                    &options.scale.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                    "--out",
                    &out.to_string_lossy(),
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                let status = match run_child(&program, &args) {
                    Ok(true) => "ok".to_string(),
                    Ok(false) => "FAILED".to_string(),
                    Err(why) => format!("FAILED ({why})"),
                };
                clean &= status == "ok";
                println!(
                    "== {workload} seed {seed} trace {} : {status} in {:.1} s",
                    u8::from(trace),
                    begin.elapsed().as_secs_f64()
                );
            }
        }
    }
    Ok(clean)
}

/// Determinism of the simulated clock, then every report under `--out`
/// against the names and units `BENCHMARK.json` declares.
fn check(options: &Options) -> Result<bool, String> {
    let registry = Registry::load()?;
    let mut clean = true;
    let mut fail = |what: String| {
        println!("check: {what}");
        clean = false;
    };

    let spec = Spec::load("sim-hs-n32-lan")?;
    let run = || {
        let args = measured::RunArgs {
            seed: options.seed,
            seconds: 2.0 / spec.sim_seconds_per_second,
            scale: 0.1,
            setups: 1,
            started: Instant::now(),
        };
        measured::run(&spec, &args, &options.out.join("tmp"))
    };
    let (first, second) = (run(), run());
    for name in [
        "commit_tput_tx_s",
        "commit_lat_p50_ms",
        "commit_lat_p99_ms",
        "driver.offered_tx",
        "replica.views_per_s",
        "replica.txs_per_block",
        "net.bytes_per_tx",
        "sim.events_per_tx",
        "sim.queue_peak_len",
        "sim.pending_tx_at_end",
        "sim.ledger_fp32",
    ] {
        match (first.get(name), second.get(name)) {
            (Some(a), Some(b)) if a == b => println!("check: {name} = {a} twice"),
            (a, b) => fail(format!("{name} differs between two runs: {a:?} vs {b:?}")),
        }
    }
    for violation in first.violations.iter().chain(&second.violations) {
        fail(format!("determinism run: {violation}"));
    }

    let files = if options.out.is_dir() {
        compare::report_files(&options.out)?
    } else {
        Vec::new()
    };
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let traced = doc.get("trace") == Some(&Json::Bool(true));
        let expected = if traced {
            &registry.per_layer
        } else {
            &registry.end_to_end
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            fail(format!("{}: no metrics object", path.display()));
            continue;
        };
        for def in expected {
            let metric = metrics.iter().find(|(name, _)| *name == def.name);
            let value = metric
                .and_then(|(_, m)| m.get("value"))
                .and_then(Json::as_f64);
            let unit = metric
                .and_then(|(_, m)| m.get("unit"))
                .and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) if v.is_finite() && v >= 0.0 && u == def.unit => {}
                _ => fail(format!(
                    "{}: {} is missing, NaN, negative or not in {}",
                    path.display(),
                    def.name,
                    def.unit
                )),
            }
        }
        for (name, _) in metrics {
            if !expected.iter().any(|def| def.name == *name) {
                fail(format!("{}: undeclared metric {name}", path.display()));
            }
        }
    }
    println!("check: {} report file(s) validated", files.len());
    Ok(clean)
}

fn dispatch(started: Instant) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = parse(&args)?;
    let command = match (&options.workload, options.positional.first()) {
        (Some(_), None) => "driver".to_string(),
        (None, Some(command)) => command.clone(),
        _ => return Err(USAGE.to_string()),
    };
    let operand = |index: usize| {
        options
            .positional
            .get(index)
            .cloned()
            .ok_or_else(|| USAGE.to_string())
    };
    match command.as_str() {
        "driver" => {
            let workload = options.workload.clone().expect("matched above");
            run_one(&options, &workload, started)
        }
        "run" | "trace" => {
            options.trace = command == "trace";
            run_one(&options, &operand(1)?, started)
        }
        "all" => run_all(&options),
        "check" => check(&options),
        "compare" => compare::run(
            &Registry::load()?,
            Path::new(&operand(1)?),
            Path::new(&operand(2)?),
        ),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match dispatch(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
