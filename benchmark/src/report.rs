//! What a run hands back, and how it is printed.
//!
//! `BENCHMARK.json` at the repo root is the single registry of metric names,
//! units and bounds: a run may only emit names listed there, and the printer
//! walks that list, so the output cannot drift from the contract.

use std::path::{Path, PathBuf};

use bamboo_types::Json;

use crate::procfs;
use crate::spec::benchmark_dir;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Relative regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The largest share of the offered transactions a run may fail.
const MAX_FAIL_SHARE: f64 = 0.001;

/// The workload and metric lists of `BENCHMARK.json`.
pub struct Registry {
    /// `run_seconds`: the length of a run nobody sized.
    pub run_seconds: f64,
    /// The workloads the bounds are enforced on.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Registry {
    /// Reads `../BENCHMARK.json` relative to the benchmark package.
    pub fn load() -> Result<Registry, String> {
        let path = benchmark_dir().join("..").join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Registry, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            let items = doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing {key:?} array"))?;
            items
                .iter()
                .map(|item| {
                    let text = |field: &str| {
                        item.get(field)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {field:?}"))
                    };
                    Ok(MetricDef {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: match text("better")?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("BENCHMARK.json: better {other:?}")),
                        },
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: missing \"workloads\" array")?
            .iter()
            .filter_map(|item| item.get("name").and_then(Json::as_str))
            .map(str::to_string)
            .collect();
        Ok(Registry {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    fn knows(&self, name: &str) -> bool {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .any(|def| def.name == name)
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    values: Vec<(&'static str, f64)>,
    /// Transactions offered in the measurement window.
    pub attempted: u64,
    /// Offered but not committed within the drain grace, plus rejections.
    pub failed: u64,
    /// Broken correctness conditions; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Facts recorded beside the metrics in the report file.
    info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Requires `condition`, recording `what` as a violation otherwise.
    pub fn require(&mut self, condition: bool, what: impl Into<String>) {
        if !condition {
            self.violate(what);
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl Into<Json>) {
        self.info.push((key, value.into()));
    }
}

/// Identity of the run being reported.
pub struct RunId<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: &'a Path,
}

/// Facts about the host a number was taken on.
pub fn host_facts(durable_dir: Option<&Path>) -> Json {
    Json::obj([
        ("nproc", Json::from(procfs::nproc())),
        ("rustc", Json::from(procfs::rustc_version())),
        (
            "durable_dir_fs",
            durable_dir
                .and_then(procfs::fs_type)
                .map_or(Json::Null, Json::from),
        ),
    ])
}

/// One line of compact JSON: the driver reads the last stdout line.
fn render_compact(value: &Json, out: &mut String) {
    match value {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_compact(&Json::Str(key.clone()), out);
                out.push(':');
                render_compact(item, out);
            }
            out.push('}');
        }
        // Scalars never contain a newline in their pretty rendering.
        scalar => out.push_str(scalar.render_pretty().trim_end()),
    }
}

/// Validates the outcome against the registry, prints every metric of the
/// selected list by name with its unit, writes the report file, and prints
/// the result object as the last stdout line. Returns whether the run was
/// correct.
pub fn finish(
    mut outcome: Outcome,
    registry: &Registry,
    run: &RunId<'_>,
    spans: Option<Json>,
) -> bool {
    for (name, value) in &outcome.values {
        if !registry.knows(name) {
            outcome
                .violations
                .push(format!("metric {name} is not declared in BENCHMARK.json"));
        }
        if !value.is_finite() || *value < 0.0 {
            outcome
                .violations
                .push(format!("metric {name} = {value} is NaN or negative"));
        }
    }
    let (selected, other) = if run.trace {
        (&registry.per_layer, &registry.end_to_end)
    } else {
        (&registry.end_to_end, &registry.per_layer)
    };
    let mut metrics = Vec::with_capacity(selected.len());
    for def in selected {
        let value = match outcome.get(&def.name) {
            Some(value) => value,
            // A layer the workload bypasses reports 0; an end-to-end metric
            // must always be measured.
            None if run.trace => 0.0,
            None => {
                outcome
                    .violations
                    .push(format!("end-to-end metric {} was not measured", def.name));
                0.0
            }
        };
        println!("{:<34} {:>18.6} {}", def.name, value, def.unit);
        metrics.push((
            def.name.clone(),
            Json::obj([
                ("value", Json::from(value)),
                ("unit", Json::from(def.unit.as_str())),
            ]),
        ));
    }
    // Whatever the run measured from the other list rides along in the file.
    let counters: Vec<(String, Json)> = other
        .iter()
        .filter_map(|def| Some((def.name.clone(), Json::from(outcome.get(&def.name)?))))
        .collect();
    outcome.require(outcome.attempted >= 1, "no transaction was offered");
    let fail_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.require(
        fail_share <= MAX_FAIL_SHARE,
        format!("fail_share {fail_share:.6} above {MAX_FAIL_SHARE}"),
    );
    println!(
        "attempted {} failed {} fail_share {:.6}",
        outcome.attempted, outcome.failed, fail_share
    );
    for violation in &outcome.violations {
        println!("VIOLATION: {violation}");
    }
    let correct = outcome.violations.is_empty();
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);

    let mut file = vec![
        ("workload".to_string(), Json::from(run.workload)),
        ("seed".to_string(), Json::from(run.seed)),
        ("seconds".to_string(), Json::from(run.seconds)),
        ("trace".to_string(), Json::from(run.trace)),
        ("fail_share".to_string(), Json::from(fail_share)),
        (
            "violations".to_string(),
            Json::arr(outcome.violations.iter().map(|v| Json::from(v.as_str()))),
        ),
        ("counters".to_string(), Json::Obj(counters)),
    ];
    file.extend(outcome.info.iter().map(|(k, v)| (k.to_string(), v.clone())));
    if let Json::Obj(fields) = &result {
        file.extend(fields.iter().cloned());
    }
    if let Some(spans) = spans {
        file.push(("trace_spans".to_string(), spans));
    }
    let path = report_path(run);
    if let Err(e) = std::fs::create_dir_all(run.out_dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(file).render_pretty()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let mut line = String::new();
    render_compact(&result, &mut line);
    println!("{line}");
    correct
}

/// `<out>/<workload>.json`, or `<workload>.trace.json` for a traced run.
pub fn report_path(run: &RunId<'_>) -> PathBuf {
    let suffix = if run.trace { "trace.json" } else { "json" };
    run.out_dir.join(format!("{}.{suffix}", run.workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_one_parseable_line() {
        let value = Json::obj([
            ("correct", Json::from(true)),
            ("attempted", Json::from(1000u64)),
            (
                "metrics",
                Json::obj([(
                    "a\"b",
                    Json::obj([("value", Json::from(1.25)), ("unit", Json::from("ms"))]),
                )]),
            ),
            ("list", Json::arr([Json::Null, Json::from(2u64)])),
        ]);
        let mut line = String::new();
        render_compact(&value, &mut line);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), value);
    }

    #[test]
    fn registry_parses_the_contract_shape() {
        let registry = Registry::parse(
            r#"{"run_seconds": 10,
                "workloads": [{"name": "w1", "why": "because"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "x.y", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(registry.end_to_end[0].bound, Some(0.25));
        assert!(registry.end_to_end[0].lower_is_better);
        assert!(!registry.per_layer[0].lower_is_better);
        assert!(registry.knows("x.y") && !registry.knows("nope"));
        assert_eq!(registry.run_seconds, 10.0);
        assert_eq!(registry.workloads, ["w1"]);
        assert!(
            Registry::parse(r#"{"run_seconds": 10, "workloads": [], "end_to_end": []}"#).is_err()
        );
    }
}
