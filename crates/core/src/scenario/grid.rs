//! A figure: one spec swept over a `grid` of partial specs.
//!
//! A point is the document with one entry of each axis written over it, key
//! by key and axis by axis, then read by the one spec reader: every spec key
//! is an axis, and a later axis overrides an earlier one. An entry's `tag`
//! is appended to the point's row key, which starts at the protocol label
//! (`HS` + `-b100` + `/o10000`). `rows` names what each run records.

use bamboo_types::{Config, Json};

use super::Scenario;
use crate::metrics::RunReport;

/// How a metric reads a run's report and the config the run had.
pub type Read = fn(&RunReport, &Config) -> f64;

/// A recorded quantity: name, unit, whether higher is better, and its reading.
pub type Metric = (&'static str, &'static str, bool, Read);

/// Every reading of a run a row or an `expect` bound (`min_<name>`,
/// `max_<name>`) may name, one name per reading ([`metric`]).
/// `tracking_error` is how far throughput strays from the `offered` load, in %;
/// `requests_per_admission` is how many client requests an admission step
/// took on average (DESIGN.md §5: one alone at an idle replica, the inbox
/// at a busy one).
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    ("throughput", "tx/s", true, |r, _| r.throughput_tx_per_sec),
    ("latency", "ms", false, |r, _| r.latency.mean_ms),
    ("latency_p99", "ms", false, |r, _| r.latency.p99_ms),
    ("latency_max", "ms", false, |r, _| r.latency.max_ms),
    ("client_p50", "ms", false, |r, _| r.client_latency.p50_ms),
    ("client_p99", "ms", false, |r, _| r.client_latency.p99_ms),
    ("pending_txs", "tx", false, |r, _| r.pending_txs as f64),
    ("admission_rejected", "tx", false, |r, _| r.mempool.rejected as f64),
    ("auth_rejections", "count", false, |r, _| r.rejected_messages as f64),
    ("duplicates_filtered", "count", false, |r, _| r.duplicates_filtered as f64),
    ("handoff_rehanded", "count", false, |r, _| r.mempool.rehanded as f64),
    ("requests_per_admission", "tx", true, |r, _| {
        r.admitted_requests as f64 / r.admissions.max(1) as f64
    }),
    ("chain_growth_rate", "ratio", true, |r, _| r.chain_growth_rate),
    ("block_interval", "views", false, |r, _| r.block_interval),
    ("forks_attempted", "count", false, |r, _| r.forks_attempted as f64),
    ("views_by_timeout", "count", false, |r, _| r.timeout_view_changes as f64),
    ("u_max", "ratio", false, |r, _| r.utilization.u_max),
    ("view_ms_qc", "ms", false, |r, _| r.utilization.view_qc.mean_ms),
    ("stage_dispatched_ms", "ms", false, |r, _| r.stages.dispatched.mean_ms),
    ("stage_certified_ms", "ms", false, |r, _| r.stages.certified.mean_ms),
    ("stage_committed_ms", "ms", false, |r, _| r.stages.committed.mean_ms),
    ("stage_confirmed_ms", "ms", false, |r, _| r.stages.confirmed.mean_ms),
    ("recovery_time_ms", "ms", false, |r, _| r.recovery.recovery_time_ms),
    ("log_replay_ms", "ms", false, |r, _| r.recovery.log_replay_ms),
    ("offered", "tx/s", true, |_, c| c.arrival_rate.unwrap_or(0.0)),
    ("tracking_error", "%", false, |r, c| {
        let rate = c.arrival_rate.unwrap_or(0.0);
        100.0 * (r.throughput_tx_per_sec - rate).abs() / rate
    }),
    ("blocks", "count", true, |r, _| r.committed_blocks as f64),
    ("events", "count", false, |r, _| r.events_processed as f64),
    ("queue_peak", "count", false, |r, _| r.queue_peak_len as f64),
    ("heap_peak", "count", false, |r, _| r.queue_heap_peak as f64),
];

/// What the `scenario` bin records for every run of a grid-less spec, in
/// order; a run that restarted a replica adds `recovery_time_ms` (amnesia) or
/// `log_replay_ms` (durable restart).
#[rustfmt::skip]
pub const SUITE_ROWS: [&str; 16] = [
    "throughput", "latency", "latency_p99", "latency_max", "pending_txs", "chain_growth_rate",
    "duplicates_filtered", "u_max", "view_ms_qc", "views_by_timeout", "handoff_rehanded",
    "stage_dispatched_ms", "stage_certified_ms", "stage_committed_ms", "stage_confirmed_ms",
    "requests_per_admission",
];

/// The [`METRICS`] entry named `name`.
pub fn metric(name: &str) -> Option<Metric> {
    METRICS.iter().copied().find(|m| m.0 == name)
}

/// A parsed figure: its points in grid order and what each run records.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Spec name, and the name of the figure's row file.
    pub name: String,
    /// The metrics every run records, in `rows` order.
    pub rows: Vec<Metric>,
    /// Each point's scenario, in grid order.
    pub points: Vec<Scenario>,
    /// Each point's tags, which its runs' row keys carry after the label.
    pub tags: Vec<String>,
}

impl Figure {
    /// Reads a figure document: a spec with a `grid` and `rows`.
    ///
    /// # Errors
    ///
    /// Names the field of the first violation: a `grid` that is not a list
    /// of non-empty lists of objects, a non-string `tag`, an empty or
    /// unknown `rows` entry, or any error of a point's spec.
    pub fn from_json(doc: &Json) -> Result<Figure, String> {
        let name = String::from(doc.get("name").and_then(Json::as_str).unwrap_or("figure"));
        let bad = |what: &str| format!("{name}: {what}");
        let axes = (doc.get("grid").and_then(Json::as_array))
            .ok_or_else(|| bad("\"grid\" must be an array of axes"))?;
        let listed = doc.get("rows").and_then(Json::as_array).unwrap_or_default();
        let rows = (listed.iter())
            .map(|row| row.as_str().and_then(metric))
            .collect::<Option<Vec<_>>>()
            .filter(|rows| !rows.is_empty())
            .ok_or_else(|| bad("\"rows\" must list known metrics"))?;
        let mut points = vec![(doc.clone(), String::new())];
        for axis in axes {
            let entries = (axis.as_array().filter(|entries| !entries.is_empty()))
                .ok_or_else(|| bad("every \"grid\" axis must be a non-empty array"))?;
            points = (points.iter())
                .flat_map(|(base, tags)| entries.iter().map(move |e| overlay(base, e, tags)))
                .collect::<Result<_, _>>()
                .map_err(|what| bad(&what))?;
        }
        let (docs, tags): (Vec<_>, Vec<_>) = points.into_iter().unzip();
        let points = (docs.iter().zip(&tags))
            .map(|(doc, tags)| Scenario::from_json(doc).map_err(|e| format!("{e} at {tags:?}")))
            .collect::<Result<_, _>>()?;
        Ok(Figure {
            name,
            rows,
            points,
            tags,
        })
    }
}

/// `base` with `entry`'s keys written over it, and `entry`'s `tag` appended
/// to `tags`.
fn overlay(base: &Json, entry: &Json, tags: &str) -> Result<(Json, String), String> {
    let (Json::Obj(fields), Json::Obj(entry)) = (base, entry) else {
        return Err("every \"grid\" entry must be an object".to_string());
    };
    let (mut fields, mut tags) = (fields.clone(), tags.to_string());
    for (key, value) in entry {
        if key == "tag" {
            tags += value.as_str().ok_or("\"tag\" must be a string")?;
            continue;
        }
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some(field) => field.1 = value.clone(),
            None => fields.push((key.clone(), value.clone())),
        }
    }
    Ok((Json::Obj(fields), tags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::SimDuration;

    const LATENCY: &str = r#"["latency"]"#;

    fn figure(grid: &str, rows: &str) -> Result<Figure, String> {
        Figure::from_json(&Json::parse(&format!(
            r#"{{"name":"f","protocols":["HS","SL"],"nodes":4,"runtime_ms":100,
                "workload":{{"open_loop_tx_per_sec":1}},"rows":{rows},"grid":{grid}}}"#
        ))?)
    }

    #[test]
    fn axes_expand_in_order_and_a_later_one_overrides() {
        let grid = r#"[[{"block_size":100,"tag":"-b100"},{"block_size":400,"tag":"-b400"}],
            [{"extra_delay_ms":5,"extra_delay_jitter_ms":1,"tag":"/d5"},{"block_size":7}]]"#;
        let figure = figure(grid, LATENCY).unwrap();
        let sizes: Vec<_> = (figure.points.iter().zip(&figure.tags))
            .map(|(scenario, tags)| format!("{}{tags}", scenario.build(false).0.block_size))
            .collect();
        assert_eq!(sizes.join(" "), "100-b100/d5 7-b100 400-b400/d5 7-b400");
        let (config, ms) = (figure.points[0].build(false).0, SimDuration::from_millis);
        assert_eq!(
            (config.extra_delay, config.extra_delay_jitter),
            (ms(5), ms(1))
        );
    }

    /// One reading has one name: no name is listed twice, and every row the
    /// `scenario` bin writes for a grid-less spec names an entry.
    #[test]
    fn every_table_name_is_unique_and_every_suite_row_resolves() {
        for (at, entry) in METRICS.iter().enumerate() {
            assert!(METRICS[..at].iter().all(|m| m.0 != entry.0), "{}", entry.0);
            assert_eq!(metric(entry.0).map(|m| m.1), Some(entry.1));
        }
        for name in SUITE_ROWS
            .iter()
            .chain(&["recovery_time_ms", "log_replay_ms"])
        {
            assert!(metric(name).is_some(), "{name}");
        }
        for twin in ["latency_mean", "cgr", "goodput", "timeout_view_changes"] {
            assert!(metric(twin).is_none(), "{twin}");
        }
    }

    #[test]
    fn refuses_a_malformed_grid_naming_the_field() {
        for (field, grid, rows) in [
            ("grid", "{}", LATENCY),
            ("grid", "[[]]", LATENCY),
            ("grid", "[[3]]", LATENCY),
            ("tag", r#"[[{"tag":1}]]"#, LATENCY),
            ("rows", "[[{}]]", r#"["goodput"]"#),
            ("rows", "[[{}]]", "[]"),
            ("extra_delay_ms", r#"[[{"extra_delay_ms":-5}]]"#, LATENCY),
            ("extra_delay_ms", r#"[[{"extra_delay_ms":1e999}]]"#, LATENCY),
            ("jitter", r#"[[{"extra_delay_jitter_ms":-1}]]"#, LATENCY),
        ] {
            let err = figure(grid, rows).expect_err(grid);
            assert!(err.contains(field), "{field}: {err}");
        }
    }
}
