//! The bench artifact format, and the only module that knows it.
//!
//! Every producer under `crates/bench` — the four benches and the
//! `scenario` (figures included), `saturation` and `tcp_smoke` bins — records its numbers as
//! [`Row`]s in one [`RowFile`] and writes it with [`save_rows`] to
//! `target/bamboo-bench/<bench>.rows.json`. An artifact is a JSON array of
//! row files, one line per row:
//!
//! ```text
//! [
//! {"bench": "tcp_smoke", "tier": "quick", "host_cpus": 2, "seed": 2024, "rows": [
//!  {"name": "HS/n4/process/throughput", "value": 9852.6, "unit": "tx/s", "better": "higher", "clock": "wall"},
//!  {"name": "HS/n4/process/reconnects", "value": 0, "unit": "count", "better": "lower", "clock": "wall"}
//! ]}
//! ]
//! ```
//!
//! A producer's file holds one element; a `BENCH_prN.json` snapshot is the
//! same array with one element per producer, so [`load`] reads both. A name
//! repeated inside one file is a repeated sample of the same quantity.
//! [`crate::compare`] judges two sets of files; nothing else parses them.

use std::fmt::Write as _;
use std::path::Path;

use bamboo_types::Json;

macro_rules! labelled_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident = $label:literal),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name { $($(#[$vdoc])* $variant),+ }

        impl $name {
            /// The spelling used in the artifact.
            pub fn label(self) -> &'static str {
                match self { $(Self::$variant => $label),+ }
            }

            fn parse(label: &str) -> Option<Self> {
                match label { $($label => Some(Self::$variant),)+ _ => None }
            }
        }
    };
}

labelled_enum! {
    /// Which direction of a row's value is an improvement.
    Better {
        /// A rate or a ratio of useful work: larger is better.
        Higher = "higher",
        /// A latency, a cost or a fault count: smaller is better.
        Lower = "lower",
    }
}

labelled_enum! {
    /// What a row's value was measured against.
    Clock {
        /// The simulator's clock or a count it made: a function of the code,
        /// the configuration and the seed alone, so it repeats exactly.
        Sim = "sim",
        /// The host's clock: one draw from a distribution that depends on
        /// the machine and on what else it is running.
        Wall = "wall",
    }
}

labelled_enum! {
    /// The measurement tier a file was produced at; tiers never compare.
    Tier {
        /// The shortened `--quick` tier of a bin (gating CI).
        Quick = "quick",
        /// The full measurement windows (every bench; bins without `--quick`).
        Full = "full",
    }
}

impl Tier {
    /// The tier a bin's `--quick` flag selects.
    pub fn from_quick(quick: bool) -> Self {
        if quick {
            Tier::Quick
        } else {
            Tier::Full
        }
    }
}

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// What was measured, formatted by the producer that owns the fields it
    /// is made of (`HS/n32/o40000/throughput`). Stable across PRs.
    pub name: String,
    /// The measurement; always finite.
    pub value: f64,
    /// Unit of `value`; rows only compare under the same unit.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Whether the value repeats exactly or is a wall-clock draw.
    pub clock: Clock,
}

/// The rows of one producer run, under the header that says how to read them.
#[derive(Clone, Debug, PartialEq)]
pub struct RowFile {
    /// Producer name: the bench target or bin.
    pub bench: String,
    /// Measurement tier.
    pub tier: Tier,
    /// Cores of the host the file was produced on; wall-clock rows from
    /// hosts of different sizes are not comparable.
    pub host_cpus: usize,
    /// Base seed of the producer's configurations (0 where every scenario
    /// spec carries its own).
    pub seed: u64,
    /// The measurements, in the producer's order.
    pub rows: Vec<Row>,
}

impl RowFile {
    /// An empty file for `bench`, stamped with this host's core count.
    pub fn new(bench: &str, tier: Tier, seed: u64) -> Self {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            bench: bench.to_string(),
            tier,
            host_cpus,
            seed,
            rows: Vec::new(),
        }
    }

    /// Records one value under `name`.
    pub fn push(&mut self, clock: Clock, name: String, value: f64, unit: &str, better: Better) {
        self.rows.push(Row {
            name,
            value,
            unit: unit.to_string(),
            better,
            clock,
        });
    }

    /// Records several values of one measured point as `<key>/<metric>`
    /// rows, and prints the point as one line.
    pub fn point(&mut self, clock: Clock, key: &str, metrics: &[(&str, f64, &str, Better)]) {
        print!("{key:<20}");
        for &(metric, value, unit, better) in metrics {
            let digits = if value.fract() == 0.0 { 0 } else { 2 };
            print!("  {metric} = {value:.digits$} {unit}");
            self.push(clock, format!("{key}/{metric}"), value, unit, better);
        }
        println!();
    }
}

/// Writes `file` to `target/bamboo-bench/<bench>.rows.json`. Exits non-zero
/// if a value is not finite or the file cannot be written: a producer that
/// ran but left no artifact must not read as "nothing to diff".
pub fn save_rows(file: &RowFile) {
    if let Some(row) = file.rows.iter().find(|row| !row.value.is_finite()) {
        eprintln!("error: {}: row '{}' is not finite", file.bench, row.name);
        std::process::exit(1);
    }
    let text = render(std::slice::from_ref(file));
    crate::write_artifact(&format!("{}.rows.json", file.bench), &text);
}

/// Renders row files as one artifact: a JSON array, one line per row.
pub fn render(files: &[RowFile]) -> String {
    let quoted = |text: &str| Json::from(text).render_pretty().trim_end().to_string();
    let mut out = String::from("[\n");
    for (index, file) in files.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"bench\": {}, \"tier\": \"{}\", \"host_cpus\": {}, \"seed\": {}, \"rows\": [",
            quoted(&file.bench),
            file.tier.label(),
            file.host_cpus,
            file.seed
        );
        for (at, row) in file.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                " {{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": \"{}\", \"clock\": \"{}\"}}{}",
                quoted(&row.name),
                row.value,
                quoted(&row.unit),
                row.better.label(),
                row.clock.label(),
                if at + 1 < file.rows.len() { "," } else { "" }
            );
        }
        out.push_str(if index + 1 < files.len() {
            "]},\n"
        } else {
            "]}\n"
        });
    }
    out.push_str("]\n");
    out
}

/// Reads an artifact — one producer's file or a whole snapshot.
///
/// # Errors
///
/// Names the file and, inside it, the bench and row index of the first
/// thing that is not a well-formed row file.
pub fn load(path: &Path) -> Result<Vec<RowFile>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// [`load`] over text already in memory.
///
/// # Errors
///
/// As [`load`], without the file name.
pub fn parse(text: &str) -> Result<Vec<RowFile>, String> {
    let doc = Json::parse(text)?;
    let files = doc.as_array().ok_or("not an array of row files")?;
    files.iter().map(parse_file).collect()
}

fn text<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("'{key}' is missing or not a string"))
}

fn label<T>(doc: &Json, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
    let label = text(doc, key)?;
    parse(label).ok_or_else(|| format!("unknown '{key}' {label:?}"))
}

fn count(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("'{key}' is missing or not a whole number"))
}

fn parse_file(doc: &Json) -> Result<RowFile, String> {
    let bench = text(doc, "bench")?.to_string();
    let header = || -> Result<(Tier, u64, u64, &[Json]), String> {
        let rows = doc.get("rows").and_then(Json::as_array);
        Ok((
            label(doc, "tier", Tier::parse)?,
            count(doc, "host_cpus")?,
            count(doc, "seed")?,
            rows.ok_or("'rows' is missing or not an array")?,
        ))
    };
    let (tier, host_cpus, seed, rows) = header().map_err(|e| format!("{bench}: {e}"))?;
    let rows = (rows.iter().enumerate())
        .map(|(at, row)| parse_row(row).map_err(|e| format!("{bench} row {at}: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(RowFile {
        bench,
        tier,
        host_cpus: host_cpus as usize,
        seed,
        rows,
    })
}

fn parse_row(doc: &Json) -> Result<Row, String> {
    Ok(Row {
        name: text(doc, "name")?.to_string(),
        value: doc
            .get("value")
            .and_then(Json::as_f64)
            .filter(|value| value.is_finite())
            .ok_or("'value' is missing or not a finite number")?,
        unit: text(doc, "unit")?.to_string(),
        better: label(doc, "better", Better::parse)?,
        clock: label(doc, "clock", Clock::parse)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowFile {
        let mut file = RowFile::new("tcp_smoke", Tier::Quick, 2024);
        file.point(
            Clock::Wall,
            "HS/n4",
            &[("throughput", 9852.65, "tx/s", Better::Higher)],
        );
        file.push(
            Clock::Wall,
            "HS/n4/\"quoted\"".into(),
            0.0,
            "count",
            Better::Lower,
        );
        file.push(
            Clock::Sim,
            "HS/n4/goodput".into(),
            1e21,
            "tx/s",
            Better::Higher,
        );
        file
    }

    #[test]
    fn render_and_parse_round_trip_one_row_per_line() {
        let files = vec![sample(), RowFile::new("empty", Tier::Full, 0)];
        let text = render(&files);
        assert_eq!(parse(&text).unwrap(), files);
        // Header, three rows, closer; header and closer; the array brackets.
        assert_eq!(text.lines().count(), 5 + 2 + 2);
    }

    #[test]
    fn parse_rejects_malformed_files_by_bench_and_row_index() {
        let good = render(&[sample()]);
        let broken = |from: &str, to: &str| {
            assert!(good.contains(from), "fixture lost {from:?}");
            parse(&good.replacen(from, to, 1)).unwrap_err()
        };
        assert!(parse("{}").unwrap_err().contains("not an array"));
        assert!(broken("\"rows\"", "\"rowz\"").contains("tcp_smoke: 'rows'"));
        assert!(broken("\"tier\": \"quick\"", "\"tier\": \"fast\"").contains("unknown 'tier'"));
        assert!(broken("\"host_cpus\": ", "\"host_cpus\": -").contains("'host_cpus'"));
        // Each of the five fields, dropped from the second row (index 1).
        let row = good.lines().nth(3).unwrap();
        for field in ["name", "value", "unit", "better", "clock"] {
            let cut = row.replacen(&format!("\"{field}\""), "\"x\"", 1);
            let err = parse(&good.replacen(row, &cut, 1)).unwrap_err();
            assert!(
                err.contains("tcp_smoke row 1") && err.contains(&format!("'{field}'")),
                "{field}: {err}"
            );
        }
        assert!(
            broken("\"better\": \"lower\"", "\"better\": \"less\"").contains("unknown 'better'")
        );
        assert!(
            broken("\"clock\": \"sim\"", "\"clock\": \"cpu\"").contains("row 2: unknown 'clock'")
        );
        assert!(broken("\"value\": 0,", "\"value\": 1e999,").contains("row 1: 'value'"));
        assert!(broken("\"value\": 0,", "\"value\": null,").contains("row 1: 'value'"));
    }
}
