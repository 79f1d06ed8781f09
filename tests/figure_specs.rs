//! The paper's figures and the scenario library are data: every
//! `figures/*.json` spec parses, and each grid expands to the runs its figure
//! makes; every `scenarios/*.json` and `scenarios/nightly/*.json` spec
//! parses under a name no other spec in its directory has (no run is
//! executed).

use std::path::Path;

use bamboo_core::{Figure, Scenario};
use bamboo_types::Json;

#[test]
fn every_shipped_scenario_spec_parses_under_a_name_unique_in_its_directory() {
    for dir in ["scenarios", "scenarios/nightly"] {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("the spec directory exists")
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| {
                let text = std::fs::read_to_string(&path).unwrap();
                let spec = Scenario::parse(&text);
                spec.unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                    .name
            })
            .collect();
        assert!(names.len() >= 3, "{}: {names:?}", dir.display());
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "{}: a name is shared", dir.display());
    }
}

#[test]
fn every_figure_spec_parses_into_its_run_count() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("figures");
    let mut counts: Vec<(String, usize)> = std::fs::read_dir(&dir)
        .expect("figures/ exists")
        .map(|entry| {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let figure = Figure::from_json(&doc).unwrap_or_else(|e| panic!("{e}"));
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            assert_eq!(
                figure.name, stem,
                "a figure's rows are named after its file"
            );
            let runs = figure.points.iter().map(|s| s.protocols.len()).sum();
            (figure.name.clone(), runs)
        })
        .collect();
    counts.sort();
    let expected = [
        ("fig10_payload_sizes", 72),
        ("fig11_network_delays", 63),
        ("fig12_scalability", 45),
        ("fig13_forking_attack", 18),
        ("fig14_silence_attack", 18),
        ("fig9_block_sizes", 72),
        ("scalability_large_n", 12),
        ("table2_arrival_vs_throughput", 7),
    ];
    let expected: Vec<(String, usize)> = (expected.iter())
        .map(|&(name, runs)| (name.to_string(), runs))
        .collect();
    assert_eq!(counts, expected);
}

/// fig12's and the large-n sweep's offered loads are written as the `f64`
/// the formula gives, so they read back bit-equal.
#[test]
fn scaled_offered_loads_read_back_bit_equal() {
    for name in ["fig12_scalability", "scalability_large_n"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("figures/{name}.json"));
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for scenario in Figure::from_json(&doc).unwrap().points {
            let config = scenario.build(false).0;
            let rate = 60_000.0 / (config.nodes as f64 / 4.0).sqrt();
            assert_eq!(config.arrival_rate.map(f64::to_bits), Some(rate.to_bits()));
        }
    }
}
