//! Schema validation of the committed `BENCH_sim.json` artifact.
//!
//! The bench artifacts at the repository root are part of the perf
//! trajectory — CI diffs them across commits — so their shape is held
//! to the `simgen-bench-report/2` schema here, including the SIMD
//! metrics version 2 introduced. If `sim_throughput` ever
//! stops emitting a field this test names, the regression is caught
//! at test time, not when a CI diff silently loses a column.

use simgen_bench::{BenchReport, Json};

fn load_bench_sim() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).expect("BENCH_sim.json parses as JSON")
}

#[test]
fn bench_sim_validates_against_schema() {
    let json = load_bench_sim();
    BenchReport::validate(&json).expect("BENCH_sim.json is schema-valid");
    assert_eq!(
        json.get("name").and_then(Json::as_str),
        Some("sim_throughput")
    );
}

#[test]
fn bench_sim_has_throughput_and_simd_metrics() {
    let json = load_bench_sim();
    let metrics = json.get("metrics").expect("metrics object");
    for key in [
        "interpreter_patterns_per_sec",
        "compiled_patterns_per_sec",
        "cone_restricted_patterns_per_sec",
        "compiled_vs_interpreter_speedup",
        "simd_speedup",
    ] {
        let value = metrics
            .get(key)
            .unwrap_or_else(|| panic!("missing metric {key}"));
        assert!(
            value.as_f64().is_some() || value.as_u64().is_some(),
            "metric {key} is not a number"
        );
    }
    let width = metrics
        .get("simd_width")
        .and_then(Json::as_u64)
        .expect("simd_width is a u64");
    assert!(
        [64, 256, 512].contains(&width),
        "simd_width {width} is not a supported lane width"
    );
    let cores = json
        .get("params")
        .and_then(|p| p.get("cores"))
        .and_then(Json::as_u64)
        .expect("params.cores is a u64");
    assert!(cores >= 1);
}
