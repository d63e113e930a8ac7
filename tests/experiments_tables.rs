//! EXPERIMENTS.md renders its tables from the committed
//! `results/BENCH_*.json` and `BENCH_sat.json` artifacts. These tests
//! keep the prose from drifting away from them.

use std::path::Path;

use simgen_obs::Json;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The cells after the label of the first table row starting with
/// `label` inside the section headed `section`.
fn table_row(doc: &str, section: &str, label: &str) -> Vec<String> {
    let start = doc
        .find(section)
        .unwrap_or_else(|| panic!("no section {section:?}"));
    let body = &doc[start..];
    let end = body[section.len()..]
        .find("\n## ")
        .map_or(body.len(), |i| i + section.len());
    let line = body[..end]
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no row {label:?} in {section:?}"));
    line.split('|')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .skip(1)
        .map(String::from)
        .collect()
}

/// The first number in a rendered cell such as `**0.649 (−35.1 %)**`.
fn leading_number(cell: &str) -> &str {
    let cell = cell.trim_start_matches('*');
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(cell.len());
    &cell[..end]
}

#[test]
fn table1_ours_cost_row_matches_the_artifact() {
    let doc = repo_file("EXPERIMENTS.md");
    let report = Json::parse(&repo_file("results/BENCH_table1.json")).expect("valid json");
    let metrics = report.get("metrics").expect("metrics section");
    let cells = table_row(&doc, "## Table 1", "| **ours** cost");
    let keys = ["revs", "si_rd", "ai_rd", "ai_dc", "ai_dc_mffc"];
    assert_eq!(cells.len(), keys.len(), "one cell per strategy: {cells:?}");
    for (cell, key) in cells.iter().zip(keys) {
        let ratio = metrics
            .get(&format!("cost_ratio_{key}"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("cost_ratio_{key} missing"));
        assert_eq!(
            leading_number(cell),
            format!("{ratio:.3}"),
            "EXPERIMENTS.md Table 1 cost of {key} vs results/BENCH_table1.json"
        );
    }
    // The headline change of the paper's SimGen, e.g. "(−35.1 %)".
    let simgen = metrics
        .get("cost_ratio_ai_dc_mffc")
        .and_then(Json::as_f64)
        .expect("cost_ratio_ai_dc_mffc");
    let headline = format!("({:+.1} %)", (simgen - 1.0) * 100.0).replace('-', "\u{2212}");
    assert!(
        cells[4].contains(&headline),
        "{:?} should show {headline}",
        cells[4]
    );
}

#[test]
fn table1_ours_time_row_matches_the_artifact() {
    let doc = repo_file("EXPERIMENTS.md");
    let report = Json::parse(&repo_file("results/BENCH_table1.json")).expect("valid json");
    let metrics = report.get("metrics").expect("metrics section");
    let cells = table_row(&doc, "## Table 1", "| **ours** sim RT");
    let keys = ["revs", "si_rd", "ai_rd", "ai_dc", "ai_dc_mffc"];
    assert_eq!(cells.len(), keys.len(), "one cell per strategy: {cells:?}");
    let ratio = |key: &str| {
        metrics
            .get(&format!("time_ratio_{key}"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("time_ratio_{key} missing"))
    };
    for (cell, key) in cells.iter().zip(keys) {
        assert_eq!(
            leading_number(cell),
            format!("{:.3}", ratio(key)),
            "EXPERIMENTS.md Table 1 sim RT of {key} vs results/BENCH_table1.json"
        );
    }
    // The headline overhead of the paper's SimGen, e.g. "(+835.4 %)".
    let headline = format!("({:+.1} %)", (ratio("ai_dc_mffc") - 1.0) * 100.0);
    assert!(
        cells[4].contains(&headline),
        "{:?} should show {headline}",
        cells[4]
    );
}

/// A rendered count such as `63 812` (digits grouped by spaces).
fn count(cell: &str) -> u64 {
    cell.replace(' ', "")
        .parse()
        .unwrap_or_else(|_| panic!("not a count: {cell:?}"))
}

#[test]
fn sat_reuse_table_matches_the_artifact() {
    let doc = repo_file("EXPERIMENTS.md");
    let report = Json::parse(&repo_file("BENCH_sat.json")).expect("valid json");
    let metrics = report.get("metrics").expect("metrics section");
    let metric = |key: &str| {
        metrics
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{key} missing from BENCH_sat.json"))
    };
    let section = "## SAT clause reuse";
    for mode in ["warm", "cold"] {
        let cells = table_row(&doc, section, &format!("| {mode} |"));
        let keys = ["sat_calls", "sat_ms", "conflicts", "learned"];
        assert_eq!(cells.len(), keys.len(), "{mode}: {cells:?}");
        for (cell, key) in cells.iter().zip(keys) {
            assert_eq!(
                count(cell),
                metric(&format!("{mode}_{key}")).round() as u64,
                "EXPERIMENTS.md sat_reuse {mode} {key} vs BENCH_sat.json"
            );
        }
    }
    // The headline, e.g. "**56 922 conflicts (89.2 %)**", which the
    // prose wraps across a line break.
    let digits = (metric("conflicts_saved") as u64).to_string();
    let groups: Vec<&str> = digits
        .as_bytes()
        .rchunks(3)
        .rev()
        .map(|d| std::str::from_utf8(d).expect("ascii digits"))
        .collect();
    let headline = format!(
        "**{} conflicts ({:.1} %)**",
        groups.join(" "),
        metric("conflicts_saved_frac") * 100.0
    );
    let start = doc.find(section).expect("sat_reuse section");
    assert!(
        doc[start..].replace('\n', " ").contains(&headline),
        "EXPERIMENTS.md sat_reuse should state {headline:?}"
    );
}

#[test]
fn figure7_final_costs_match_the_artifact() {
    let doc = repo_file("EXPERIMENTS.md");
    let report = Json::parse(&repo_file("results/BENCH_figure7.json")).expect("valid json");
    let metrics = report.get("metrics").expect("metrics section");
    for bmk in ["apex2", "cps"] {
        let cells = table_row(&doc, "## Figure 7", &format!("| {bmk} |"));
        let strategies = ["rands", "rands_revs", "rands_simgen"];
        assert_eq!(cells.len(), strategies.len(), "{bmk}: {cells:?}");
        for (cell, strategy) in cells.iter().zip(strategies) {
            let key = format!("{bmk}_{strategy}_final_cost");
            let cost = metrics
                .get(&key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{key} missing"));
            assert_eq!(
                leading_number(cell),
                cost.to_string(),
                "EXPERIMENTS.md Figure 7 vs results/BENCH_figure7.json {key}"
            );
        }
    }
}
