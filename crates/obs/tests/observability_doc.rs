//! `docs/observability.md` against the schema it documents: its
//! Counters table names exactly the counters every report carries, in
//! report order, and its worked example is a valid report of the
//! current schema.

use std::path::PathBuf;

use simgen_obs::{Counter, Json, RunReport};

fn doc() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/observability.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The text under `heading`, up to the next heading of any level.
fn section<'d>(doc: &'d str, heading: &str) -> &'d str {
    let start = doc
        .find(&format!("\n{heading}\n"))
        .unwrap_or_else(|| panic!("no `{heading}` section"));
    let rest = &doc[start + heading.len() + 2..];
    &rest[..rest.find("\n#").unwrap_or(rest.len())]
}

#[test]
fn counters_table_names_every_counter_in_report_order() {
    let doc = doc();
    let documented: Vec<&str> = section(&doc, "### Counters")
        .lines()
        .filter(|row| row.starts_with("| `"))
        .flat_map(|row| {
            let first_cell = row.split('|').nth(1).expect("a table row");
            first_cell.split('`').skip(1).step_by(2)
        })
        .collect();
    let counters: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(documented, counters);
}

#[test]
fn worked_example_is_a_valid_report_of_the_current_schema() {
    let doc = doc();
    let example = section(&doc, "## Worked example");
    let start = example.find("```json\n").expect("a json block") + "```json\n".len();
    let len = example[start..].find("```").expect("a closed json block");
    let report = Json::parse(&example[start..start + len]).expect("the example parses");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some(RunReport::SCHEMA)
    );
    RunReport::validate(&report).expect("the example is schema-valid");
}
