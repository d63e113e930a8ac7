//! Golden `RunReport`: a checked-in deterministic report under
//! `results/` that every build re-validates against the
//! `simgen-run-report/3` schema and regenerates bit-for-bit.
//!
//! The golden file is the anchor for the append-only perf trajectory:
//! if a change alters the deterministic form (field added, renamed,
//! reordered), this test fails and the schema version must be bumped
//! deliberately. Regenerate with:
//!
//! ```text
//! SIMGEN_BLESS=1 cargo test -p simgen-cec --test golden_report
//! ```

use std::path::PathBuf;

use simgen_cec::{design_info, sweep_run_report, RunContext, RunMeta, SweepConfig, Sweeper};
use simgen_core::{SimGen, SimGenConfig};
use simgen_mapping::map_to_luts;
use simgen_obs::{Json, Observer, RunReport};
use simgen_workloads::{build_aig, rewrite::restructure};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden_run_report.json")
}

/// The exact run the golden file was captured from: `e64` miter'd
/// against its own restructured variant, seed 11, two workers.
fn golden_run() -> String {
    let name = "e64";
    let seed = 11u64;
    let aig = build_aig(name).expect("known benchmark");
    let variant = restructure(&aig, 0.4, seed);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    let net = simgen_netlist::miter::combine(&left, &right)
        .expect("matched interfaces")
        .network;
    let cfg = SweepConfig {
        guided_iterations: 5,
        seed,
        jobs: 2,
        ..SweepConfig::default()
    };
    let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
    let mut ctx = RunContext {
        obs: Observer::enabled(),
        ..RunContext::default()
    };
    let report = Sweeper::new(cfg).run(&net, &mut gen, &mut ctx);
    let meta = RunMeta {
        command: "sweep".to_string(),
        argv: vec!["sweep".to_string(), "e64.blif".to_string()],
        design: design_info(&net, name, "e64.blif"),
    };
    sweep_run_report(meta, &cfg, &report, &ctx.obs).deterministic_json()
}

#[test]
fn golden_report_matches_and_validates() {
    let path = golden_path();
    let fresh = golden_run();

    if std::env::var_os("SIMGEN_BLESS").is_some() {
        std::fs::write(&path, &fresh).expect("write golden report");
        eprintln!("blessed {}", path.display());
    }

    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}; run with SIMGEN_BLESS=1 once", path.display()));

    // 1. The checked-in artifact still parses and satisfies the
    //    simgen-run-report/3 schema.
    let json = Json::parse(&on_disk).expect("golden report parses");
    RunReport::validate(&json).expect("golden report is schema-valid");

    // 2. The engine still reproduces it byte-for-byte: same seeds in,
    //    same deterministic form out, on any machine and worker count.
    assert_eq!(
        fresh, on_disk,
        "deterministic RunReport drifted from results/golden_run_report.json; \
         if the change is intentional, bless a new golden file"
    );
}
