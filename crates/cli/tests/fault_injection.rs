//! `--fault-seed` at the user surface (build with `--features
//! fault-inject`): seeded panics, stalls and spurious unknowns must
//! leave `simgen sweep` exiting 0, the per-worker dispatch rows must
//! add up to the totals, and the stripped report must not depend on
//! `--jobs`.

#![cfg(feature = "fault-inject")]

use std::process::Command;

use simgen_obs::{report::strip_nondeterministic, Json};

const BIN: &str = env!("CARGO_BIN_EXE_simgen");

#[test]
fn fault_plans_quarantine_soundly_and_jobs_invariantly() {
    let dir = std::env::temp_dir().join(format!("simgen_fault_seed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let aag = dir.join("e64.aag");
    let aag = aag.to_str().unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert!(out.status.success(), "simgen {args:?} failed: {out:?}");
    };
    run(&["bench", "e64", aag]);
    for seed in ["3", "5", "9"] {
        let mut stripped = Vec::new();
        for jobs in ["1", "2"] {
            let json = dir.join(format!("fault_{seed}_{jobs}.json"));
            let json = json.to_str().unwrap();
            run(&[
                "sweep",
                aag,
                "--iters",
                "3",
                "--fault-seed",
                seed,
                "--jobs",
                jobs,
                "--stats-json",
                json,
            ]);
            let mut report = Json::parse(&std::fs::read_to_string(json).unwrap()).unwrap();
            let dispatch = report.get("dispatch").expect("dispatch section");
            let totals = dispatch.get("totals").unwrap();
            let rows = dispatch.get("workers").unwrap().items().unwrap();
            let tag = format!("--fault-seed {seed} --jobs {jobs}");
            assert!(
                totals.get("panics").unwrap().as_u64().unwrap() > 0,
                "{tag}: the plan injects panics"
            );
            for column in ["proofs", "conflicts", "timeouts", "panics"] {
                let sum: u64 = rows
                    .iter()
                    .map(|row| row.get(column).unwrap().as_u64().unwrap())
                    .sum();
                assert_eq!(
                    Some(sum),
                    totals.get(column).unwrap().as_u64(),
                    "{tag}: worker rows of `{column}`"
                );
            }
            strip_nondeterministic(&mut report);
            stripped.push(report.to_pretty());
        }
        assert_eq!(stripped[0], stripped[1], "--fault-seed {seed}: jobs 1 vs 2");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
