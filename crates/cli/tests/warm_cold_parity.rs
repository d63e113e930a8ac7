//! Warm/cold parity at the user surface (docs/solving.md): `simgen
//! sweep` with the default incremental engine policy and with
//! `--no-incremental` must write the same engine-stripped run report,
//! at `--jobs` 1 and 2, and again under `--certify`. The reports are
//! compared after `simgen_obs::report::strip_engine_dependent`, the one
//! definition of which report keys are engine effort.

use std::path::{Path, PathBuf};
use std::process::Command;

use simgen_obs::{report::strip_engine_dependent, Json};

const BIN: &str = env!("CARGO_BIN_EXE_simgen");

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simgen_warm_cold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn simgen(args: &[&str]) {
    let out = Command::new(BIN).args(args).output().unwrap();
    assert!(out.status.success(), "simgen {args:?} failed: {out:?}");
}

fn engine_stripped(path: &Path) -> String {
    let mut json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    strip_engine_dependent(&mut json);
    json.to_pretty()
}

#[test]
fn warm_and_cold_sweeps_write_identical_stripped_reports() {
    let dir = temp_dir();
    for bmk in ["e64", "priority"] {
        let aag = dir.join(format!("{bmk}.aag"));
        let aag = aag.to_str().unwrap();
        simgen(&["bench", bmk, aag]);
        let sweep = |tag: &str, extra: &[&str]| {
            let json = dir.join(format!("{bmk}_{tag}.json"));
            let mut args = vec!["sweep", aag, "--iters", "3"];
            args.extend_from_slice(extra);
            args.extend_from_slice(&["--stats-json", json.to_str().unwrap()]);
            simgen(&args);
            engine_stripped(&json)
        };
        let reference = sweep("warm_1", &["--jobs", "1", "--engine-policy", "default"]);
        for jobs in ["1", "2"] {
            if jobs != "1" {
                let warm = sweep(
                    &format!("warm_{jobs}"),
                    &["--jobs", jobs, "--engine-policy", "default"],
                );
                assert_eq!(warm, reference, "{bmk}: warm at --jobs {jobs}");
            }
            let cold = sweep(
                &format!("cold_{jobs}"),
                &["--jobs", jobs, "--no-incremental"],
            );
            assert_eq!(cold, reference, "{bmk}: cold at --jobs {jobs}");
        }
        let certified = sweep("warm_cert", &["--certify"]);
        let cold = sweep("cold_cert", &["--certify", "--no-incremental"]);
        assert_eq!(cold, certified, "{bmk}: cold under --certify");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
