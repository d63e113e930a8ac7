//! Warm-vs-cold SAT solving: what the assumption-scoped region
//! solvers buy over a fresh solver per pair (docs/solving.md).
//!
//! Sweeps a multi-region workload twice — once with the default
//! incremental engine policy, once with `--no-incremental` cold
//! solvers — and reports the effort delta. Verdicts are identical by
//! construction (the parity suite pins that); this binary measures
//! the efficiency claim and publishes it as `BENCH_sat.json`.
//!
//! ```text
//! cargo run --release -p simgen-bench --bin sat_reuse [-- --jobs N]
//! ```

use simgen_bench::{jobs_arg, write_bench_report, BenchReport, Json};
use simgen_cec::{EnginePolicy, RunContext, SweepConfig, Sweeper};
use simgen_core::{SimGen, SimGenConfig};
use simgen_mapping::map_to_luts;
use simgen_netlist::{miter::combine, LutNetwork, NodeId};
use simgen_obs::{Counter, Observer};
use simgen_workloads::{build_aig, rewrite::restructure};

/// One benchmark miter'd against its restructured self.
fn miter_of(name: &str, seed: u64) -> LutNetwork {
    let aig = build_aig(name).expect("known benchmark");
    let variant = restructure(&aig, 0.4, seed);
    combine(&map_to_luts(&aig, 6), &map_to_luts(&variant, 6))
        .expect("matched interfaces")
        .network
}

/// Appends `src` into `dst` as a structurally disjoint island, so its
/// cones form a separate fanin region with its own shared solver.
fn append_island(dst: &mut LutNetwork, src: &LutNetwork, tag: &str) {
    let mut map: Vec<Option<NodeId>> = vec![None; src.len()];
    for node in src.node_ids() {
        let new = if src.is_pi(node) {
            dst.add_pi(format!("{tag}_pi{}", node.index()))
        } else {
            let fanins: Vec<NodeId> = src
                .fanins(node)
                .iter()
                .map(|f| map[f.index()].expect("topological order"))
                .collect();
            dst.add_lut(fanins, *src.truth_table(node).expect("LUT"))
                .expect("valid LUT")
        };
        map[node.index()] = Some(new);
    }
    for po in src.pos() {
        dst.add_po(
            map[po.node.index()].expect("driver mapped"),
            format!("{tag}_{}", po.name),
        );
    }
}

struct ModeRow {
    sat_calls: u64,
    sat_ms: f64,
    conflicts: u64,
    learned: u64,
    scopes_opened: u64,
    clauses_reused: u64,
    warm_solves: u64,
}

fn run_mode(net: &LutNetwork, incremental: bool, jobs: usize) -> ModeRow {
    let cfg = SweepConfig {
        guided_iterations: 2,
        seed: 11,
        jobs,
        engine: EnginePolicy {
            incremental,
            ..EnginePolicy::default()
        },
        ..SweepConfig::default()
    };
    let mut gen = SimGen::new(SimGenConfig::default().with_seed(11));
    let mut ctx = RunContext {
        obs: Observer::enabled(),
        ..RunContext::default()
    };
    let report = Sweeper::new(cfg).run(net, &mut gen, &mut ctx);
    let obs = ctx.obs;
    assert!(!report.interrupted, "workload must run to completion");
    ModeRow {
        sat_calls: report.stats.sat_calls,
        sat_ms: report.stats.sat_time.as_secs_f64() * 1e3,
        conflicts: report.stats.solver.conflicts,
        learned: report.stats.solver.learned,
        scopes_opened: obs.recorder.get(Counter::ScopesOpened),
        clauses_reused: obs.recorder.get(Counter::ClausesReused),
        warm_solves: obs.recorder.get(Counter::WarmSolves),
    }
}

fn main() {
    let jobs = jobs_arg().unwrap_or(2);
    let mut net = miter_of("e64", 11);
    let second = miter_of("dec", 37);
    append_island(&mut net, &second, "dec");

    println!("Warm (incremental region solvers) vs cold (fresh solver per pair),");
    println!("two disjoint benchmark miters, jobs={jobs}:\n");
    let warm = run_mode(&net, true, jobs);
    let cold = run_mode(&net, false, jobs);

    println!(
        "{:>16} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "mode", "SAT calls", "SAT ms", "conflicts", "learned", "reused"
    );
    for (label, row) in [("warm", &warm), ("cold", &cold)] {
        println!(
            "{label:>16} {:>12} {:>12.2} {:>12} {:>12} {:>12}",
            row.sat_calls, row.sat_ms, row.conflicts, row.learned, row.clauses_reused
        );
    }
    let saved = cold.conflicts.saturating_sub(warm.conflicts);
    let frac = if cold.conflicts > 0 {
        saved as f64 / cold.conflicts as f64
    } else {
        0.0
    };
    println!(
        "\nwarm solves {} / {} scopes; conflicts saved {saved} ({:.1}%)",
        warm.warm_solves,
        warm.scopes_opened,
        frac * 100.0
    );

    let mut report = BenchReport::new("sat_reuse");
    report.param("workload", Json::Str("e64+dec miters (disjoint)".into()));
    report.param("luts", Json::U64(net.num_luts() as u64));
    report.param("jobs", Json::U64(jobs as u64));
    report.param("seed", Json::U64(11));
    for (label, row) in [("warm", &warm), ("cold", &cold)] {
        report.metric(&format!("{label}_sat_calls"), Json::U64(row.sat_calls));
        report.metric(&format!("{label}_sat_ms"), Json::F64(row.sat_ms));
        report.metric(&format!("{label}_conflicts"), Json::U64(row.conflicts));
        report.metric(&format!("{label}_learned"), Json::U64(row.learned));
    }
    report.metric("scopes_opened", Json::U64(warm.scopes_opened));
    report.metric("clauses_reused", Json::U64(warm.clauses_reused));
    report.metric("warm_solves", Json::U64(warm.warm_solves));
    report.metric("conflicts_saved", Json::U64(saved));
    report.metric("conflicts_saved_frac", Json::F64(frac));
    let path = write_bench_report(&report, "BENCH_sat.json");
    println!("wrote {}", path.display());
}
