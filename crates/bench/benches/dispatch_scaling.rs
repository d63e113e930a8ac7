//! Scaling of the parallel proof-dispatch engine: the same sweep run
//! at `--jobs` 1, 2, 4 and 8 on 42-suite circuits miter'd against
//! restructured variants of themselves. The proof outcomes are
//! identical at every worker count (the dispatch engine is
//! scheduling-invariant), so any wall-time difference is pure
//! parallel speedup of the SAT-resolution phase.
//!
//! Accepts `--jobs N` after `cargo bench ... --` (0 = auto-detect,
//! the CLI convention); the resolved count joins the default 1/2/4/8
//! sweep when not already in it.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use simgen_bench::{jobs_arg, write_bench_report, BenchReport, Json};
use simgen_cec::{BudgetSchedule, RunContext, SweepConfig, Sweeper};
use simgen_core::{SimGen, SimGenConfig};
use simgen_mapping::map_to_luts;
use simgen_netlist::LutNetwork;
use simgen_workloads::{build_aig, rewrite::restructure};

/// A benchmark miter'd against a restructured copy of itself — the
/// standard sweep workload with many provable candidate pairs.
fn workload(name: &str, seed: u64) -> LutNetwork {
    let aig = build_aig(name).expect("known benchmark");
    let variant = restructure(&aig, 0.5, seed);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    simgen_netlist::miter::combine(&left, &right)
        .expect("matched interfaces")
        .network
}

fn sweep_config(jobs: usize) -> SweepConfig {
    SweepConfig {
        // A short guided phase leaves plenty of candidate pairs for
        // the proof phase — the part that parallelises.
        guided_iterations: 2,
        jobs,
        budget_schedule: Some(BudgetSchedule::default()),
        seed: 0xD15,
        ..SweepConfig::default()
    }
}

fn run_once(net: &LutNetwork, jobs: usize) -> u64 {
    let mut gen = SimGen::new(SimGenConfig::default().with_seed(1));
    let report = Sweeper::new(sweep_config(jobs)).run(net, &mut gen, &mut RunContext::default());
    report.stats.proved_equivalent
}

fn bench_dispatch_scaling(c: &mut Criterion) {
    let mut sweep = vec![1usize, 2, 4, 8];
    if let Some(jobs) = jobs_arg() {
        if !sweep.contains(&jobs) {
            sweep.push(jobs);
            sweep.sort_unstable();
        }
    }
    let mut report = BenchReport::new("dispatch_scaling");
    report.param("benchmarks", Json::Str("e64, alu4".to_string()));
    report.param("guided_iterations", Json::U64(2));
    let mut group = c.benchmark_group("dispatch_scaling");
    group.sample_size(10);
    for name in ["e64", "alu4"] {
        let net = workload(name, 99);
        // One-shot wall-clock summary (the headline speedup number)
        // before the statistically sampled runs.
        let mut serial_time = None;
        for &jobs in &sweep {
            let t = Instant::now();
            let proved = run_once(&net, jobs);
            let elapsed = t.elapsed();
            let speedup = serial_time.get_or_insert(elapsed).as_secs_f64() / elapsed.as_secs_f64();
            println!("{name}: jobs={jobs} {elapsed:?} ({proved} proved, {speedup:.2}x vs j=1)");
            report.metric(
                &format!("{name}_jobs{jobs}_ms"),
                Json::F64(elapsed.as_secs_f64() * 1e3),
            );
            report.metric(&format!("{name}_jobs{jobs}_speedup"), Json::F64(speedup));
        }
        for &jobs in &sweep {
            group.bench_with_input(BenchmarkId::new(name, jobs), &jobs, |b, &jobs| {
                b.iter(|| run_once(&net, jobs));
            });
        }
    }
    group.finish();
    let path = write_bench_report(&report, "BENCH_dispatch.json");
    println!("dispatch_scaling: wrote {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dispatch_scaling
}
criterion_main!(benches);
