//! Simulation throughput: compiled opcode kernels vs the original
//! cube-cover interpreter, plus the cone-restricted path, on a
//! >10k-node random LUT network. Simulation runs on one thread.
//!
//! Besides the criterion samples, the bench writes a one-shot summary
//! to `BENCH_sim.json` at the repository root (schema
//! `simgen-bench-report/2`): patterns/second for every mode, the
//! headline compiled-vs-interpreter speedup, and the SIMD speedup of
//! the widest supported kernel over the forced-scalar 64-bit path.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use simgen_bench::{write_bench_report, BenchReport, Json};
use simgen_netlist::{LutNetwork, NodeId, TruthTable};
use simgen_sim::{
    active_simd_level, reference_lanes, CompiledNet, PatternSet, SimResult, SimdLevel,
};

const NUM_LUTS: usize = 12_000;
const NUM_PIS: usize = 64;
const NUM_PATTERNS: usize = 4_096;
/// Roughly 5% of the nodes act as still-active sweep roots in the
/// cone-restricted mode.
const CONE_ROOT_STRIDE: usize = 20;

/// Deterministic random network: 12k LUTs of arity 1–6 over a pool
/// biased toward recent nodes (so depth grows and the Shannon tape
/// path is exercised alongside the fused fast paths).
fn big_net(seed: u64) -> LutNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = LutNetwork::new();
    let mut pool: Vec<NodeId> = (0..NUM_PIS).map(|i| net.add_pi(format!("p{i}"))).collect();
    for _ in 0..NUM_LUTS {
        let arity = rng.gen_range(1..=6usize);
        let mut fanins: Vec<NodeId> = Vec::with_capacity(arity);
        while fanins.len() < arity {
            // Bias toward the most recent quarter of the pool.
            let lo = if rng.gen_bool(0.5) {
                pool.len() - (pool.len() / 4).max(1)
            } else {
                0
            };
            let cand = pool[rng.gen_range(lo..pool.len())];
            if !fanins.contains(&cand) {
                fanins.push(cand);
            }
        }
        let arity = fanins.len();
        let tt = TruthTable::from_bits(arity, rng.gen()).expect("arity <= 6");
        pool.push(net.add_lut(fanins, tt).expect("topological"));
    }
    net.add_po(*pool.last().unwrap(), "f");
    net
}

/// Fastest of `reps` runs, as patterns per second.
fn best_pps<F: FnMut()>(reps: usize, patterns: usize, mut f: F) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    patterns as f64 / best.as_secs_f64()
}

fn write_summary(net: &LutNetwork, pats: &PatternSet) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let base = SimResult::empty(net); // compile once, outside timing
    let interp = best_pps(3, NUM_PATTERNS, || {
        std::hint::black_box(reference_lanes(net, pats));
    });
    let compiled = best_pps(5, NUM_PATTERNS, || {
        let mut s = base.clone();
        s.extend_patterns(net, pats);
        std::hint::black_box(&s);
    });
    let roots: Vec<NodeId> = net
        .node_ids()
        .filter(|n| !net.is_pi(*n))
        .step_by(CONE_ROOT_STRIDE)
        .collect();
    let cone = best_pps(5, NUM_PATTERNS, || {
        let mut s = base.clone();
        s.extend_patterns_cone(net, pats, &roots);
        std::hint::black_box(&s);
    });

    // Single-thread SIMD speedup: the same compiled kernel over the
    // full node order at the detected level vs pinned to scalar.
    let kernel = CompiledNet::compile(net);
    let order: Vec<NodeId> = net.node_ids().collect();
    let level = active_simd_level();
    let scalar_pps = best_pps(9, NUM_PATTERNS, || {
        std::hint::black_box(kernel.simulate_lanes_at(pats, &order, SimdLevel::Scalar));
    });
    let wide_pps = best_pps(9, NUM_PATTERNS, || {
        std::hint::black_box(kernel.simulate_lanes_at(pats, &order, level));
    });
    let simd_speedup = wide_pps / scalar_pps;

    let speedup = compiled / interp;
    let mut report = BenchReport::new("sim_throughput");
    report.param("nodes", Json::U64(net.len() as u64));
    report.param("patterns", Json::U64(NUM_PATTERNS as u64));
    report.param("cone_restricted_roots", Json::U64(roots.len() as u64));
    report.param("cores", Json::U64(cores as u64));
    report.metric("interpreter_patterns_per_sec", Json::F64(interp));
    report.metric("compiled_patterns_per_sec", Json::F64(compiled));
    report.metric("cone_restricted_patterns_per_sec", Json::F64(cone));
    report.metric("compiled_vs_interpreter_speedup", Json::F64(speedup));
    report.metric("simd_width", Json::U64(level.width_bits() as u64));
    report.metric("simd_speedup", Json::F64(simd_speedup));
    let path = write_bench_report(&report, "BENCH_sim.json");
    println!(
        "sim_throughput: compiled {speedup:.2}x vs interpreter; wrote {}",
        path.display()
    );
    print!("{}", report.to_pretty());
}

fn bench_sim_throughput(c: &mut Criterion) {
    let net = big_net(0x51B);
    let mut rng = StdRng::seed_from_u64(7);
    let pats = PatternSet::random(net.num_pis(), NUM_PATTERNS, &mut rng);

    write_summary(&net, &pats);

    let base = SimResult::empty(&net);
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("interpreter", |b| {
        b.iter(|| std::hint::black_box(reference_lanes(&net, &pats)))
    });
    group.bench_function("compiled", |b| {
        b.iter(|| {
            let mut s = base.clone();
            s.extend_patterns(&net, &pats);
            s
        })
    });
    let roots: Vec<NodeId> = net
        .node_ids()
        .filter(|n| !net.is_pi(*n))
        .step_by(CONE_ROOT_STRIDE)
        .collect();
    group.bench_function("cone_restricted", |b| {
        b.iter(|| {
            let mut s = base.clone();
            s.extend_patterns_cone(&net, &pats, &roots);
            s
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sim_throughput
}
criterion_main!(benches);
