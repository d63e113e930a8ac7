//! Benchmarks of the substrate layers: bit-parallel simulation,
//! class refinement, LUT mapping, cut enumeration, MFFC computation
//! and SAT proving — the infrastructure every experiment rides on.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use simgen_cec::PairProver;
use simgen_mapping::{enumerate_cuts, map_to_luts};
use simgen_netlist::mffc::MffcWalker;
use simgen_netlist::NodeId;
use simgen_sim::{simulate, EquivClasses, PatternSet, SimResult};
use simgen_workloads::{benchmark_network, build_aig};

fn bench_simulation(c: &mut Criterion) {
    let net = benchmark_network("pdc", 6).expect("known benchmark");
    let mut rng = StdRng::seed_from_u64(1);
    let patterns = PatternSet::random(net.num_pis(), 256, &mut rng);
    let mut group = c.benchmark_group("simulation");
    group.bench_function("word_parallel_256_patterns", |b| {
        b.iter(|| simulate(&net, &patterns));
    });
    group.bench_function("incremental_single_pattern", |b| {
        let mut sim = SimResult::empty(&net);
        sim.extend_patterns(&net, &patterns);
        let v = patterns.vector(0);
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut s = sim.clone();
            s.push_pattern_with(&net, &v, &mut scratch);
            s.num_patterns()
        });
    });
    group.bench_function("class_partition", |b| {
        let sim = simulate(&net, &patterns);
        b.iter(|| EquivClasses::initial(&net, &sim).cost());
    });
    group.finish();
}

fn bench_mapping(c: &mut Criterion) {
    let aig = build_aig("apex3").expect("known benchmark");
    let mut group = c.benchmark_group("mapping");
    group.bench_function("enumerate_cuts_k6", |b| {
        b.iter(|| enumerate_cuts(&aig, 6, 8).len());
    });
    group.bench_function("map_to_luts_k6", |b| {
        b.iter(|| map_to_luts(&aig, 6).num_luts());
    });
    group.finish();
}

fn bench_mffc(c: &mut Criterion) {
    let net = benchmark_network("i10", 6).expect("known benchmark");
    let luts: Vec<NodeId> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();
    c.bench_function("mffc_all_nodes", |b| {
        b.iter(|| {
            let mut walker = MffcWalker::new(&net);
            luts.iter()
                .map(|&n| walker.mffc(&net, n).size())
                .sum::<usize>()
        });
    });
}

fn bench_sat_prove(c: &mut Criterion) {
    // Prove equivalence of the deepest same-signature pair of a
    // combined original/restructured instance.
    let inst = simgen_workloads::cec_instance("e64", 6).expect("known benchmark");
    let net = inst.combined;
    let mut rng = StdRng::seed_from_u64(2);
    let patterns = PatternSet::random(net.num_pis(), 64, &mut rng);
    let sim = simulate(&net, &patterns);
    let classes = EquivClasses::initial(&net, &sim);
    let class = classes
        .classes()
        .iter()
        .max_by_key(|c| net.level(c[0]))
        .expect("classes exist")
        .clone();
    c.bench_function("sat_prove_pair", |b| {
        b.iter(|| {
            let mut prover = PairProver::new(&net);
            prover.prove(class[0], class[1], None)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_simulation, bench_mapping, bench_mffc, bench_sat_prove
}
criterion_main!(benches);
