//! Micro-benchmarks of SimGen's inner kernels: implication passes,
//! decision steps, reverse-simulation attempts and whole-vector
//! generation — the operations whose cost Table 1's "simulation
//! runtime" column aggregates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use simgen_core::engine::InputVectorGenerator;
use simgen_core::implication::{Implicator, Propagation};
use simgen_core::revsim::reverse_simulate;
use simgen_core::{DecisionStrategy, ImplicationStrategy, Value, ValueMap};
use simgen_netlist::{LutNetwork, NodeId};
use simgen_workloads::benchmark_network;

fn deep_targets(net: &LutNetwork, count: usize) -> Vec<NodeId> {
    let mut luts: Vec<NodeId> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();
    luts.sort_by_key(|&n| std::cmp::Reverse(net.level(n)));
    luts.truncate(count);
    luts
}

fn bench_implication(c: &mut Criterion) {
    let net = benchmark_network("apex2", 6).expect("known benchmark");
    let targets = deep_targets(&net, 8);
    let mut group = c.benchmark_group("implication");
    for strategy in [ImplicationStrategy::Simple, ImplicationStrategy::Advanced] {
        group.bench_with_input(
            BenchmarkId::new("propagate_from_target", format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                let mut implicator = Implicator::new(&net);
                let mut values = ValueMap::new(net.len());
                b.iter(|| {
                    let mut total = 0usize;
                    for &t in &targets {
                        values.clear();
                        values.assign(t, Value::One);
                        if let Propagation::Quiescent(n) =
                            implicator.propagate(&mut values, &[t], strategy, None)
                        {
                            total += n;
                        }
                    }
                    total
                });
            },
        );
    }
    group.finish();
}

fn bench_vector_generation(c: &mut Criterion) {
    let net = benchmark_network("apex2", 6).expect("known benchmark");
    let targets = deep_targets(&net, 6);
    let golds: Vec<(NodeId, bool)> = targets
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i % 2 == 1))
        .collect();
    let mut group = c.benchmark_group("vector_generation");
    for (label, imp, dec) in [
        (
            "SI+RD",
            ImplicationStrategy::Simple,
            DecisionStrategy::Random,
        ),
        (
            "AI+RD",
            ImplicationStrategy::Advanced,
            DecisionStrategy::Random,
        ),
        ("AI+DC", ImplicationStrategy::Advanced, DecisionStrategy::Dc),
        (
            "AI+DC+MFFC",
            ImplicationStrategy::Advanced,
            DecisionStrategy::DcMffc,
        ),
    ] {
        group.bench_function(label, |b| {
            let mut engine = InputVectorGenerator::new(&net);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| engine.generate(&golds, imp, dec, 100.0, 1.0, &mut rng));
        });
    }
    group.bench_function("RevS_pair_attempt", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| reverse_simulate(&net, (targets[0], targets[1]), &mut rng));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_implication, bench_vector_generation
}
criterion_main!(benches);
