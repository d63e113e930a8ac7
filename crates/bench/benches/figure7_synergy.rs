//! Criterion harness behind **Figure 7**: the random→guided synergy
//! strategies on `apex2` and `cps`. Measures one whole simulation
//! phase per strategy (RandS, RandS→RevS, RandS→SimGen) and prints
//! final costs so the bench log mirrors the figure's endpoints.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use simgen_bench::{experiment_config, make_combined, make_generator, Strategy};
use simgen_cec::{RunContext, Sweeper};
use simgen_workloads::benchmark_network;

fn bench_figure7(c: &mut Criterion) {
    let cfg = experiment_config(false);
    let mut group = c.benchmark_group("figure7_strategies");
    for bmk in ["apex2", "cps"] {
        let net = benchmark_network(bmk, 6).expect("known benchmark");
        type GenCtor = fn(u64) -> Box<dyn simgen_core::PatternGenerator>;
        let variants: [(&str, GenCtor); 3] = [
            ("RandS", |s| make_generator(Strategy::Random, s)),
            ("RandS->RevS", |s| make_combined(Strategy::RevS, s)),
            ("RandS->SimGen", |s| make_combined(Strategy::AiDcMffc, s)),
        ];
        for (label, make) in variants {
            let mut gen = make(7);
            let r = Sweeper::new(cfg).run(&net, gen.as_mut(), &mut RunContext::default());
            println!("{bmk}/{label}: final cost {}", r.cost_after_sim);
            group.bench_with_input(BenchmarkId::new(bmk, label), &(), |b, ()| {
                b.iter(|| {
                    let mut gen = make(7);
                    Sweeper::new(cfg)
                        .run(&net, gen.as_mut(), &mut RunContext::default())
                        .cost_after_sim
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_figure7
}
criterion_main!(benches);
