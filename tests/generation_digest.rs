//! Pins the exact output of guided generation (Algorithm 1).
//!
//! Every SimGen configuration must keep making the same RNG draws and
//! the same assignments, so a change to the engine's internals (buffer
//! reuse, row lookup, MFFC depth) cannot move a class, a cost or a
//! report downstream. Two views are digested:
//!
//! * the vectors `SimGen::generate` hands a simulation-only sweep
//!   (`run_sat: false`) of two stacked benchmarks, plus the sweep's
//!   `cost_after_sim`;
//! * every field of the `GenResult`s of direct
//!   `InputVectorGenerator::generate` calls on the largest classes,
//!   including calls that conflicted, so the rollback path is pinned.
//!
//! On a mismatch the assertion prints the whole table that was
//! computed, so a deliberate change can be re-pinned in one edit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use simgen_suite::cec::{RunContext, SweepConfig, Sweeper};
use simgen_suite::core::engine::{GenResult, InputVectorGenerator};
use simgen_suite::core::{outgold, PatternGenerator, SimGen, SimGenConfig};
use simgen_suite::netlist::stack::put_on_top;
use simgen_suite::netlist::{LutNetwork, NodeId};
use simgen_suite::sim::{signal_probabilities, simulate, EquivClasses, PatternSet, SimResult};
use simgen_suite::workloads::benchmark_network;

/// 64-bit FNV-1a: a fixed, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn bits(&mut self, v: &[bool]) {
        self.u64(v.len() as u64);
        for &b in v {
            self.byte(u8::from(b));
        }
    }
}

/// Forwards to SimGen and digests every vector it returns.
struct Recorder {
    inner: SimGen,
    digest: Fnv,
    vectors: u64,
}

impl PatternGenerator for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn generate(&mut self, net: &LutNetwork, classes: &EquivClasses) -> Vec<Vec<bool>> {
        let vectors = self.inner.generate(net, classes);
        for v in &vectors {
            self.digest.bits(v);
        }
        self.vectors += vectors.len() as u64;
        vectors
    }

    fn observe_counterexample(&mut self, vector: &[bool]) {
        self.inner.observe_counterexample(vector);
    }

    fn observe_simulation(&mut self, sim: &SimResult) {
        self.inner.observe_simulation(sim);
    }
}

/// The four Table 1 variants and the two OUTgold extensions.
fn configs() -> [(&'static str, SimGenConfig); 6] {
    [
        ("SI+RD", SimGenConfig::simple_random()),
        ("AI+RD", SimGenConfig::advanced_random()),
        ("AI+DC", SimGenConfig::advanced_dc()),
        ("AI+DC+MFFC", SimGenConfig::advanced_dc_mffc()),
        (
            "topology",
            SimGenConfig::default().with_topology_aware_outgold(),
        ),
        ("adaptive", SimGenConfig::default().with_adaptive_outgold()),
    ]
}

fn networks() -> [(&'static str, LutNetwork); 2] {
    let stacked = |name: &str, copies: usize| {
        put_on_top(
            &benchmark_network(name, 6).expect("known benchmark"),
            copies,
        )
    };
    [
        ("b15_C2x2", stacked("b15_C2", 2)),
        ("arbiterx3", stacked("arbiter", 3)),
    ]
}

/// `(config, network, vectors, vector digest, cost_after_sim)` of a
/// simulation-only sweep, as computed before the engine's buffers
/// were made reusable.
const SWEEPS: [(&str, &str, u64, u64, u64); 12] = [
    ("SI+RD", "b15_C2x2", 2, 0xd519b58d5760d48c, 169),
    ("SI+RD", "arbiterx3", 11, 0x78573cdc02f2387c, 610),
    ("AI+RD", "b15_C2x2", 9, 0x6d01139a265a4b08, 90),
    ("AI+RD", "arbiterx3", 7, 0x3f0203723c0b1c06, 629),
    ("AI+DC", "b15_C2x2", 11, 0xb98fabfc1f7c441e, 90),
    ("AI+DC", "arbiterx3", 6, 0x6d39a43608e1e7a4, 627),
    ("AI+DC+MFFC", "b15_C2x2", 8, 0x63691afb6dc7e4d9, 101),
    ("AI+DC+MFFC", "arbiterx3", 8, 0x87da8631e4f7224f, 624),
    ("topology", "b15_C2x2", 13, 0x4270331c5204d4d0, 92),
    ("topology", "arbiterx3", 6, 0x1875884372554a4b, 628),
    ("adaptive", "b15_C2x2", 14, 0x05b4f1ac02791c51, 57),
    ("adaptive", "arbiterx3", 6, 0x97a290612c33e430, 627),
];

#[test]
fn sweep_vectors_and_costs_are_pinned() {
    let nets = networks();
    let mut got = Vec::new();
    for (label, cfg) in configs() {
        for (net_label, net) in &nets {
            let mut rec = Recorder {
                inner: SimGen::new(cfg.clone()),
                digest: Fnv::new(),
                vectors: 0,
            };
            let sweep = SweepConfig {
                run_sat: false,
                ..SweepConfig::default()
            };
            let report = Sweeper::new(sweep).run(net, &mut rec, &mut RunContext::default());
            got.push((
                label,
                *net_label,
                rec.vectors,
                rec.digest.0,
                report.cost_after_sim,
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, n, v, d, cost)| format!("    ({c:?}, {n:?}, {v}, {d:#018x}, {cost}),\n"))
        .collect();
    assert_eq!(got, SWEEPS, "sweep digests moved; computed table:\n{table}");
}

/// Classes targeted per network by the direct engine calls.
const LARGEST_CLASSES: usize = 6;

fn digest_result(d: &mut Fnv, r: &GenResult) {
    d.u64(r.outcomes.len() as u64);
    for &o in &r.outcomes {
        d.byte(o as u8);
    }
    d.bits(&r.vector);
    d.u64(r.assignments as u64);
    d.u64(r.decisions as u64);
    d.u64(r.conflicts as u64);
}

/// `(config, network, digest of every GenResult, total conflicts)`.
const ENGINE_CALLS: [(&str, &str, u64, u64); 12] = [
    ("SI+RD", "b15_C2x2", 0x20a9bdd8699824df, 154),
    ("SI+RD", "arbiterx3", 0xa76239ca6b29fd6b, 292),
    ("AI+RD", "b15_C2x2", 0x8e8baceeffb5ff83, 87),
    ("AI+RD", "arbiterx3", 0x48c5a780c811dcfa, 121),
    ("AI+DC", "b15_C2x2", 0x798bc4178622f5c7, 72),
    ("AI+DC", "arbiterx3", 0xe3b1966f2eca92f9, 70),
    ("AI+DC+MFFC", "b15_C2x2", 0x136166a52407680e, 70),
    ("AI+DC+MFFC", "arbiterx3", 0x944aebce1fe959e0, 118),
    ("topology", "b15_C2x2", 0x8924ea41713fcce0, 125),
    ("topology", "arbiterx3", 0xdebf90e4e893bee2, 212),
    ("adaptive", "b15_C2x2", 0x507db05087373f78, 105),
    ("adaptive", "arbiterx3", 0xbec7903f43cac6d6, 185),
];

#[test]
fn engine_results_on_the_largest_classes_are_pinned() {
    let nets = networks();
    let mut got = Vec::new();
    for (label, cfg) in configs() {
        for (net_label, net) in &nets {
            let mut rng = StdRng::seed_from_u64(0x5EED);
            let patterns = PatternSet::random(net.num_pis(), 64, &mut rng);
            let sim = simulate(net, &patterns);
            let classes = EquivClasses::initial(net, &sim);
            let mut largest: Vec<&Vec<_>> = classes.classes().iter().collect();
            largest.sort_by_key(|c| std::cmp::Reverse(c.len()));
            largest.truncate(LARGEST_CLASSES);
            let probs = signal_probabilities(net);
            let observed: Vec<f64> = (0..sim.num_nodes())
                .map(|i| {
                    let sig = sim.signature(NodeId::from_index(i));
                    let ones: u32 = sig.iter().map(|w| w.count_ones()).sum();
                    f64::from(ones) / sim.num_patterns() as f64
                })
                .collect();
            let mut engine = InputVectorGenerator::new(net);
            let mut digest = Fnv::new();
            let mut conflicts = 0u64;
            // Two passes: the second runs on a warm engine, as
            // SimGen's class retries do.
            for class in largest.iter().chain(largest.iter()) {
                let targets = match label {
                    "topology" => outgold::topology_aware(class, &probs),
                    "adaptive" => outgold::adaptive(class, &observed),
                    _ => outgold::alternating(class),
                };
                let r = engine.generate(
                    &targets,
                    cfg.implication,
                    cfg.decision,
                    cfg.alpha,
                    cfg.beta,
                    &mut rng,
                );
                digest_result(&mut digest, &r);
                conflicts += r.conflicts as u64;
            }
            got.push((label, *net_label, digest.0, conflicts));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, n, d, k)| format!("    ({c:?}, {n:?}, {d:#018x}, {k}),\n"))
        .collect();
    assert_eq!(
        got, ENGINE_CALLS,
        "engine digests moved; computed table:\n{table}"
    );
    assert!(
        got.iter().any(|&(_, _, _, conflicts)| conflicts > 0),
        "no call conflicted, so the rollback path is not pinned"
    );
}
