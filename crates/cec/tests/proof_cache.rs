//! The content-addressed proof cache under the sweeper and the CEC
//! flow: warm runs answer from the cache, the trust policy rejects
//! poisoned entries, and the `cache_*` counters obey the same
//! `--jobs`-invariance contract as everything else in the report.

use simgen_cache::{pair_key, CacheEntry, CachedVerdict, ProofCache};
use simgen_cec::{check_equivalence, CecVerdict, RunContext, SweepConfig, SweepReport, Sweeper};
use simgen_core::{SimGen, SimGenConfig};
use simgen_netlist::{LutNetwork, NodeId, TruthTable};
use simgen_obs::{Counter, Observer};

/// A network with three provably-equivalent AND variants plus a
/// near-miss lookalike pair, so warm runs exercise both cached
/// equivalences and cached counterexamples.
fn mixed_net() -> LutNetwork {
    let mut net = LutNetwork::new();
    let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
    let (a, b) = (pis[0], pis[1]);
    let and1 = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
    let and2 = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
    let na = net.add_lut(vec![a], TruthTable::not1()).unwrap();
    let nb = net.add_lut(vec![b], TruthTable::not1()).unwrap();
    let nor = net.add_lut(vec![na, nb], TruthTable::or2()).unwrap();
    let and3 = net.add_lut(vec![nor], TruthTable::not1()).unwrap();
    // Lookalikes that weak simulation tends to collide.
    let f1 = net
        .add_lut(pis.clone(), TruthTable::from_fn(6, |m| m.count_ones() >= 3))
        .unwrap();
    let f2 = net
        .add_lut(
            pis.clone(),
            TruthTable::from_fn(6, |m| m.count_ones() >= 3 || m == 0b000011),
        )
        .unwrap();
    net.add_po(and1, "x");
    net.add_po(and2, "y");
    net.add_po(and3, "z");
    net.add_po(f1, "f1");
    net.add_po(f2, "f2");
    net
}

fn tight_cfg() -> SweepConfig {
    SweepConfig {
        random_batch: 2,
        guided_iterations: 0,
        seed: 5,
        ..SweepConfig::default()
    }
}

/// Sweeps `net` under `cfg` against `cache`, counters on.
fn cached_sweep(net: &LutNetwork, cfg: SweepConfig, cache: &ProofCache) -> (SweepReport, Observer) {
    let mut gen = SimGen::new(SimGenConfig::default().with_seed(5));
    let mut ctx = RunContext {
        obs: Observer::enabled(),
        cache: Some(cache),
        ..RunContext::default()
    };
    let report = Sweeper::new(cfg).run(net, &mut gen, &mut ctx);
    (report, ctx.obs)
}

#[test]
fn warm_sweep_answers_from_the_cache() {
    let net = mixed_net();
    let cache = ProofCache::in_memory(1 << 20);
    let run = |cache: &ProofCache| cached_sweep(&net, tight_cfg(), cache);
    let (cold, cold_obs) = run(&cache);
    assert!(cold.stats.proved_equivalent >= 2, "workload sanity");
    assert_eq!(cold_obs.recorder.get(Counter::CacheHits), 0);
    assert!(cold_obs.recorder.get(Counter::CacheMisses) > 0);
    assert!(!cache.is_empty(), "cold run populates the cache");

    let (warm, warm_obs) = run(&cache);
    assert_eq!(warm.proven_classes, cold.proven_classes);
    assert_eq!(warm.stats.disproved, cold.stats.disproved);
    assert_eq!(warm.unresolved, cold.unresolved);
    assert_eq!(warm.stats.sat_calls, 0, "every pair answered by the cache");
    assert_eq!(
        warm_obs.recorder.get(Counter::CacheHits),
        cold_obs.recorder.get(Counter::CacheMisses),
        "warm hits cover exactly the cold misses"
    );
    assert_eq!(warm_obs.recorder.get(Counter::CacheMisses), 0);
    // Counterexample hits are replay-verified even without --certify.
    assert!(warm_obs.recorder.get(Counter::CacheReplays) >= warm.stats.disproved);
}

#[test]
fn warm_sweep_is_jobs_invariant_including_cache_counters() {
    let net = mixed_net();
    let cache = ProofCache::in_memory(1 << 20);
    // Warm the cache once, on one worker.
    cached_sweep(&net, tight_cfg(), &cache);
    let entries_before = cache.len();

    let run = |jobs: usize| {
        let cfg = SweepConfig {
            jobs,
            ..tight_cfg()
        };
        cached_sweep(&net, cfg, &cache)
    };
    let (r1, o1) = run(1);
    assert!(o1.recorder.get(Counter::CacheHits) > 0);
    assert_eq!(r1.stats.sat_calls, 0, "warm run dispatches nothing");
    for jobs in [2usize, 4] {
        let (rj, oj) = run(jobs);
        assert_eq!(rj.proven_classes, r1.proven_classes, "jobs={jobs}");
        assert_eq!(rj.unresolved, r1.unresolved, "jobs={jobs}");
        for c in [
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::CacheReplays,
            Counter::CacheEvictions,
        ] {
            assert_eq!(
                oj.recorder.get(c),
                o1.recorder.get(c),
                "jobs={jobs}: counter {} must be jobs-invariant",
                c.name()
            );
        }
        assert_eq!(cache.len(), entries_before, "warm runs add nothing");
    }
}

#[test]
fn structurally_identical_renumbered_network_still_hits() {
    let net_a = mixed_net();
    // The same logic rebuilt behind distractor nodes, shifting every id.
    let mut net_b = LutNetwork::new();
    let d0 = net_b.add_pi("d0");
    let d1 = net_b.add_pi("d1");
    let junk = net_b.add_lut(vec![d0, d1], TruthTable::xor2()).unwrap();
    net_b.add_po(junk, "junk");
    // Rebuild mixed_net by hand: same LUTs in the same order, but
    // every id shifted by the 3-node distractor prefix.
    let pis: Vec<NodeId> = (0..6).map(|i| net_b.add_pi(format!("p{i}"))).collect();
    let (a, b) = (pis[0], pis[1]);
    let and1 = net_b.add_lut(vec![a, b], TruthTable::and2()).unwrap();
    let and2 = net_b.add_lut(vec![b, a], TruthTable::and2()).unwrap();
    let na = net_b.add_lut(vec![a], TruthTable::not1()).unwrap();
    let nb = net_b.add_lut(vec![b], TruthTable::not1()).unwrap();
    let nor = net_b.add_lut(vec![na, nb], TruthTable::or2()).unwrap();
    let and3 = net_b.add_lut(vec![nor], TruthTable::not1()).unwrap();
    let f1 = net_b
        .add_lut(pis.clone(), TruthTable::from_fn(6, |m| m.count_ones() >= 3))
        .unwrap();
    let f2 = net_b
        .add_lut(
            pis.clone(),
            TruthTable::from_fn(6, |m| m.count_ones() >= 3 || m == 0b000011),
        )
        .unwrap();
    net_b.add_po(and1, "x");
    net_b.add_po(and2, "y");
    net_b.add_po(and3, "z");
    net_b.add_po(f1, "f1");
    net_b.add_po(f2, "f2");

    let cache = ProofCache::in_memory(1 << 20);
    let (cold, _) = cached_sweep(&net_a, tight_cfg(), &cache);
    assert!(cold.stats.proved_equivalent >= 2);

    // Same sweep on the renumbered twin: the content addresses match,
    // so the cache answers despite every NodeId differing.
    let (warm, obs) = cached_sweep(&net_b, tight_cfg(), &cache);
    assert!(
        obs.recorder.get(Counter::CacheHits) > 0,
        "renumbered cones must still hit"
    );
    assert_eq!(warm.stats.proved_equivalent, cold.stats.proved_equivalent);
}

/// Poisoned entries must never change a verdict: a garbage DRAT blob
/// is evicted under `--certify` and the pair re-proved live; a bogus
/// "not equivalent" witness fails its replay and is evicted in *every*
/// mode.
#[test]
fn poisoned_entries_are_evicted_and_reproved() {
    let net = mixed_net();
    // The two AND variants are genuinely equivalent; find their pair
    // key and poison it both ways.
    let and1 = net.pos()[0].node;
    let and2 = net.pos()[1].node;
    let (key, support) = pair_key(&net, and1, and2);

    // A wrong "not equivalent" claim with an all-false witness.
    let cache = ProofCache::in_memory(1 << 20);
    cache.insert(
        key,
        CacheEntry::pair(CachedVerdict::NotEquivalent {
            witness: vec![false; support.len()],
        }),
    );
    let (report, obs) = cached_sweep(&net, tight_cfg(), &cache);
    assert!(
        obs.recorder.get(Counter::CacheEvictions) >= 1,
        "the poisoned entry must be evicted"
    );
    assert!(
        report
            .proven_classes
            .iter()
            .any(|c| c.contains(&and1) && c.contains(&and2)),
        "the live proof must override the poisoned witness"
    );

    // A garbage proof blob under --certify: evicted, re-proved, and
    // replaced by an entry whose proof the checker accepts.
    let cache = ProofCache::in_memory(1 << 20);
    cache.insert(
        key,
        CacheEntry::pair(CachedVerdict::Equivalent {
            proof: b"not a proof".to_vec(),
        }),
    );
    let certify_cfg = SweepConfig {
        certify: true,
        ..tight_cfg()
    };
    let (report, obs) = cached_sweep(&net, certify_cfg, &cache);
    assert!(obs.recorder.get(Counter::CacheEvictions) >= 1);
    assert_eq!(report.stats.certification_failures, 0);
    assert!(report
        .proven_classes
        .iter()
        .any(|c| c.contains(&and1) && c.contains(&and2)));

    // The replacement entry carries a real proof: a second certified
    // run replays it instead of proving live.
    let (warm, obs) = cached_sweep(&net, certify_cfg, &cache);
    assert_eq!(obs.recorder.get(Counter::CacheEvictions), 0);
    assert!(obs.recorder.get(Counter::CacheReplays) > 0);
    assert_eq!(warm.stats.sat_calls, 0);
    assert_eq!(warm.proven_classes, report.proven_classes);
}

/// Entries written by a plain run carry no proof, so a certified run
/// must not trust them: it evicts, re-proves, and upgrades the entry.
#[test]
fn certify_does_not_trust_unproven_entries() {
    let net = mixed_net();
    let cache = ProofCache::in_memory(1 << 20);
    // Plain warm-up: entries stored without DRAT blobs.
    cached_sweep(&net, tight_cfg(), &cache);

    let certify_cfg = SweepConfig {
        certify: true,
        ..tight_cfg()
    };
    let (certified, obs) = cached_sweep(&net, certify_cfg, &cache);
    // Equivalences were evicted and re-proved with proofs; witnesses
    // replay fine and stay hits.
    assert!(obs.recorder.get(Counter::CacheEvictions) > 0);
    assert!(certified.stats.proved_equivalent >= 2);
    assert_eq!(certified.stats.certification_failures, 0);

    // Now the entries are certified: the next certified run is all hits.
    let (warm, obs) = cached_sweep(&net, certify_cfg, &cache);
    assert_eq!(warm.stats.sat_calls, 0);
    assert_eq!(obs.recorder.get(Counter::CacheMisses), 0);
    assert_eq!(warm.proven_classes, certified.proven_classes);
}

fn adder_pair() -> (LutNetwork, LutNetwork) {
    let mut n1 = LutNetwork::with_name("direct");
    let a = n1.add_pi("a");
    let b = n1.add_pi("b");
    let cin = n1.add_pi("cin");
    let s = n1
        .add_lut(
            vec![a, b, cin],
            TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1),
        )
        .unwrap();
    let c = n1
        .add_lut(
            vec![a, b, cin],
            TruthTable::from_fn(3, |m| m.count_ones() >= 2),
        )
        .unwrap();
    n1.add_po(s, "sum");
    n1.add_po(c, "cout");

    let mut n2 = LutNetwork::with_name("gates");
    let a = n2.add_pi("a");
    let b = n2.add_pi("b");
    let cin = n2.add_pi("cin");
    let x1 = n2.add_lut(vec![a, b], TruthTable::xor2()).unwrap();
    let s = n2.add_lut(vec![x1, cin], TruthTable::xor2()).unwrap();
    let a1 = n2.add_lut(vec![a, b], TruthTable::and2()).unwrap();
    let a2 = n2.add_lut(vec![x1, cin], TruthTable::and2()).unwrap();
    let c = n2.add_lut(vec![a1, a2], TruthTable::or2()).unwrap();
    n2.add_po(s, "sum");
    n2.add_po(c, "cout");
    (n1, n2)
}

#[test]
fn cached_cec_flow_answers_output_proofs_from_the_cache() {
    let (n1, n2) = adder_pair();
    let cache = ProofCache::in_memory(1 << 20);
    let run = |cache: &ProofCache, certify: bool| {
        let cfg = SweepConfig {
            certify,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            obs: Observer::enabled(),
            cache: Some(cache),
            ..RunContext::default()
        };
        let report =
            check_equivalence(&n1, &n2, &mut gen, cfg, &mut ctx).expect("interfaces match");
        (report, ctx.obs)
    };
    let (cold, cold_obs) = run(&cache, false);
    assert_eq!(cold.verdict, CecVerdict::Equivalent);
    assert!(cold_obs.recorder.get(Counter::CacheMisses) > 0);
    // Intra-run reuse: the sweep may have already cached the PO-pair
    // cones, so the cold run's output proofs are allowed to hit.
    assert!(
        cold.sweep_stats.sat_calls + cold.output_sat_calls >= 2,
        "someone must have done live SAT work on the cold run"
    );

    let (warm, warm_obs) = run(&cache, false);
    assert_eq!(warm.verdict, CecVerdict::Equivalent);
    assert_eq!(warm.output_sat_calls, 0, "PO pairs answered by the cache");
    assert_eq!(warm_obs.recorder.get(Counter::CacheMisses), 0);
    assert!(warm_obs.recorder.get(Counter::CacheHits) > 0);

    // A certified run on the same cache: plain entries carry no proof,
    // so they are evicted and re-proved with certificates...
    let (cert_cold, cert_cold_obs) = run(&cache, true);
    assert_eq!(cert_cold.verdict, CecVerdict::Equivalent);
    assert!(cert_cold_obs.recorder.get(Counter::CacheEvictions) > 0);
    // ...after which a certified run replays the stored proofs.
    let (cert_warm, cert_warm_obs) = run(&cache, true);
    assert_eq!(cert_warm.verdict, CecVerdict::Equivalent);
    assert_eq!(cert_warm.output_sat_calls, 0);
    assert!(cert_warm_obs.recorder.get(Counter::CacheReplays) > 0);
    assert_eq!(cert_warm_obs.recorder.get(Counter::CacheMisses), 0);
    assert_eq!(cert_warm.sweep_stats.certification_failures, 0);
}

#[test]
fn cached_flow_still_finds_counterexamples() {
    let (n1, mut n2) = adder_pair();
    let cout_node = n2.pos()[1].node;
    let broken = n2.add_lut(vec![cout_node], TruthTable::not1()).unwrap();
    let sum_node = n2.pos()[0].node;
    n2.clear_pos();
    n2.add_po(sum_node, "sum");
    n2.add_po(broken, "cout");
    let cache = ProofCache::in_memory(1 << 20);
    for round in 0..2 {
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            obs: Observer::enabled(),
            cache: Some(&cache),
            ..RunContext::default()
        };
        let report = check_equivalence(&n1, &n2, &mut gen, SweepConfig::default(), &mut ctx)
            .expect("interfaces match");
        let obs = ctx.obs;
        match report.verdict {
            CecVerdict::NotEquivalent { po_index, witness } => {
                assert_eq!(po_index, 1, "round {round}");
                assert_ne!(
                    n1.eval_pos(&witness)[1],
                    n2.eval_pos(&witness)[1],
                    "round {round}: witness must distinguish"
                );
            }
            other => panic!("round {round}: expected NotEquivalent, got {other:?}"),
        }
        if round == 1 {
            // The cached witness answered the broken PO pair.
            assert!(obs.recorder.get(Counter::CacheHits) > 0);
            assert!(obs.recorder.get(Counter::CacheReplays) > 0);
        }
    }
}
