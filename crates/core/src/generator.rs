//! The pattern-generator plugin interface of the sweeping flow
//! (the "SimGen" box of the paper's Figure 2), with the three
//! competing implementations the paper evaluates: random patterns,
//! reverse simulation, and SimGen itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use simgen_netlist::{LutNetwork, NodeId};
use simgen_sim::{EquivClasses, SimResult};

use crate::engine::InputVectorGenerator;
use crate::outgold;
use crate::revsim::reverse_simulate;
use crate::rows::RowDb;
use crate::{OutGoldPolicy, SimGenConfig};

/// A strategy producing simulation input vectors aimed at splitting
/// the current equivalence classes.
///
/// Implementations are stateful (cursors, RNGs, caches) and are driven
/// once per sweep iteration.
pub trait PatternGenerator {
    /// A short label for reports ("RandS", "RevS", "SimGen", …).
    fn name(&self) -> String;

    /// Produces the next batch of input vectors. An empty result
    /// means the strategy could not find a promising vector this
    /// iteration (the paper's "simulation is skipped").
    fn generate(&mut self, net: &LutNetwork, classes: &EquivClasses) -> Vec<Vec<bool>>;

    /// Notifies the generator of a SAT counterexample discovered by
    /// the sweeping tool (Figure 2's feedback arrow). Most strategies
    /// ignore it; [`OneDistance`] builds its pool from these vectors.
    fn observe_counterexample(&mut self, _vector: &[bool]) {}

    /// Hands the generator the latest simulation result after each
    /// refinement. The adaptive-OUTgold policy
    /// ([`crate::OutGoldPolicy::Adaptive`]) reads per-node one-
    /// frequencies from it; other strategies ignore it.
    fn observe_simulation(&mut self, _sim: &SimResult) {}
}

/// Plain random simulation ("RandS"): `batch` uniformly random
/// vectors per iteration, oblivious to the classes.
#[derive(Debug)]
pub struct RandomPatterns {
    rng: StdRng,
    /// Vectors generated per iteration (64 = one machine word, the
    /// usual simulator granularity).
    pub batch: usize,
}

impl RandomPatterns {
    /// Creates the generator with a seed and per-iteration batch size.
    pub fn new(seed: u64, batch: usize) -> Self {
        RandomPatterns {
            rng: StdRng::seed_from_u64(seed),
            batch,
        }
    }
}

impl PatternGenerator for RandomPatterns {
    fn name(&self) -> String {
        "RandS".into()
    }

    fn generate(&mut self, net: &LutNetwork, _classes: &EquivClasses) -> Vec<Vec<bool>> {
        (0..self.batch)
            .map(|_| (0..net.num_pis()).map(|_| self.rng.gen()).collect())
            .collect()
    }
}

/// Reverse simulation ("RevS", Zhang et al.): picks random same-class
/// pairs and attempts a backward propagation for each; the first
/// success yields the iteration's vector.
#[derive(Debug)]
pub struct RevSim {
    rng: StdRng,
    /// Pair attempts per iteration before giving up.
    pub attempts: usize,
}

impl RevSim {
    /// Creates the generator with a seed and retry budget.
    pub fn new(seed: u64, attempts: usize) -> Self {
        RevSim {
            rng: StdRng::seed_from_u64(seed),
            attempts,
        }
    }
}

impl PatternGenerator for RevSim {
    fn name(&self) -> String {
        "RevS".into()
    }

    fn generate(&mut self, net: &LutNetwork, classes: &EquivClasses) -> Vec<Vec<bool>> {
        if classes.is_empty() {
            return Vec::new();
        }
        for _ in 0..self.attempts {
            // Step 1: a random pair of nodes from the same class.
            let class = &classes.classes()[self.rng.gen_range(0..classes.len())];
            let i = self.rng.gen_range(0..class.len());
            let mut j = self.rng.gen_range(0..class.len());
            if i == j {
                j = (j + 1) % class.len();
            }
            if let Some(v) = reverse_simulate(net, (class[i], class[j]), &mut self.rng) {
                return vec![v];
            }
        }
        Vec::new()
    }
}

/// The SimGen pattern generator (paper Sections 3–5).
///
/// Each iteration targets one equivalence class: OUTgold values
/// alternate across the class members, Algorithm 1 propagates them to
/// the PIs, and the vector is kept only when at least one honored
/// pair has opposite golds (otherwise the next class is tried).
#[derive(Debug)]
pub struct SimGen {
    cfg: SimGenConfig,
    rng: StdRng,
    rows: Option<RowDb>,
    cursor: usize,
    /// Observed per-node one-frequency (for the adaptive policy).
    observed_freq: Option<Vec<f64>>,
    /// Class attempts per iteration before giving up (keeps the
    /// per-iteration runtime bounded when only unsplittable classes
    /// remain).
    pub max_attempts: usize,
}

impl SimGen {
    /// Creates a SimGen generator from a configuration.
    pub fn new(cfg: SimGenConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        SimGen {
            cfg,
            rng,
            rows: Some(RowDb::new()),
            cursor: 0,
            observed_freq: None,
            max_attempts: 8,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimGenConfig {
        &self.cfg
    }
}

impl PatternGenerator for SimGen {
    fn name(&self) -> String {
        use crate::decision::DecisionStrategy as D;
        use crate::implication::ImplicationStrategy as I;
        match (self.cfg.implication, self.cfg.decision) {
            (I::Simple, D::Random) => "SI+RD".into(),
            (I::Advanced, D::Random) => "AI+RD".into(),
            (I::Advanced, D::Dc) => "AI+DC".into(),
            (I::Advanced, D::DcMffc) => "SimGen".into(),
            (i, d) => format!("{i:?}+{d:?}"),
        }
    }

    fn generate(&mut self, net: &LutNetwork, classes: &EquivClasses) -> Vec<Vec<bool>> {
        if classes.is_empty() {
            return Vec::new();
        }
        // Work on classes largest-first: splitting big classes removes
        // the most prospective SAT calls (Equation 5).
        let mut order: Vec<&Vec<NodeId>> = classes.classes().iter().collect();
        order.sort_by_key(|c| std::cmp::Reverse(c.len()));

        let probs = match self.cfg.outgold {
            OutGoldPolicy::Alternating => None,
            OutGoldPolicy::TopologyAware => Some(simgen_sim::signal_probabilities(net)),
            // Adaptive: observed frequencies if any simulation has
            // been reported, else fall back to alternating golds.
            OutGoldPolicy::Adaptive => self.observed_freq.clone(),
        };
        let rows = self.rows.take().unwrap_or_default();
        let mut engine = InputVectorGenerator::with_rows(net, rows);
        let mut produced = Vec::new();
        // Up to `max_attempts` class attempts, wrapping around when
        // fewer classes exist: the engine is randomized, so retrying a
        // class redraws its decisions and can succeed where the first
        // try produced a one-sided (non-splitting) vector.
        for attempt in 0..self.max_attempts {
            let class = order[(self.cursor + attempt) % order.len()];
            let targets = match &probs {
                None => outgold::alternating(class),
                Some(p) => outgold::topology_aware(class, p),
            };
            let result = engine.generate(
                &targets,
                self.cfg.implication,
                self.cfg.decision,
                self.cfg.alpha,
                self.cfg.beta,
                &mut self.rng,
            );
            if result.splits_targets(&targets) {
                self.cursor = (self.cursor + attempt + 1) % order.len();
                produced.push(result.vector);
                break;
            }
            // Skipped: "SimGen receives a new equivalence class".
        }
        if produced.is_empty() {
            // Move past the attempted classes so the next iteration
            // tries different ones.
            self.cursor = (self.cursor + self.max_attempts) % order.len().max(1);
        }
        self.rows = Some(engine.into_rows());
        produced
    }

    fn observe_simulation(&mut self, sim: &SimResult) {
        if self.cfg.outgold != OutGoldPolicy::Adaptive || sim.num_patterns() == 0 {
            return;
        }
        let total = sim.num_patterns() as f64;
        let freq = (0..sim.num_nodes())
            .map(|i| {
                let ones: u32 = sim
                    .signature(NodeId::from_index(i))
                    .iter()
                    .map(|w| w.count_ones())
                    .sum();
                f64::from(ones) / total
            })
            .collect();
        self.observed_freq = Some(freq);
    }
}

/// The *1-distance* strategy of Mishchenko et al. (related work,
/// paper Section 2.3): flip one bit of a previously seen SAT
/// counterexample. Counterexamples witness a difference, and their
/// single-bit neighbours often expose further nearby differences.
///
/// Until the first counterexample arrives the generator emits random
/// vectors, so it degrades gracefully to RandS.
#[derive(Debug)]
pub struct OneDistance {
    rng: StdRng,
    pool: Vec<Vec<bool>>,
    /// Maximum counterexamples retained (oldest evicted first).
    pub pool_limit: usize,
    /// Vectors emitted per iteration.
    pub batch: usize,
}

impl OneDistance {
    /// Creates the generator.
    pub fn new(seed: u64, batch: usize) -> Self {
        OneDistance {
            rng: StdRng::seed_from_u64(seed),
            pool: Vec::new(),
            pool_limit: 64,
            batch,
        }
    }

    /// Number of counterexamples currently pooled.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }
}

impl PatternGenerator for OneDistance {
    fn name(&self) -> String {
        "1-dist".into()
    }

    fn generate(&mut self, net: &LutNetwork, _classes: &EquivClasses) -> Vec<Vec<bool>> {
        let pis = net.num_pis();
        (0..self.batch)
            .map(|_| {
                if self.pool.is_empty() || pis == 0 {
                    (0..pis).map(|_| self.rng.gen()).collect()
                } else {
                    let base = &self.pool[self.rng.gen_range(0..self.pool.len())];
                    let mut v = base.clone();
                    let flip = self.rng.gen_range(0..pis);
                    v[flip] = !v[flip];
                    v
                }
            })
            .collect()
    }

    fn observe_counterexample(&mut self, vector: &[bool]) {
        if self.pool.len() == self.pool_limit {
            self.pool.remove(0);
        }
        self.pool.push(vector.to_vec());
    }
}

/// The strategy table behind `simgen --strategy` and the daemon's
/// `strategy` request field: the generator `name` selects, seeded with
/// `seed`, with the parameters both front ends run it with.
///
/// # Errors
///
/// A name other than `simgen`, `revs`, `rand` or `1dist` yields a
/// message listing those choices.
pub fn make_strategy(name: &str, seed: u64) -> Result<Box<dyn PatternGenerator>, String> {
    match name {
        "simgen" => Ok(Box::new(SimGen::new(
            SimGenConfig::default().with_seed(seed),
        ))),
        "revs" => Ok(Box::new(RevSim::new(seed, 30))),
        "rand" => Ok(Box::new(RandomPatterns::new(seed, 64))),
        "1dist" => Ok(Box::new(OneDistance::new(seed, 8))),
        other => Err(format!(
            "unknown strategy `{other}` (expected simgen|revs|rand|1dist)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;
    use simgen_sim::{simulate, PatternSet};

    /// A network whose AND and OR collide under the all-zero pattern.
    fn colliding_net() -> (LutNetwork, NodeId, NodeId) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let or = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        net.add_po(and, "x");
        net.add_po(or, "y");
        (net, and, or)
    }

    fn stuck_classes(net: &LutNetwork) -> EquivClasses {
        let patterns = PatternSet::from_vectors(net.num_pis(), &[vec![false; net.num_pis()]]);
        let sim = simulate(net, &patterns);
        EquivClasses::initial(net, &sim)
    }

    #[test]
    fn random_generator_produces_batch() {
        let (net, _, _) = colliding_net();
        let classes = stuck_classes(&net);
        let mut g = RandomPatterns::new(1, 8);
        let vs = g.generate(&net, &classes);
        assert_eq!(vs.len(), 8);
        assert!(vs.iter().all(|v| v.len() == 2));
        assert_eq!(g.name(), "RandS");
    }

    #[test]
    fn revsim_generator_splits_collision() {
        let (net, and, or) = colliding_net();
        let classes = stuck_classes(&net);
        let mut g = RevSim::new(3, 20);
        let vs = g.generate(&net, &classes);
        assert_eq!(vs.len(), 1, "revsim finds a splitting vector here");
        let vals = net.eval(&vs[0]);
        assert_ne!(vals[and.index()], vals[or.index()]);
        assert_eq!(g.name(), "RevS");
    }

    #[test]
    fn simgen_generator_splits_collision() {
        let (net, and, or) = colliding_net();
        let classes = stuck_classes(&net);
        let mut g = SimGen::new(SimGenConfig::default().with_seed(5));
        let vs = g.generate(&net, &classes);
        assert_eq!(vs.len(), 1);
        let vals = net.eval(&vs[0]);
        assert_ne!(vals[and.index()], vals[or.index()]);
        assert_eq!(g.name(), "SimGen");
    }

    #[test]
    fn generators_handle_empty_classes() {
        let (net, _, _) = colliding_net();
        let empty = EquivClasses::default();
        assert!(RevSim::new(1, 5).generate(&net, &empty).is_empty());
        assert!(SimGen::new(SimGenConfig::default())
            .generate(&net, &empty)
            .is_empty());
        // Random doesn't care about classes.
        assert_eq!(RandomPatterns::new(1, 4).generate(&net, &empty).len(), 4);
    }

    #[test]
    fn variant_names_match_the_paper() {
        assert_eq!(SimGen::new(SimGenConfig::simple_random()).name(), "SI+RD");
        assert_eq!(SimGen::new(SimGenConfig::advanced_random()).name(), "AI+RD");
        assert_eq!(SimGen::new(SimGenConfig::advanced_dc()).name(), "AI+DC");
        assert_eq!(
            SimGen::new(SimGenConfig::advanced_dc_mffc()).name(),
            "SimGen"
        );
    }

    #[test]
    fn simgen_skips_unsplittable_classes() {
        // Two functionally identical nodes: no vector can split them,
        // so SimGen must keep skipping and return nothing rather than
        // a useless vector.
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        let classes = stuck_classes(&net);
        assert_eq!(classes.len(), 1);
        let mut g = SimGen::new(SimGenConfig::default().with_seed(1));
        let vs = g.generate(&net, &classes);
        assert!(vs.is_empty(), "equivalent pair cannot be split");
    }

    #[test]
    fn topology_aware_outgold_splits_too() {
        // Disjoint fanin cones, so the rare-value demands (and = 1,
        // or = 0) are jointly satisfiable. On shared-input gates the
        // policy's demands may conflict and the class is skipped —
        // that tradeoff is inherent to demanding unlikely values.
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let d = net.add_pi("d");
        let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let or = net.add_lut(vec![c, d], TruthTable::or2()).unwrap();
        net.add_po(and, "x");
        net.add_po(or, "y");
        let classes = stuck_classes(&net);
        assert_eq!(classes.cost(), 1, "all-zero pattern collides them");
        let mut g = SimGen::new(
            SimGenConfig::default()
                .with_seed(5)
                .with_topology_aware_outgold(),
        );
        let vs = g.generate(&net, &classes);
        assert_eq!(vs.len(), 1);
        let vals = net.eval(&vs[0]);
        // The rare values were demanded: and = 1, or = 0.
        assert!(vals[and.index()]);
        assert!(!vals[or.index()]);
    }

    #[test]
    fn adaptive_outgold_uses_observed_frequencies() {
        use simgen_sim::simulate;
        // Disjoint cones so rare-value demands are jointly satisfiable
        // (see the topology-aware test for the shared-input caveat).
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let d = net.add_pi("d");
        let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let or = net.add_lut(vec![c, d], TruthTable::or2()).unwrap();
        net.add_po(and, "x");
        net.add_po(or, "y");
        let pats0 = PatternSet::from_vectors(4, &[vec![false; 4]]);
        let sim0 = simulate(&net, &pats0);
        let classes = EquivClasses::initial(&net, &sim0);
        assert_eq!(classes.cost(), 1);
        let mut g = SimGen::new(SimGenConfig::default().with_seed(5).with_adaptive_outgold());
        // Observation: and is mostly 0, or is mostly 1 — the adaptive
        // golds demand the observed-rare values (and = 1, or = 0).
        let pats = PatternSet::from_vectors(
            4,
            &[
                vec![false, false, true, true],
                vec![true, false, true, false],
                vec![false, true, false, true],
            ],
        );
        let sim = simulate(&net, &pats);
        g.observe_simulation(&sim);
        let vs = g.generate(&net, &classes);
        assert_eq!(vs.len(), 1);
        let vals = net.eval(&vs[0]);
        assert!(vals[and.index()], "demanded the observed-rare 1");
        assert!(!vals[or.index()], "demanded the observed-rare 0");
    }

    #[test]
    fn adaptive_falls_back_to_alternating_without_observations() {
        let (net, and, or) = colliding_net();
        let classes = stuck_classes(&net);
        let mut g = SimGen::new(SimGenConfig::default().with_seed(5).with_adaptive_outgold());
        let vs = g.generate(&net, &classes);
        assert_eq!(vs.len(), 1, "alternating fallback still works");
        let vals = net.eval(&vs[0]);
        assert_ne!(vals[and.index()], vals[or.index()]);
    }

    #[test]
    fn one_distance_pools_counterexamples() {
        let (net, _, _) = colliding_net();
        let classes = stuck_classes(&net);
        let mut g = OneDistance::new(3, 4);
        assert_eq!(g.name(), "1-dist");
        // No pool yet: random vectors.
        let vs = g.generate(&net, &classes);
        assert_eq!(vs.len(), 4);
        // Feed a counterexample; outputs must now be 1-distance
        // neighbours of it.
        let cex = vec![true, false];
        g.observe_counterexample(&cex);
        assert_eq!(g.pool_len(), 1);
        for v in g.generate(&net, &classes) {
            let dist = v.iter().zip(&cex).filter(|(a, b)| a != b).count();
            assert_eq!(dist, 1, "exactly one bit flipped");
        }
    }

    #[test]
    fn one_distance_pool_is_bounded() {
        let mut g = OneDistance::new(1, 1);
        g.pool_limit = 3;
        for i in 0..10 {
            g.observe_counterexample(&[i % 2 == 0]);
        }
        assert_eq!(g.pool_len(), 3);
    }

    #[test]
    fn simgen_is_deterministic_per_seed() {
        let (net, _, _) = colliding_net();
        let classes = stuck_classes(&net);
        let v1 = SimGen::new(SimGenConfig::default().with_seed(9)).generate(&net, &classes);
        let v2 = SimGen::new(SimGenConfig::default().with_seed(9)).generate(&net, &classes);
        assert_eq!(v1, v2);
    }

    #[test]
    fn strategy_factory() {
        for name in ["simgen", "revs", "rand", "1dist"] {
            assert!(make_strategy(name, 0).is_ok(), "{name}");
        }
        assert!(make_strategy("bogus", 0).is_err());
    }
}
