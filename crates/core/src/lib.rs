//! SimGen: ATPG-inspired simulation pattern generation for efficient
//! equivalence checking — the paper's primary contribution.
//!
//! Given a LUT network and its current simulation-equivalence classes,
//! SimGen computes input vectors that *split* those classes, so the
//! downstream SAT sweeper has fewer candidate pairs to disprove.
//! The generator works backwards from desired node values ("OUTgold")
//! towards the PIs, interleaving two propagation primitives borrowed
//! from ATPG:
//!
//! * **Implication** ([`implication`]) — forced assignments: when the
//!   rows of a node's truth table compatible with the current partial
//!   assignment agree on a value, that value is asserted
//!   (Definitions 2.2 and 4.1 of the paper; both the *simple* and
//!   *advanced* variants are implemented). The rows cover the truth
//!   table exactly, so the engine reads the agreed values off the
//!   truth table's minterms.
//! * **Decision** ([`decision`]) — free choices among compatible
//!   truth-table rows, ranked by don't-care count (Equation 1) and
//!   MFFC depth (Equations 2–4), drawn by roulette-wheel selection.
//!
//! The reverse-simulation baseline of Zhang et al. (DAC'21) is
//! implemented in [`revsim`] for head-to-head comparison, and the
//! [`generator::PatternGenerator`] trait plugs any of these strategies
//! into the sweeping flow of `simgen-cec`.
//!
//! # Example
//!
//! Split a class of two and-like LUTs:
//!
//! ```
//! use simgen_netlist::{LutNetwork, TruthTable};
//! use simgen_core::{SimGenConfig, SimGen};
//! use simgen_core::generator::PatternGenerator;
//! use simgen_sim::{simulate, EquivClasses, PatternSet};
//!
//! let mut net = LutNetwork::new();
//! let a = net.add_pi("a");
//! let b = net.add_pi("b");
//! let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
//! let or = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
//! net.add_po(and, "x");
//! net.add_po(or, "y");
//!
//! // One all-zero pattern leaves AND and OR in the same class.
//! let patterns = PatternSet::from_vectors(2, &[vec![false, false]]);
//! let sim = simulate(&net, &patterns);
//! let classes = EquivClasses::initial(&net, &sim);
//! assert_eq!(classes.cost(), 1);
//!
//! // SimGen produces a vector distinguishing them.
//! let mut gen = SimGen::new(SimGenConfig::default().with_seed(7));
//! let vectors = gen.generate(&net, &classes);
//! assert!(!vectors.is_empty());
//! let v = &vectors[0];
//! let vals = net.eval(v);
//! assert_ne!(vals[and.index()], vals[or.index()]);
//! ```

#![forbid(unsafe_code)]

pub mod decision;
pub mod engine;
pub mod generator;
pub mod implication;
pub mod outgold;
pub mod revsim;
pub mod rows;
pub mod tv;
mod view;

pub use decision::DecisionStrategy;
pub use engine::{InputVectorGenerator, TargetOutcome};
pub use generator::{make_strategy, OneDistance, PatternGenerator, RandomPatterns, RevSim, SimGen};
pub use implication::ImplicationStrategy;
pub use tv::{Value, ValueMap};

/// How OUTgold values are assigned across a class (paper Section 3;
/// the topology-aware variant is the extension the paper suggests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OutGoldPolicy {
    /// Alternate 0/1 by ascending node id (the paper's default).
    #[default]
    Alternating,
    /// Demand each node's statically unlikely value (signal-
    /// probability guided), keeping both polarities present.
    TopologyAware,
    /// Demand each node's *observed-rare* value: the polarity the
    /// node has shown least often across the patterns simulated so
    /// far (the paper's "runtime-adaptive OUTgold generation").
    /// Requires the sweeping loop to feed simulation results through
    /// [`PatternGenerator::observe_simulation`]; falls back to
    /// alternating golds until the first observation arrives.
    Adaptive,
}

/// Configuration of the SimGen pattern generator.
#[derive(Clone, Debug, PartialEq)]
pub struct SimGenConfig {
    /// Which implication variant to run (simple vs advanced).
    pub implication: ImplicationStrategy,
    /// How decisions pick truth-table rows.
    pub decision: DecisionStrategy,
    /// How OUTgold values are assigned across a class.
    pub outgold: OutGoldPolicy,
    /// Weight of the don't-care count in row priority (Equation 4's α).
    pub alpha: f64,
    /// Weight of the MFFC rank in row priority (Equation 4's β).
    pub beta: f64,
    /// RNG seed (all randomness is reproducible).
    pub seed: u64,
}

impl Default for SimGenConfig {
    /// The paper's best configuration: advanced implication with the
    /// DC + MFFC decision heuristic (`AI+DC+MFFC`), α ≫ β.
    fn default() -> Self {
        SimGenConfig {
            implication: ImplicationStrategy::Advanced,
            decision: DecisionStrategy::DcMffc,
            outgold: OutGoldPolicy::Alternating,
            alpha: 100.0,
            beta: 1.0,
            seed: 0,
        }
    }
}

impl SimGenConfig {
    /// The `SI+RD` variant: simple implication, random decisions.
    pub fn simple_random() -> Self {
        SimGenConfig {
            implication: ImplicationStrategy::Simple,
            decision: DecisionStrategy::Random,
            ..Self::default()
        }
    }

    /// The `AI+RD` variant: advanced implication, random decisions.
    pub fn advanced_random() -> Self {
        SimGenConfig {
            implication: ImplicationStrategy::Advanced,
            decision: DecisionStrategy::Random,
            ..Self::default()
        }
    }

    /// The `AI+DC` variant: advanced implication, don't-care heuristic.
    pub fn advanced_dc() -> Self {
        SimGenConfig {
            implication: ImplicationStrategy::Advanced,
            decision: DecisionStrategy::Dc,
            ..Self::default()
        }
    }

    /// The `AI+DC+MFFC` variant (the paper's "SimGen").
    pub fn advanced_dc_mffc() -> Self {
        Self::default()
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to topology-aware OUTgold selection (the extension the
    /// paper suggests in Section 3).
    pub fn with_topology_aware_outgold(mut self) -> Self {
        self.outgold = OutGoldPolicy::TopologyAware;
        self
    }

    /// Switches to runtime-adaptive OUTgold selection (the paper's
    /// other suggested extension).
    pub fn with_adaptive_outgold(mut self) -> Self {
        self.outgold = OutGoldPolicy::Adaptive;
        self
    }
}
