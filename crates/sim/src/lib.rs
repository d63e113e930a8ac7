//! Bit-parallel circuit simulation and equivalence-class management.
//!
//! This is the "Circuit Simulator" box of the paper's Figure 2: it
//! evaluates input vectors through the network 64 at a time (one bit
//! per pattern in a machine word), partitions nodes into equivalence
//! classes by their simulation signatures, and scores partitions with
//! the paper's cost function (Equation 5).
//!
//! # Example
//!
//! ```
//! use simgen_netlist::{LutNetwork, TruthTable};
//! use simgen_sim::{simulate, EquivClasses, PatternSet};
//! use rand::SeedableRng;
//!
//! let mut net = LutNetwork::new();
//! let a = net.add_pi("a");
//! let b = net.add_pi("b");
//! let and1 = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
//! let and2 = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
//! let or1 = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
//! net.add_po(and1, "x");
//! net.add_po(and2, "y");
//! net.add_po(or1, "z");
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let patterns = PatternSet::random(net.num_pis(), 64, &mut rng);
//! let sim = simulate(&net, &patterns);
//! let classes = EquivClasses::initial(&net, &sim);
//! // The two ANDs stay together; OR almost surely separates.
//! assert_eq!(classes.cost(), 1);
//! ```

#![deny(unsafe_code)]

pub mod classes;
pub mod kernel;
pub mod patterns;
pub mod probability;
pub mod replay;
pub mod simd;
pub mod simulator;

pub use classes::EquivClasses;
pub use kernel::{CompiledNet, KernelSummary, PoolStats};
pub use patterns::PatternSet;
pub use probability::signal_probabilities;
pub use replay::Replayer;
pub use simd::{active_simd_level, SimdLevel, SimdWord, U64x4, U64x8};
pub use simulator::{simulate, ExecStats, SimResult};

#[cfg(any(test, feature = "reference"))]
pub use simulator::{reference_lanes, simulate_reference};
