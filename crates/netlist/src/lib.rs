//! Boolean-network substrate for the SimGen reproduction.
//!
//! This crate provides everything the upper layers (simulation, SAT
//! sweeping, pattern generation) need to talk about circuits:
//!
//! * [`TruthTable`] — complete single-output Boolean functions of up to
//!   six variables, with cofactoring and prime-implicant extraction.
//! * [`LutNetwork`] — a DAG of K-input LUT nodes in topological order,
//!   the representation the paper's sweeping flow operates on (the
//!   output of ABC's `if -K 6`).
//! * [`Aig`] — an And-Inverter Graph with structural hashing, the
//!   representation benchmark generators produce and the technology
//!   mapper consumes.
//! * AIGER ([`aiger`]), BLIF ([`blif`]) and BENCH ([`bench_fmt`]) file
//!   I/O, and [`load`], which reads any of them by extension.
//! * Structural analyses: fanin cones ([`cone`]), canonical
//!   numbering-insensitive cone forms ([`canon`]), levelized schedules
//!   ([`levels`]), maximum fanout-free cones ([`mffc`]), network
//!   stacking ([`stack`], the `&putontop` equivalent) and miter
//!   construction ([`miter`]).
//!
//! # Example
//!
//! Build a tiny network `f = (a & b) | c` and inspect it:
//!
//! ```
//! use simgen_netlist::{LutNetwork, TruthTable};
//!
//! let mut net = LutNetwork::new();
//! let a = net.add_pi("a");
//! let b = net.add_pi("b");
//! let c = net.add_pi("c");
//! let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
//! let or = net.add_lut(vec![and, c], TruthTable::or2()).unwrap();
//! net.add_po(or, "f");
//! assert_eq!(net.num_pis(), 3);
//! assert_eq!(net.level(or), 2);
//! ```

#![forbid(unsafe_code)]

pub mod aig;
pub mod aiger;
pub mod bench_fmt;
pub mod blif;
pub mod canon;
pub mod cone;
pub mod error;
pub mod export;
pub mod id;
pub mod levels;
pub mod load;
pub mod mffc;
pub mod miter;
pub mod network;
pub mod stack;
pub mod truth;
pub mod validate;

pub use aig::{Aig, AigLit, AigVar};
pub use canon::{canonical_cone, CanonicalCone, CanonicalNode};
pub use error::NetlistError;
pub use id::NodeId;
pub use network::{LutNetwork, NodeKind, Po};
pub use truth::{Cube, TruthTable};
