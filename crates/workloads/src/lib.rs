//! Deterministic synthetic stand-ins for the 42 benchmark circuits of
//! the paper's evaluation (VTR, EPFL and ITC'99 suites).
//!
//! The original benchmark files are not distributable with this
//! reproduction, so each name maps to a seeded generator producing a
//! circuit of the same *family* — arithmetic datapaths, two-level PLA
//! logic, control blocks, and ITC'99-style mixed cores — with the
//! structural features (reconvergence, shared cones, functional
//! redundancy) that the paper's techniques exercise. See DESIGN.md for
//! the substitution rationale.
//!
//! Every generator is deterministic: the same name always yields the
//! same circuit, so experiment tables are reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use simgen_workloads::{all_benchmarks, cec_instance};
//!
//! assert_eq!(all_benchmarks().len(), 42);
//! let inst = cec_instance("cordic", 6).unwrap();
//! // The combined network is ready for sweeping.
//! assert!(inst.combined.num_luts() > 0);
//! assert_eq!(inst.name, "cordic");
//! ```

#![forbid(unsafe_code)]

pub mod gen;
pub mod instance;
pub mod rewrite;
pub mod suites;

pub use instance::{benchmark_network, cec_instance, CecInstance};
pub use suites::{all_benchmarks, build_aig, Benchmark, Suite};
