//! Umbrella crate re-exporting the SimGen workspace crates.

#![forbid(unsafe_code)]

pub use simgen_bdd as bdd;
pub use simgen_cec as cec;
pub use simgen_core as core;
pub use simgen_mapping as mapping;
pub use simgen_netlist as netlist;
pub use simgen_sat as sat;
pub use simgen_sim as sim;
pub use simgen_workloads as workloads;
