//! K-LUT technology mapping — the reproduction's equivalent of ABC's
//! `if -K 6` command, which the paper applies to every benchmark
//! before sweeping.
//!
//! The mapper enumerates K-feasible priority cuts over an
//! [`Aig`](simgen_netlist::Aig) and covers the graph depth-first with
//! the best cut per node (minimum depth, area flow as tie-break),
//! emitting a [`LutNetwork`](simgen_netlist::LutNetwork) whose LUT
//! functions are computed exactly from the covered cones.
//!
//! # Example
//!
//! ```
//! use simgen_netlist::Aig;
//! use simgen_mapping::map_to_luts;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let ab = aig.and(a, b);
//! let f = aig.xor(ab, c);
//! aig.add_po(f, "f");
//! let net = map_to_luts(&aig, 6);
//! // The whole 3-input cone fits into one 6-LUT.
//! assert_eq!(net.num_luts(), 1);
//! assert_eq!(net.eval_pos(&[true, true, false]), vec![true]);
//! ```

#![forbid(unsafe_code)]

pub mod cuts;
pub mod map;

pub use cuts::{enumerate_cuts, Cut, CutSet};
pub use map::map_to_luts;
