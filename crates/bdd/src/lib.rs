//! A hash-consed Reduced Ordered Binary Decision Diagram (ROBDD)
//! package — the *other* verification engine of the paper's Figure 2
//! ("the simulator can send these classes to a verification tool like
//! BDD or SAT").
//!
//! The manager keeps one canonical node per `(var, low, high)` triple,
//! so two functions are equivalent **iff** their handles are equal —
//! the property BDD-based equivalence checking (Kuehlmann & Krohm,
//! DAC'97) rests on. Counterexamples fall out of any path to the `1`
//! terminal in the XOR of two functions.
//!
//! # Example
//!
//! ```
//! use simgen_bdd::BddManager;
//!
//! let mut m = BddManager::new(2);
//! let a = m.var(0);
//! let b = m.var(1);
//! let f = m.and(a, b);
//! let na = m.not(a);
//! let nb = m.not(b);
//! let g_inner = m.or(na, nb);
//! let g = m.not(g_inner); // !(!a | !b) == a & b
//! assert_eq!(f, g, "canonical form makes equivalence a pointer check");
//! ```

#![forbid(unsafe_code)]

pub mod manager;
pub mod netbdd;

pub use manager::{Bdd, BddManager};
pub use netbdd::{network_bdds, NetworkBdds};
