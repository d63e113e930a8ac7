//! A from-scratch CDCL SAT solver plus CNF tooling for the SimGen
//! sweeping flow.
//!
//! The paper's sweeping tool (ABC) drives MiniSAT-style incremental
//! SAT queries to prove or disprove candidate node equivalences. This
//! crate provides the same capability:
//!
//! * [`Solver`] — conflict-driven clause learning with two-watched
//!   literals, first-UIP learning, VSIDS branching, phase saving,
//!   Luby restarts and learnt-clause reduction. Supports assumptions
//!   and conflict budgets (both essential for sweeping, which issues
//!   many small queries and must bail out of hard ones).
//! * [`Scope`] / [`ScopeMetrics`] — assumption-scoped miters over one
//!   long-lived solver: activation-literal guarded clauses, per-scope
//!   queries, retire-by-unit, and the clause-reuse counters the run
//!   report exposes.
//! * [`Cnf`] — a clause container with DIMACS read/write.
//! * [`tseitin`] — CNF encoding of LUT-network fanin cones and
//!   equivalence miters.
//!
//! # Example
//!
//! ```
//! use simgen_sat::{Cnf, Lit, Solver, SolveResult};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
//! cnf.add_clause([Lit::neg(a)]);
//! let mut solver = Solver::from_cnf(&cnf);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(b), Some(true));
//! ```

pub mod cnf;
pub mod drat;
pub mod heap;
pub mod lit;
pub mod scope;
pub mod solver;
pub mod tseitin;

pub use cnf::Cnf;
pub use drat::{Certificate, DratError, ProofStep};
pub use lit::{Lit, Var};
pub use scope::{Scope, ScopeMetrics};
pub use solver::{SolveResult, Solver, SolverStats};
