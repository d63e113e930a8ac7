//! Assumption scopes: activation-literal miters over one long-lived
//! solver.
//!
//! Incremental sweeping keeps a single solver per fanin region and
//! runs every candidate-pair miter through it. Each miter lives in a
//! *scope*: a fresh activation variable `act` guards the miter's
//! clauses (each is added as `¬act ∨ …`), the query assumes `act`,
//! and when the pair is resolved the scope is *retired* by the unit
//! clause `¬act`, which permanently satisfies every guarded clause.
//! The shared cone encoding and all learnt clauses stay behind, so the
//! next pair in the region starts warm.
//!
//! Two invariants make this sound:
//!
//! * Guarded clauses are one-directional (`act → constraint`), never
//!   biconditional — retiring a scope must deactivate the miter, not
//!   assert its negation.
//! * Scopes only ever *add* clauses. Nothing is removed, so every
//!   learnt clause remains a logical consequence of the formula and
//!   DRAT certificates stay checkable across the whole query history.

use crate::lit::Lit;
use crate::solver::{SolveResult, Solver};

/// Reuse metrics of one scoped solver, in the units the run report's
/// counters use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeMetrics {
    /// Assumption scopes opened (one per miter routed to this solver).
    pub scopes_opened: u64,
    /// Learnt clauses already live at each scope open, summed — the
    /// knowledge later miters inherit from earlier ones. Zero for a
    /// cold (fresh-per-pair) solver, strictly positive once clause
    /// reuse actually happens.
    pub clauses_reused: u64,
    /// Queries answered by a solver that had already served an
    /// earlier pair (warm starts).
    pub warm_solves: u64,
}

impl std::ops::AddAssign for ScopeMetrics {
    fn add_assign(&mut self, rhs: ScopeMetrics) {
        self.scopes_opened += rhs.scopes_opened;
        self.clauses_reused += rhs.clauses_reused;
        self.warm_solves += rhs.warm_solves;
    }
}

impl std::ops::Sub for ScopeMetrics {
    type Output = ScopeMetrics;

    /// Field-wise difference, for per-pair deltas against a shared
    /// region prover's cumulative metrics.
    fn sub(self, rhs: ScopeMetrics) -> ScopeMetrics {
        ScopeMetrics {
            scopes_opened: self.scopes_opened.saturating_sub(rhs.scopes_opened),
            clauses_reused: self.clauses_reused.saturating_sub(rhs.clauses_reused),
            warm_solves: self.warm_solves.saturating_sub(rhs.warm_solves),
        }
    }
}

/// One activation-literal scope on a [`Solver`].
///
/// ```
/// use simgen_sat::{Lit, Scope, ScopeMetrics, SolveResult, Solver};
///
/// let mut s = Solver::new();
/// let mut m = ScopeMetrics::default();
/// let x = s.new_var();
/// let scope = Scope::open(&mut s, &mut m);
/// scope.add_clause(&mut s, &[Lit::pos(x)]);
/// // Inside the scope x is forced; outside it is free.
/// assert_eq!(scope.solve(&mut s, &[Lit::neg(x)], None), SolveResult::Unsat);
/// scope.retire(&mut s);
/// assert_eq!(s.solve_limited(&[Lit::neg(x)], None), SolveResult::Sat);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    act: crate::lit::Var,
}

impl Scope {
    /// Opens a scope: allocates the activation variable and records
    /// how much learnt knowledge the new miter starts with.
    pub fn open(solver: &mut Solver, metrics: &mut ScopeMetrics) -> Scope {
        metrics.scopes_opened += 1;
        metrics.clauses_reused += solver.num_learnts() as u64;
        Scope {
            act: solver.new_var(),
        }
    }

    /// The assumption literal activating this scope's clauses.
    pub fn activation(&self) -> Lit {
        Lit::pos(self.act)
    }

    /// Adds `clause` guarded by this scope (`¬act ∨ clause`): it only
    /// constrains queries that assume the scope's activation literal.
    pub fn add_clause(&self, solver: &mut Solver, clause: &[Lit]) -> bool {
        let mut guarded = Vec::with_capacity(clause.len() + 1);
        guarded.push(Lit::neg(self.act));
        guarded.extend_from_slice(clause);
        solver.add_clause(&guarded)
    }

    /// Solves with this scope active plus any extra assumptions.
    pub fn solve(
        &self,
        solver: &mut Solver,
        extra_assumptions: &[Lit],
        conflict_budget: Option<u64>,
    ) -> SolveResult {
        let mut assumptions = Vec::with_capacity(extra_assumptions.len() + 1);
        assumptions.push(self.activation());
        assumptions.extend_from_slice(extra_assumptions);
        solver.solve_limited(&assumptions, conflict_budget)
    }

    /// Retires the scope: the unit `¬act` permanently satisfies every
    /// guarded clause, deactivating the miter while keeping the cone
    /// encoding and learnt clauses for the region's next pair.
    pub fn retire(self, solver: &mut Solver) {
        solver.add_clause(&[Lit::neg(self.act)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    /// PHP(n, n-1) clauses over fresh variables — conflict fuel.
    fn scoped_pigeonhole(s: &mut Solver, scope: &Scope, n: u32) {
        let h = n - 1;
        let vars: Vec<Var> = (0..n * h).map(|_| s.new_var()).collect();
        let v = |i: u32, j: u32| vars[(i * h + j) as usize];
        for i in 0..n {
            let clause: Vec<Lit> = (0..h).map(|j| Lit::pos(v(i, j))).collect();
            scope.add_clause(s, &clause);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    scope.add_clause(s, &[Lit::neg(v(i1, j)), Lit::neg(v(i2, j))]);
                }
            }
        }
    }

    #[test]
    fn scopes_isolate_contradictory_miters() {
        let mut s = Solver::new();
        let mut m = ScopeMetrics::default();
        let x = s.new_var();
        let pos = Scope::open(&mut s, &mut m);
        pos.add_clause(&mut s, &[Lit::pos(x)]);
        let neg = Scope::open(&mut s, &mut m);
        neg.add_clause(&mut s, &[Lit::neg(x)]);
        // Each scope is satisfiable alone; together they clash.
        assert_eq!(pos.solve(&mut s, &[], None), SolveResult::Sat);
        assert_eq!(neg.solve(&mut s, &[], None), SolveResult::Sat);
        assert_eq!(
            pos.solve(&mut s, &[neg.activation()], None),
            SolveResult::Unsat
        );
        assert_eq!(m.scopes_opened, 2);
    }

    #[test]
    fn retiring_deactivates_without_asserting_the_negation() {
        let mut s = Solver::new();
        let mut m = ScopeMetrics::default();
        let x = s.new_var();
        let scope = Scope::open(&mut s, &mut m);
        scope.add_clause(&mut s, &[Lit::pos(x)]);
        assert_eq!(
            scope.solve(&mut s, &[Lit::neg(x)], None),
            SolveResult::Unsat
        );
        scope.retire(&mut s);
        // The retired miter constrains nothing: x is free both ways.
        assert_eq!(s.solve_limited(&[Lit::neg(x)], None), SolveResult::Sat);
        assert_eq!(s.solve_limited(&[Lit::pos(x)], None), SolveResult::Sat);
    }

    #[test]
    fn later_scopes_start_with_reused_clauses() {
        let mut s = Solver::new();
        let mut m = ScopeMetrics::default();
        let hard = Scope::open(&mut s, &mut m);
        scoped_pigeonhole(&mut s, &hard, 5);
        assert_eq!(hard.solve(&mut s, &[], None), SolveResult::Unsat);
        assert_eq!(m.clauses_reused, 0, "first scope starts cold");
        assert!(s.num_learnts() > 0, "the hard query left learnt clauses");
        let next = Scope::open(&mut s, &mut m);
        assert!(
            m.clauses_reused > 0,
            "the second scope inherits the first's learnt clauses"
        );
        hard.retire(&mut s);
        next.retire(&mut s);
        assert_eq!(s.solve_limited(&[], None), SolveResult::Sat);
    }
}
