//! The CDCL solver.
//!
//! A MiniSAT-lineage implementation: two-watched-literal propagation,
//! first-UIP conflict analysis, VSIDS variable activities with a
//! binary order heap, saved phases, Luby-sequence restarts and
//! activity-based learnt-clause reduction.
//!
//! Sweeping issues thousands of small queries against one incrementally
//! grown formula, so the solver supports *assumptions* (temporary unit
//! constraints for a single query) and *conflict budgets* (queries
//! return [`SolveResult::Unknown`] instead of stalling the sweep).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::cnf::Cnf;
use crate::drat::{Certificate, ProofStep};
use crate::heap::ActivityHeap;
use crate::lit::{Lit, Var};

/// Result of a solve call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer.
    Unknown,
}

/// Cumulative solver statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Learnt clauses deleted by database reduction.
    pub removed: u64,
    /// Number of solve calls.
    pub solves: u64,
    /// Clauses recorded into DRAT proof logs (addition lines).
    pub proof_clauses: u64,
    /// Bytes of DRAT proof text recorded (addition and deletion lines).
    pub proof_bytes: u64,
    /// Estimated bytes of clause storage currently live (original plus
    /// learnt, minus reduced). A gauge, not a counter: it tracks the
    /// clause database's resident footprint so a memory governor can
    /// compare it against a budget. Deterministic — derived from the
    /// clause operations themselves, never from allocator probes.
    pub clause_db_bytes: u64,
}

impl std::ops::AddAssign for SolverStats {
    /// Field-wise sum — how per-pair and per-worker stats aggregate
    /// into run-report totals (commutative, so the aggregate is
    /// independent of merge order).
    fn add_assign(&mut self, rhs: SolverStats) {
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.conflicts += rhs.conflicts;
        self.restarts += rhs.restarts;
        self.learned += rhs.learned;
        self.removed += rhs.removed;
        self.solves += rhs.solves;
        self.proof_clauses += rhs.proof_clauses;
        self.proof_bytes += rhs.proof_bytes;
        self.clause_db_bytes += rhs.clause_db_bytes;
    }
}

impl std::ops::Sub for SolverStats {
    type Output = SolverStats;

    /// Field-wise difference, for carving a per-pair delta out of a
    /// long-lived region solver's cumulative counters. Saturating, so
    /// a stale "before" snapshot degrades to zero rather than wrapping.
    fn sub(self, rhs: SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(rhs.decisions),
            propagations: self.propagations.saturating_sub(rhs.propagations),
            conflicts: self.conflicts.saturating_sub(rhs.conflicts),
            restarts: self.restarts.saturating_sub(rhs.restarts),
            learned: self.learned.saturating_sub(rhs.learned),
            removed: self.removed.saturating_sub(rhs.removed),
            solves: self.solves.saturating_sub(rhs.solves),
            proof_clauses: self.proof_clauses.saturating_sub(rhs.proof_clauses),
            proof_bytes: self.proof_bytes.saturating_sub(rhs.proof_bytes),
            clause_db_bytes: self.clause_db_bytes.saturating_sub(rhs.clause_db_bytes),
        }
    }
}

const LBOOL_UNDEF: i8 = 2;

type ClauseRef = u32;

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    activity: f32,
    learnt: bool,
    deleted: bool,
}

/// Cumulative DRAT proof state, kept only while logging is enabled.
///
/// The proof is cumulative across queries on purpose: with
/// incremental solving, a clause learnt in one query stays in the
/// database and feeds propagation in later queries, so a later
/// certificate is only checkable against the whole derivation
/// history. Per-query state is just the assumptions and the
/// `certifiable` verdict flag.
#[derive(Clone, Debug)]
struct ProofLog {
    /// Every clause the caller added, verbatim (pre-simplification).
    formula: Vec<Vec<Lit>>,
    /// Recorded additions and deletions, in emission order.
    steps: Vec<ProofStep>,
    /// Assumptions of the most recent solve call.
    assumptions: Vec<Lit>,
    /// DRAT text bytes the recorded steps would occupy.
    bytes: u64,
    /// Recording stops (and certification is disabled) past this.
    byte_budget: u64,
    /// Sticky: the budget was hit and the proof is incomplete.
    overflowed: bool,
    /// The most recent answer was `Unsat` with a complete proof.
    certifiable: bool,
}

/// Estimated resident bytes of one stored clause: a fixed per-clause
/// overhead (header, watch slots, allocator rounding) plus the literal
/// array. A deliberate model rather than `size_of` arithmetic, so the
/// figure is identical across platforms and the reports built from it
/// stay byte-stable.
fn clause_resident_bytes(num_lits: usize) -> u64 {
    32 + 4 * num_lits as u64
}

/// Bytes the DRAT text line for `lits` would occupy: optional `d `
/// prefix, each literal as a signed 1-based decimal plus a space, and
/// the terminating `0\n`.
fn drat_line_bytes(lits: &[Lit], delete: bool) -> u64 {
    let mut n: u64 = if delete { 2 } else { 0 };
    for &l in lits {
        let mut digits = 1u64;
        let mut v = (l.var().index() as u64 + 1) / 10;
        while v > 0 {
            digits += 1;
            v /= 10;
        }
        n += digits + u64::from(l.is_neg()) + 1;
    }
    n + 2
}

/// A CDCL SAT solver. See the [module docs](self) for the feature set.
///
/// # Example
///
/// ```
/// use simgen_sat::{Lit, SolveResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// // The same instance answers queries under assumptions:
/// assert_eq!(s.solve_with_assumptions(&[Lit::neg(b)]), SolveResult::Unsat);
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// `watches[l.index()]` = clauses currently watching literal `l`.
    watches: Vec<Vec<ClauseRef>>,
    /// Per-variable assignment: 0 false, 1 true, 2 unassigned.
    assigns: Vec<i8>,
    /// Saved phase per variable.
    polarity: Vec<bool>,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: ActivityHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    qhead: usize,
    seen: Vec<bool>,
    /// False once a top-level conflict makes the formula unsat forever.
    ok: bool,
    model: Vec<bool>,
    stats: SolverStats,
    num_learnts: usize,
    /// Shared cancellation flag checked inside the CDCL loop; cloning
    /// the solver shares the flag.
    interrupt: Option<Arc<AtomicBool>>,
    /// Wall-clock point past which solves abort with `Unknown`.
    /// Checked every few search iterations (clock reads are syscalls).
    deadline: Option<std::time::Instant>,
    /// DRAT proof recording, when enabled. Boxed: the common path
    /// (no certification) should not pay for the log's footprint.
    proof: Option<Box<ProofLog>>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

enum Search {
    Sat,
    Unsat,
    Restart,
    Budget,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: ActivityHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            qhead: 0,
            seen: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            num_learnts: 0,
            interrupt: None,
            deadline: None,
            proof: None,
        }
    }

    /// Begins recording a DRAT-style proof of every clause the solver
    /// learns or deletes, so `Unsat` answers can be independently
    /// revalidated via [`Solver::certificate`]. Recording is bounded
    /// by `byte_budget` (the size the proof would occupy as DRAT
    /// text); once exceeded, the proof is marked overflowed and no
    /// further certificates are issued — the solver's answers stay
    /// correct, they are just no longer independently checkable.
    ///
    /// Must be called before any clauses are added: the certificate
    /// needs the full formula.
    pub fn enable_proof_logging(&mut self, byte_budget: u64) {
        debug_assert!(
            self.clauses.is_empty() && self.trail.is_empty(),
            "proof logging must start before the first clause"
        );
        self.proof = Some(Box::new(ProofLog {
            formula: Vec::new(),
            steps: Vec::new(),
            assumptions: Vec::new(),
            bytes: 0,
            byte_budget,
            overflowed: false,
            certifiable: false,
        }));
    }

    /// True while DRAT proof recording is active.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// True once the proof byte budget was exceeded (certificates are
    /// no longer issued for this solver).
    pub fn proof_overflowed(&self) -> bool {
        self.proof.as_ref().is_some_and(|p| p.overflowed)
    }

    /// The certificate for the most recent solve call, if and only if
    /// that call answered [`SolveResult::Unsat`] with proof logging
    /// active and the proof complete. `Sat` and `Unknown` answers —
    /// including queries cut short by a deadline, interrupt or
    /// conflict budget — never yield a certificate.
    pub fn certificate(&self) -> Option<Certificate<'_>> {
        let p = self.proof.as_ref()?;
        if !p.certifiable {
            return None;
        }
        Some(Certificate {
            formula: &p.formula,
            assumptions: &p.assumptions,
            steps: &p.steps,
        })
    }

    /// Records a proof addition line, honoring the byte budget.
    fn record_add(&mut self, lits: &[Lit]) {
        let Some(p) = &mut self.proof else { return };
        if p.overflowed {
            return;
        }
        let n = drat_line_bytes(lits, false);
        if p.bytes + n > p.byte_budget {
            p.overflowed = true;
            return;
        }
        p.bytes += n;
        p.steps.push(ProofStep::Add(lits.to_vec()));
        self.stats.proof_clauses += 1;
        self.stats.proof_bytes += n;
    }

    /// Records a proof deletion (`d`) line, honoring the byte budget.
    fn record_delete(&mut self, lits: &[Lit]) {
        let Some(p) = &mut self.proof else { return };
        if p.overflowed {
            return;
        }
        let n = drat_line_bytes(lits, true);
        if p.bytes + n > p.byte_budget {
            p.overflowed = true;
            return;
        }
        p.bytes += n;
        p.steps.push(ProofStep::Delete(lits.to_vec()));
        self.stats.proof_bytes += n;
    }

    /// Installs a shared interrupt flag. While the flag is set, any
    /// in-flight or future [`Solver::solve_limited`] call returns
    /// [`SolveResult::Unknown`] at its next conflict or decision
    /// boundary, regardless of the conflict budget. Dispatch workers
    /// use this to abandon in-flight proofs when the sweep is torn
    /// down.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// True when an installed interrupt flag is currently raised.
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Installs (or clears) a wall-clock deadline. Once the instant
    /// passes, any in-flight or future [`Solver::solve_limited`] call
    /// returns [`SolveResult::Unknown`] within a bounded number of
    /// search steps. This is the belt to the interrupt flag's braces:
    /// it needs no watchdog thread to fire, only the solver's own
    /// loop. An `Unsat` already established at level 0 still wins —
    /// sound answers are never discarded for lateness.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// True once the installed deadline instant has passed.
    fn past_deadline(&self) -> bool {
        self.deadline
            .is_some_and(|at| std::time::Instant::now() >= at)
    }

    /// Builds a solver preloaded with a CNF formula's variables and
    /// clauses.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        for _ in 0..cnf.num_vars() {
            s.new_var();
        }
        for c in cnf.clauses() {
            s.add_clause(c);
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBOOL_UNDEF);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v.index(), &self.activity);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Learnt clauses currently live in the database (learned minus
    /// reduced) — what a new assumption scope opened on this solver
    /// starts warm with.
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Adds a clause. Returns `false` if the formula is now known
    /// unsatisfiable at the top level.
    ///
    /// Tautologies are dropped and duplicate literals merged. Must be
    /// called between solve calls (the solver is always at decision
    /// level zero then).
    ///
    /// # Panics
    ///
    /// Panics if any literal's variable has not been allocated.
    pub fn add_clause(&mut self, clause: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        if let Some(p) = &mut self.proof {
            // The certificate checks against the formula exactly as
            // given; the simplifications below are the solver's own
            // business and never seen by the checker.
            p.formula.push(clause.to_vec());
        }
        let mut lits: Vec<Lit> = Vec::with_capacity(clause.len());
        for &l in clause {
            assert!(l.var().index() < self.num_vars(), "unallocated {l:?}");
            match self.lit_value(l) {
                Some(true) => return true, // satisfied at level 0
                Some(false) => continue,   // falsified at level 0: drop
                None => {}
            }
            if lits.contains(&!l) {
                return true; // tautology
            }
            if !lits.contains(&l) {
                lits.push(l);
            }
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(lits, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as ClauseRef;
        self.watches[lits[0].index()].push(cref);
        self.watches[lits[1].index()].push(cref);
        if learnt {
            self.num_learnts += 1;
        }
        self.stats.clause_db_bytes += clause_resident_bytes(lits.len());
        self.clauses.push(Clause {
            lits,
            activity: 0.0,
            learnt,
            deleted: false,
        });
        cref
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        match self.assigns[l.var().index()] {
            LBOOL_UNDEF => None,
            x => Some((x == 1) != l.is_neg()),
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer.
    ///
    /// Returns `None` if no model is available (no successful solve
    /// yet, or the variable was created afterwards).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied()
    }

    /// The full model after a [`SolveResult::Sat`] answer.
    pub fn model(&self) -> &[bool] {
        &self.model
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_none());
        let v = l.var();
        self.assigns[v.index()] = i8::from(!l.is_neg());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Propagates all enqueued facts. Returns the conflicting clause
    /// if a conflict arises.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            // Take the watch list to appease the borrow checker; we
            // rebuild it with the clauses that keep watching false_lit.
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                if self.clauses[cref as usize].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure false_lit is at position 1.
                {
                    let c = &mut self.clauses[cref as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cref as usize].lits[0];
                if self.lit_value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut moved = false;
                let len = self.clauses[cref as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref as usize].lits[k];
                    if self.lit_value(lk) != Some(false) {
                        self.clauses[cref as usize].lits.swap(1, k);
                        self.watches[lk.index()].push(cref);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == Some(false) {
                    self.watches[false_lit.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.index()] = ws;
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.increased(v.index(), &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc as f32;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn cla_decay(&mut self) {
        self.cla_inc /= 0.999;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with
    /// the asserting literal first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl;
        let mut to_clear: Vec<Var> = Vec::new();
        loop {
            if self.clauses[cref as usize].learnt {
                self.cla_bump(cref);
            }
            let start = usize::from(p.is_some());
            let lits = self.clauses[cref as usize].lits.clone();
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.var_bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next clause to look at: walk the trail
            // backwards to the most recent seen literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            cref = self.reason[pl.var().index()]
                .expect("non-decision literal on conflict side has a reason");
            p = Some(pl);
        }
        // Conflict-clause minimization (local): drop literals implied
        // by the rest of the clause through their reason clauses.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.redundant(l))
            .collect();
        learnt.truncate(1);
        learnt.extend(keep);
        for v in to_clear {
            self.seen[v.index()] = false;
        }
        let bt = if learnt.len() == 1 {
            0
        } else {
            // Second-highest decision level in the clause; move that
            // literal to position 1 so it is watched.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    /// A literal is redundant in the learnt clause if its reason
    /// clause's other literals are all already seen (a cheap, local
    /// version of MiniSAT's recursive minimization).
    fn redundant(&self, l: Lit) -> bool {
        match self.reason[l.var().index()] {
            None => false,
            Some(cref) => self.clauses[cref as usize].lits[1..]
                .iter()
                .all(|&q| self.seen[q.var().index()] || self.level[q.var().index()] == 0),
        }
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = l.var();
                self.polarity[v.index()] = !l.is_neg();
                self.assigns[v.index()] = LBOOL_UNDEF;
                self.reason[v.index()] = None;
                if !self.order.contains(v.index()) {
                    self.order.insert(v.index(), &self.activity);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v] == LBOOL_UNDEF {
                return Some(Lit::new(Var(v as u32), self.polarity[v]));
            }
        }
        None
    }

    fn max_learnts(&self) -> usize {
        (self.clauses.len() - self.num_learnts) / 3 + 2000
    }

    /// Removes roughly half of the learnt clauses, lowest activity
    /// first, keeping clauses that are reasons for current assignments.
    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<ClauseRef> = (0..self.clauses.len() as ClauseRef)
            .filter(|&c| {
                let cl = &self.clauses[c as usize];
                cl.learnt && !cl.deleted
            })
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .expect("activities are finite")
        });
        let locked: Vec<bool> = learnt_refs
            .iter()
            .map(|&c| {
                let first = self.clauses[c as usize].lits[0];
                self.reason[first.var().index()] == Some(c) && self.lit_value(first) == Some(true)
            })
            .collect();
        let target = learnt_refs.len() / 2;
        let mut removed = 0usize;
        for (i, &c) in learnt_refs.iter().enumerate() {
            if removed >= target {
                break;
            }
            if locked[i] {
                continue;
            }
            // A deleted clause is never read again (`propagate` checks
            // the flag first), so its literals are freed here rather
            // than kept for the solver's whole life: the
            // `clause_db_bytes` gauge the memory governor trusts then
            // matches what is really held.
            let clause = &mut self.clauses[c as usize];
            clause.deleted = true;
            let lits = std::mem::take(&mut clause.lits);
            self.num_learnts -= 1;
            self.stats.clause_db_bytes = self
                .stats
                .clause_db_bytes
                .saturating_sub(clause_resident_bytes(lits.len()));
            removed += 1;
            self.record_delete(&lits);
        }
        self.stats.removed += removed as u64;
        // Watches are cleaned lazily in propagate (deleted clauses are
        // dropped when encountered).
    }

    fn search(
        &mut self,
        conflict_limit: u64,
        budget: &mut Option<u64>,
        assumptions: &[Lit],
    ) -> Search {
        let mut conflicts_here = 0u64;
        let mut steps_since_clock = 0u32;
        loop {
            if self.interrupted() {
                return Search::Budget;
            }
            // Reading the clock is a syscall, so only sample it every
            // 64 iterations; each iteration is one conflict or one
            // decision, so the overshoot past the deadline is tiny.
            if self.deadline.is_some() {
                steps_since_clock += 1;
                if steps_since_clock >= 64 {
                    steps_since_clock = 0;
                    if self.past_deadline() {
                        return Search::Budget;
                    }
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if let Some(b) = budget {
                    if *b == 0 {
                        return Search::Budget;
                    }
                    *b -= 1;
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    // The conflict at level zero is the derivation of
                    // the empty clause.
                    self.record_add(&[]);
                    return Search::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                // Backtracking may undo assumption levels; they are
                // re-applied by the decision loop below, which reports
                // Unsat if one of them is now falsified.
                self.backtrack(bt);
                self.stats.learned += 1;
                self.record_add(&learnt);
                if learnt.len() == 1 {
                    debug_assert_eq!(self.decision_level(), 0);
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let first = learnt[0];
                    let cref = self.attach_clause(learnt, true);
                    self.unchecked_enqueue(first, Some(cref));
                }
                self.var_decay();
                self.cla_decay();
            } else {
                if conflicts_here >= conflict_limit {
                    self.backtrack(0);
                    return Search::Restart;
                }
                if self.num_learnts >= self.max_learnts() {
                    self.reduce_db();
                }
                // Honor assumptions before free decisions.
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        Some(true) => {
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => return Search::Unsat,
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                            break;
                        }
                    }
                }
                if self.qhead < self.trail.len() {
                    continue;
                }
                match self.pick_branch() {
                    None => return Search::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(&[], None)
    }

    /// Solves under temporary unit assumptions.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, None)
    }

    /// Solves under assumptions with a conflict budget; returns
    /// [`SolveResult::Unknown`] when the budget runs out.
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        conflict_budget: Option<u64>,
    ) -> SolveResult {
        self.stats.solves += 1;
        if let Some(p) = &mut self.proof {
            p.certifiable = false;
            p.assumptions.clear();
            p.assumptions.extend_from_slice(assumptions);
        }
        if !self.ok {
            // The formula is unsatisfiable outright; the cumulative
            // proof already derives the conflict with no assumptions.
            if let Some(p) = &mut self.proof {
                p.certifiable = !p.overflowed;
            }
            return SolveResult::Unsat;
        }
        if self.past_deadline() {
            return SolveResult::Unknown;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut budget = conflict_budget;
        let mut restart = 0u32;
        let result = loop {
            let limit = 64 * luby(restart);
            match self.search(limit, &mut budget, assumptions) {
                Search::Sat => {
                    self.model = self.assigns.iter().map(|&a| a == 1).collect();
                    break SolveResult::Sat;
                }
                Search::Unsat => break SolveResult::Unsat,
                Search::Budget => break SolveResult::Unknown,
                Search::Restart => {
                    self.stats.restarts += 1;
                    restart += 1;
                    // The in-search clock sampling only fires every 64
                    // iterations *of one search call*; a restart resets
                    // that counter, so long-propagation instances could
                    // string together restarts without ever sampling
                    // the clock. Checking here bounds the overshoot
                    // past the deadline by one restart interval.
                    if self.past_deadline() {
                        break SolveResult::Unknown;
                    }
                }
            }
        };
        if result == SolveResult::Unsat {
            if let Some(p) = &mut self.proof {
                p.certifiable = !p.overflowed;
            }
        }
        self.backtrack(0);
        result
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, …
fn luby(i: u32) -> u64 {
    // Find the finite subsequence containing index i.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < (i as u64) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i as u64;
    let mut sz = size;
    let mut sq = seq;
    while sz - 1 != i {
        sz = (sz - 1) / 2;
        sq -= 1;
        i %= sz;
    }
    1u64 << sq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(x: i32) -> Lit {
        Lit::new(Var(x.unsigned_abs() - 1), x > 0)
    }

    fn solver_with(num_vars: usize, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&x| lit(x)).collect();
            s.add_clause(&lits);
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with(1, &[&[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var(0)), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn chain_implications() {
        // x1 -> x2 -> ... -> x10, x1 forced.
        let mut s = Solver::new();
        for _ in 0..10 {
            s.new_var();
        }
        s.add_clause(&[lit(1)]);
        for i in 1..10 {
            s.add_clause(&[lit(-i), lit(i + 1)]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in 0..10 {
            assert_eq!(s.value(Var(v)), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. vars: 3 pigeons x 2 holes.
        // v(i,j) = i*2 + j + 1
        let v = |i: i32, j: i32| i * 2 + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    clauses.push(vec![-v(i1, j), -v(i2, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5i32;
        let h = 4i32;
        let v = |i: i32, j: i32| i * h + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..n {
            clauses.push((0..h).map(|j| v(i, j)).collect());
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    clauses.push(vec![-v(i1, j), -v(i2, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with((n * h) as usize, &refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_flip_answers() {
        // (a | b) & (!a | b): b=0 requires a contradiction.
        let mut s = solver_with(2, &[&[1, 2], &[-1, 2]]);
        assert_eq!(s.solve_with_assumptions(&[lit(-2)]), SolveResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[lit(2)]), SolveResult::Sat);
        // Incremental reuse with no assumptions still works.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var(1)), Some(true));
    }

    #[test]
    fn assumption_of_fixed_literal() {
        let mut s = solver_with(2, &[&[1], &[1, 2]]);
        assert_eq!(s.solve_with_assumptions(&[lit(1)]), SolveResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[lit(-1)]), SolveResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var(1)), Some(true));
        s.add_clause(&[lit(-2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once unsat, stays unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn budget_returns_unknown_on_hard_instance() {
        // A PHP(7,6) instance with a 1-conflict budget cannot finish.
        let n = 7i32;
        let h = 6i32;
        let v = |i: i32, j: i32| i * h + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..n {
            clauses.push((0..h).map(|j| v(i, j)).collect());
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    clauses.push(vec![-v(i1, j), -v(i2, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with((n * h) as usize, &refs);
        assert_eq!(s.solve_limited(&[], Some(1)), SolveResult::Unknown);
        // With no budget it finishes.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_formula() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for round in 0..30 {
            let nv = rng.gen_range(3..15usize);
            let nc = rng.gen_range(1..40usize);
            let mut cnf = Cnf::new();
            cnf.new_vars(nv as u32);
            for _ in 0..nc {
                let len = rng.gen_range(1..4usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var(rng.gen_range(0..nv) as u32), rng.gen()))
                    .collect();
                cnf.add_clause(lits);
            }
            let mut s = Solver::from_cnf(&cnf);
            match s.solve() {
                SolveResult::Sat => {
                    assert!(
                        cnf.eval(s.model()),
                        "model must satisfy formula (round {round})"
                    );
                }
                SolveResult::Unsat => {
                    // Cross-check with brute force.
                    let mut any = false;
                    for m in 0..(1u64 << nv) {
                        let assign: Vec<bool> = (0..nv).map(|i| (m >> i) & 1 == 1).collect();
                        if cnf.eval(&assign) {
                            any = true;
                            break;
                        }
                    }
                    assert!(!any, "solver said unsat but a model exists (round {round})");
                }
                SolveResult::Unknown => panic!("no budget was set"),
            }
        }
    }

    #[test]
    fn interrupt_flag_aborts_solves() {
        let n = 7i32;
        let h = 6i32;
        let v = |i: i32, j: i32| i * h + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..n {
            clauses.push((0..h).map(|j| v(i, j)).collect());
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    clauses.push(vec![-v(i1, j), -v(i2, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with((n * h) as usize, &refs);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Arc::clone(&flag));
        // Raised flag: even an unbounded solve returns Unknown.
        assert_eq!(s.solve_limited(&[], None), SolveResult::Unknown);
        // Lowered flag: the same instance solves normally.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn past_deadline_aborts_solves() {
        let mut s = solver_with(2, &[&[1, 2], &[-1, 2]]);
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_secs(1),
        ));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Clearing the deadline restores normal solving.
        s.set_deadline(None);
        assert_eq!(s.solve(), SolveResult::Sat);
        // A comfortably distant deadline never fires on an easy instance.
        s.set_deadline(Some(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
        ));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn deadline_expiring_mid_search_aborts_promptly() {
        // Satellite regression for the restart-boundary check: a
        // deadline that expires *during* the solve must abort the
        // query within a bounded number of steps — at the next 64-step
        // clock sample or the next restart, whichever comes first —
        // even on an instance the solver could chew on for ages.
        let (nv, clauses) = pigeonhole(8);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(nv, &refs);
        s.set_deadline(Some(
            std::time::Instant::now() + std::time::Duration::from_millis(2),
        ));
        let start = std::time::Instant::now();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "deadline overshoot must stay bounded"
        );
    }

    #[test]
    fn established_unsat_outranks_deadline() {
        // A top-level conflict makes the formula unsat forever; that
        // answer is sound and must not be masked by an expired clock.
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_secs(1),
        ));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = solver_with(2, &[]);
        assert!(s.add_clause(&[lit(1), lit(1), lit(2)]));
        assert!(s.add_clause(&[lit(1), lit(-1)])); // tautology: dropped
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// PHP(n, n-1) clauses — the stock hard-but-small UNSAT family.
    fn pigeonhole(n: i32) -> (usize, Vec<Vec<i32>>) {
        let h = n - 1;
        let v = |i: i32, j: i32| i * h + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..n {
            clauses.push((0..h).map(|j| v(i, j)).collect());
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    clauses.push(vec![-v(i1, j), -v(i2, j)]);
                }
            }
        }
        ((n * h) as usize, clauses)
    }

    fn logged_solver(num_vars: usize, clauses: &[Vec<i32>]) -> Solver {
        let mut s = Solver::new();
        s.enable_proof_logging(1 << 20);
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&x| lit(x)).collect();
            s.add_clause(&lits);
        }
        s
    }

    #[test]
    fn unsat_proof_passes_the_drat_checker() {
        let (nv, clauses) = pigeonhole(4);
        let mut s = logged_solver(nv, &clauses);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().expect("unsat with logging certifies");
        assert_eq!(cert.check(), Ok(()));
        assert!(s.stats().proof_clauses > 0);
        assert!(s.stats().proof_bytes > 0);
    }

    #[test]
    fn assumption_unsat_is_certifiable_per_query() {
        let mut s = Solver::new();
        s.enable_proof_logging(1 << 20);
        for _ in 0..2 {
            s.new_var();
        }
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(-1), lit(2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(-2)]), SolveResult::Unsat);
        let cert = s.certificate().expect("assumption unsat certifies");
        assert_eq!(cert.assumptions, &[lit(-2)]);
        assert_eq!(cert.check(), Ok(()));
        // A Sat answer on the same instance never yields a certificate.
        assert_eq!(s.solve_with_assumptions(&[lit(2)]), SolveResult::Sat);
        assert!(s.certificate().is_none());
    }

    #[test]
    fn incremental_unsat_keeps_a_checkable_proof() {
        // Clauses arrive interleaved with solves; the cumulative
        // proof must stay valid across the whole history.
        let mut s = Solver::new();
        s.enable_proof_logging(1 << 20);
        for _ in 0..3 {
            s.new_var();
        }
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[lit(-1), lit(3)]);
        s.add_clause(&[lit(-2), lit(3)]);
        assert_eq!(s.solve_with_assumptions(&[lit(-3)]), SolveResult::Unsat);
        let cert = s.certificate().expect("certificate");
        assert_eq!(cert.check(), Ok(()));
        // Once the formula itself turns unsat, later queries certify
        // from the same cumulative proof.
        s.add_clause(&[lit(-3)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[lit(1)]), SolveResult::Unsat);
        let cert = s.certificate().expect("sticky unsat certifies");
        assert_eq!(cert.check(), Ok(()));
    }

    #[test]
    fn interrupted_query_leaves_proof_clean_and_uncertified() {
        // Satellite regression: a query cut short mid-search (budget,
        // interrupt or deadline) must report Unknown with *no*
        // certificate, while the proof log stays valid for the next
        // query.
        let (nv, clauses) = pigeonhole(7);
        let mut s = logged_solver(nv, &clauses);

        // Conflict budget expiry mid-query.
        assert_eq!(s.solve_limited(&[], Some(1)), SolveResult::Unknown);
        assert!(s.certificate().is_none(), "Unknown must not certify");

        // Interrupt flag raised before the query.
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Arc::clone(&flag));
        assert_eq!(s.solve_limited(&[], None), SolveResult::Unknown);
        assert!(s.certificate().is_none());
        flag.store(false, Ordering::Relaxed);

        // Expired deadline.
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_secs(1),
        ));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(s.certificate().is_none());
        s.set_deadline(None);

        // The aborted attempts left real learnt clauses behind; the
        // eventual Unsat still carries a proof the checker accepts.
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().expect("full solve certifies");
        assert_eq!(cert.check(), Ok(()));
    }

    #[test]
    fn overflowed_byte_budget_disables_certification() {
        let (nv, clauses) = pigeonhole(4);
        let mut s = Solver::new();
        s.enable_proof_logging(8); // absurdly small: overflows at once
        for _ in 0..nv {
            s.new_var();
        }
        for c in &clauses {
            let lits: Vec<Lit> = c.iter().map(|&x| lit(x)).collect();
            s.add_clause(&lits);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.proof_overflowed());
        assert!(
            s.certificate().is_none(),
            "an incomplete proof must never certify"
        );
        // Recorded bytes never exceed the budget.
        assert!(s.stats().proof_bytes <= 8);
    }

    #[test]
    fn proof_stats_flow_through_add_assign() {
        let (nv, clauses) = pigeonhole(3);
        let mut s = logged_solver(nv, &clauses);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let mut total = SolverStats::default();
        total += s.stats();
        total += s.stats();
        assert_eq!(total.proof_clauses, 2 * s.stats().proof_clauses);
        assert_eq!(total.proof_bytes, 2 * s.stats().proof_bytes);
    }

    #[test]
    fn logging_disabled_records_nothing() {
        let (nv, clauses) = pigeonhole(4);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(nv, &refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.proof_logging());
        assert!(s.certificate().is_none());
        assert_eq!(s.stats().proof_clauses, 0);
        assert_eq!(s.stats().proof_bytes, 0);
    }

    #[test]
    fn drat_line_byte_estimate_matches_text() {
        // "-10 3 0\n" = 8 bytes; "d 1 2 0\n" = 8 bytes; "0\n" = 2.
        assert_eq!(drat_line_bytes(&[lit(-10), lit(3)], false), 8);
        assert_eq!(drat_line_bytes(&[lit(1), lit(2)], true), 8);
        assert_eq!(drat_line_bytes(&[], false), 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with(2, &[&[1, 2], &[-1, 2]]);
        let _ = s.solve();
        let st = s.stats();
        assert_eq!(st.solves, 1);
        let _ = s.solve_with_assumptions(&[lit(-2)]);
        assert_eq!(s.stats().solves, 2);
        assert!(s.stats().conflicts >= st.conflicts);
    }

    #[test]
    fn clause_db_bytes_tracks_stored_clauses() {
        let mut s = solver_with(2, &[&[1, 2], &[-1, 2]]);
        // Two binary clauses: 2 × (32 + 4·2).
        assert_eq!(s.stats().clause_db_bytes, 2 * 40);
        let _ = s.solve();
        // Units enqueued at level 0 are not stored, so solving this
        // trivial instance must not inflate the gauge.
        assert_eq!(s.stats().clause_db_bytes, 2 * 40);
    }

    #[test]
    fn reduced_clauses_release_their_literals() {
        // PHP(9, 8) learns well past the 2000-clause reduction
        // threshold inside a 6000-conflict budget.
        let (nv, clauses) = pigeonhole(9);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(nv, &refs);
        assert_eq!(s.solve_limited(&[], Some(6000)), SolveResult::Unknown);
        assert!(s.stats().removed > 0, "the database was reduced");
        let deleted: Vec<&Clause> = s.clauses.iter().filter(|c| c.deleted).collect();
        assert_eq!(deleted.len() as u64, s.stats().removed);
        assert!(deleted.iter().all(|c| c.lits.capacity() == 0));
        // The gauge counts exactly the clauses still stored.
        let live: u64 = s
            .clauses
            .iter()
            .filter(|c| !c.deleted)
            .map(|c| clause_resident_bytes(c.lits.len()))
            .sum();
        assert_eq!(s.stats().clause_db_bytes, live);
        // The solver keeps working on the reduced database.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn clause_db_bytes_shrinks_on_reduction() {
        // A hard instance that learns enough to trigger reduce_db is
        // overkill here; instead exercise the arithmetic directly.
        let a = SolverStats {
            clause_db_bytes: 100,
            ..SolverStats::default()
        };
        let b = SolverStats {
            clause_db_bytes: 240,
            ..SolverStats::default()
        };
        assert_eq!((b - a).clause_db_bytes, 140);
        assert_eq!((a - b).clause_db_bytes, 0, "saturating, never wraps");
        let mut t = a;
        t += b;
        assert_eq!(t.clause_db_bytes, 340);
    }
}
