//! Per-pair engine selection: which proof engines a pair visits, in
//! what order, and whether the SAT rungs run against a shared
//! incremental region solver or a cold per-pair one.
//!
//! The [`BudgetSchedule`](crate::BudgetSchedule) ladder prices *how
//! much* effort each rung gets; [`EnginePolicy`] decides *which*
//! engines form the ladder. Candidate pairs reach the prover already
//! filtered by simulation evidence (they survived every random and
//! guided pattern), so the policy's job is ordering the two complete
//! engines — BDD within a node limit, then incremental SAT — and
//! choosing the SAT solver's reuse mode.

/// Engine ordering for one pair proof.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// SAT ladder first; BDD only as the fallback after the ladder is
    /// exhausted (and only when the schedule's `bdd_node_limit` allows
    /// it). This is the classical sweeping order and the default.
    #[default]
    Auto,
    /// Try the BDD engine before spending any SAT conflicts, falling
    /// back to the SAT ladder when the node limit trips. Wins on
    /// control-dominated cones where BDDs stay small; loses badly on
    /// arithmetic.
    BddFirst,
    /// Never consult the BDD engine, even as a fallback.
    SatOnly,
    /// Resolve every pair with the BDD engine alone (the "BDD" arm of
    /// the paper's Figure 2): a pair whose BDDs exceed the node limit
    /// stays unresolved instead of falling through to SAT. Under
    /// certification the SAT ladder proves the pair instead, since BDD
    /// answers carry no DRAT certificate. A library-level setting for
    /// the BDD-versus-SAT experiments; `--engine-policy` does not
    /// offer it.
    BddOnly,
}

impl EngineMode {
    /// Parses the `--engine-policy` CLI value.
    pub fn parse(text: &str) -> Option<EngineMode> {
        match text {
            "default" | "auto" => Some(EngineMode::Auto),
            "bdd-first" => Some(EngineMode::BddFirst),
            "sat-only" => Some(EngineMode::SatOnly),
            _ => None,
        }
    }

    /// The canonical CLI/report spelling.
    pub fn name(&self) -> &'static str {
        match self {
            EngineMode::Auto => "default",
            EngineMode::BddFirst => "bdd-first",
            EngineMode::SatOnly => "sat-only",
            EngineMode::BddOnly => "bdd-only",
        }
    }
}

/// The full per-pair engine-selection policy a sweep runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnginePolicy {
    /// Route each fanin region's pairs through one long-lived
    /// assumption-scoped SAT solver (shared cone encoding, learnt
    /// clauses retained across the region's miters). `false` falls
    /// back to a cold solver per pair — the `--no-incremental` escape
    /// hatch, and the baseline the parity tests compare against.
    pub incremental: bool,
    /// Engine ordering for each pair.
    pub mode: EngineMode,
    /// Region-solver restart threshold, as a multiple of the solver's
    /// post-seeding clause-database footprint. Once a region solver's
    /// clause database grows past `baseline × rebuild_bloat`, the
    /// engine folds its totals into the run accounting and rebuilds it
    /// from the region's seed equivalences — trading the warm learnt
    /// clauses for bounded memory. `0` disables restarts (the
    /// default): a region solver lives for the whole sweep.
    pub rebuild_bloat: u32,
}

impl Default for EnginePolicy {
    /// Incremental region solvers with the classical SAT-then-BDD
    /// order and no bloat-triggered restarts.
    fn default() -> Self {
        EnginePolicy {
            incremental: true,
            mode: EngineMode::Auto,
            rebuild_bloat: 0,
        }
    }
}

impl EnginePolicy {
    /// True when the BDD engine should run *before* the SAT ladder
    /// for a pair (never under certification — BDD answers carry no
    /// DRAT certificate).
    pub fn bdd_primary(&self, certify: bool) -> bool {
        matches!(self.mode, EngineMode::BddFirst | EngineMode::BddOnly) && !certify
    }

    /// True when the BDD engine may run as the post-ladder fallback.
    pub fn bdd_fallback(&self, node_limit: usize, certify: bool) -> bool {
        self.mode != EngineMode::SatOnly && node_limit > 0 && !certify
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_spellings() {
        assert_eq!(EngineMode::parse("default"), Some(EngineMode::Auto));
        assert_eq!(EngineMode::parse("auto"), Some(EngineMode::Auto));
        assert_eq!(EngineMode::parse("bdd-first"), Some(EngineMode::BddFirst));
        assert_eq!(EngineMode::parse("sat-only"), Some(EngineMode::SatOnly));
        assert_eq!(EngineMode::parse("fastest"), None);
        for mode in [EngineMode::Auto, EngineMode::BddFirst, EngineMode::SatOnly] {
            assert_eq!(EngineMode::parse(mode.name()), Some(mode), "round trip");
        }
        assert_eq!(
            EngineMode::parse(EngineMode::BddOnly.name()),
            None,
            "bdd-only is not a CLI choice"
        );
    }

    #[test]
    fn default_policy_matches_classical_sweeping() {
        let p = EnginePolicy::default();
        assert!(p.incremental);
        assert_eq!(p.mode, EngineMode::Auto);
        assert!(!p.bdd_primary(false));
        assert!(p.bdd_fallback(1_000, false), "fallback behind a node limit");
        assert!(!p.bdd_fallback(0, false), "no node limit, no fallback");
    }

    #[test]
    fn certification_always_suppresses_bdds() {
        for mode in [EngineMode::BddFirst, EngineMode::BddOnly] {
            let p = EnginePolicy {
                mode,
                ..EnginePolicy::default()
            };
            assert!(p.bdd_primary(false), "{mode:?}");
            assert!(!p.bdd_primary(true), "BDD verdicts cannot be certified");
            assert!(!p.bdd_fallback(1_000, true));
        }
    }

    #[test]
    fn sat_only_never_consults_bdds() {
        let p = EnginePolicy {
            incremental: false,
            mode: EngineMode::SatOnly,
            ..EnginePolicy::default()
        };
        assert!(!p.bdd_primary(false));
        assert!(!p.bdd_fallback(usize::MAX, false));
    }
}
