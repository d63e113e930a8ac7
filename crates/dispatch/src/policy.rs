//! Per-pair engine selection: which proof engines a pair visits, in
//! what order, and whether SAT queries run against a shared
//! incremental region solver or a cold per-pair one.
//!
//! Candidate pairs reach the prover already filtered by simulation
//! evidence (they survived every random and guided pattern), so the
//! policy's job is choosing between the two complete engines — BDD
//! within a node limit and SAT within the sweep's conflict budget, the
//! paper's "BDD or SAT" — and the SAT solver's reuse mode.

/// Engine ordering for one pair proof.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// One SAT attempt per pair; the BDD engine is never consulted.
    /// The classical sweeping order and the default, spelled
    /// `default`, `auto` or `sat-only` on the command line.
    #[default]
    Sat,
    /// Try the BDD engine before spending any SAT conflicts, falling
    /// back to SAT when the node limit trips. Wins on
    /// control-dominated cones where BDDs stay small; loses badly on
    /// arithmetic.
    BddFirst,
    /// Resolve every pair with the BDD engine alone (the "BDD" arm of
    /// the paper's Figure 2): a pair whose BDDs exceed the node limit
    /// stays unresolved instead of falling through to SAT. Under
    /// certification SAT proves the pair instead, since BDD answers
    /// carry no DRAT certificate. A library-level setting for the
    /// BDD-versus-SAT experiments; `--engine-policy` does not offer it.
    BddOnly,
}

impl EngineMode {
    /// Parses the `--engine-policy` CLI value.
    pub fn parse(text: &str) -> Option<EngineMode> {
        match text {
            "default" | "auto" | "sat-only" => Some(EngineMode::Sat),
            "bdd-first" => Some(EngineMode::BddFirst),
            _ => None,
        }
    }

    /// The canonical CLI/report spelling.
    pub fn name(&self) -> &'static str {
        match self {
            EngineMode::Sat => "default",
            EngineMode::BddFirst => "bdd-first",
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
    /// default): a region solver then lives for its whole job, one
    /// region's pairs in one round.
    pub rebuild_bloat: u32,
    /// Node limit of the BDD engine, read only by
    /// [`EngineMode::BddFirst`] and [`EngineMode::BddOnly`]; a pair
    /// whose BDDs outgrow it is left to SAT or left unresolved.
    /// Defaults to 10 000, which no CLI flag changes.
    pub bdd_node_limit: usize,
}

impl Default for EnginePolicy {
    /// Incremental region solvers, SAT only, no bloat-triggered
    /// restarts.
    fn default() -> Self {
        EnginePolicy {
            incremental: true,
            mode: EngineMode::Sat,
            rebuild_bloat: 0,
            bdd_node_limit: 10_000,
        }
    }
}

impl EnginePolicy {
    /// True when the BDD engine should run *before* SAT for a pair
    /// (never under certification — BDD answers carry no DRAT
    /// certificate).
    pub fn bdd_primary(&self, certify: bool) -> bool {
        matches!(self.mode, EngineMode::BddFirst | EngineMode::BddOnly) && !certify
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_spellings() {
        for text in ["default", "auto", "sat-only"] {
            assert_eq!(EngineMode::parse(text), Some(EngineMode::Sat), "{text}");
        }
        assert_eq!(EngineMode::parse("bdd-first"), Some(EngineMode::BddFirst));
        assert_eq!(EngineMode::parse("fastest"), None);
        for mode in [EngineMode::Sat, EngineMode::BddFirst] {
            assert_eq!(EngineMode::parse(mode.name()), Some(mode), "round trip");
        }
        assert_eq!(
            EngineMode::parse(EngineMode::BddOnly.name()),
            None,
            "bdd-only is not a CLI choice"
        );
        let p = EnginePolicy::default();
        assert!(p.incremental);
        assert_eq!(p.mode, EngineMode::Sat);
        assert_eq!(p.bdd_node_limit, 10_000);
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
        }
        let sat = EnginePolicy::default();
        assert!(!sat.bdd_primary(false), "SAT never consults BDDs");
        assert!(!sat.bdd_primary(true));
    }
}
