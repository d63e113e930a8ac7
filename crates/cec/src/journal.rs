//! Write-ahead sweep journal: crash-safe checkpoint/resume for the
//! round-synchronized sweeper.
//!
//! At every round barrier the sweeper appends one record describing
//! everything the round decided: the resolved pair verdicts (with
//! counterexample witnesses), how many pairs were dispatched to
//! workers, a signature of the surviving equivalence-class partition,
//! and cumulative snapshots of the deterministic counters and sweep
//! statistics. The journal is a file of sealed JSON lines
//! ([`simgen_cache::record`], the format of cache entry files too)
//! rewritten with [`simgen_obs::atomic_write`] on each commit, so a
//! crash at any instant leaves either the previous complete journal or
//! the new one — never a torn record.
//!
//! ## Resume semantics
//!
//! The simulation phases are deterministic and cheap relative to SAT,
//! so a resumed run re-executes them live and only skips the proof
//! dispatches. For each journaled round the sweeper:
//!
//! 1. rebuilds the round's candidate pairs from its own (live) state
//!    and checks they match the record — a mismatch means the journal
//!    belongs to a different run, and replay stops there;
//! 2. applies the recorded verdicts through the same `apply` a live
//!    round uses (merges, counterexample buffering, quarantine),
//!    **without** bumping any counters or statistics;
//! 3. re-runs the counterexample resimulation flush live (it is
//!    deterministic, and it rebuilds the pattern set and class
//!    partition exactly as the original run saw them);
//! 4. restores the counter and statistics snapshots from the record,
//!    making the observable state byte-identical to the original
//!    run's state at that barrier;
//! 5. verifies the class-partition signature.
//!
//! Because the restored state equals the crashed run's state at the
//! last complete barrier — which equals an uninterrupted run's state
//! at the same barrier — the rounds that follow, and the stripped
//! run report, are byte-identical to an uninterrupted run.
//!
//! Already-certified verdicts are not re-proved: an `Equivalent`
//! record was only written after the live round's trust checks
//! (DRAT certification under `--certify`) passed, and journaled
//! counterexamples are re-validated structurally by the live
//! resimulation flush, which refines classes only where the witness
//! actually distinguishes nodes.

use std::io;
use std::path::PathBuf;

use simgen_cache::record::{bits_from_string, bits_to_string, hex, open_line, seal};
use simgen_cache::{job_key, Sha256};
use simgen_dispatch::{EngineMode, EnginePolicy};
use simgen_netlist::{LutNetwork, NodeId};
use simgen_obs::{atomic_write, Counter, Json, Observer};

use crate::prove::Verdict;
use crate::stats::{DispatchSummary, SweepStats};
use crate::sweep::SweepConfig;

/// Magic schema tag on the journal's meta line. Version 2 widened the
/// snapshot's solver row with `clause_db_bytes` (so the parallel
/// sweeper's memory governor sees identical estimates across a
/// resume) — version-1 journals fail the meta check and degrade to a
/// fresh live run, which is always sound.
pub const JOURNAL_SCHEMA: &str = "simgen-sweep-journal/2";

/// File name of the journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "sweep.journal";

/// Test hook: when this environment variable holds a round number,
/// the process SIGKILLs itself immediately after committing that
/// round's journal record — a deterministic stand-in for a crash,
/// OOM kill, or power loss at the worst possible moment.
pub const CRASH_ENV: &str = "SIMGEN_CRASH_AFTER_ROUND";

/// The on-disk tag of a journaled verdict.
fn tag(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Equivalent => "eq",
        Verdict::Counterexample(_) => "cex",
        Verdict::Undecided => "undec",
        Verdict::Panicked => "panic",
        Verdict::Skipped => "skip",
        Verdict::CertificationFailed { replay: true } => "certfail-replay",
        Verdict::CertificationFailed { replay: false } => "certfail-check",
    }
}

/// One resolved pair inside a round record (raw node indices — the
/// journal outlives any particular `LutNetwork` borrow).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairRecord {
    /// Class representative's node index.
    pub rep: usize,
    /// Candidate's node index.
    pub cand: usize,
    /// How the pair was resolved.
    pub verdict: Verdict,
}

/// Cumulative sweep-statistics snapshot at a round barrier — exactly
/// the fields that survive report stripping and are owned by the SAT
/// phase (simulation-phase fields are reproduced live on resume).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// [`SweepStats::sat_calls`].
    pub sat_calls: u64,
    /// [`SweepStats::proved_equivalent`].
    pub proved_equivalent: u64,
    /// [`SweepStats::disproved`].
    pub disproved: u64,
    /// [`SweepStats::aborted`].
    pub aborted: u64,
    /// [`SweepStats::certification_failures`].
    pub certification_failures: u64,
    /// [`SweepStats::solver`] totals, in field order: decisions,
    /// propagations, conflicts, restarts, learned, removed, solves,
    /// proof_clauses, proof_bytes, clause_db_bytes.
    pub solver: [u64; 10],
    /// [`DispatchSummary`] totals: rounds, quarantined, proofs,
    /// conflicts, timeouts, a retired escalation slot (written 0,
    /// ignored on restore), panics.
    pub dispatch: [u64; 7],
}

impl StatsSnapshot {
    /// Captures the cumulative SAT-phase state at a round barrier.
    pub(crate) fn capture(stats: &SweepStats, summary: &DispatchSummary) -> StatsSnapshot {
        let s = &stats.solver;
        StatsSnapshot {
            sat_calls: stats.sat_calls,
            proved_equivalent: stats.proved_equivalent,
            disproved: stats.disproved,
            aborted: stats.aborted,
            certification_failures: stats.certification_failures,
            solver: [
                s.decisions,
                s.propagations,
                s.conflicts,
                s.restarts,
                s.learned,
                s.removed,
                s.solves,
                s.proof_clauses,
                s.proof_bytes,
                s.clause_db_bytes,
            ],
            dispatch: [
                summary.rounds,
                summary.quarantined,
                summary.proofs,
                summary.conflicts,
                summary.timeouts,
                0,
                summary.panics,
            ],
        }
    }

    /// Restores the captured state by assignment. Only SAT-phase
    /// fields are touched; timings and simulation-phase fields keep
    /// their live values (they are stripped from deterministic
    /// reports, or reproduced exactly by the live replay).
    pub(crate) fn restore(&self, stats: &mut SweepStats, summary: &mut DispatchSummary) {
        stats.sat_calls = self.sat_calls;
        stats.proved_equivalent = self.proved_equivalent;
        stats.disproved = self.disproved;
        stats.aborted = self.aborted;
        stats.certification_failures = self.certification_failures;
        let [decisions, propagations, conflicts, restarts, learned, removed, solves, proof_clauses, proof_bytes, clause_db_bytes] =
            self.solver;
        stats.solver.decisions = decisions;
        stats.solver.propagations = propagations;
        stats.solver.conflicts = conflicts;
        stats.solver.restarts = restarts;
        stats.solver.learned = learned;
        stats.solver.removed = removed;
        stats.solver.solves = solves;
        stats.solver.proof_clauses = proof_clauses;
        stats.solver.proof_bytes = proof_bytes;
        stats.solver.clause_db_bytes = clause_db_bytes;
        let [rounds, quarantined, proofs, conflicts, timeouts, _, panics] = self.dispatch;
        summary.rounds = rounds;
        summary.quarantined = quarantined;
        summary.proofs = proofs;
        summary.conflicts = conflicts;
        summary.timeouts = timeouts;
        summary.panics = panics;
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("sat_calls", Json::U64(self.sat_calls));
        j.push("proved_equivalent", Json::U64(self.proved_equivalent));
        j.push("disproved", Json::U64(self.disproved));
        j.push("aborted", Json::U64(self.aborted));
        j.push(
            "certification_failures",
            Json::U64(self.certification_failures),
        );
        j.push(
            "solver",
            Json::Arr(self.solver.iter().map(|&v| Json::U64(v)).collect()),
        );
        j.push(
            "dispatch",
            Json::Arr(self.dispatch.iter().map(|&v| Json::U64(v)).collect()),
        );
        j
    }

    fn from_json(json: &Json) -> Option<StatsSnapshot> {
        let field = |name: &str| json.get(name).and_then(Json::as_u64);
        let array = |name: &str, out: &mut [u64]| -> Option<()> {
            let items = json.get(name)?.items()?;
            if items.len() != out.len() {
                return None;
            }
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = item.as_u64()?;
            }
            Some(())
        };
        let mut snap = StatsSnapshot {
            sat_calls: field("sat_calls")?,
            proved_equivalent: field("proved_equivalent")?,
            disproved: field("disproved")?,
            aborted: field("aborted")?,
            certification_failures: field("certification_failures")?,
            ..StatsSnapshot::default()
        };
        array("solver", &mut snap.solver)?;
        array("dispatch", &mut snap.dispatch)?;
        Some(snap)
    }
}

/// Everything one round barrier committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// 1-based round number (matches `DispatchSummary::rounds`).
    pub round: u64,
    /// Resolved pairs, in the round's deterministic pair order.
    pub pairs: Vec<PairRecord>,
    /// Pairs dispatched to a prover (the rest were answered by
    /// the proof cache) — advances the global fault-plan job index.
    pub dispatched: u64,
    /// Signature of the surviving class partition after the round's
    /// counterexample flush.
    pub class_sig: String,
    /// Cumulative deterministic-counter snapshot (`name -> value`).
    pub counters: Vec<(String, u64)>,
    /// Cumulative SAT-phase statistics snapshot.
    pub stats: StatsSnapshot,
}

impl RoundRecord {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("kind", Json::Str("round".to_string()));
        j.push("round", Json::U64(self.round));
        let pairs = self
            .pairs
            .iter()
            .map(|p| {
                let mut e = vec![
                    Json::U64(p.rep as u64),
                    Json::U64(p.cand as u64),
                    Json::Str(tag(&p.verdict).to_string()),
                ];
                if let Verdict::Counterexample(w) = &p.verdict {
                    e.push(Json::Str(bits_to_string(w)));
                }
                Json::Arr(e)
            })
            .collect();
        j.push("pairs", Json::Arr(pairs));
        j.push("dispatched", Json::U64(self.dispatched));
        j.push("classes", Json::Str(self.class_sig.clone()));
        let mut counters = Json::obj();
        for (name, value) in &self.counters {
            counters.push(name, Json::U64(*value));
        }
        j.push("counters", counters);
        j.push("stats", self.stats.to_json());
        j
    }

    fn from_json(json: &Json) -> Option<RoundRecord> {
        if json.get("kind").and_then(Json::as_str) != Some("round") {
            return None;
        }
        let mut pairs = Vec::new();
        for item in json.get("pairs")?.items()? {
            let fields = item.items()?;
            let rep = fields.first()?.as_u64()? as usize;
            let cand = fields.get(1)?.as_u64()? as usize;
            let verdict = match fields.get(2)?.as_str()? {
                "eq" => Verdict::Equivalent,
                "cex" => Verdict::Counterexample(bits_from_string(fields.get(3)?.as_str()?)?),
                "undec" => Verdict::Undecided,
                "panic" => Verdict::Panicked,
                "skip" => Verdict::Skipped,
                "certfail-replay" => Verdict::CertificationFailed { replay: true },
                "certfail-check" => Verdict::CertificationFailed { replay: false },
                _ => return None,
            };
            pairs.push(PairRecord { rep, cand, verdict });
        }
        let counters = json
            .get("counters")?
            .entries()?
            .iter()
            .map(|(name, value)| Some((name.clone(), value.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(RoundRecord {
            round: json.get("round")?.as_u64()?,
            pairs,
            dispatched: json.get("dispatched")?.as_u64()?,
            class_sig: json.get("classes")?.as_str()?.to_string(),
            counters,
            stats: StatsSnapshot::from_json(json.get("stats")?)?,
        })
    }
}

/// A write-ahead journal bound to one checkpoint directory.
///
/// Construct with [`SweepJournal::create`], then hand it to a run
/// through [`RunContext::journal`](crate::RunContext::journal). With
/// `resume` set, an existing valid journal whose
/// fingerprint matches the run is replayed; otherwise the file is
/// started fresh.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    resume: bool,
    /// Committed lines, meta first — the whole file is rewritten
    /// atomically on each commit.
    lines: Vec<String>,
    /// Validated rounds available for replay (resume mode only).
    replay: Vec<RoundRecord>,
    begun: bool,
    broken: bool,
}

impl SweepJournal {
    /// Opens (creating if needed) the checkpoint directory. `resume`
    /// selects whether an existing journal is replayed or replaced.
    pub fn create(dir: impl Into<PathBuf>, resume: bool) -> io::Result<SweepJournal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SweepJournal {
            path: dir.join(JOURNAL_FILE),
            resume,
            lines: Vec::new(),
            replay: Vec::new(),
            begun: false,
            broken: false,
        })
    }

    /// True when this journal was opened in resume mode.
    pub fn resuming(&self) -> bool {
        self.resume
    }

    /// Binds the journal to a concrete run. In resume mode the
    /// existing file is loaded and validated line by line (checksum,
    /// schema, fingerprint, contiguous round numbers); everything up
    /// to the first invalid line — a torn tail from a crash mid-write
    /// cannot survive `atomic_write`, but a stale or foreign file can
    /// — is kept for replay and the rest discarded.
    pub(crate) fn begin(&mut self, fingerprint: &str) {
        if self.begun {
            return;
        }
        self.begun = true;
        if self.resume {
            if let Ok(text) = std::fs::read_to_string(&self.path) {
                self.load(&text, fingerprint);
            }
        }
        if self.lines.is_empty() {
            let mut meta = Json::obj();
            meta.push("kind", Json::Str("meta".to_string()));
            meta.push("schema", Json::Str(JOURNAL_SCHEMA.to_string()));
            meta.push("fingerprint", Json::Str(fingerprint.to_string()));
            self.lines.push(seal(meta));
            self.replay.clear();
            self.flush();
        }
    }

    fn load(&mut self, text: &str, fingerprint: &str) {
        let mut lines = text.lines();
        let Some(first) = lines.next() else { return };
        let Some(meta) = open_line(first) else { return };
        if meta.get("kind").and_then(Json::as_str) != Some("meta")
            || meta.get("schema").and_then(Json::as_str) != Some(JOURNAL_SCHEMA)
            || meta.get("fingerprint").and_then(Json::as_str) != Some(fingerprint)
        {
            return;
        }
        self.lines.push(first.to_string());
        for (next_round, line) in (1..).zip(lines) {
            let Some(record) = open_line(line).and_then(|j| RoundRecord::from_json(&j)) else {
                break;
            };
            if record.round != next_round {
                break;
            }
            self.lines.push(line.to_string());
            self.replay.push(record);
        }
    }

    /// The validated rounds available for replay.
    pub fn rounds(&self) -> &[RoundRecord] {
        &self.replay
    }

    /// Discards journaled rounds beyond the first `keep` — called when
    /// replay diverges from the journal (the later records describe a
    /// different run and must not survive on disk).
    pub(crate) fn truncate(&mut self, keep: usize) {
        if self.replay.len() > keep {
            self.replay.truncate(keep);
            self.lines.truncate(1 + keep);
            self.flush();
        }
    }

    /// Appends one round record and rewrites the journal atomically.
    /// This is the round barrier's durability point: after it returns,
    /// a crash loses nothing the round decided.
    pub(crate) fn commit_round(&mut self, record: &RoundRecord) {
        self.lines.push(seal(record.to_json()));
        self.flush();
        crash_hook(record.round);
    }

    fn flush(&mut self) {
        if self.broken {
            return;
        }
        let mut buffer = String::new();
        for line in &self.lines {
            buffer.push_str(line);
            buffer.push('\n');
        }
        if let Err(e) = atomic_write(&self.path, buffer) {
            // A full disk must not take the run down with it; the
            // sweep continues correct but uncheckpointed.
            eprintln!(
                "simgen: warning: sweep journal write failed ({e}); \
                 checkpointing disabled for the rest of this run"
            );
            self.broken = true;
        }
    }
}

/// Fingerprint binding a journal to a run: the structural hash of the
/// swept network (PO cones) plus every configuration field that can
/// change the deterministic report. Scheduling and anytime fields
/// (`jobs`, `stall`, `mem_budget`) are excluded — resuming under a
/// different worker count or memory budget is explicitly supported.
///
/// Three fields keep the spelling of earlier builds so that the
/// journals they wrote keep resuming: `random_rounds=1`, the one round
/// of random simulation every sweep runs; `proof=`, derived from the
/// engine mode; and `budget_schedule=`, which spells the default BDD
/// node limit `None`.
pub(crate) fn sweep_fingerprint(net: &LutNetwork, cfg: &SweepConfig) -> String {
    let roots: Vec<NodeId> = net.pos().iter().map(|po| po.node).collect();
    let limit = cfg.engine.bdd_node_limit;
    let node_limit = (limit != EnginePolicy::default().bdd_node_limit).then_some(limit);
    let mut h = Sha256::new();
    h.update(JOURNAL_SCHEMA.as_bytes());
    h.update(&[0]);
    h.update(&job_key(net, &roots).0);
    h.update(
        format!(
            "random_rounds=1;random_batch={};guided_iterations={};sat_budget={:?};\
             run_sat={};proof={};seed={};budget_schedule={:?};certify={};\
             engine_mode={};incremental={};rebuild_bloat={}",
            cfg.random_batch,
            cfg.guided_iterations,
            cfg.sat_budget,
            cfg.run_sat,
            if cfg.engine.mode == EngineMode::BddOnly {
                "Bdd"
            } else {
                "Sat"
            },
            cfg.seed,
            node_limit,
            cfg.certify,
            cfg.engine.mode.name(),
            cfg.engine.incremental,
            cfg.engine.rebuild_bloat,
        )
        .as_bytes(),
    );
    hex(&h.finalize())
}

/// Order-sensitive signature of a class partition — the replay
/// cross-check that the resumed run walked through the same states as
/// the journaled one.
pub(crate) fn class_signature(work: &[Vec<NodeId>]) -> String {
    let mut h = Sha256::new();
    for class in work {
        h.update(b"class\0");
        for &node in class {
            h.update(&(node.index() as u64).to_le_bytes());
        }
    }
    hex(&h.finalize())
}

/// Snapshot of every deterministic counter, in declaration order.
pub(crate) fn counter_snapshot(obs: &Observer) -> Vec<(String, u64)> {
    Counter::ALL
        .iter()
        .map(|&c| (c.name().to_string(), obs.recorder.get(c)))
        .collect()
}

/// Raises each counter to its journaled value. Replayed rounds bump
/// nothing themselves (and the live resimulation flushes bump exactly
/// what the original run's flushes did), so the positive difference
/// is precisely the skipped proof/cache activity.
pub(crate) fn restore_counters(obs: &mut Observer, counters: &[(String, u64)]) {
    for &counter in Counter::ALL {
        if let Some((_, value)) = counters.iter().find(|(name, _)| name == counter.name()) {
            let current = obs.recorder.get(counter);
            if *value > current {
                obs.recorder.add(counter, *value - current);
            }
        }
    }
}

/// See [`CRASH_ENV`]. SIGKILL leaves no chance for cleanup — exactly
/// the failure mode the journal exists to survive.
fn crash_hook(round: u64) {
    let Ok(value) = std::env::var(CRASH_ENV) else {
        return;
    };
    if value.parse::<u64>() != Ok(round) {
        return;
    }
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
            fn getpid() -> i32;
        }
        const SIGKILL: i32 = 9;
        unsafe {
            kill(getpid(), SIGKILL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(round: u64) -> RoundRecord {
        RoundRecord {
            round,
            pairs: vec![
                PairRecord {
                    rep: 3,
                    cand: 9,
                    verdict: Verdict::Equivalent,
                },
                PairRecord {
                    rep: 3,
                    cand: 11,
                    verdict: Verdict::Counterexample(vec![true, false, true]),
                },
                PairRecord {
                    rep: 5,
                    cand: 12,
                    verdict: Verdict::Undecided,
                },
                PairRecord {
                    rep: 5,
                    cand: 13,
                    verdict: Verdict::CertificationFailed { replay: true },
                },
                PairRecord {
                    rep: 5,
                    cand: 14,
                    verdict: Verdict::CertificationFailed { replay: false },
                },
                PairRecord {
                    rep: 6,
                    cand: 15,
                    verdict: Verdict::Panicked,
                },
                PairRecord {
                    rep: 6,
                    cand: 16,
                    verdict: Verdict::Skipped,
                },
            ],
            dispatched: 3,
            class_sig: "abcd".to_string(),
            counters: vec![
                ("rounds".to_string(), round),
                ("proofs_dispatched".to_string(), 7),
            ],
            stats: StatsSnapshot {
                sat_calls: 5,
                proved_equivalent: 1,
                disproved: 1,
                aborted: 2,
                certification_failures: 1,
                solver: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                dispatch: [round, 1, 3, 0, 0, 2, 0],
            },
        }
    }

    #[test]
    fn round_records_roundtrip_through_sealed_lines() {
        let record = sample_record(1);
        let line = seal(record.to_json());
        let payload = open_line(&line).expect("sealed line verifies");
        assert_eq!(RoundRecord::from_json(&payload), Some(record));
    }

    #[test]
    fn sealed_lines_of_earlier_builds_still_parse() {
        // Journals on disk carry these exact bytes. Every resume test
        // writes and reads with one build, so a tag renamed on both
        // sides would pass them all and still strand the journals of
        // earlier builds; this line pins every verdict tag, the
        // witness and counter encodings and the checksum.
        const PINNED: &str = concat!(
            r#"{"kind":"round","round":2,"pairs":[[3,9,"eq"],[3,11,"cex","101"],"#,
            r#"[5,12,"undec"],[5,13,"certfail-replay"],[5,14,"certfail-check"],"#,
            r#"[6,15,"panic"],[6,16,"skip"]],"dispatched":3,"classes":"abcd","#,
            r#""counters":{"rounds":2,"proofs_dispatched":7},"stats":{"sat_calls":5,"#,
            r#""proved_equivalent":1,"disproved":1,"aborted":2,"#,
            r#""certification_failures":1,"solver":[1,2,3,4,5,6,7,8,9,10],"#,
            r#""dispatch":[2,1,3,0,0,2,0]},"#,
            r#""sum":"9db6b752b3acae0962135fdfea4b0f1363221c2a8dcd0689830d593922a5a82c"}"#
        );
        let record = sample_record(2);
        assert_eq!(seal(record.to_json()), PINNED);
        let payload = open_line(PINNED).expect("pinned line verifies");
        assert_eq!(RoundRecord::from_json(&payload), Some(record));
    }

    #[test]
    fn tampered_lines_are_rejected() {
        let line = seal(sample_record(1).to_json());
        assert!(open_line(&line).is_some());
        let tampered = line.replace("\"dispatched\":3", "\"dispatched\":4");
        assert!(open_line(&tampered).is_none(), "checksum must catch edits");
        assert!(open_line("not json").is_none());
        assert!(open_line("{}").is_none(), "missing sum");
    }

    #[test]
    fn journal_survives_crash_and_discards_torn_tail() {
        let dir = std::env::temp_dir().join(format!("simgen_journal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = "f00d";
        {
            let mut journal = SweepJournal::create(&dir, false).unwrap();
            journal.begin(fp);
            journal.commit_round(&sample_record(1));
            journal.commit_round(&sample_record(2));
        }
        // A crash can only leave whole lines behind (atomic_write),
        // but a hand-damaged or foreign file must degrade gracefully:
        // corrupt the second round's line.
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged: Vec<&str> = text.lines().collect();
        let mut tampered = damaged[..2].join("\n");
        tampered.push('\n');
        tampered.push_str(&damaged[2].replace("round\":2", "round\":7"));
        tampered.push('\n');
        std::fs::write(&path, tampered).unwrap();

        let mut journal = SweepJournal::create(&dir, true).unwrap();
        journal.begin(fp);
        assert_eq!(journal.rounds().len(), 1, "valid prefix only");
        assert_eq!(journal.rounds()[0], sample_record(1));

        // A fingerprint mismatch discards everything.
        let mut journal = SweepJournal::create(&dir, true).unwrap();
        journal.begin("other");
        assert!(journal.rounds().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_resume_mode_replaces_an_existing_journal() {
        let dir = std::env::temp_dir().join(format!("simgen_journal_nr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut journal = SweepJournal::create(&dir, false).unwrap();
            journal.begin("fp");
            journal.commit_round(&sample_record(1));
        }
        let mut journal = SweepJournal::create(&dir, false).unwrap();
        journal.begin("fp");
        assert!(journal.rounds().is_empty(), "fresh start without --resume");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_restore_is_assignment() {
        let mut stats = SweepStats::default();
        let mut summary = DispatchSummary::default();
        let mut snap = sample_record(4).stats;
        snap.restore(&mut stats, &mut summary);
        // Every slot round-trips but the retired escalation slot,
        // which capture writes as 0.
        snap.dispatch[5] = 0;
        assert_eq!(StatsSnapshot::capture(&stats, &summary), snap);
    }

    #[test]
    fn fingerprints_of_earlier_builds_still_match() {
        // Journals on disk carry these exact hex strings; a change to
        // the fingerprint's encoding would silently stop them from
        // resuming. Pinned for the default configuration and for every
        // CLI engine knob at once.
        let mut net = LutNetwork::with_name("pin");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net
            .add_lut(vec![a, b], simgen_netlist::TruthTable::and2())
            .unwrap();
        let y = net
            .add_lut(vec![b, a], simgen_netlist::TruthTable::and2())
            .unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        assert_eq!(
            sweep_fingerprint(&net, &SweepConfig::default()),
            "eae705982775ea2dad0e47bad4fa59a3b662bf8cab7128bf41c81170076a3bba"
        );
        let knobs = SweepConfig {
            certify: true,
            engine: EnginePolicy {
                incremental: false,
                mode: EngineMode::BddFirst,
                rebuild_bloat: 3,
                ..Default::default()
            },
            ..SweepConfig::default()
        };
        assert_eq!(
            sweep_fingerprint(&net, &knobs),
            "9714b78d223ccde02a62ffcad80cd7d6a39fbec898497459aa18e6576f9fefeb"
        );
    }
}
