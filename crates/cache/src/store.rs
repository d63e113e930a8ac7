//! The verdict store: an LRU-bounded, optionally disk-backed map from
//! content address to cached verdict.
//!
//! Entries hold everything needed to reuse *and revalidate* a past
//! answer: the verdict, the distinguishing input vector (support-
//! ordered, see [`simgen_netlist::canon`]) for inequivalence, the
//! serialized DRAT proof for equivalence, and — for whole-job entries
//! the daemon stores — the deterministic run-report text. Memory is
//! bounded by a byte budget with least-recently-used eviction; the
//! persistent variant writes every entry through to
//! `<dir>/<hex>.entry` with an atomic tmp+rename so concurrent
//! readers (or a crash) never observe a torn entry, and deletes the
//! file when the entry is evicted, so the directory holds the live set.
//!
//! The store itself never *trusts* anything: deciding whether a hit
//! may be used (certify replay, witness replay) is the caller's job —
//! see `simgen_cec`'s cached sweep hooks. What the store guarantees
//! is integrity plumbing: every entry file is one sealed record
//! ([`crate::record`]) that embeds the key it was stored under,
//! opening a directory reads each entry file once and moves any that
//! fails to open into a `quarantine/` subdirectory instead of serving
//! it, and [`ProofCache::evict`] lets a caller discard an entry whose
//! evidence failed replay.
//!
//! LRU eviction never removes the key being inserted. That is all a
//! daemon job needs: its executor is the only thread that looks up or
//! inserts while the job runs, a hit returns before any insert, and a
//! miss inserts its job key last.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use simgen_obs::{atomic_write, Json};

use crate::key::CacheKey;
use crate::record::{bits_from_string, bits_to_string, open_line, seal};

/// The `schema` of an entry file's record. Files of any other schema,
/// including the line-oriented `simgen-cache-entry/2` of earlier
/// builds, do not open and are quarantined.
pub const ENTRY_SCHEMA: &str = "simgen-cache-entry/3";

/// Subdirectory entry files that fail to open are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Fixed per-entry accounting overhead (key, map slot, bookkeeping).
const ENTRY_OVERHEAD: u64 = 96;

/// Consecutive write-through failures before the persistence circuit
/// breaker opens (the cache drops to memory-only operation).
const BREAKER_THRESHOLD: u32 = 3;

/// While the breaker is open, every Nth insert probes the disk with a
/// real write; success closes the breaker. Count-based rather than
/// time-based so degraded-mode behavior is deterministic under test.
const BREAKER_PROBE_INTERVAL: u64 = 16;

/// Default byte budget for the `quarantine/` subdirectory: opening a
/// directory rotates the oldest quarantined files out past this, so a
/// flaky disk that corrupts entries on every restart cannot fill the
/// volume with forensic copies.
pub const DEFAULT_QUARANTINE_BUDGET: u64 = 4 << 20;

/// A cached answer for one content address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The cone roots were proven equivalent. `proof` is the
    /// serialized DRAT certificate (`simgen-proof/1`), or empty when
    /// the proving run had certification disabled — such entries can
    /// be reused by uncertified runs but never satisfy a certify-mode
    /// lookup.
    Equivalent {
        /// Serialized certificate bytes (possibly empty).
        proof: Vec<u8>,
    },
    /// The cone roots were distinguished. `witness` is the input
    /// vector over the cone's support in canonical rank order; the
    /// consumer widens it to the host network's full PI vector before
    /// replay.
    NotEquivalent {
        /// Support-ordered distinguishing assignment.
        witness: Vec<bool>,
    },
}

/// One cache entry: the verdict plus, for job-level entries, the
/// deterministic run-report text the daemon answers repeats with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The cached answer.
    pub verdict: CachedVerdict,
    /// Deterministic (stripped) run-report JSON for whole-job
    /// entries; `None` for pair-level entries.
    pub report: Option<String>,
}

impl CacheEntry {
    /// Pair-level convenience constructor.
    pub fn pair(verdict: CachedVerdict) -> CacheEntry {
        CacheEntry {
            verdict,
            report: None,
        }
    }

    /// Bytes this entry is accounted as.
    fn cost(&self) -> u64 {
        let payload = match &self.verdict {
            CachedVerdict::Equivalent { proof } => proof.len(),
            CachedVerdict::NotEquivalent { witness } => witness.len(),
        } + self.report.as_ref().map_or(0, String::len);
        ENTRY_OVERHEAD + payload as u64
    }
}

struct Slot {
    entry: CacheEntry,
    cost: u64,
    /// Monotonic access stamp; smallest = least recently used.
    stamp: u64,
}

struct Inner {
    slots: HashMap<CacheKey, Slot>,
    bytes: u64,
    tick: u64,
    dir: Option<PathBuf>,
    /// Consecutive write-through failures; reset by any success.
    disk_failures: u32,
    /// Persistence circuit breaker: while open, inserts skip the disk
    /// (memory-only degraded mode) except for periodic probe writes.
    breaker_open: bool,
    /// Times the breaker has tripped open over the cache's lifetime.
    breaker_trips: u64,
    /// Inserts seen while the breaker is open, for probe pacing.
    writes_while_open: u64,
    /// Monotonic count of attempted disk writes, indexing the fault
    /// plan so injected failures are a pure function of write order.
    #[cfg(feature = "fault-inject")]
    write_index: u64,
    #[cfg(feature = "fault-inject")]
    fault_plan: Option<crate::fault::DiskFaultPlan>,
}

/// What opening a cache directory found in it.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Entry files that opened.
    pub valid: usize,
    /// New (quarantine) locations of the files that did not.
    pub quarantined: Vec<PathBuf>,
    /// Old quarantined files deleted to keep `quarantine/` under its
    /// byte budget (oldest first).
    pub rotated: usize,
}

/// Reads every `*.entry` file under `dir` (created if missing) once. A
/// file opens when its name is a key and its bytes are one sealed
/// record of [`ENTRY_SCHEMA`] embedding that key; any other is moved —
/// not deleted — into `dir/quarantine/`, which is then rotated down to
/// [`DEFAULT_QUARANTINE_BUDGET`] bytes. [`ProofCache::persistent`] makes
/// the same pass and loads what opens; `scrub` keeps nothing.
pub fn scrub(dir: impl AsRef<Path>) -> io::Result<ScrubReport> {
    scan(dir.as_ref(), DEFAULT_QUARANTINE_BUDGET, |_, _| {})
}

/// The pass behind [`scrub`], in file-name order, handing each file
/// that opens to `keep`. Files without the `.entry` extension are
/// ignored; the quarantine keeps its newest `quarantine_budget` bytes.
fn scan(
    dir: &Path,
    quarantine_budget: u64,
    mut keep: impl FnMut(CacheKey, CacheEntry),
) -> io::Result<ScrubReport> {
    std::fs::create_dir_all(dir)?;
    let mut report = ScrubReport::default();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "entry"))
        .collect();
    paths.sort();
    let qdir = dir.join(QUARANTINE_DIR);
    for path in paths {
        let key = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(CacheKey::from_hex);
        let opened = key.and_then(|key| {
            let bytes = std::fs::read(&path).ok()?;
            Some((key, open_entry(&key, &bytes)?))
        });
        if let Some((key, entry)) = opened {
            report.valid += 1;
            keep(key, entry);
            continue;
        }
        std::fs::create_dir_all(&qdir)?;
        let dest = qdir.join(path.file_name().expect("entry files have names"));
        std::fs::rename(&path, &dest)?;
        report.quarantined.push(dest);
    }
    report.rotated = rotate_quarantine(&qdir, quarantine_budget)?;
    Ok(report)
}

/// Deletes the oldest files in `qdir` until the directory fits in
/// `budget` bytes. Age is modification time with file name as the
/// deterministic tie-break. Missing directory = nothing to rotate.
fn rotate_quarantine(qdir: &Path, budget: u64) -> io::Result<usize> {
    let entries = match std::fs::read_dir(qdir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            if !meta.is_file() {
                return None;
            }
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            Some((mtime, e.path(), meta.len()))
        })
        .collect();
    files.sort();
    let mut total: u64 = files.iter().map(|&(_, _, len)| len).sum();
    let mut rotated = 0;
    for (_, path, len) in files {
        if total <= budget {
            break;
        }
        std::fs::remove_file(&path)?;
        total -= len;
        rotated += 1;
    }
    Ok(rotated)
}

/// The content-addressed verdict store. All methods take `&self`;
/// shared across job threads behind an `Arc`.
pub struct ProofCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl ProofCache {
    /// A memory-only cache bounded by `budget` bytes.
    pub fn in_memory(budget: u64) -> ProofCache {
        ProofCache {
            budget,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                bytes: 0,
                tick: 0,
                dir: None,
                disk_failures: 0,
                breaker_open: false,
                breaker_trips: 0,
                writes_while_open: 0,
                #[cfg(feature = "fault-inject")]
                write_index: 0,
                #[cfg(feature = "fault-inject")]
                fault_plan: None,
            }),
        }
    }

    /// A disk-backed cache rooted at `dir`, opened in the pass [`scrub`]
    /// makes and loaded with what opens, in file-name order. The
    /// directory is bound first, so an entry the budget evicts or
    /// refuses at open loses its file: inserts write through, evictions
    /// delete, and the directory holds the live set.
    pub fn persistent(dir: impl Into<PathBuf>, budget: u64) -> io::Result<ProofCache> {
        let dir = dir.into();
        let cache = ProofCache::in_memory(budget);
        cache.inner.lock().unwrap().dir = Some(dir.clone());
        scan(&dir, DEFAULT_QUARANTINE_BUDGET, |key, entry| {
            if entry.cost() > budget {
                // Never loadable at this budget: gone, as if evicted.
                let _ = std::fs::remove_file(entry_path(&dir, &key));
            } else {
                // In-memory insert only — no point rewriting the file.
                cache.insert_inner(key, entry, false);
            }
        })?;
        Ok(cache)
    }

    /// Looks up `key`, refreshing its recency. Returns a clone — the
    /// store stays locked only for the copy.
    pub fn lookup(&self, key: &CacheKey) -> Option<CacheEntry> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.slots.get_mut(key).map(|slot| {
            slot.stamp = tick;
            slot.entry.clone()
        })
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used
    /// entries as needed to respect the byte budget. Returns the
    /// number of entries evicted. An entry larger than the whole
    /// budget is not stored (and evicts nothing).
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) -> usize {
        self.insert_inner(key, entry, true)
    }

    fn insert_inner(&self, key: CacheKey, entry: CacheEntry, persist: bool) -> usize {
        let cost = entry.cost();
        if cost > self.budget {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let stamp = inner.tick;
        if persist {
            if let Some(dir) = inner.dir.clone() {
                // Best-effort write-through behind a circuit breaker:
                // a full or failing disk must not take down the
                // daemon; the in-memory entry stays correct either
                // way. Entries inserted while the breaker is open are
                // simply not persisted (they are lost on restart, not
                // corrupted — scrub-on-open guards the rest).
                Self::write_through_locked(&mut inner, &dir, &key, &entry);
            }
        }
        if let Some(old) = inner.slots.insert(key, Slot { entry, cost, stamp }) {
            inner.bytes -= old.cost;
        }
        inner.bytes += cost;
        let mut evicted = 0;
        while inner.bytes > self.budget {
            // O(n) LRU scan: entry counts are small (budget-bounded)
            // and insertion is off the hot proving path. The key being
            // inserted is never the victim; it fits the budget on its
            // own, since larger entries were refused above.
            let victim = inner
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            Self::remove_locked(&mut inner, &victim);
            evicted += 1;
        }
        evicted
    }

    /// One write-through attempt under the breaker policy. Closed
    /// breaker: every insert writes; a failure streak of
    /// [`BREAKER_THRESHOLD`] trips it open. Open breaker: inserts skip
    /// the disk except every [`BREAKER_PROBE_INTERVAL`]th, which
    /// probes with a real write; one success closes the breaker again.
    fn write_through_locked(inner: &mut Inner, dir: &Path, key: &CacheKey, entry: &CacheEntry) {
        if inner.breaker_open {
            inner.writes_while_open += 1;
            if !inner
                .writes_while_open
                .is_multiple_of(BREAKER_PROBE_INTERVAL)
            {
                return;
            }
        }
        let result = Self::disk_write(inner, dir, key, entry);
        match result {
            Ok(()) => {
                inner.disk_failures = 0;
                inner.breaker_open = false;
            }
            Err(_) => {
                inner.disk_failures += 1;
                if !inner.breaker_open && inner.disk_failures >= BREAKER_THRESHOLD {
                    inner.breaker_open = true;
                    inner.breaker_trips += 1;
                    inner.writes_while_open = 0;
                }
            }
        }
    }

    /// The raw entry-file write, with injected failures when a disk
    /// fault plan is installed (feature `fault-inject`).
    #[allow(unused_variables)]
    fn disk_write(
        inner: &mut Inner,
        dir: &Path,
        key: &CacheKey,
        entry: &CacheEntry,
    ) -> io::Result<()> {
        #[cfg(feature = "fault-inject")]
        {
            let index = inner.write_index;
            inner.write_index += 1;
            if inner.fault_plan.is_some_and(|p| p.fails(index)) {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected disk fault",
                ));
            }
        }
        atomic_write(entry_path(dir, key), entry_record(key, entry))
    }

    /// Installs a deterministic disk-fault plan: subsequent
    /// write-through attempts consult it and fail as `ENOSPC` where
    /// the plan says so. Chaos-test plumbing only.
    #[cfg(feature = "fault-inject")]
    pub fn set_disk_fault_plan(&self, plan: Option<crate::fault::DiskFaultPlan>) {
        let mut inner = self.inner.lock().unwrap();
        inner.fault_plan = plan;
        inner.write_index = 0;
    }

    /// True while the persistence breaker is open: lookups and inserts
    /// still work, but entries are not being written through to disk —
    /// the daemon's `degraded` health flag.
    pub fn breaker_tripped(&self) -> bool {
        self.inner.lock().unwrap().breaker_open
    }

    /// Times the persistence breaker has tripped open since the cache
    /// was created.
    pub fn breaker_trips(&self) -> u64 {
        self.inner.lock().unwrap().breaker_trips
    }

    /// Discards `key` (memory and disk). Returns whether it was
    /// present. This is the replay-failure path: an entry whose
    /// evidence did not check out must never be served again.
    pub fn evict(&self, key: &CacheKey) -> bool {
        let mut inner = self.inner.lock().unwrap();
        Self::remove_locked(&mut inner, key)
    }

    fn remove_locked(inner: &mut Inner, key: &CacheKey) -> bool {
        match inner.slots.remove(key) {
            Some(slot) => {
                inner.bytes -= slot.cost;
                if let Some(dir) = &inner.dir {
                    let _ = std::fs::remove_file(entry_path(dir, key));
                }
                true
            }
            None => false,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().slots.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes of the live entries.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }
}

impl std::fmt::Debug for ProofCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("ProofCache")
            .field("entries", &inner.slots.len())
            .field("bytes", &inner.bytes)
            .field("budget", &self.budget)
            .field("dir", &inner.dir)
            .finish()
    }
}

/// Where the entry stored under `key` lives in `dir`.
fn entry_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!("{}.entry", key.hex()))
}

/// An entry's file: one sealed record of the schema, the key it is
/// stored under (which catches a file renamed onto the wrong address),
/// the verdict with its proof or witness, and a job entry's report.
fn entry_record(key: &CacheKey, entry: &CacheEntry) -> String {
    let mut record = Json::obj();
    record.push("schema", Json::Str(ENTRY_SCHEMA.to_string()));
    record.push("key", Json::Str(key.hex()));
    match &entry.verdict {
        CachedVerdict::Equivalent { proof } => {
            record.push("verdict", Json::Str("equivalent".to_string()));
            // `simgen-proof/1` is ASCII: bytes that are not UTF-8 never
            // parse as a proof, before or after the replacement.
            let proof = String::from_utf8_lossy(proof).into_owned();
            record.push("proof", Json::Str(proof));
        }
        CachedVerdict::NotEquivalent { witness } => {
            record.push("verdict", Json::Str("not_equivalent".to_string()));
            record.push("witness", Json::Str(bits_to_string(witness)));
        }
    }
    if let Some(report) = &entry.report {
        record.push("report", Json::Str(report.clone()));
    }
    seal(record) + "\n"
}

/// The entry stored under `key`, if `bytes` are UTF-8 and one sealed
/// record of [`ENTRY_SCHEMA`] that embeds `key`.
fn open_entry(key: &CacheKey, bytes: &[u8]) -> Option<CacheEntry> {
    let record = open_line(std::str::from_utf8(bytes).ok()?)?;
    let text = |name: &str| record.get(name).and_then(Json::as_str);
    if text("schema")? != ENTRY_SCHEMA || text("key")? != key.hex() {
        return None;
    }
    let verdict = match text("verdict")? {
        "equivalent" => CachedVerdict::Equivalent {
            proof: text("proof")?.as_bytes().to_vec(),
        },
        "not_equivalent" => CachedVerdict::NotEquivalent {
            witness: bits_from_string(text("witness")?)?,
        },
        _ => return None,
    };
    let report = text("report").map(str::to_string);
    Some(CacheEntry { verdict, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> CacheKey {
        CacheKey([n; 32])
    }

    fn eq_entry(proof_len: usize) -> CacheEntry {
        CacheEntry::pair(CachedVerdict::Equivalent {
            proof: vec![b'x'; proof_len],
        })
    }

    #[test]
    fn hit_miss_and_replace() {
        let cache = ProofCache::in_memory(1 << 20);
        assert!(cache.lookup(&key(1)).is_none());
        let entry = CacheEntry::pair(CachedVerdict::NotEquivalent {
            witness: vec![true, false, true],
        });
        cache.insert(key(1), entry.clone());
        assert_eq!(cache.lookup(&key(1)), Some(entry));
        assert!(cache.lookup(&key(2)).is_none());
        let bigger = eq_entry(10);
        cache.insert(key(1), bigger.clone());
        assert_eq!(cache.lookup(&key(1)), Some(bigger));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Budget fits exactly three minimal entries.
        let one = eq_entry(0).cost();
        let cache = ProofCache::in_memory(3 * one);
        for n in 1..=3 {
            assert_eq!(cache.insert(key(n), eq_entry(0)), 0);
        }
        assert_eq!(cache.len(), 3);
        // Touch 1 so 2 becomes the LRU victim.
        cache.lookup(&key(1));
        assert_eq!(cache.insert(key(4), eq_entry(0)), 1);
        assert!(cache.lookup(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(3)).is_some());
        assert!(cache.lookup(&key(4)).is_some());
        assert!(cache.bytes() <= 3 * one);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let cache = ProofCache::in_memory(200);
        assert_eq!(cache.insert(key(1), eq_entry(0)), 0);
        assert_eq!(cache.insert(key(2), eq_entry(10_000)), 0);
        assert!(cache.lookup(&key(2)).is_none(), "over-budget entry dropped");
        assert!(cache.lookup(&key(1)).is_some(), "and nothing was evicted");
    }

    #[test]
    fn explicit_evict_removes() {
        let cache = ProofCache::in_memory(1 << 20);
        cache.insert(key(7), eq_entry(4));
        assert!(cache.evict(&key(7)));
        assert!(!cache.evict(&key(7)));
        assert!(cache.lookup(&key(7)).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn entry_record_roundtrip() {
        for entry in [
            eq_entry(0),
            eq_entry(100),
            CacheEntry::pair(CachedVerdict::NotEquivalent { witness: vec![] }),
            CacheEntry::pair(CachedVerdict::NotEquivalent {
                witness: vec![true, true, false],
            }),
            CacheEntry {
                verdict: CachedVerdict::Equivalent {
                    proof: b"simgen-proof/1\nu\n.\n".to_vec(),
                },
                report: Some("{\n  \"schema\": \"x\"\n}".to_string()),
            },
        ] {
            let text = entry_record(&key(1), &entry);
            assert_eq!(text.lines().count(), 1, "one sealed line: {text}");
            assert_eq!(
                open_entry(&key(1), text.as_bytes()),
                Some(entry.clone()),
                "{entry:?}"
            );
        }
    }

    #[test]
    fn malformed_entry_records_are_rejected() {
        let good = entry_record(&key(1), &eq_entry(20));
        assert!(
            open_entry(&key(1), &good.as_bytes()[..good.len() - 5]).is_none(),
            "truncated"
        );
        assert!(open_entry(&key(1), b"garbage").is_none());
        assert!(open_entry(&key(1), b"").is_none());
        let trailing = format!("{good}extra");
        assert!(
            open_entry(&key(1), trailing.as_bytes()).is_none(),
            "trailing"
        );
        let edited = good.replacen("xxxxx", "xxxxy", 1);
        assert!(
            open_entry(&key(1), edited.as_bytes()).is_none(),
            "body edit breaks the checksum"
        );
    }

    #[test]
    fn key_mismatch_and_bit_flips_fail_verification() {
        let entry = eq_entry(20);
        let text = entry_record(&key(1), &entry).into_bytes();
        // The same bytes under a different address: the embedded key
        // catches a renamed (or hash-collided) file.
        assert!(open_entry(&key(2), &text).is_none(), "wrong key");
        // Any single corrupted byte, wherever it is, fails the open.
        for at in 0..text.len() {
            let mut flipped = text.clone();
            flipped[at] ^= 0x01;
            assert!(open_entry(&key(1), &flipped).is_none(), "bit flip at {at}");
        }
    }

    #[test]
    fn persistence_roundtrip_and_eviction_deletes() {
        let dir = std::env::temp_dir().join(format!("simgen_cache_p_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
            cache.insert(key(1), eq_entry(8));
            cache.insert(
                key(2),
                CacheEntry {
                    verdict: CachedVerdict::NotEquivalent {
                        witness: vec![false, true],
                    },
                    report: Some("{}".to_string()),
                },
            );
        }
        // Reopen: both entries come back.
        let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&key(1)), Some(eq_entry(8)));
        assert_eq!(cache.lookup(&key(2)).unwrap().report.as_deref(), Some("{}"));
        // Evict 1: its file disappears; reopen sees only 2.
        cache.evict(&key(1));
        let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(2)).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_files_are_quarantined_at_load() {
        let dir = std::env::temp_dir().join(format!("simgen_cache_c_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
            cache.insert(key(1), eq_entry(8));
            cache.insert(key(2), eq_entry(8));
        }
        // Corrupt one stored file and drop unrelated garbage files.
        let corrupt = entry_path(&dir, &key(1));
        std::fs::write(&corrupt, b"scrambled").unwrap();
        std::fs::write(dir.join("README"), b"not an entry").unwrap();
        std::fs::write(dir.join("zz.entry"), b"bad name and body").unwrap();
        let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
        assert_eq!(cache.len(), 1, "only the intact entry loads");
        assert!(cache.lookup(&key(2)).is_some());
        // The corrupt files moved — they are gone from the cache dir
        // but preserved under quarantine/ for inspection.
        assert!(!corrupt.exists());
        assert!(dir.join("README").exists(), "other files are ignored");
        let quarantined = std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap();
        assert_eq!(quarantined.count(), 2);
        // A second open finds a clean directory.
        let report = scrub(&dir).unwrap();
        assert_eq!(report.valid, 1);
        assert!(report.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_entry_evicted_at_open_loses_its_file() {
        let dir = std::env::temp_dir().join(format!("simgen_cache_o_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
        for n in 1..=20 {
            cache.insert(key(n), eq_entry(8));
        }
        let files = || scrub(&dir).unwrap().valid;
        assert_eq!(files(), 20);
        // Reopened at a budget that fits five: the load evicts fifteen,
        // and their files go with them.
        let cache = ProofCache::persistent(&dir, 5 * eq_entry(8).cost()).unwrap();
        assert_eq!((cache.len(), files()), (5, 5));
        // An entry larger than the whole budget goes the same way.
        let cache = ProofCache::persistent(&dir, eq_entry(0).cost()).unwrap();
        assert_eq!((cache.len(), files()), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_of_the_earlier_line_format_are_quarantined() {
        let dir = std::env::temp_dir().join(format!("simgen_cache_v2_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A well-formed `simgen-cache-entry/2` file, checksum and all.
        let body = "verdict equivalent\nproof 0\n\nend\n";
        let sum = crate::record::hex(&crate::digest::Sha256::digest(body.as_bytes()));
        let v2 = format!(
            "simgen-cache-entry/2\nkey {}\nsum {sum}\n{body}",
            key(1).hex()
        );
        let path = entry_path(&dir, &key(1));
        std::fs::write(&path, &v2).unwrap();
        assert_eq!(scrub(&dir).unwrap().quarantined.len(), 1);
        std::fs::write(&path, &v2).unwrap();
        let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
        assert!(cache.lookup(&key(1)).is_none());
        assert!(!path.exists(), "quarantined at open");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_rotation_deletes_oldest_past_budget() {
        let dir = std::env::temp_dir().join(format!("simgen_cache_q_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let qdir = dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&qdir).unwrap();
        for name in ["a.entry", "b.entry", "c.entry", "d.entry", "e.entry"] {
            std::fs::write(qdir.join(name), [b'x'; 10]).unwrap();
        }
        // Budget fits two 10-byte files: the three oldest go.
        let report = scan(&dir, 20, |_, _| {}).unwrap();
        assert_eq!(report.rotated, 3);
        let mut left: Vec<String> = std::fs::read_dir(&qdir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, vec!["d.entry", "e.entry"], "oldest rotated first");
        // Already under budget: a second pass rotates nothing.
        let report = scan(&dir, 20, |_, _| {}).unwrap();
        assert_eq!(report.rotated, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_without_quarantine_dir_rotates_nothing() {
        let dir = std::env::temp_dir().join(format!("simgen_cache_nq_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = scrub(&dir).unwrap();
        assert_eq!(report.rotated, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn breaker_trips_on_repeated_write_failures_and_probes_closed() {
        let dir = std::env::temp_dir().join(format!("simgen_cache_b_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
        assert!(!cache.breaker_tripped());
        // Yank the directory out from under the cache: every
        // write-through now fails like a dead disk.
        std::fs::remove_dir_all(&dir).unwrap();
        for n in 1..=3 {
            cache.insert(key(n), eq_entry(8));
        }
        assert!(cache.breaker_tripped(), "three consecutive failures trip");
        assert_eq!(cache.breaker_trips(), 1);
        // Lookups and inserts keep working in degraded mode.
        assert!(cache.lookup(&key(1)).is_some());
        for n in 4..=10 {
            cache.insert(key(n), eq_entry(8));
        }
        assert!(cache.breaker_tripped(), "probes against a dead disk fail");
        assert_eq!(cache.breaker_trips(), 1, "reprobing is not a new trip");
        // Disk comes back: within one probe interval the breaker
        // closes and entries persist again.
        std::fs::create_dir_all(&dir).unwrap();
        for n in 0..=(BREAKER_PROBE_INTERVAL as u8) {
            cache.insert(key(100 + n), eq_entry(8));
        }
        assert!(!cache.breaker_tripped(), "a successful probe closes");
        cache.insert(key(200), eq_entry(8));
        assert!(dir.join(format!("{}.entry", key(200).hex())).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_disk_faults_drive_the_breaker() {
        use crate::fault::DiskFaultPlan;
        let dir = std::env::temp_dir().join(format!("simgen_cache_f_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ProofCache::persistent(&dir, 1 << 20).unwrap();
        cache.set_disk_fault_plan(Some(DiskFaultPlan::from_seed(3)));
        let mut n = 0u8;
        while cache.breaker_trips() == 0 {
            cache.insert(key(n), eq_entry(8));
            n = n
                .checked_add(1)
                .expect("a burst must trip within 256 writes");
        }
        // The healthy disk answers the next probe: breaker closes.
        cache.set_disk_fault_plan(None);
        for _ in 0..=(BREAKER_PROBE_INTERVAL as u8) {
            cache.insert(key(n), eq_entry(8));
            n = n.wrapping_add(1);
        }
        assert!(!cache.breaker_tripped());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let cache = Arc::new(ProofCache::in_memory(1 << 20));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u8 {
                    let k = key(i % 8);
                    if (i + t) % 3 == 0 {
                        cache.insert(k, eq_entry(usize::from(t)));
                    } else {
                        let _ = cache.lookup(&k);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 8);
    }
}
