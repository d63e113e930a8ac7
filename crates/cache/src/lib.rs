//! Content-addressed proof cache for the SimGen CEC service.
//!
//! The ROADMAP's service direction needs repeated and overlapping
//! equivalence queries answered from warm proofs instead of the
//! solver. This crate supplies the storage half of that story:
//!
//! * [`key`] — merkle-style structural hashing of canonical cones
//!   ([`simgen_netlist::canon`]): per-node digests folding kind and
//!   fanin digests, insensitive to node numbering, so structurally
//!   identical queries share an address across runs and processes.
//! * [`proof`] — round-trips DRAT certificates through a storable
//!   blob and replays them through the independent backward-RUP
//!   checker, the gate cached `Equivalent` verdicts must pass under
//!   `--certify`.
//! * [`store`] — [`ProofCache`], the LRU byte-budgeted map from
//!   [`CacheKey`] to [`CacheEntry`], optionally persisted with
//!   atomic tmp+rename write-through.
//! * [`record`] — the sealed JSON-line codec of cache entry files and
//!   `simgen_cec`'s sweep journal, with their hex and bit encodings.
//! * [`digest`] — a self-contained SHA-256 (the environment has no
//!   registry access).
//!
//! Trust model: the cache preserves the trust-but-verify guarantees
//! of certified sweeps. A cached counterexample is only used after
//! scalar replay distinguishes the pair (sound regardless of where
//! the vector came from). A cached equivalence under `--certify` is
//! only used after its stored DRAT proof passes the independent
//! checker — the same trust level as a live certified proof, which
//! also trusts the CNF encoding of the cone. Entries that fail either
//! check are evicted and the query falls through to a live proof.

#![forbid(unsafe_code)]

pub mod digest;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod key;
pub mod proof;
pub mod record;
pub mod store;

pub use digest::Sha256;
#[cfg(feature = "fault-inject")]
pub use fault::DiskFaultPlan;
pub use key::{cone_key, job_key, pair_key, CacheKey};
pub use proof::{serialize_certificate, verify_proof, OwnedCertificate, ProofParseError};
pub use store::{
    scrub, CacheEntry, CachedVerdict, ProofCache, ScrubReport, DEFAULT_QUARANTINE_BUDGET,
    ENTRY_SCHEMA, QUARANTINE_DIR,
};
