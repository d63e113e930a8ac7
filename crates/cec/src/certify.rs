//! Trust-but-verify: independent certification of engine answers.
//!
//! A sweep's verdicts rest on two engines — the CDCL solver (for
//! "equivalent") and the simulation/SAT model extraction (for
//! "inequivalent"). With [`SweepConfig::certify`](crate::SweepConfig)
//! enabled, neither answer is taken on faith:
//!
//! * every `Equivalent` answer must carry a DRAT proof that the
//!   independent backward RUP checker in [`simgen_sat::drat`]
//!   accepts, and
//! * every counterexample must be replayed through the scalar
//!   reference evaluator ([`simgen_sim::replay`]) — which shares no
//!   code with the compiled simulation kernels — and actually
//!   distinguish the pair.
//!
//! A failed check never poisons the sweep: the pair is demoted to
//! quarantine (the same sound degradation path panics use) and the
//! failure is counted in
//! [`SweepStats::certification_failures`](crate::SweepStats), which
//! drives exit code 3. Soundness is preserved because quarantined
//! pairs are never merged and never refine classes.

use simgen_netlist::{LutNetwork, NodeId};
use simgen_obs::{Counter, Observer};
use simgen_sim::Replayer;

use crate::prove::{PairProver, Verdict};

/// Default bound on recorded DRAT proof text per prover. Generous —
/// pair cones are small — but finite, so a pathological query cannot
/// hold the proof log hostage; overflowing it fails certification
/// for that prover rather than aborting the sweep.
pub const PROOF_BYTE_BUDGET: u64 = 64 << 20;

/// Checks the DRAT certificate behind the prover's most recent
/// `Equivalent` answer. `false` means the answer must not be trusted:
/// no certificate was available (proof log overflowed or missing) or
/// the backward RUP checker rejected it.
pub fn certify_equivalence(prover: &PairProver<'_>) -> bool {
    match prover.certificate() {
        Some(cert) => cert.check().is_ok(),
        None => false,
    }
}

/// The one certification step of the sweep's pair proofs and the CEC
/// output proofs: `prover`'s live answer for `(a, b)` must hold up
/// against its own evidence. An `Equivalent` needs a certificate
/// [`certify_equivalence`] accepts; a counterexample must drive `a`
/// and `b` apart under the scalar reference evaluator (a malformed
/// vector fails instead of panicking). Returns the verdict when its
/// evidence holds and [`Verdict::CertificationFailed`] when it does
/// not; any other verdict passes through.
pub(crate) fn certify(
    verdict: Verdict,
    prover: &PairProver<'_>,
    net: &LutNetwork,
    replayer: &mut Replayer,
    a: NodeId,
    b: NodeId,
) -> Verdict {
    match verdict {
        Verdict::Equivalent if !certify_equivalence(prover) => {
            Verdict::CertificationFailed { replay: false }
        }
        Verdict::Counterexample(ref v) if !replayer.distinguishes(net, v, a, b) => {
            Verdict::CertificationFailed { replay: true }
        }
        v => v,
    }
}

/// Books one certified live answer — what [`certify`] returned — into
/// the certificate and replay counters.
pub(crate) fn count_certification(verdict: &Verdict, obs: &mut Observer) {
    let (checked, failed) = match verdict {
        Verdict::Equivalent => (Counter::CertificatesChecked, None),
        Verdict::Counterexample(_) => (Counter::CexReplays, None),
        Verdict::CertificationFailed { replay: false } => (
            Counter::CertificatesChecked,
            Some(Counter::CertificatesFailed),
        ),
        Verdict::CertificationFailed { replay: true } => {
            (Counter::CexReplays, Some(Counter::CexReplayFailures))
        }
        _ => return,
    };
    obs.recorder.add(checked, 1);
    if let Some(failed) = failed {
        obs.recorder.add(failed, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;

    fn two_ands() -> (LutNetwork, NodeId, NodeId, NodeId) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        let z = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        net.add_po(z, "z");
        (net, x, y, z)
    }

    #[test]
    fn equivalent_answers_certify() {
        let (net, x, y, _) = two_ands();
        let mut p = PairProver::new(&net);
        p.enable_certification(PROOF_BYTE_BUDGET);
        assert_eq!(p.prove(x, y, None), crate::ProveOutcome::Equivalent);
        assert!(certify_equivalence(&p));
    }

    #[test]
    fn uncertified_prover_fails_certification() {
        // Without proof logging there is no certificate: the check
        // must fail closed, not pass silently.
        let (net, x, y, _) = two_ands();
        let mut p = PairProver::new(&net);
        assert_eq!(p.prove(x, y, None), crate::ProveOutcome::Equivalent);
        assert!(!certify_equivalence(&p));
    }

    #[test]
    fn counterexamples_replay_through_scalar_eval() {
        let (net, x, _, z) = two_ands();
        let mut p = PairProver::new(&net);
        p.enable_certification(PROOF_BYTE_BUDGET);
        let v = match p.prove(x, z, None) {
            crate::ProveOutcome::Counterexample(v) => v,
            other => panic!("expected counterexample, got {other:?}"),
        };
        // After a Sat answer there is no certificate.
        assert!(!certify_equivalence(&p));
        let mut replayer = Replayer::new();
        let mut check =
            |v: Vec<bool>| certify(Verdict::Counterexample(v), &p, &net, &mut replayer, x, z);
        assert_eq!(check(v.clone()), Verdict::Counterexample(v));
        // A vector that does not distinguish the pair is rejected, as
        // is a malformed one.
        let failed = Verdict::CertificationFailed { replay: true };
        assert_eq!(check(vec![true, true]), failed);
        assert_eq!(check(vec![true]), failed);
    }

    #[test]
    fn incremental_queries_keep_certifying() {
        let (net, x, y, z) = two_ands();
        let mut p = PairProver::new(&net);
        p.enable_certification(PROOF_BYTE_BUDGET);
        assert_eq!(p.prove(x, y, None), crate::ProveOutcome::Equivalent);
        assert!(certify_equivalence(&p));
        p.assert_equal(x, y);
        assert!(matches!(
            p.prove(y, z, None),
            crate::ProveOutcome::Counterexample(_)
        ));
        assert_eq!(p.prove(x, y, None), crate::ProveOutcome::Equivalent);
        assert!(certify_equivalence(&p));
    }
}
