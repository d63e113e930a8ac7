//! Advanced implication at the gate level equals exact minterm
//! reasoning: on a single gate, the implication fixpoint assigns
//! exactly the pin values that hold in every complete pin assignment
//! consistent with the partial one and the function, and reports a
//! conflict exactly when no such assignment exists. The rows the
//! engine reasons over are irredundant prime covers of the on-set and
//! the off-set, so every row is an implicant of its phase and the rows
//! of a phase cover all of its minterms; matching rows then agree on a
//! pin exactly when the consistent minterms of that phase do, and row
//! reasoning loses nothing against minterms.

use proptest::prelude::*;

use simgen_core::implication::{ImplicationStrategy, Implicator, Propagation};
use simgen_core::{Value, ValueMap};
use simgen_netlist::{LutNetwork, NodeId, TruthTable};

/// Builds a single-gate network with the given function.
fn single_gate(tt: TruthTable) -> (LutNetwork, Vec<NodeId>, NodeId) {
    let mut net = LutNetwork::new();
    let pis: Vec<NodeId> = (0..tt.arity())
        .map(|i| net.add_pi(format!("p{i}")))
        .collect();
    let g = net.add_lut(pis.clone(), tt).unwrap();
    net.add_po(g, "f");
    (net, pis, g)
}

/// Exact gate-level forcing: which pin values hold in *every* complete
/// pin assignment consistent with the partial one and the function?
/// Returns None if no consistent completion exists (true conflict).
/// The result is closed: a forced value holds in every consistent
/// completion, so asserting it keeps the same completions and forces
/// nothing more.
#[allow(clippy::type_complexity)]
fn minterm_forcing(
    tt: &TruthTable,
    inputs: &[Option<bool>],
    output: Option<bool>,
) -> Option<(Vec<Option<bool>>, Option<bool>)> {
    let arity = tt.arity();
    let mut in_seen: Vec<[bool; 2]> = vec![[false, false]; arity];
    let mut out_seen = [false, false];
    let mut any = false;
    for m in 0..(1u64 << arity) {
        let compatible = (0..arity).all(|i| match inputs[i] {
            Some(v) => ((m >> i) & 1 == 1) == v,
            None => true,
        });
        if !compatible {
            continue;
        }
        let o = tt.eval(m);
        if let Some(req) = output {
            if o != req {
                continue;
            }
        }
        any = true;
        for (i, s) in in_seen.iter_mut().enumerate() {
            s[usize::from((m >> i) & 1 == 1)] = true;
        }
        out_seen[usize::from(o)] = true;
    }
    if !any {
        return None;
    }
    let forced_in = in_seen
        .iter()
        .map(|s| match (s[0], s[1]) {
            (true, false) => Some(false),
            (false, true) => Some(true),
            _ => None,
        })
        .collect();
    let forced_out = match (out_seen[0], out_seen[1]) {
        (true, false) => Some(false),
        (false, true) => Some(true),
        _ => None,
    };
    Some((forced_in, forced_out))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn advanced_implication_equals_minterm_forcing(
        arity in 0usize..=6,
        bits in any::<u64>(),
        pin_mask in any::<u8>(),
        pin_vals in any::<u8>(),
        out_pin in any::<Option<bool>>(),
    ) {
        let tt = TruthTable::from_bits(arity, bits).expect("arity <= 6");
        let (net, pis, g) = single_gate(tt);
        let mut vm = ValueMap::new(net.len());
        let inputs: Vec<Option<bool>> = (0..arity)
            .map(|i| {
                if (pin_mask >> i) & 1 == 1 {
                    Some((pin_vals >> i) & 1 == 1)
                } else {
                    None
                }
            })
            .collect();
        for (i, v) in inputs.iter().enumerate() {
            if let Some(v) = *v {
                vm.assign(pis[i], Value::from_bool(v));
            }
        }
        if let Some(o) = out_pin {
            vm.assign(g, Value::from_bool(o));
        }
        let seeds: Vec<NodeId> = pis.iter().copied().chain([g]).collect();
        let result = Implicator::new(&net).propagate(&mut vm, &seeds, ImplicationStrategy::Advanced, None);
        match minterm_forcing(&tt, &inputs, out_pin) {
            None => {
                // Truly inconsistent: the engine must report conflict.
                prop_assert!(
                    matches!(result, Propagation::Conflict(_)),
                    "missed conflict: tt {:?} inputs {:?} out {:?}",
                    tt, inputs, out_pin
                );
            }
            Some((forced_in, forced_out)) => {
                prop_assert!(
                    result.is_ok(),
                    "false conflict: tt {:?} inputs {:?} out {:?}",
                    tt, inputs, out_pin
                );
                // The engine assigns a free pin exactly when minterm
                // reasoning forces it, to the forced value.
                for (i, &pi) in pis.iter().enumerate() {
                    let expected = inputs[i].or(forced_in[i]);
                    prop_assert_eq!(
                        vm.get(pi).to_bool(), expected,
                        "input {} (tt {:?}, inputs {:?}, out {:?})", i, tt, inputs, out_pin
                    );
                }
                prop_assert_eq!(
                    vm.get(g).to_bool(), out_pin.or(forced_out),
                    "output (tt {:?}, inputs {:?}, out {:?})", tt, inputs, out_pin
                );
            }
        }
    }

    #[test]
    fn simple_implication_is_weaker_but_sound(
        arity in 0usize..=6,
        bits in any::<u64>(),
        out_pin in any::<bool>(),
    ) {
        let tt = TruthTable::from_bits(arity, bits).expect("arity <= 6");
        let (net, pis, g) = single_gate(tt);
        // Advanced with the same start must assign a superset of what
        // simple assigns.
        let run = |strategy: ImplicationStrategy| -> Option<Vec<Value>> {
            let mut vm = ValueMap::new(net.len());
            vm.assign(g, Value::from_bool(out_pin));
            match Implicator::new(&net).propagate(&mut vm, &[g], strategy, None) {
                Propagation::Conflict(_) => None,
                Propagation::Quiescent(_) => {
                    Some(pis.iter().map(|&p| vm.get(p)).collect())
                }
            }
        };
        match (run(ImplicationStrategy::Simple), run(ImplicationStrategy::Advanced)) {
            (Some(simple), Some(advanced)) => {
                for (s, a) in simple.iter().zip(&advanced) {
                    if s.is_assigned() {
                        prop_assert_eq!(s, a, "advanced must agree where simple assigns");
                    }
                }
            }
            (None, None) => {}
            (s, a) => prop_assert!(
                false,
                "conflict disagreement: simple {:?} advanced {:?}",
                s.is_some(), a.is_some()
            ),
        }
    }
}
