//! Complete single-output truth tables of up to six variables, plus the
//! cube (don't-care row) machinery SimGen's implication and decision
//! steps reason over.
//!
//! A [`TruthTable`] stores the function as the low `2^arity` bits of a
//! `u64`; bit `m` is the function value on minterm `m` (input `i` is
//! bit `i` of `m`). Six inputs is exactly the LUT size the paper's flow
//! produces (`if -K 6`), so a single word always suffices.
//!
//! A [`Cube`] is a truth-table *row* in the paper's sense: a partial
//! input assignment where unspecified inputs are don't-cares. The
//! on-set/off-set covers returned by [`TruthTable::onset_cover`] and
//! [`TruthTable::offset_cover`] are irredundant prime covers computed
//! with a Quine–McCluskey pass; they are the rows SimGen's
//! *implication* (Definition 2.2/4.1) and *decision* (Definition 2.3)
//! procedures enumerate.

use crate::error::NetlistError;

/// Maximum supported truth-table arity (LUT input count).
pub const MAX_ARITY: usize = 6;

/// A complete Boolean function of `arity` ≤ 6 variables.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable {
    bits: u64,
    arity: u8,
}

impl std::fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TruthTable({}:{:#018x})", self.arity, self.bits)
    }
}

impl TruthTable {
    /// Creates a truth table from raw bits.
    ///
    /// Bits above `2^arity` are masked off.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `arity > 6`.
    pub fn from_bits(arity: usize, bits: u64) -> Result<Self, NetlistError> {
        if arity > MAX_ARITY {
            return Err(NetlistError::ArityMismatch {
                fanins: arity,
                arity: MAX_ARITY,
            });
        }
        Ok(TruthTable {
            bits: bits & Self::mask(arity),
            arity: arity as u8,
        })
    }

    /// Builds a truth table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `arity > 6`.
    pub fn from_fn(arity: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        assert!(arity <= MAX_ARITY, "arity {arity} exceeds {MAX_ARITY}");
        let mut bits = 0u64;
        for m in 0..(1u64 << arity) {
            if f(m) {
                bits |= 1 << m;
            }
        }
        TruthTable {
            bits,
            arity: arity as u8,
        }
    }

    fn mask(arity: usize) -> u64 {
        if arity >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << arity)) - 1
        }
    }

    /// The constant-false function of the given arity.
    pub fn const0(arity: usize) -> Self {
        assert!(arity <= MAX_ARITY);
        TruthTable {
            bits: 0,
            arity: arity as u8,
        }
    }

    /// The constant-true function of the given arity.
    pub fn const1(arity: usize) -> Self {
        assert!(arity <= MAX_ARITY);
        TruthTable {
            bits: Self::mask(arity),
            arity: arity as u8,
        }
    }

    /// The projection function returning input `var` unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `var >= arity` or `arity > 6`.
    pub fn var(arity: usize, var: usize) -> Self {
        assert!(arity <= MAX_ARITY && var < arity);
        const PATTERNS: [u64; 6] = [
            0xaaaa_aaaa_aaaa_aaaa,
            0xcccc_cccc_cccc_cccc,
            0xf0f0_f0f0_f0f0_f0f0,
            0xff00_ff00_ff00_ff00,
            0xffff_0000_ffff_0000,
            0xffff_ffff_0000_0000,
        ];
        TruthTable {
            bits: PATTERNS[var] & Self::mask(arity),
            arity: arity as u8,
        }
    }

    /// Two-input AND.
    pub fn and2() -> Self {
        TruthTable {
            bits: 0b1000,
            arity: 2,
        }
    }

    /// Two-input OR.
    pub fn or2() -> Self {
        TruthTable {
            bits: 0b1110,
            arity: 2,
        }
    }

    /// Two-input XOR.
    pub fn xor2() -> Self {
        TruthTable {
            bits: 0b0110,
            arity: 2,
        }
    }

    /// Two-input NAND (the running example gate of the paper's Figure 1).
    pub fn nand2() -> Self {
        TruthTable {
            bits: 0b0111,
            arity: 2,
        }
    }

    /// Two-input NOR.
    pub fn nor2() -> Self {
        TruthTable {
            bits: 0b0001,
            arity: 2,
        }
    }

    /// One-input inverter.
    pub fn not1() -> Self {
        TruthTable {
            bits: 0b01,
            arity: 1,
        }
    }

    /// One-input buffer.
    pub fn buf1() -> Self {
        TruthTable {
            bits: 0b10,
            arity: 1,
        }
    }

    /// A uniformly random function of the given arity.
    pub fn random(arity: usize, rng: &mut impl rand::Rng) -> Self {
        assert!(arity <= MAX_ARITY);
        TruthTable {
            bits: rng.gen::<u64>() & Self::mask(arity),
            arity: arity as u8,
        }
    }

    /// Number of inputs of this function.
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// The raw function bits (low `2^arity` bits are meaningful).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Evaluates the function on a minterm (input `i` = bit `i`).
    pub fn eval(&self, minterm: u64) -> bool {
        debug_assert!(minterm < (1 << self.arity));
        (self.bits >> minterm) & 1 == 1
    }

    /// The complement function.
    pub fn negate(&self) -> Self {
        TruthTable {
            bits: !self.bits & Self::mask(self.arity()),
            arity: self.arity,
        }
    }

    /// True if the function is constant false.
    pub fn is_const0(&self) -> bool {
        self.bits == 0
    }

    /// True if the function is constant true.
    pub fn is_const1(&self) -> bool {
        self.bits == Self::mask(self.arity())
    }

    /// The negative cofactor: `f` with input `var` fixed to 0.
    ///
    /// The result keeps the same arity; the freed variable becomes
    /// irrelevant.
    pub fn cofactor0(&self, var: usize) -> Self {
        assert!(var < self.arity());
        let (lo, _) = self.split(var);
        TruthTable {
            bits: lo,
            arity: self.arity,
        }
    }

    /// The positive cofactor: `f` with input `var` fixed to 1.
    pub fn cofactor1(&self, var: usize) -> Self {
        assert!(var < self.arity());
        let (_, hi) = self.split(var);
        TruthTable {
            bits: hi,
            arity: self.arity,
        }
    }

    /// Splits into (f|var=0, f|var=1), both expanded so `var` is a
    /// don't-care in each half.
    fn split(&self, var: usize) -> (u64, u64) {
        let pat = Self::var_pattern(var);
        let step = 1u64 << var;
        let lo = self.bits & !pat;
        let hi = self.bits & pat;
        (lo | (lo << step), hi | (hi >> step))
    }

    fn var_pattern(var: usize) -> u64 {
        const PATTERNS: [u64; 6] = [
            0xaaaa_aaaa_aaaa_aaaa,
            0xcccc_cccc_cccc_cccc,
            0xf0f0_f0f0_f0f0_f0f0,
            0xff00_ff00_ff00_ff00,
            0xffff_0000_ffff_0000,
            0xffff_ffff_0000_0000,
        ];
        PATTERNS[var]
    }

    /// True if the function's value depends on input `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.arity());
        let (lo, hi) = self.split(var);
        (lo ^ hi) & Self::mask(self.arity()) != 0
    }

    /// The set of inputs the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.arity()).filter(|&v| self.depends_on(v)).collect()
    }

    /// Number of minterms on which the function is 1.
    pub fn count_ones(&self) -> u32 {
        self.bits.count_ones()
    }

    /// All prime implicants of the on-set (`phase = true`) or off-set
    /// (`phase = false`), via Quine–McCluskey combination.
    ///
    /// The result is the *complete* set of primes, not a cover; use
    /// [`TruthTable::onset_cover`] for an irredundant cover.
    pub fn prime_implicants(&self, phase: bool) -> Vec<Cube> {
        let set = if phase {
            self.bits
        } else {
            !self.bits & Self::mask(self.arity())
        };
        let n = self.arity();
        if set == 0 {
            return Vec::new();
        }
        // Start from the minterm cubes and repeatedly merge cube pairs
        // that differ in exactly one specified bit.
        let full_care = ((1u16 << n) - 1) as u8;
        let mut current: Vec<Cube> = (0..(1u64 << n))
            .filter(|&m| (set >> m) & 1 == 1)
            .map(|m| Cube {
                care: full_care,
                values: m as u8,
            })
            .collect();
        let mut primes: Vec<Cube> = Vec::new();
        while !current.is_empty() {
            let mut merged_flag = vec![false; current.len()];
            let mut next: Vec<Cube> = Vec::new();
            for i in 0..current.len() {
                for j in (i + 1)..current.len() {
                    let (a, b) = (current[i], current[j]);
                    if a.care != b.care {
                        continue;
                    }
                    let diff = (a.values ^ b.values) & a.care;
                    if diff.count_ones() == 1 {
                        merged_flag[i] = true;
                        merged_flag[j] = true;
                        let c = Cube {
                            care: a.care & !diff,
                            values: a.values & !diff,
                        };
                        if !next.contains(&c) {
                            next.push(c);
                        }
                    }
                }
            }
            for (i, cube) in current.iter().enumerate() {
                if !merged_flag[i] && !primes.contains(cube) {
                    primes.push(*cube);
                }
            }
            current = next;
        }
        primes
    }

    /// An irredundant prime cover of the on-set (greedy set cover over
    /// the prime implicants).
    pub fn onset_cover(&self) -> Vec<Cube> {
        self.cover(true)
    }

    /// An irredundant prime cover of the off-set.
    pub fn offset_cover(&self) -> Vec<Cube> {
        self.cover(false)
    }

    /// The function with inputs reordered: new input `i` is old input
    /// `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..arity`.
    pub fn permute_inputs(&self, perm: &[usize]) -> Self {
        let n = self.arity();
        assert_eq!(perm.len(), n, "permutation arity mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "not a permutation");
            seen[p] = true;
        }
        TruthTable::from_fn(n, |m| {
            // Build the old minterm: old input perm[i] = new input i.
            let mut old = 0u64;
            for (i, &p) in perm.iter().enumerate() {
                if (m >> i) & 1 == 1 {
                    old |= 1 << p;
                }
            }
            self.eval(old)
        })
    }

    /// The function with input `var` complemented.
    pub fn flip_input(&self, var: usize) -> Self {
        assert!(var < self.arity());
        TruthTable::from_fn(self.arity(), |m| self.eval(m ^ (1 << var)))
    }

    /// The NPN-canonical representative: the lexicographically
    /// smallest function bits over all input permutations, input
    /// complementations and output complementation. Two functions
    /// are NPN-equivalent iff their canonical forms are equal — the
    /// standard key for cut-function caches in technology mappers.
    ///
    /// Exhaustive search: `2^(n+1) · n!` transforms, fine up to the
    /// 6-input LUTs used here (callers should cache results).
    pub fn npn_canonical(&self) -> Self {
        let n = self.arity();
        let mut best = u64::MAX;
        let mut perm: Vec<usize> = (0..n).collect();
        // Heap's algorithm over permutations; flips enumerated inside.
        fn visit(tt: &TruthTable, perm: &[usize], best: &mut u64) {
            let n = tt.arity();
            let p = tt.permute_inputs(perm);
            for flips in 0..(1u64 << n) {
                let mut f = p;
                for v in 0..n {
                    if (flips >> v) & 1 == 1 {
                        f = f.flip_input(v);
                    }
                }
                *best = (*best).min(f.bits()).min(f.negate().bits());
            }
        }
        fn heaps(tt: &TruthTable, k: usize, perm: &mut Vec<usize>, best: &mut u64) {
            if k <= 1 {
                visit(tt, perm, best);
                return;
            }
            for i in 0..k {
                heaps(tt, k - 1, perm, best);
                if k.is_multiple_of(2) {
                    perm.swap(i, k - 1);
                } else {
                    perm.swap(0, k - 1);
                }
            }
        }
        heaps(self, n, &mut perm, &mut best);
        TruthTable::from_bits(n, best).expect("same arity")
    }

    fn cover(&self, phase: bool) -> Vec<Cube> {
        let primes = self.prime_implicants(phase);
        let set = if phase {
            self.bits
        } else {
            !self.bits & Self::mask(self.arity())
        };
        let n = self.arity();
        let mut uncovered: u64 = set;
        let mut cover = Vec::new();
        // Greedy: repeatedly take the prime covering the most
        // still-uncovered minterms, breaking ties toward more
        // don't-cares (larger cubes first).
        let mut masks: Vec<(u64, Cube)> = primes.iter().map(|c| (c.minterm_mask(n), *c)).collect();
        masks.sort_by_key(|(_, c)| c.care.count_ones());
        while uncovered != 0 {
            let best = masks
                .iter()
                .max_by_key(|(m, _)| (m & uncovered).count_ones())
                .copied();
            match best {
                Some((m, c)) if m & uncovered != 0 => {
                    cover.push(c);
                    uncovered &= !m;
                }
                _ => break,
            }
        }
        cover
    }
}

impl std::fmt::Display for TruthTable {
    /// Prints the function as a binary string, minterm `2^arity - 1`
    /// first (the ABC convention).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = 1usize << self.arity();
        for m in (0..n).rev() {
            write!(f, "{}", u8::from(self.eval(m as u64)))?;
        }
        Ok(())
    }
}

/// A truth-table row with don't-cares: a partial assignment over at
/// most six inputs.
///
/// Bit `i` of `care` is set when input `i` is specified; bit `i` of
/// `values` then holds its value (and is zero when unspecified).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    care: u8,
    values: u8,
}

impl Cube {
    /// Creates a cube from care/value masks.
    ///
    /// Value bits outside the care mask are cleared.
    pub fn new(care: u8, values: u8) -> Self {
        Cube {
            care,
            values: values & care,
        }
    }

    /// The fully-unspecified cube (all inputs don't-care).
    pub fn all_dc() -> Self {
        Cube { care: 0, values: 0 }
    }

    /// The care mask: bit `i` set when input `i` is specified.
    pub fn care(&self) -> u8 {
        self.care
    }

    /// The value mask (only meaningful under [`Cube::care`] bits).
    pub fn values(&self) -> u8 {
        self.values
    }

    /// The value of input `i`: `Some(bit)` if specified, `None` if
    /// don't-care.
    pub fn input(&self, i: usize) -> Option<bool> {
        if (self.care >> i) & 1 == 1 {
            Some((self.values >> i) & 1 == 1)
        } else {
            None
        }
    }

    /// Number of don't-care inputs among the first `arity` inputs
    /// (the paper's `dc_size`, Equation 1).
    pub fn dc_count(&self, arity: usize) -> u32 {
        (!self.care & ((1u16 << arity) - 1) as u8).count_ones()
    }

    /// True if the complete minterm `m` lies inside this cube.
    pub fn contains_minterm(&self, m: u64) -> bool {
        (m as u8 ^ self.values) & self.care == 0
    }

    /// Bitmask over minterms (of an `arity`-input function) covered by
    /// this cube.
    pub fn minterm_mask(&self, arity: usize) -> u64 {
        let mut mask = 0u64;
        for m in 0..(1u64 << arity) {
            if self.contains_minterm(m) {
                mask |= 1 << m;
            }
        }
        mask
    }
}

impl std::fmt::Debug for Cube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cube(")?;
        for i in (0..MAX_ARITY).rev() {
            match self.input(i) {
                Some(true) => write!(f, "1")?,
                Some(false) => write!(f, "0")?,
                None => write!(f, "-")?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates() {
        assert!(TruthTable::and2().eval(0b11));
        assert!(!TruthTable::and2().eval(0b01));
        assert!(TruthTable::or2().eval(0b01));
        assert!(!TruthTable::or2().eval(0b00));
        assert!(TruthTable::xor2().eval(0b01));
        assert!(!TruthTable::xor2().eval(0b11));
        assert!(TruthTable::nand2().eval(0b00));
        assert!(!TruthTable::nand2().eval(0b11));
        assert!(TruthTable::not1().eval(0));
        assert!(!TruthTable::not1().eval(1));
    }

    #[test]
    fn from_fn_matches_eval() {
        let maj3 = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        for m in 0..8u64 {
            assert_eq!(maj3.eval(m), m.count_ones() >= 2);
        }
    }

    #[test]
    fn var_projection() {
        for arity in 1..=6 {
            for v in 0..arity {
                let t = TruthTable::var(arity, v);
                for m in 0..(1u64 << arity) {
                    assert_eq!(t.eval(m), (m >> v) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn cofactors() {
        let maj3 = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let c1 = maj3.cofactor1(0);
        // maj(1, b, c) = b | c
        for m in 0..8u64 {
            let b = (m >> 1) & 1 == 1;
            let c = (m >> 2) & 1 == 1;
            assert_eq!(c1.eval(m), b || c);
        }
        let c0 = maj3.cofactor0(0);
        // maj(0, b, c) = b & c
        for m in 0..8u64 {
            let b = (m >> 1) & 1 == 1;
            let c = (m >> 2) & 1 == 1;
            assert_eq!(c0.eval(m), b && c);
        }
    }

    #[test]
    fn support_detects_vacuous_variables() {
        // f(a, b, c) = a ^ c ignores b.
        let f = TruthTable::from_fn(3, |m| (m ^ (m >> 2)) & 1 == 1);
        assert_eq!(f.support(), vec![0, 2]);
        assert!(!f.depends_on(1));
    }

    #[test]
    fn const_detection() {
        assert!(TruthTable::const0(4).is_const0());
        assert!(TruthTable::const1(4).is_const1());
        assert!(!TruthTable::var(4, 2).is_const0());
        assert!(TruthTable::const1(6).is_const1());
        assert!(TruthTable::const0(0).is_const0());
    }

    #[test]
    fn negate_involution() {
        let f = TruthTable::from_bits(5, 0xdead_beef).unwrap();
        assert_eq!(f.negate().negate(), f);
        assert!(TruthTable::const0(3).negate().is_const1());
    }

    #[test]
    fn arity_limit_enforced() {
        assert!(TruthTable::from_bits(7, 0).is_err());
        assert!(TruthTable::from_bits(6, u64::MAX).is_ok());
    }

    #[test]
    fn cube_membership() {
        // Cube 1-0 over 3 inputs: input2=1, input0=0, input1 dc.
        let c = Cube::new(0b101, 0b100);
        assert!(c.contains_minterm(0b100));
        assert!(c.contains_minterm(0b110));
        assert!(!c.contains_minterm(0b101));
        assert!(!c.contains_minterm(0b000));
        assert_eq!(c.dc_count(3), 1);
        assert_eq!(c.minterm_mask(3), (1 << 0b100) | (1 << 0b110));
    }

    #[test]
    fn primes_of_and2() {
        let p = TruthTable::and2().prime_implicants(true);
        assert_eq!(p, vec![Cube::new(0b11, 0b11)]);
        let mut off = TruthTable::and2().prime_implicants(false);
        off.sort_by_key(|c| (c.care(), c.values()));
        // off-set primes: a=0 (care 01, val 00) and b=0 (care 10, val 00)
        assert_eq!(off, vec![Cube::new(0b01, 0b00), Cube::new(0b10, 0b00)]);
    }

    #[test]
    fn primes_of_xor_have_no_dcs() {
        let p = TruthTable::xor2().prime_implicants(true);
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|c| c.dc_count(2) == 0));
    }

    #[test]
    fn cover_is_exact_for_random_functions() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for arity in 1..=6usize {
            for _ in 0..20 {
                let f = TruthTable::from_bits(arity, rng.gen()).unwrap();
                for (phase, cover) in [(true, f.onset_cover()), (false, f.offset_cover())] {
                    let mut covered = 0u64;
                    for c in &cover {
                        covered |= c.minterm_mask(arity);
                    }
                    let set = if phase {
                        f.bits()
                    } else {
                        !f.bits() & TruthTable::mask(arity)
                    };
                    assert_eq!(covered, set, "arity {arity} phase {phase} f {f}");
                }
            }
        }
    }

    #[test]
    fn display_is_msb_first() {
        assert_eq!(TruthTable::and2().to_string(), "1000");
        assert_eq!(TruthTable::or2().to_string(), "1110");
        assert_eq!(TruthTable::var(2, 0).to_string(), "1010");
    }

    #[test]
    fn permute_inputs_relabels() {
        // f(a, b) = a & !b; swapping inputs gives !a & b.
        let f = TruthTable::from_fn(2, |m| m & 1 == 1 && m & 2 == 0);
        let g = f.permute_inputs(&[1, 0]);
        for m in 0..4u64 {
            assert_eq!(g.eval(m), m & 2 == 2 && m & 1 == 0, "at {m:02b}");
        }
        // Identity permutation is a no-op.
        assert_eq!(f.permute_inputs(&[0, 1]), f);
    }

    #[test]
    fn flip_input_complements() {
        let f = TruthTable::and2();
        let g = f.flip_input(0);
        for m in 0..4u64 {
            assert_eq!(g.eval(m), f.eval(m ^ 1));
        }
        assert_eq!(g.flip_input(0), f, "flip is an involution");
    }

    #[test]
    fn npn_canonical_is_invariant() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for arity in 1..=4usize {
            for _ in 0..10 {
                let f = TruthTable::from_bits(arity, rng.gen()).unwrap();
                let canon = f.npn_canonical();
                // Random NPN transform of f must share the canonical form.
                let mut perm: Vec<usize> = (0..arity).collect();
                for i in (1..arity).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                let mut g = f.permute_inputs(&perm);
                for v in 0..arity {
                    if rng.gen() {
                        g = g.flip_input(v);
                    }
                }
                if rng.gen() {
                    g = g.negate();
                }
                assert_eq!(g.npn_canonical(), canon, "arity {arity} f {f}");
            }
        }
    }

    #[test]
    fn npn_groups_the_two_input_functions() {
        // All 16 two-input functions fall into exactly 4 NPN classes:
        // const, single-variable, and, xor.
        use std::collections::HashSet;
        let classes: HashSet<u64> = (0..16u64)
            .map(|bits| {
                TruthTable::from_bits(2, bits)
                    .unwrap()
                    .npn_canonical()
                    .bits()
            })
            .collect();
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn onset_cover_of_constants() {
        assert!(TruthTable::const0(3).onset_cover().is_empty());
        let c = TruthTable::const1(3).onset_cover();
        assert_eq!(c, vec![Cube::all_dc()]);
    }
}
