//! SIMD widening for the compiled kernels.
//!
//! Word-parallel simulation is already 64-way bit-parallel; this
//! module widens each kernel step to 256 or 512 bits by processing 4
//! or 8 pattern words per operation. The widths are expressed as
//! portable structs ([`U64x4`], [`U64x8`]) built from plain `u64`
//! arithmetic — safe on every CPU — and the kernel instantiates its
//! execution loop generically over [`SimdWord`]. On x86-64 the
//! instantiations are additionally wrapped in
//! `#[target_feature(enable = "avx2"/"avx512f")]` functions (see
//! `kernel.rs`), which lets the compiler turn the portable array
//! loops into actual `ymm`/`zmm` instructions when the hardware has
//! them; elsewhere the same structs compile to unrolled scalar code
//! and remain the differential-testing vehicle.
//!
//! Width selection happens once per process ([`active_simd_level`]):
//! runtime feature detection picks the widest supported level, and
//! `SIMGEN_SIMD=scalar|wide256|wide512` overrides it (for benchmarks
//! measuring the widening win and for differential tests). Tests and
//! benches can also bypass the global and pin a level per call via
//! `CompiledNet::simulate_lanes_at`.

use std::sync::OnceLock;

/// How wide one kernel step is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// One 64-bit word per operation.
    Scalar,
    /// Four words (256 bits) per operation — AVX2-sized.
    Wide256,
    /// Eight words (512 bits) per operation — AVX-512-sized.
    Wide512,
}

impl SimdLevel {
    /// Lane width in bits (64/256/512) — the `simd_width` bench field.
    pub fn width_bits(self) -> u64 {
        match self {
            SimdLevel::Scalar => 64,
            SimdLevel::Wide256 => 256,
            SimdLevel::Wide512 => 512,
        }
    }

    /// Pattern words processed per operation at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Wide256 => 4,
            SimdLevel::Wide512 => 8,
        }
    }

    /// Stable lowercase name (`scalar`/`wide256`/`wide512`), the form
    /// `SIMGEN_SIMD` accepts back.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Wide256 => "wide256",
            SimdLevel::Wide512 => "wide512",
        }
    }

    /// Parses an override: level names, plain bit widths, or the x86
    /// feature names they correspond to.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "64" | "off" => Some(SimdLevel::Scalar),
            "wide256" | "256" | "avx2" => Some(SimdLevel::Wide256),
            "wide512" | "512" | "avx512" | "avx512f" => Some(SimdLevel::Wide512),
            _ => None,
        }
    }
}

/// Widest level the running CPU natively supports.
fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdLevel::Wide512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Wide256;
        }
    }
    SimdLevel::Scalar
}

/// The process-wide kernel width: `SIMGEN_SIMD` override if set and
/// valid, otherwise the widest detected level. Resolved once and
/// cached; an unparsable override falls back to detection.
pub fn active_simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("SIMGEN_SIMD")
            .ok()
            .and_then(|v| SimdLevel::parse(&v))
            .unwrap_or_else(detect_level)
    })
}

/// A pack of pattern words the kernels operate on as one unit.
///
/// Every method must stay `#[inline(always)]` in implementations: the
/// kernel's `#[target_feature]` wrappers rely on full inlining to
/// propagate the enabled features into these loops.
pub trait SimdWord: Copy {
    /// Pattern words per pack.
    const LANES: usize;

    /// Loads `Self::LANES` words from the head of `src` (unaligned).
    fn load(src: &[u64]) -> Self;
    /// Stores the pack to the head of `dst` (unaligned).
    fn store(self, dst: &mut [u64]);
    /// All-zero pack.
    fn zero() -> Self;
    /// All-one pack.
    fn ones() -> Self;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// Lane-wise complement.
    fn not(self) -> Self;

    /// `(s & t) | (!s & e)` — the mux/Shannon recombination step.
    #[inline(always)]
    fn mux(s: Self, t: Self, e: Self) -> Self {
        s.and(t).or(s.not().and(e))
    }
}

impl SimdWord for u64 {
    const LANES: usize = 1;

    #[inline(always)]
    fn load(src: &[u64]) -> Self {
        src[0]
    }
    #[inline(always)]
    fn store(self, dst: &mut [u64]) {
        dst[0] = self;
    }
    #[inline(always)]
    fn zero() -> Self {
        0
    }
    #[inline(always)]
    fn ones() -> Self {
        u64::MAX
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    fn not(self) -> Self {
        !self
    }
}

/// Declares a portable fixed-width pack of `u64` lanes. The body is
/// plain array arithmetic so it is sound on any target; under a
/// matching `#[target_feature]` wrapper the compiler lowers it to one
/// vector instruction per method.
macro_rules! simd_pack {
    ($name:ident, $lanes:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Copy, Debug)]
        #[repr(transparent)]
        pub struct $name(pub [u64; $lanes]);

        impl SimdWord for $name {
            const LANES: usize = $lanes;

            #[inline(always)]
            fn load(src: &[u64]) -> Self {
                $name(src[..$lanes].try_into().expect("slice of pack length"))
            }
            #[inline(always)]
            fn store(self, dst: &mut [u64]) {
                dst[..$lanes].copy_from_slice(&self.0);
            }
            #[inline(always)]
            fn zero() -> Self {
                $name([0; $lanes])
            }
            #[inline(always)]
            fn ones() -> Self {
                $name([u64::MAX; $lanes])
            }
            #[inline(always)]
            fn and(self, other: Self) -> Self {
                let mut lanes = self.0;
                for (l, r) in lanes.iter_mut().zip(other.0) {
                    *l &= r;
                }
                $name(lanes)
            }
            #[inline(always)]
            fn or(self, other: Self) -> Self {
                let mut lanes = self.0;
                for (l, r) in lanes.iter_mut().zip(other.0) {
                    *l |= r;
                }
                $name(lanes)
            }
            #[inline(always)]
            fn xor(self, other: Self) -> Self {
                let mut lanes = self.0;
                for (l, r) in lanes.iter_mut().zip(other.0) {
                    *l ^= r;
                }
                $name(lanes)
            }
            #[inline(always)]
            fn not(self) -> Self {
                let mut lanes = self.0;
                for l in lanes.iter_mut() {
                    *l = !*l;
                }
                $name(lanes)
            }
        }
    };
}

simd_pack!(U64x4, 4, "Four pattern words — one 256-bit (AVX2) step.");
simd_pack!(
    U64x8,
    8,
    "Eight pattern words — one 512-bit (AVX-512) step."
);

/// `U` consecutive packs treated as one wider pack.
///
/// The kernel's register-resident tape path instantiates
/// `Unroll<W, 4>` so each op decode is amortized over four vector
/// steps while every intermediate still lives on the stack; the
/// compiler unrolls the inner `U`-loops completely.
#[derive(Clone, Copy, Debug)]
pub struct Unroll<W, const U: usize>(pub [W; U]);

impl<W: SimdWord, const U: usize> SimdWord for Unroll<W, U> {
    const LANES: usize = W::LANES * U;

    #[inline(always)]
    fn load(src: &[u64]) -> Self {
        let mut packs = [W::zero(); U];
        for (i, p) in packs.iter_mut().enumerate() {
            *p = W::load(&src[i * W::LANES..]);
        }
        Unroll(packs)
    }
    #[inline(always)]
    fn store(self, dst: &mut [u64]) {
        for (i, p) in self.0.into_iter().enumerate() {
            p.store(&mut dst[i * W::LANES..]);
        }
    }
    #[inline(always)]
    fn zero() -> Self {
        Unroll([W::zero(); U])
    }
    #[inline(always)]
    fn ones() -> Self {
        Unroll([W::ones(); U])
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        let mut packs = self.0;
        for (l, r) in packs.iter_mut().zip(other.0) {
            *l = l.and(r);
        }
        Unroll(packs)
    }
    #[inline(always)]
    fn or(self, other: Self) -> Self {
        let mut packs = self.0;
        for (l, r) in packs.iter_mut().zip(other.0) {
            *l = l.or(r);
        }
        Unroll(packs)
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        let mut packs = self.0;
        for (l, r) in packs.iter_mut().zip(other.0) {
            *l = l.xor(r);
        }
        Unroll(packs)
    }
    #[inline(always)]
    fn not(self) -> Self {
        let mut packs = self.0;
        for l in packs.iter_mut() {
            *l = l.not();
        }
        Unroll(packs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_ops<W: SimdWord>() {
        let n = W::LANES;
        let a: Vec<u64> = (0..n as u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i as u32))
            .collect();
        let b: Vec<u64> = (0..n as u64)
            .map(|i| 0x2545_F491_4F6C_DD1Du64.rotate_right(i as u32))
            .collect();
        let wa = W::load(&a);
        let wb = W::load(&b);
        let mut out = vec![0u64; n];
        wa.and(wb).store(&mut out);
        assert!(out
            .iter()
            .zip(&a)
            .zip(&b)
            .all(|((&o, &x), &y)| o == (x & y)));
        wa.or(wb).store(&mut out);
        assert!(out
            .iter()
            .zip(&a)
            .zip(&b)
            .all(|((&o, &x), &y)| o == (x | y)));
        wa.xor(wb).store(&mut out);
        assert!(out
            .iter()
            .zip(&a)
            .zip(&b)
            .all(|((&o, &x), &y)| o == (x ^ y)));
        wa.not().store(&mut out);
        assert!(out.iter().zip(&a).all(|(&o, &x)| o == !x));
        W::mux(wa, wb, wa.not()).store(&mut out);
        assert!(out
            .iter()
            .zip(&a)
            .zip(&b)
            .all(|((&o, &x), &y)| o == ((x & y) | !x)));
        W::zero().store(&mut out);
        assert!(out.iter().all(|&o| o == 0));
        W::ones().store(&mut out);
        assert!(out.iter().all(|&o| o == u64::MAX));
    }

    #[test]
    fn packs_match_scalar_semantics() {
        check_ops::<u64>();
        check_ops::<U64x4>();
        check_ops::<U64x8>();
        check_ops::<Unroll<u64, 4>>();
        check_ops::<Unroll<U64x8, 4>>();
    }

    #[test]
    fn level_parse_roundtrips_and_aliases() {
        for level in [SimdLevel::Scalar, SimdLevel::Wide256, SimdLevel::Wide512] {
            assert_eq!(SimdLevel::parse(level.name()), Some(level));
            assert_eq!(level.lanes() * 64, level.width_bits() as usize);
        }
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Wide256));
        assert_eq!(SimdLevel::parse("512"), Some(SimdLevel::Wide512));
        assert_eq!(SimdLevel::parse("off"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("mmx"), None);
    }

    #[test]
    fn active_level_is_stable() {
        assert_eq!(active_simd_level(), active_simd_level());
    }
}
