//! Offline drop-in subset of the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate
//! reimplements the slice of `proptest 1.x` the workspace's property
//! tests use: the [`proptest!`] macro, `prop_assert*`/`prop_assume!`,
//! [`Strategy`](strategy::Strategy) with `prop_map`, range and tuple
//! strategies, [`any`](strategy::any), and `prop::collection::vec`.
//!
//! Unlike upstream there is **no shrinking**: a failing case panics
//! with the assertion message. Cases are generated from a
//! deterministic per-test seed, so failures reproduce exactly.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

pub mod strategy {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A value generator. Unlike upstream there is no value tree:
    /// `new_value` draws a single concrete value.
    pub trait Strategy {
        /// The type of values produced.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates vectors whose elements come from `self` (method
        /// form used by some call sites; see also
        /// [`crate::collection::vec`]).
        fn prop_flat_map<U, S2: Strategy<Value = U>, F: Fn(Self::Value) -> S2>(
            self,
            f: F,
        ) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            (**self).new_value(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            (**self).new_value(rng)
        }
    }

    /// [`Strategy::prop_map`] adapter.
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// [`Strategy::prop_flat_map`] adapter.
    #[derive(Clone, Debug)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn new_value(&self, rng: &mut StdRng) -> S2::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$i:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(S0 / 0);
    impl_tuple_strategy!(S0 / 0, S1 / 1);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> Self {
            rng.gen()
        }
    }

    impl<T: Arbitrary> Arbitrary for Option<T> {
        fn arbitrary(rng: &mut StdRng) -> Self {
            if rng.gen() {
                Some(T::arbitrary(rng))
            } else {
                None
            }
        }
    }

    /// The `any::<T>()` strategy.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Unconstrained values of `T` (mirrors `proptest::arbitrary::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// Builds the deterministic RNG for one test case.
    pub fn case_rng(test_name: &str, case: u64) -> StdRng {
        // FNV-1a over the test name gives a stable per-test stream.
        let mut h = 0xcbf29ce484222325u64;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E3779B97F4A7C15))
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use super::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Vectors with elements from `element` and length from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// `proptest::prelude::prop` namespace.
pub mod prop {
    pub use crate::collection;
}

/// Test-runner plumbing used by the expanded [`proptest!`] macro.
pub mod test_runner {
    /// Per-block configuration (`#![proptest_config(..)]`).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject,
        /// A `prop_assert*` failed; the test fails.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// An input rejection.
        pub fn reject() -> Self {
            TestCaseError::Reject
        }
    }
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ..)`
/// runs `cases` times with freshly drawn arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])+
         fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut passed = 0u32;
                let mut rejected = 0u32;
                let mut draw = 0u64;
                while passed < config.cases {
                    let mut __rng =
                        $crate::strategy::case_rng(stringify!($name), draw);
                    draw += 1;
                    $(
                        let $arg = $crate::strategy::Strategy::new_value(
                            &($strat), &mut __rng);
                    )+
                    let __result: ::std::result::Result<
                        (), $crate::test_runner::TestCaseError,
                    > = (|| { $body ::std::result::Result::Ok(()) })();
                    match __result {
                        Ok(()) => passed += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => {
                            rejected += 1;
                            assert!(
                                rejected < 20 * config.cases + 1000,
                                "prop_assume! rejected too many cases \
                                 ({rejected} rejections for {passed} passes)"
                            );
                        }
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest case {} of `{}` failed: {}",
                                draw - 1, stringify!($name), msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Fails the current case with a message if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case if the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` != `{:?}` ({} vs {})",
            __l, __r, stringify!($a), stringify!($b)
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(__l == __r, $($fmt)+);
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: `{:?}` == `{:?}` ({} vs {})",
            __l, __r, stringify!($a), stringify!($b)
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(__l != __r, $($fmt)+);
    }};
}

/// Rejects the current case (retried with fresh inputs) if the
/// condition is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject());
        }
    };
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(x in 1usize..10, (a, b) in (0u64..5, 0i32..3)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(a < 5);
            prop_assert!((0..3).contains(&b));
        }

        #[test]
        fn vec_and_map(v in collection::vec(any::<bool>(), 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
        }

        #[test]
        fn assume_retries(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn mapped_strategy(n in (0u64..8).prop_map(|x| x * 2)) {
            prop_assert!(n % 2 == 0 && n < 16);
            prop_assert_ne!(n, 17);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..4)
            .map(|c| {
                let mut rng = crate::strategy::case_rng("t", c);
                crate::strategy::Strategy::new_value(&(0u64..1000), &mut rng)
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|c| {
                let mut rng = crate::strategy::case_rng("t", c);
                crate::strategy::Strategy::new_value(&(0u64..1000), &mut rng)
            })
            .collect();
        assert_eq!(a, b);
    }
}
