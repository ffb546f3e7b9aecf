//! Offline stand-in for `proptest`.
//!
//! Provides the subset this workspace uses: the [`proptest!`] macro
//! (with optional `#![proptest_config(...)]`), [`Strategy`] with
//! `prop_map`, range and tuple strategies, [`any`], `collection::vec`,
//! and the `prop_assert!`/`prop_assert_eq!` macros.
//!
//! Differences from the real crate: cases are sampled from a fixed
//! deterministic RNG (seeded per case index), there is no shrinking,
//! and failures panic immediately with the case number. That keeps
//! property tests meaningful (they still explore the input space and
//! fail loudly) while requiring no persistence or network.

use std::ops::{Range, RangeInclusive};

/// Deterministic per-case RNG (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for one test case.
    // lint:allow(shim-drift): called as `$crate::TestRng::for_case` from
    // `proptest!` macro expansions at use sites, invisible to a lexical scan
    pub fn for_case(case: u32) -> TestRng {
        TestRng {
            state: 0x5DEECE66D_u64
                .wrapping_mul(case as u64 + 1)
                .wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant for test-input sampling.
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Sample one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map the generated value.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    rng.next_u64() as $t
                } else {
                    (lo + rng.below(span)) as $t
                }
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i64, *self.end() as i64);
                assert!(lo <= hi, "empty range strategy");
                let span = hi.wrapping_sub(lo) as u64 + 1;
                lo.wrapping_add(rng.below(span) as i64) as $t
            }
        }
    )*};
}
signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Marker returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The full domain of `T`.
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I, 9 J)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I, 9 J, 10 K)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I, 9 J, 10 K, 11 L)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vec of `element` with a length sampled from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The [`vec()`] strategy.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::generate(&self.len, rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration (`test_runner::Config` in the real crate).
pub mod test_runner {
    /// Number of cases to run per property.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Cases per property test.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }

        /// Config whose case count comes from `FLUCTRACE_PROPTEST_CASES`
        /// when set (so scheduled CI can explore deeper), falling back to
        /// `default` otherwise. Unparsable or zero values fall back too —
        /// a property that runs zero cases would silently prove nothing.
        pub fn cases_from_env(default: u32) -> Config {
            let cases = std::env::var("FLUCTRACE_PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse::<u32>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(default);
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 64 }
        }
    }
}

/// `ProptestConfig` alias matching the real prelude.
pub use test_runner::Config as ProptestConfig;

/// Property assertion (panics on failure, naming the property).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// Skip the current case when the precondition does not hold. Each case
/// body runs inside its own closure, so `return` aborts just this case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests: each `#[test] fn name(arg in strategy, ...)`
/// runs `cases` times with freshly sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $($(#[$meta:meta])* fn $name:ident ($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case_index in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(case_index);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // One closure per case so `prop_assume!` can skip a
                    // case with a plain `return`.
                    #[allow(unused_mut)]
                    let mut case = move || { $body };
                    case();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// The usual glob import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_case(3);
        for _ in 0..1000 {
            let v = Strategy::generate(&(5u64..17), &mut rng);
            assert!((5..17).contains(&v));
            let w = Strategy::generate(&(0u8..=32), &mut rng);
            assert!(w <= 32);
            let f = Strategy::generate(&(-1e6f64..1e6), &mut rng);
            assert!((-1e6..1e6).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = crate::TestRng::for_case(0);
        for _ in 0..100 {
            let v = Strategy::generate(&crate::collection::vec(0u32..10, 1..5), &mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_with_config(x in 1u64..100, flags in crate::collection::vec(any::<bool>(), 0..4)) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(flags.len() < 4, "len {}", flags.len());
        }
    }

    proptest! {
        #[test]
        fn macro_default_config(pair in (0u32..10, any::<bool>())) {
            prop_assert_eq!(pair.0 < 10, true);
        }
    }
}
