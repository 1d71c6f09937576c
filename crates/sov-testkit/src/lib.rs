//! Offline test & bench harness for the SoV workspace.
//!
//! CI for this repository runs with **no network access**, so external
//! crates cannot be fetched at dependency-resolution time. This crate is an
//! in-tree, deterministic stand-in for the two dev-dependencies the seed
//! workspace used:
//!
//! * a **property-testing shim** ([`proptest!`], [`Strategy`], [`prop`],
//!   [`any`]) covering the subset of the `proptest` API our test suites
//!   use, driven by the workspace's own seeded [`SovRng`] so every run is
//!   reproducible, and
//! * a **micro-bench shim** ([`bench`]) with a criterion-shaped API
//!   (`Criterion`, `criterion_group!`, `criterion_main!`, benchmark
//!   groups) that times closures with `std::time::Instant` and prints
//!   mean ns/iter.
//!
//! It additionally hosts [`model`], a loom-style bounded-schedule model
//! checker used to verify the `sov-runtime` concurrency protocols under
//! exhaustively enumerated interleavings (DESIGN.md §13).
//!
//! Both are deliberately tiny: if the real `proptest`/`criterion` become
//! fetchable again, switching back is a one-line import change per file.

#![deny(missing_docs)]

use sov_math::SovRng;

/// Default number of cases per property when no config is given.
pub const DEFAULT_CASES: usize = 64;

/// Deterministic per-test RNG, seeded from the test's name.
#[must_use]
pub fn test_rng(name: &str) -> SovRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SovRng::seed_from_u64(h)
}

/// Per-`proptest!` block configuration (mirrors `proptest::ProptestConfig`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: usize,
}

impl ProptestConfig {
    /// A config running `cases` samples per property.
    #[must_use]
    pub fn with_cases(cases: usize) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: DEFAULT_CASES,
        }
    }
}

/// A generator of random values, sampled from a seeded [`SovRng`].
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut SovRng) -> Self::Value;

    /// Maps sampled values through `f` (mirrors `Strategy::prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone, Copy)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, rng: &mut SovRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            #[allow(clippy::cast_sign_loss)]
            fn sample(&self, rng: &mut SovRng) -> $t {
                let span = self.end.wrapping_sub(self.start) as u64;
                assert!(span > 0, "empty integer range strategy");
                self.start.wrapping_add(rng.next_below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut SovRng) -> f64 {
        rng.uniform(self.start, self.end)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut SovRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A / 0),
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3)
);

/// Types with a canonical "any value" strategy (mirrors `Arbitrary`).
pub trait Arbitrary {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut SovRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SovRng) -> Self {
        rng.bernoulli(0.5)
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut SovRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize);

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut SovRng) -> T {
        T::arbitrary(rng)
    }
}

/// An arbitrary value of `T` (mirrors `proptest::prelude::any`).
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Mirror of the `proptest::prop` module tree (`collection`, `option`,
/// `num`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use sov_math::SovRng;

        /// Length specification for [`vec`]: an exact `usize` or a
        /// half-open `Range<usize>`.
        pub trait IntoLenRange {
            /// The inclusive-lo / exclusive-hi bounds.
            fn bounds(&self) -> (usize, usize);
        }

        impl IntoLenRange for usize {
            fn bounds(&self) -> (usize, usize) {
                (*self, *self + 1)
            }
        }

        impl IntoLenRange for std::ops::Range<usize> {
            fn bounds(&self) -> (usize, usize) {
                (self.start, self.end)
            }
        }

        /// A strategy producing `Vec`s of `elem` samples.
        #[derive(Debug, Clone, Copy)]
        pub struct VecStrategy<S> {
            elem: S,
            lo: usize,
            hi: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut SovRng) -> Self::Value {
                let len = if self.hi > self.lo + 1 {
                    self.lo + rng.index(self.hi - self.lo)
                } else {
                    self.lo
                };
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }

        /// Vectors of `elem`, with `len` an exact length or a range
        /// (mirrors `prop::collection::vec`).
        pub fn vec<S: Strategy>(elem: S, len: impl IntoLenRange) -> VecStrategy<S> {
            let (lo, hi) = len.bounds();
            assert!(hi > lo, "empty length range");
            VecStrategy { elem, lo, hi }
        }
    }

    /// `Option` strategies.
    pub mod option {
        use super::super::Strategy;
        use sov_math::SovRng;

        /// A strategy producing `Option<T>` with a 50% `Some` rate.
        #[derive(Debug, Clone, Copy)]
        pub struct OptionStrategy<S>(S);

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn sample(&self, rng: &mut SovRng) -> Self::Value {
                rng.bernoulli(0.5).then(|| self.0.sample(rng))
            }
        }

        /// `Some(inner)` half the time, `None` otherwise (mirrors
        /// `prop::option::of`).
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }
    }

    /// Numeric strategies.
    pub mod num {
        /// `f64` strategies.
        pub mod f64 {
            use super::super::super::Strategy;
            use sov_math::SovRng;

            /// Finite, non-zero, non-subnormal floats spread across
            /// magnitudes (mirrors `prop::num::f64::NORMAL`).
            #[derive(Debug, Clone, Copy)]
            pub struct NormalF64;

            impl Strategy for NormalF64 {
                type Value = f64;

                fn sample(&self, rng: &mut SovRng) -> f64 {
                    // Log-uniform magnitude over ~16 decades, random sign:
                    // exercises both tiny and huge normal floats.
                    let exp = rng.uniform(-8.0, 8.0);
                    let mag = 10f64.powf(exp);
                    if rng.bernoulli(0.5) {
                        mag
                    } else {
                        -mag
                    }
                }
            }

            /// Normal (classified) floats.
            pub const NORMAL: NormalF64 = NormalF64;
        }
    }
}

/// Declares deterministic property tests (shim of `proptest::proptest!`).
///
/// Supports the subset used in this workspace: an optional leading
/// `#![proptest_config(ProptestConfig::with_cases(N))]`, then `#[test]`
/// functions whose arguments are `name in strategy` pairs. A failing case
/// panics with `<test>: case i of n: <original message>`, counting cases
/// from 1; the original message is kept verbatim, so
/// `#[should_panic(expected = ...)]` still matches it. Each body runs in a
/// closure, so it must not `return`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg).cases; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::DEFAULT_CASES; $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cases:expr; $(
        #[test]
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let cases: usize = $cases;
            let mut rng = $crate::test_rng(stringify!($name));
            for case in 1..=cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                let run = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body));
                if let Err(panic) = run {
                    $crate::__fail_case(stringify!($name), case, cases, panic.as_ref());
                }
            }
        }
    )*};
}

/// Implementation detail of [`proptest!`]: re-raises a failed case's panic
/// with the test name and the case's position in front of its message.
#[doc(hidden)]
#[track_caller]
pub fn __fail_case(name: &str, case: usize, cases: usize, panic: &(dyn std::any::Any + Send)) -> ! {
    let message = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(the panic carried no message)");
    panic!("{name}: case {case} of {cases}: {message}")
}

/// Asserts a property holds (shim of `prop_assert!`; panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        assert!($cond $(, $($fmt)+)?)
    };
}

/// Asserts two values are equal (shim of `prop_assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {
        assert_eq!($a, $b $(, $($fmt)+)?)
    };
}

/// Everything a property-test file needs (mirrors `proptest::prelude`).
pub mod prelude {
    pub use super::{any, prop, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

pub mod bench;
pub mod model;

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Cases `a_failing_case_is_named` has started.
    static CASES_STARTED: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn same_name_same_samples() {
        let mut a = super::test_rng("x");
        let mut b = super::test_rng("x");
        for _ in 0..10 {
            assert_eq!((0u64..100).sample(&mut a), (0u64..100).sample(&mut b));
        }
    }

    #[test]
    fn int_ranges_respect_bounds() {
        let mut rng = super::test_rng("bounds");
        for _ in 0..500 {
            let v = (-10isize..70).sample(&mut rng);
            assert!((-10..70).contains(&v));
            let u = (1u16..1024).sample(&mut rng);
            assert!((1..1024).contains(&u));
        }
    }

    #[test]
    fn vec_lengths_respect_spec() {
        let mut rng = super::test_rng("vecs");
        for _ in 0..200 {
            let exact = prop::collection::vec(0u8..10, 5usize).sample(&mut rng);
            assert_eq!(exact.len(), 5);
            let ranged = prop::collection::vec(0.0f64..1.0, 1..60).sample(&mut rng);
            assert!((1..60).contains(&ranged.len()));
        }
    }

    #[test]
    fn option_of_produces_both_variants() {
        let mut rng = super::test_rng("opts");
        let strat = prop::option::of(0.5f64..20.0);
        let samples: Vec<_> = (0..200).map(|_| strat.sample(&mut rng)).collect();
        assert!(samples.iter().any(Option::is_some));
        assert!(samples.iter().any(Option::is_none));
        assert!(samples.iter().flatten().all(|v| (0.5..20.0).contains(v)));
    }

    #[test]
    fn normal_floats_are_finite_nonzero() {
        let mut rng = super::test_rng("normal");
        for _ in 0..500 {
            let x = prop::num::f64::NORMAL.sample(&mut rng);
            assert!(x.is_finite() && x != 0.0 && x.is_normal());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_arguments(a in 0u64..100, (b, c) in (0.0f64..1.0, any::<bool>())) {
            prop_assert!(a < 100);
            prop_assert!((0.0..1.0).contains(&b));
            prop_assert_eq!(u8::from(c) <= 1, true, "bool converts to 0/1");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        #[should_panic(expected = "a_failing_case_is_named: case 3 of 8: boom in case 3")]
        fn a_failing_case_is_named(_b in any::<bool>()) {
            let case = CASES_STARTED.fetch_add(1, Ordering::Relaxed) + 1;
            prop_assert!(case < 3, "boom in case {case}");
        }
    }
}
