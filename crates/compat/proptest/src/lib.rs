//! Offline drop-in for the subset of the `proptest` API this workspace
//! uses: the `proptest!` macro (with optional `#![proptest_config(..)]`),
//! `prop_assert!`/`prop_assert_eq!`, range and tuple strategies, `any`,
//! `prop_map`, and `proptest::collection::{vec, btree_set}`.
//!
//! Unlike real proptest there is no shrinking: each test runs a fixed
//! number of cases sampled from a generator seeded deterministically from
//! the test name, so failures reproduce exactly across runs and thread
//! counts.

#![warn(missing_docs)]

use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Per-test configuration (only the case count is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases: enough to exercise the structural invariants under test
    /// while keeping the simulation-heavy properties fast.
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The per-test driver holding the deterministic RNG.
#[derive(Debug)]
pub struct TestRunner {
    rng: rand::StdRng,
}

impl TestRunner {
    /// Creates a runner seeded from the test name (FNV-1a), so every test
    /// has an independent but fully reproducible stream.
    pub fn new(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRunner {
            rng: rand::StdRng::seed_from_u64(h),
        }
    }

    /// The underlying RNG.
    pub fn rng(&mut self) -> &mut rand::StdRng {
        &mut self.rng
    }
}

/// A generator of test values, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.inner.generate(runner))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng().gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng().gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, runner: &mut TestRunner) -> f64 {
        runner.rng().gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(runner),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(runner: &mut TestRunner) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(runner: &mut TestRunner) -> Self {
        runner.rng().gen()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(runner: &mut TestRunner) -> Self {
        runner.rng().gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(runner: &mut TestRunner) -> Self {
        runner.rng().gen()
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, runner: &mut TestRunner) -> T {
        T::arbitrary(runner)
    }
}

/// A strategy producing any value of `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRunner};
    use rand::Rng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// An element-count specification: an exact size or a range of sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
    }

    impl SizeRange {
        fn pick(self, runner: &mut TestRunner) -> usize {
            if self.lo + 1 >= self.hi {
                self.lo
            } else {
                runner.rng().gen_range(self.lo..self.hi)
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Self::Value {
            let len = self.size.pick(runner);
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }

    /// A strategy producing `Vec`s of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Self::Value {
            let target = self.size.pick(runner);
            let mut set = BTreeSet::new();
            // Bounded attempts: duplicate draws may keep the set below the
            // target size, which proptest's contract allows (the size is a
            // maximum when the element domain is small).
            for _ in 0..target.saturating_mul(8) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(runner));
            }
            set
        }
    }

    /// A strategy producing `BTreeSet`s of `element` values with a size
    /// drawn from `size`.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Asserts a property holds, mirroring `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Asserts two values are equal, mirroring `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Declares property tests, mirroring `proptest::proptest!`. Each declared
/// function becomes a `#[test]` that runs `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut runner = $crate::TestRunner::new(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut runner);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -4i64..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn mapped_tuples_compose(v in (0u32..5, 0u32..5).prop_map(|(a, b)| a + b)) {
            prop_assert!(v < 9);
        }

        #[test]
        fn collections_honour_sizes(
            xs in crate::collection::vec(0u8..4, 2..6),
            set in crate::collection::btree_set(0usize..100, 0..10),
        ) {
            prop_assert!((2..6).contains(&xs.len()));
            prop_assert!(set.len() < 10);
        }
    }

    #[test]
    fn runner_streams_are_deterministic() {
        let mut a = crate::TestRunner::new("t");
        let mut b = crate::TestRunner::new("t");
        let s = 0u64..1000;
        let xs: Vec<u64> = (0..16).map(|_| s.generate(&mut a)).collect();
        let ys: Vec<u64> = (0..16).map(|_| s.generate(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn config_cases_respected() {
        assert_eq!(ProptestConfig::with_cases(24).cases, 24);
    }
}
