//! Offline stand-in for the subset of `proptest` 1.x this workspace uses.
//!
//! The build container cannot fetch crates, so this crate is substituted
//! through `[patch.crates-io]`. It reproduces the API shape the tests
//! rely on — `Strategy` with `prop_map`/`prop_flat_map`/`prop_filter`,
//! `Just`, integer-range and tuple and `Vec` strategies,
//! `proptest::collection::vec`, `prop::sample::Index`, `any::<T>()`,
//! `prop_oneof!`, and the `proptest!` test macro with
//! `ProptestConfig::with_cases` — over a deterministic xoshiro256++
//! generator. Differences from upstream: no shrinking (a failing case
//! reports its inputs only through the assertion message) and a fixed
//! per-test seed derived from the test name, so runs are reproducible.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values. Unlike upstream there is no value tree and
    /// no shrinking: `generate` directly produces one value.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F>(self, whence: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence: whence.into(),
                f,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        whence: String,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..10_000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter({:?}) rejected 10000 consecutive candidates",
                self.whence
            );
        }
    }

    /// Uniform choice between same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// A `Vec` of strategies produces a `Vec` of values, one per element.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Element-count bounds for [`vec()`]; half-open like upstream.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    /// An index "seed" resolved against a collection length at use time,
    /// mirroring `proptest::sample::Index`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index {
        raw: u64,
    }

    impl Index {
        pub(crate) fn from_raw(raw: u64) -> Self {
            Index { raw }
        }

        /// Map proportionally into `0..len`. Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (((self.raw as u128) * (len as u128)) >> 64) as usize
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn sample(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T> {
        _marker: core::marker::PhantomData<fn() -> T>,
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: core::marker::PhantomData,
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample(rng)
        }
    }

    impl Arbitrary for bool {
        fn sample(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn sample(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for crate::sample::Index {
        fn sample(rng: &mut TestRng) -> Self {
            crate::sample::Index::from_raw(rng.next_u64())
        }
    }
}

pub mod test_runner {
    /// Subset of upstream's config: only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic xoshiro256++ stream, seeded per test × case.
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform value in `0..span` (multiply-shift; `span > 0`).
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            (((self.next_u64() as u128) * (span as u128)) >> 64) as u64
        }
    }

    /// Drives the per-case loop for the `proptest!` macro.
    pub struct TestRunner {
        config: ProptestConfig,
        base_seed: u64,
    }

    impl TestRunner {
        pub fn new(config: ProptestConfig, test_name: &str) -> Self {
            // FNV-1a over the test name gives each test its own stream.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRunner {
                config,
                base_seed: h,
            }
        }

        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        pub fn rng_for_case(&self, case: u32) -> TestRng {
            TestRng::from_seed(self.base_seed ^ ((case as u64) << 32 | 0x5DEECE66D))
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirrors upstream's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::{collection, sample, strategy};
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest! { @impl $config; $($rest)* }
    };
    (@impl $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
                for case in 0..runner.cases() {
                    let mut rng = runner.rng_for_case(case);
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )*
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @impl $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (u8, bool)> {
        (0u8..10, any::<bool>()).prop_map(|(a, b)| (a, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0usize..5, p in arb_pair()) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!(p.0 < 10);
        }

        #[test]
        fn collections_respect_size(v in crate::collection::vec(0u64..100, 1..4)) {
            prop_assert!((1..4).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn oneof_and_filter_work(
            x in prop_oneof![Just(1u8), Just(2u8)],
            y in (0u32..100).prop_filter("even", |v| v % 2 == 0),
        ) {
            prop_assert!(x == 1 || x == 2);
            prop_assert_eq!(y % 2, 0);
        }

        #[test]
        fn index_maps_into_range(idx in any::<prop::sample::Index>()) {
            prop_assert!(idx.index(7) < 7);
        }
    }

    #[test]
    fn flat_map_chains() {
        let runner =
            crate::test_runner::TestRunner::new(ProptestConfig::with_cases(16), "flat_map");
        let strat = (1usize..4).prop_flat_map(|n| crate::collection::vec(0u8..10, n..n + 1));
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for_case(case);
            let v = strat.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }
}
