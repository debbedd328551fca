//! Offline stand-in for `proptest`.
//!
//! Covers the property-testing surface this workspace uses: the
//! [`proptest!`] macro (with optional `#![proptest_config(..)]` header),
//! [`Strategy`] with `prop_map`, range / tuple / `any::<bool>()` /
//! `collection::vec` strategies, [`prop_assert!`] and
//! [`prop_assert_eq!`]. Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case — an `Err` from the body or a panic
//!   inside it — is reported with its index and the generated input's
//!   `Debug` rendering instead of a minimized counterexample.
//! * **Deterministic seeding.** Case `i` of test `t` derives its seed
//!   from a hash of `t` and `i`, so failures reproduce without a
//!   persistence file: `PROPTEST_CASE=<i>` runs case `i` alone.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Deterministic per-test generator handed to strategies.
pub struct TestRng(SmallRng);

impl TestRng {
    fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(SmallRng::seed_from_u64(h ^ (u64::from(case) << 32)))
    }
}

/// A failed test case (returned by `prop_assert!`-style macros).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }

    /// Alias used by real-proptest code (`TestCaseError::Fail(reason)`).
    #[allow(non_snake_case)]
    pub fn Fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Runner configuration; only `cases` is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator (shrinking-free shim of proptest's `Strategy`).
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

/// `any::<T>()` strategy for types with a full-domain uniform draw.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Uniform over the whole domain of `T`.
pub fn any<T: ArbitraryShim>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Types `any::<T>()` supports in the shim.
pub trait ArbitraryShim: Debug + Sized {
    /// Draw one value covering the type's whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryShim for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.0.random()
    }
}

impl ArbitraryShim for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.0.random()
    }
}

impl ArbitraryShim for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.0.random()
    }
}

impl<T: ArbitraryShim> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($t:ident . $n:tt),+))+) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, len_range)` — a vector of generated elements.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.0.random_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Drive `cases` generated inputs through `body`, stopping at the first
/// failure with the case index and the input's debug rendering (no
/// shrinking): a body returning `Err` panics with them, and a body that
/// panics has them printed before its panic resumes. With
/// `PROPTEST_CASE=<i>` in the environment only case `i` runs, so a
/// reported failure replays alone.
pub fn run_cases<S: Strategy>(
    cfg: &ProptestConfig,
    strategy: S,
    test_name: &str,
    body: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    let only = std::env::var("PROPTEST_CASE").ok().map(|v| {
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASE={v:?} is not a case index"))
    });
    run_selected(
        cfg,
        strategy,
        test_name,
        only,
        &mut |r| eprintln!("{r}"),
        body,
    );
}

/// [`run_cases`] over case `only` (or all cases when `None`), handing a
/// panicking case's report to `report`.
fn run_selected<S: Strategy>(
    cfg: &ProptestConfig,
    strategy: S,
    test_name: &str,
    only: Option<u32>,
    report: &mut dyn FnMut(String),
    body: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    let cases = match only {
        Some(case) => case..case + 1,
        None => 0..cfg.cases,
    };
    for case in cases {
        let mut rng = TestRng::for_case(test_name, case);
        let value = strategy.generate(&mut rng);
        let rendered = format!("{value:?}");
        let failure = |what: String| {
            format!(
                "proptest {test_name}: case {case}/{} {what}\ninput: {rendered}",
                cfg.cases
            )
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(value))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("{}", failure(format!("failed: {e}"))),
            Err(payload) => {
                report(failure("panicked".into()));
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Shim of proptest's main macro. Supports an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn name(pat in
/// strategy) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); ) => {};
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($arg:pat in $strategy:expr) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_cases(&config, $strategy, stringify!($name), |$arg| {
                $body
                ::std::result::Result::Ok(())
            });
        }
        $crate::__proptest_items!{ ($cfg); $($rest)* }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fail the current case unless `a == b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left == right, "assertion failed: {:?} != {:?}", left, right);
    }};
}

/// Import surface mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = super::TestRng::for_case("x", 0);
        let s = (any::<bool>(), 0u64..100, 1u32..=4).prop_map(|(b, a, c)| (b, a, c));
        for _ in 0..200 {
            let (_, a, c) = s.generate(&mut rng);
            assert!(a < 100);
            assert!((1..=4).contains(&c));
        }
    }

    #[test]
    fn vec_strategy_len_in_range() {
        let mut rng = super::TestRng::for_case("y", 1);
        let s = collection::vec(0u64..10, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_wires_config_and_assertions(x in 0u64..50) {
            prop_assert!(x < 50, "x was {x}");
            prop_assert_eq!(x.wrapping_add(0), x);
        }
    }

    #[test]
    fn panicking_case_is_reported_then_resumes() {
        let cfg = ProptestConfig::with_cases(16);
        let (mut reports, runs) = (Vec::new(), std::cell::Cell::new(0));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            super::run_selected(
                &cfg,
                0u64..10,
                "panics",
                None,
                &mut |r| reports.push(r),
                |v| {
                    runs.set(runs.get() + 1);
                    assert!(runs.get() < 3, "boom on {v}");
                    Ok(())
                },
            );
        }));
        let payload = unwound.expect_err("the body's panic resumes");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(message.starts_with("boom on "), "{message}");
        assert_eq!(runs.get(), 3, "no case runs after the failing one");
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].starts_with("proptest panics: case 2/16 panicked\ninput: "),
            "{}",
            reports[0]
        );
    }

    #[test]
    fn one_selected_case_replays_alone() {
        let cfg = ProptestConfig::with_cases(8);
        let s = || collection::vec(any::<u64>(), 1..4);
        let seen = std::cell::RefCell::new(Vec::new());
        let record = |v: Vec<u64>| {
            seen.borrow_mut().push(v);
            Ok(())
        };
        super::run_selected(&cfg, s(), "replay", None, &mut |_| {}, record);
        let all = seen.take();
        assert_eq!(all.len(), 8);
        super::run_selected(&cfg, s(), "replay", Some(5), &mut |_| {}, record);
        assert_eq!(seen.take(), [all[5].clone()], "case 5, and only case 5");
    }

    #[test]
    #[should_panic(expected = "proptest")]
    fn failing_case_reports_input() {
        let cfg = ProptestConfig::with_cases(16);
        super::run_cases(&cfg, 0u64..10, "always_fails", |v| {
            prop_assert!(v > 100, "v too small: {v}");
            Ok(())
        });
    }
}
