//! # proptest (vendored shim)
//!
//! An API-compatible subset of the `proptest` crate, vendored because
//! the build environment has no access to a crates registry. It keeps
//! the same surface the workspace's property tests use — the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, range / tuple /
//! collection / array / bool / string strategies, [`any`], and the
//! `prop_assert*` macros — but generates values with a plain
//! deterministic PRNG and does **not** shrink failures.
//!
//! Differences from upstream, by design:
//!
//! * No shrinking: a failing case reports the panic message only. The
//!   RNG is seeded deterministically from the test name and case
//!   index, so failures reproduce exactly on re-run.
//! * `prop_assert!` / `prop_assert_eq!` panic immediately (upstream
//!   returns a `TestCaseError`).
//! * String strategies support the character-class patterns the tests
//!   use (`"[a-z]{1,12}"`-style), not full regex.
//!
//! The number of cases per property defaults to 64 and can be raised
//! with `PROPTEST_CASES`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::marker::PhantomData;
use std::ops::Range;

/// Number of cases each property runs (`PROPTEST_CASES`, default 64).
/// A value that is not a positive integer warns on stderr and gives
/// the default.
#[expect(
    clippy::disallowed_methods,
    reason = "the shim reads its own PROPTEST_CASES"
)]
pub fn cases() -> u64 {
    let Ok(raw) = std::env::var("PROPTEST_CASES") else {
        return 64;
    };
    raw.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
        eprintln!("proptest: unparsable PROPTEST_CASES={raw:?} (want an integer >= 1); using 64");
        64
    })
}

/// Deterministic splitmix64 generator used to drive strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from the test name and case index so every case is
    /// reproducible without storing anything.
    pub fn for_case(test_name: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi)`; `lo` when the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of random values of one type. Shim of upstream
/// `proptest::strategy::Strategy` (no `ValueTree`/shrinking layer).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy adaptor returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
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

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.range_u64(self.start as u64, self.end as u64) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        if self.end <= self.start {
            return self.start;
        }
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// `&str` patterns act as string strategies (upstream: full regex;
/// here: one character class with an optional `{m,n}` repetition,
/// e.g. `"[a-z]{1,12}"` or `"[0-9A-F]{4}"`).
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, lo, hi) = parse_class_pattern(self).unwrap_or_else(|| {
            panic!("unsupported string pattern {self:?} (shim supports \"[class]{{m,n}}\")")
        });
        let len = rng.range_u64(lo as u64, hi as u64 + 1) as usize;
        (0..len)
            .map(|_| chars[rng.range_u64(0, chars.len() as u64) as usize])
            .collect()
    }
}

/// Parse `[a-zA-Z0-9_]{m,n}` / `[abc]{n}` / `[a-z]` into
/// (alphabet, min_len, max_len).
fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class = &rest[..close];
    let mut chars = Vec::new();
    let cs: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            let (a, b) = (cs[i], cs[i + 2]);
            for c in a..=b {
                chars.push(c);
            }
            i += 3;
        } else {
            chars.push(cs[i]);
            i += 1;
        }
    }
    if chars.is_empty() {
        return None;
    }
    let tail = &rest[close + 1..];
    if tail.is_empty() {
        return Some((chars, 1, 1));
    }
    let rep = tail.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match rep.split_once(',') {
        Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
        None => {
            let n = rep.trim().parse().ok()?;
            (n, n)
        }
    };
    if lo > hi {
        return None;
    }
    Some((chars, lo, hi))
}

/// Types with a canonical "anything" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, broad-magnitude doubles (upstream generates specials
        // too; the shim keeps tests deterministic and panic-free).
        let mag = rng.unit_f64() * 2.0 - 1.0;
        let exp = rng.range_u64(0, 60) as i32 - 30;
        mag * 2f64.powi(exp)
    }
}

/// Strategy for "any value of `T`" — see [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<u64>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` strategy: `len ∈ size`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.range_u64(self.size.start as u64, self.size.end as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod array {
    //! Fixed-size array strategies (`prop::array::uniform7`).
    use super::{Strategy, TestRng};

    macro_rules! uniform {
        ($($name:ident => $n:literal),*) => {$(
            /// Strategy for `[S::Value; N]` with i.i.d. elements.
            pub fn $name<S: Strategy>(element: S) -> UniformArray<S, $n> {
                UniformArray { element }
            }
        )*};
    }

    /// Strategy for arrays of independently drawn elements.
    pub struct UniformArray<S, const N: usize> {
        element: S,
    }

    uniform!(uniform2 => 2, uniform3 => 3, uniform4 => 4, uniform5 => 5, uniform6 => 6, uniform7 => 7, uniform8 => 8);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            std::array::from_fn(|_| self.element.generate(rng))
        }
    }
}

pub mod bool {
    //! Boolean strategies (`prop::bool::weighted`).
    use super::{Strategy, TestRng};

    /// Strategy producing `true` with probability `p`.
    pub struct Weighted(f64);

    /// `true` with probability `probability_true`.
    pub fn weighted(probability_true: f64) -> Weighted {
        Weighted(probability_true)
    }

    /// Fair coin.
    pub const ANY: Weighted = Weighted(0.5);

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.unit_f64() < self.0
        }
    }
}

/// Property assertion; shim: panics on failure (upstream records a
/// `TestCaseError` for shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion; shim of upstream `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion; shim of upstream `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Define property tests. Each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` that draws [`cases`] inputs and runs the body
/// on each.
#[macro_export]
macro_rules! proptest {
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strategies = ($($strat,)+);
                for case in 0..$crate::cases() {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    let ($($pat,)+) = $crate::Strategy::generate(&strategies, &mut rng);
                    $body
                }
            }
        )*
    };
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.
    pub use crate as prop;
    pub use crate::{any, Arbitrary, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        let mut c = crate::TestRng::for_case("t", 4);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn class_pattern_parses() {
        let (chars, lo, hi) = super::parse_class_pattern("[a-z]{1,12}").unwrap();
        assert_eq!(chars.len(), 26);
        assert_eq!((lo, hi), (1, 12));
        let (chars, lo, hi) = super::parse_class_pattern("[0-9A-Fx]{4}").unwrap();
        assert_eq!(chars.len(), 17);
        assert_eq!((lo, hi), (4, 4));
        assert!(super::parse_class_pattern("plainword").is_none());
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in -1.5f64..2.5, n in 0usize..5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-1.5..2.5).contains(&y));
            prop_assert!(n < 5);
        }

        #[test]
        fn vec_and_tuple_strategies(mut v in prop::collection::vec((0u32..100, 0.0f64..1.0), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            v.sort_by_key(|p| p.0);
            for w in v.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
            }
        }

        #[test]
        fn string_arrays_and_weighted(s in "[a-z]{1,12}", arr in prop::array::uniform7(prop::bool::weighted(0.5))) {
            prop_assert!(!s.is_empty() && s.len() <= 12);
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert_eq!(arr.len(), 7);
        }

        #[test]
        fn any_and_prop_map(seed in any::<u64>(), small in any::<u32>().prop_map(|v| v % 7)) {
            let _ = seed;
            prop_assert!(small < 7);
        }
    }
}
