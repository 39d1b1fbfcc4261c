//! Seeded property testing with bounded shrinking.
//!
//! A property is an ordinary `#[test]` written through the [`prop!`](crate::prop!) macro:
//!
//! ```
//! use vc_testkit::prop::strategy::{any_u64, vec, any_u8};
//!
//! vc_testkit::prop! {
//!     #![cases(64)]
//!
//!     #[test]
//!     fn sum_is_commutative(a in any_u64(), b in any_u64()) {
//!         vc_testkit::prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     }
//!
//!     #[test]
//!     fn reverse_twice_is_identity(xs in vec(any_u8(), 0..64)) {
//!         let mut ys = xs.clone();
//!         ys.reverse();
//!         ys.reverse();
//!         vc_testkit::prop_assert_eq!(ys, xs);
//!     }
//! }
//! ```
//!
//! Case generation draws from [`vc_sim::rng::SimRng`], so every run is
//! deterministic: the same seed yields the same cases on every platform. Set
//! `VC_PROP_SEED` to replay a failure printed by the harness. On failure the
//! harness greedily shrinks the counterexample (bounded number of attempts)
//! before panicking with the minimal arguments it found.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vc_sim::rng::SimRng;

/// Default seed for property runs; override with `VC_PROP_SEED`.
pub(crate) const DEFAULT_SEED: u64 = 0xC10D_5EED;

/// Outcome of checking one generated case.
#[derive(Debug, Clone)]
pub enum CaseResult {
    /// The property held.
    Pass,
    /// The case did not satisfy a `prop_assume!` precondition; it is retried
    /// with fresh entropy and does not count toward the case budget.
    Reject,
    /// The property was falsified, with an explanation.
    Fail(String),
}

/// How a generated value is produced and (optionally) simplified.
///
/// `shrink` returns candidate simplifications of a failing value, most
/// aggressive first. Returning an empty vector (the default) opts out of
/// shrinking for that strategy.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Draws one value from deterministic entropy.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Built-in strategies and combinators.
pub mod strategy {
    use super::Strategy;
    use std::fmt::Debug;
    use std::ops::{Bound, Range, RangeBounds, RangeInclusive};
    use vc_sim::rng::SimRng;

    macro_rules! int_range_strategies {
        ($($ty:ty),+) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut SimRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    rng.range_u64(self.start as u64, self.end as u64) as $ty
                }

                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_int(self.start as u64, *value as u64)
                        .into_iter()
                        .map(|c| c as $ty)
                        .collect()
                }
            }

            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut SimRng) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    if lo as u64 == 0 && hi as u64 == <$ty>::MAX as u64 {
                        return rng.next_u64() as $ty;
                    }
                    rng.range_u64(lo as u64, hi as u64 + 1) as $ty
                }

                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_int(*self.start() as u64, *value as u64)
                        .into_iter()
                        .map(|c| c as $ty)
                        .collect()
                }
            }
        )+};
    }

    int_range_strategies!(u8, u16, u32, u64, usize);

    /// Shrink candidates for an integer: the lower bound, the midpoint
    /// toward it, and the predecessor.
    fn shrink_int(lo: u64, value: u64) -> Vec<u64> {
        if value <= lo {
            return Vec::new();
        }
        let mut out = Vec::new();
        for cand in [lo, lo + (value - lo) / 2, value - 1] {
            if cand < value && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut SimRng) -> f64 {
            rng.range_f64(self.start, self.end)
        }

        fn shrink(&self, value: &f64) -> Vec<f64> {
            let mut out = Vec::new();
            // Pull toward the lower bound, preferring zero when it is inside
            // the range (signed magnitudes shrink toward the origin).
            if self.contains(&0.0) && *value != 0.0 {
                out.push(0.0);
            }
            if *value != self.start {
                out.push(self.start);
                out.push(self.start + (*value - self.start) / 2.0);
            }
            out.retain(|c| c != value && self.contains(c));
            out
        }
    }

    macro_rules! any_int_strategies {
        ($($fn_name:ident, $struct_name:ident, $ty:ty);+ $(;)?) => {$(
            /// Strategy over the full domain of the integer type.
            #[derive(Debug, Clone, Copy)]
            pub struct $struct_name;

            impl Strategy for $struct_name {
                type Value = $ty;

                fn generate(&self, rng: &mut SimRng) -> $ty {
                    rng.next_u64() as $ty
                }

                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    if *value == 0 {
                        Vec::new()
                    } else {
                        vec![0, *value / 2, *value - 1]
                            .into_iter()
                            .filter(|c| c != value)
                            .collect()
                    }
                }
            }

            /// Any value of the integer type, uniformly.
            pub fn $fn_name() -> $struct_name {
                $struct_name
            }
        )+};
    }

    any_int_strategies! {
        any_u8, AnyU8, u8;
        any_u16, AnyU16, u16;
        any_u32, AnyU32, u32;
        any_u64, AnyU64, u64;
    }

    /// Strategy over both booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn generate(&self, rng: &mut SimRng) -> bool {
            rng.chance(0.5)
        }

        fn shrink(&self, value: &bool) -> Vec<bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    /// `true` or `false`, uniformly.
    pub fn any_bool() -> AnyBool {
        AnyBool
    }

    /// Strategy over `[u8; N]` with uniform bytes.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBytes<const N: usize>;

    impl<const N: usize> Strategy for AnyBytes<N> {
        type Value = [u8; N];

        fn generate(&self, rng: &mut SimRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in out.iter_mut() {
                *b = rng.next_u32() as u8;
            }
            out
        }

        fn shrink(&self, value: &[u8; N]) -> Vec<[u8; N]> {
            if value.iter().all(|&b| b == 0) {
                return Vec::new();
            }
            let mut zeroed = *value;
            if let Some(b) = zeroed.iter_mut().find(|b| **b != 0) {
                *b = 0;
            }
            vec![[0u8; N], zeroed]
        }
    }

    /// A uniformly random byte array.
    pub fn any_bytes<const N: usize>() -> AnyBytes<N> {
        AnyBytes
    }

    /// Strategy over `[u64; N]` with uniform words.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyWords<const N: usize>;

    impl<const N: usize> Strategy for AnyWords<N> {
        type Value = [u64; N];

        fn generate(&self, rng: &mut SimRng) -> [u64; N] {
            let mut out = [0u64; N];
            for w in out.iter_mut() {
                *w = rng.next_u64();
            }
            out
        }

        fn shrink(&self, value: &[u64; N]) -> Vec<[u64; N]> {
            if value.iter().all(|&w| w == 0) {
                return Vec::new();
            }
            let mut zeroed = *value;
            if let Some(w) = zeroed.iter_mut().find(|w| **w != 0) {
                *w = 0;
            }
            vec![[0u64; N], zeroed]
        }
    }

    /// A uniformly random `u64` array (e.g. bignum limbs).
    pub fn any_words<const N: usize>() -> AnyWords<N> {
        AnyWords
    }

    /// Strategy defined by an arbitrary closure over the entropy stream.
    ///
    /// This is the escape hatch for domain-specific generators (recursive
    /// structures, correlated fields); such values do not shrink.
    pub struct FromFn<F>(F);

    impl<T, F> Strategy for FromFn<F>
    where
        T: Clone + Debug,
        F: Fn(&mut SimRng) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut SimRng) -> T {
            (self.0)(rng)
        }
    }

    /// Builds a strategy from a generator closure.
    pub fn from_fn<T, F>(f: F) -> FromFn<F>
    where
        T: Clone + Debug,
        F: Fn(&mut SimRng) -> T,
    {
        FromFn(f)
    }

    /// Vectors of values from `inner` with length drawn from `len`.
    pub fn vec<S: Strategy>(inner: S, len: impl RangeBounds<usize>) -> VecStrategy<S> {
        let lo = match len.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match len.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => lo + 64,
        };
        assert!(lo < hi, "empty length range for vec strategy");
        VecStrategy { inner, lo, hi }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        inner: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut SimRng) -> Vec<S::Value> {
            let len = if self.lo + 1 == self.hi {
                self.lo
            } else {
                rng.range_u64(self.lo as u64, self.hi as u64) as usize
            };
            (0..len).map(|_| self.inner.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            // Structural shrinks first: shorter vectors are simpler.
            if value.len() > self.lo {
                out.push(value[..self.lo].to_vec());
                let half = value.len() / 2;
                if half > self.lo {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..value.len() - 1].to_vec());
            }
            // Then element-wise shrinks on a bounded prefix.
            for (i, elem) in value.iter().enumerate().take(4) {
                for cand in self.inner.shrink(elem).into_iter().take(2) {
                    let mut copy = value.clone();
                    copy[i] = cand;
                    out.push(copy);
                }
            }
            out
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident / $idx:tt),+))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut SimRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }

                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&value.$idx).into_iter().take(3) {
                            let mut copy = value.clone();
                            copy.$idx = cand;
                            out.push(copy);
                        }
                    )+
                    out
                }
            }
        )+};
    }

    tuple_strategies! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
    }
}

fn seed_from_env() -> u64 {
    match std::env::var("VC_PROP_SEED") {
        Ok(s) => {
            s.trim().parse().unwrap_or_else(|_| panic!("VC_PROP_SEED must be a u64, got {s:?}"))
        }
        Err(_) => DEFAULT_SEED,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Maximum shrink attempts per failing property.
const SHRINK_BUDGET: u32 = 256;

/// Executes a property: `cases` generated inputs checked against `check`.
///
/// Called by the [`prop!`](crate::prop!) macro; use directly for properties
/// that need a custom driver. Panics (failing the test) on the first
/// falsified case, after bounded greedy shrinking.
pub fn run<S, F>(name: &str, cases: u32, strategy: S, mut check: F)
where
    S: Strategy,
    F: FnMut(S::Value) -> CaseResult,
{
    let seed = seed_from_env();
    let mut master = SimRng::seed_from(seed);
    let mut checked = move |value: S::Value| -> CaseResult {
        match catch_unwind(AssertUnwindSafe(|| check(value))) {
            Ok(outcome) => outcome,
            Err(payload) => CaseResult::Fail(panic_message(payload)),
        }
    };

    let max_rejects = cases as u64 * 16 + 100;
    let mut rejects = 0u64;
    let mut done = 0u32;
    let mut attempt = 0u64;
    while done < cases {
        let mut rng = master.fork(attempt);
        attempt += 1;
        let value = strategy.generate(&mut rng);
        match checked(value.clone()) {
            CaseResult::Pass => done += 1,
            CaseResult::Reject => {
                rejects += 1;
                assert!(
                    rejects <= max_rejects,
                    "property '{name}': too many rejected cases ({rejects}); \
                     loosen the prop_assume! preconditions or the strategies"
                );
            }
            CaseResult::Fail(msg) => {
                let (minimal, final_msg) = shrink_failure(&strategy, value, msg, &mut checked);
                panic!(
                    "property '{name}' falsified on case {done} (seed {seed}; \
                     set VC_PROP_SEED={seed} to replay)\n  {final_msg}\n  \
                     minimal args: {minimal:?}"
                );
            }
        }
    }
}

fn shrink_failure<S, F>(
    strategy: &S,
    initial: S::Value,
    initial_msg: String,
    check: &mut F,
) -> (S::Value, String)
where
    S: Strategy,
    F: FnMut(S::Value) -> CaseResult,
{
    let mut best = initial;
    let mut best_msg = initial_msg;
    let mut budget = SHRINK_BUDGET;
    'outer: while budget > 0 {
        for cand in strategy.shrink(&best) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let CaseResult::Fail(msg) = check(cand.clone()) {
                best = cand;
                best_msg = msg;
                continue 'outer;
            }
        }
        break;
    }
    (best, best_msg)
}

/// Declares seeded property tests. See the [module docs](mod@crate::prop) for an
/// example. The `#![cases(N)]` header is mandatory and sets how many cases
/// each property checks.
#[macro_export]
macro_rules! prop {
    {
        #![cases($cases:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
        )+
    } => {
        $(
            $(#[$meta])*
            fn $name() {
                let __strategy = ( $($strat,)+ );
                $crate::prop::run(stringify!($name), $cases, __strategy, |($($arg,)+)| {
                    $body
                    $crate::prop::CaseResult::Pass
                });
            }
        )+
    };
}

/// Fails the current property case if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return $crate::prop::CaseResult::Fail(format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return $crate::prop::CaseResult::Fail(format!(
                "assertion failed: {} — {}", stringify!($cond), format!($($fmt)+)
            ));
        }
    };
}

/// Fails the current property case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return $crate::prop::CaseResult::Fail(format!(
                "assertion failed: {} == {}\n    left: {:?}\n   right: {:?}",
                stringify!($left), stringify!($right), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return $crate::prop::CaseResult::Fail(format!(
                "assertion failed: {} == {} — {}\n    left: {:?}\n   right: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l, r
            ));
        }
    }};
}

/// Fails the current property case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return $crate::prop::CaseResult::Fail(format!(
                "assertion failed: {} != {}\n    both: {:?}",
                stringify!($left), stringify!($right), l
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return $crate::prop::CaseResult::Fail(format!(
                "assertion failed: {} != {} — {}\n    both: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l
            ));
        }
    }};
}

/// Discards the current case (retried with fresh entropy) if the
/// precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return $crate::prop::CaseResult::Reject;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::strategy::*;
    use super::*;

    #[test]
    fn same_seed_generates_same_cases() {
        let strat = (any_u64(), vec(any_u8(), 0..16));
        let mut a = SimRng::seed_from(1).fork(0);
        let mut b = SimRng::seed_from(1).fork(0);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn int_range_respects_bounds() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (3u8..=5).generate(&mut rng);
            assert!((3..=5).contains(&w));
        }
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        let strat = vec(any_u8(), 2..7);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
        let fixed = vec(any_u8(), 4..=4);
        assert_eq!(fixed.generate(&mut rng).len(), 4);
    }

    #[test]
    fn shrinking_minimizes_a_threshold_failure() {
        // Property "x < 500" fails for x >= 500; greedy shrinking must land
        // well below the initial counterexample, at or near the boundary.
        let strat = (0u64..100_000,);
        let mut check = |(x,): (u64,)| {
            if x < 500 {
                CaseResult::Pass
            } else {
                CaseResult::Fail("too big".into())
            }
        };
        let (minimal, _) = shrink_failure(&strat, (99_999,), "too big".into(), &mut check);
        assert!(minimal.0 >= 500, "shrunk past the failure boundary");
        assert!(minimal.0 < 2_000, "barely shrunk at all: {}", minimal.0);
    }

    #[test]
    fn rejected_cases_do_not_consume_budget() {
        let mut seen = 0u32;
        run("rejects", 16, (any_u64(),), |(x,)| {
            if x % 2 == 0 {
                return CaseResult::Reject;
            }
            seen += 1;
            CaseResult::Pass
        });
        assert_eq!(seen, 16);
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failing_property_panics_with_context() {
        run("always_fails", 8, (any_u64(),), |(_x,)| CaseResult::Fail("nope".into()));
    }

    prop! {
        #![cases(32)]

        #[test]
        fn macro_api_works(a in any_u64(), xs in vec(any_u8(), 0..8)) {
            crate::prop_assume!(a != 0);
            crate::prop_assert!(a > 0);
            crate::prop_assert_eq!(xs.len(), xs.len());
            crate::prop_assert_ne!(a, 0);
        }
    }
}
