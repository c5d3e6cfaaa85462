//! Offline shim for the `proptest` API surface this workspace's tests
//! use: the `proptest!` / `prop_oneof!` / `prop_assert*!` macros, the
//! `Strategy` combinators (`prop_map`, `prop_recursive`, `boxed`),
//! collection and string-pattern strategies, and `any::<T>()`.
//!
//! Differences from real proptest, deliberate for an offline harness:
//! no shrinking (a failing case reports its message and the case seed),
//! and string patterns support the subset of regex syntax that appears
//! in this repository's tests (classes, groups, alternation, and the
//! `* + ? {m,n}` quantifiers, plus `\PC` for printable characters).

pub mod test_runner {
    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the whole test fails.
        Fail(String),
        /// `prop_assume!` filtered the case out; the runner draws another.
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure with a formatted message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Build a rejection (assumption not met).
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration; only the case count is meaningful here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic xorshift64* RNG, seeded from the test's name so
    /// every run of a given test sees the same case sequence.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from an arbitrary label (normally the test fn name).
        pub fn deterministic(label: &str) -> Self {
            // FNV-1a over the label; fold in a constant so "" works too.
            let mut h: u64 = 0xcbf29ce484222325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng {
                state: if h == 0 { 0x9e3779b97f4a7c15 } else { h },
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545f4914f6cdd1d)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform `usize` in `[lo, hi)`.
        pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
            assert!(lo < hi, "empty range {lo}..{hi}");
            lo + self.below((hi - lo) as u64) as usize
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type (cheaply clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// Build recursive values: `f` maps an inner strategy to a
        /// branch strategy, applied `depth` times above the leaf.
        /// (`_desired_size` and `_fanout` are accepted for signature
        /// compatibility; depth alone bounds generation here.)
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _fanout: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let mut level = self.boxed();
            for _ in 0..depth {
                level = f(level).boxed();
            }
            level
        }
    }

    // Object-safe core so strategies can live behind a dyn pointer even
    // though `Strategy` itself has generic combinator methods.
    trait DynStrategy {
        type Value;
        fn dyn_generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased, reference-counted strategy.
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.dyn_generate(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    #[derive(Debug, Clone)]
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
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    #[derive(Clone)]
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.usize_in(0, self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (S0 0)
        (S0 0, S1 1)
        (S0 0, S1 1, S2 2)
        (S0 0, S1 1, S2 2, S3 3)
        (S0 0, S1 1, S2 2, S3 3, S4 4)
    }

    /// `&'static str` regex-like patterns generate matching strings.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let ast = super::string::parse(self)
                .unwrap_or_else(|e| panic!("bad string pattern {self:?}: {e}"));
            let mut out = String::new();
            super::string::emit(&ast, rng, &mut out);
            out
        }
    }
}

pub mod string {
    //! Mini regex-pattern generator covering the syntax used by this
    //! workspace's string strategies.

    use super::test_runner::TestRng;

    /// How many repetitions an unbounded quantifier may emit.
    const UNBOUNDED_MAX: usize = 8;

    #[derive(Debug)]
    pub enum Node {
        /// A sequence of quantified atoms: (atom, min, max-inclusive).
        Seq(Vec<(Node, usize, usize)>),
        /// Top-level or group alternation.
        Alt(Vec<Node>),
        /// A literal character.
        Lit(char),
        /// A character class as inclusive ranges.
        Class(Vec<(char, char)>),
        /// `\PC`: any printable character.
        Printable,
    }

    /// Parse a pattern into its AST.
    pub fn parse(pattern: &str) -> Result<Node, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0;
        let node = parse_alt(&chars, &mut pos)?;
        if pos != chars.len() {
            return Err(format!("trailing input at {pos}"));
        }
        Ok(node)
    }

    fn parse_alt(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        let mut branches = vec![parse_seq(chars, pos)?];
        while *pos < chars.len() && chars[*pos] == '|' {
            *pos += 1;
            branches.push(parse_seq(chars, pos)?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Node::Alt(branches)
        })
    }

    fn parse_seq(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        let mut items = Vec::new();
        while *pos < chars.len() && chars[*pos] != '|' && chars[*pos] != ')' {
            let atom = parse_atom(chars, pos)?;
            let (min, max) = parse_quant(chars, pos)?;
            items.push((atom, min, max));
        }
        Ok(Node::Seq(items))
    }

    fn parse_atom(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        match chars[*pos] {
            '(' => {
                *pos += 1;
                let inner = parse_alt(chars, pos)?;
                if *pos >= chars.len() || chars[*pos] != ')' {
                    return Err("unclosed group".into());
                }
                *pos += 1;
                Ok(inner)
            }
            '[' => {
                *pos += 1;
                parse_class(chars, pos)
            }
            '\\' => {
                *pos += 1;
                parse_escape(chars, pos)
            }
            c => {
                *pos += 1;
                Ok(Node::Lit(c))
            }
        }
    }

    fn parse_escape(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        if *pos >= chars.len() {
            return Err("dangling backslash".into());
        }
        let c = chars[*pos];
        *pos += 1;
        match c {
            // `\PC` — printable characters (the complement of Unicode
            // category C as proptest interprets it).
            'P' => {
                if *pos < chars.len() && chars[*pos] == 'C' {
                    *pos += 1;
                    Ok(Node::Printable)
                } else {
                    Err("unsupported \\P class".into())
                }
            }
            'n' => Ok(Node::Lit('\n')),
            't' => Ok(Node::Lit('\t')),
            'r' => Ok(Node::Lit('\r')),
            c => Ok(Node::Lit(c)),
        }
    }

    fn parse_class(chars: &[char], pos: &mut usize) -> Result<Node, String> {
        let mut ranges = Vec::new();
        while *pos < chars.len() && chars[*pos] != ']' {
            let lo = if chars[*pos] == '\\' {
                *pos += 1;
                if *pos >= chars.len() {
                    return Err("dangling backslash in class".into());
                }
                let c = chars[*pos];
                *pos += 1;
                c
            } else {
                let c = chars[*pos];
                *pos += 1;
                c
            };
            // `a-z` is a range unless `-` is the final class member.
            if *pos + 1 < chars.len() && chars[*pos] == '-' && chars[*pos + 1] != ']' {
                *pos += 1;
                let hi = if chars[*pos] == '\\' {
                    *pos += 1;
                    let c = chars[*pos];
                    *pos += 1;
                    c
                } else {
                    let c = chars[*pos];
                    *pos += 1;
                    c
                };
                if hi < lo {
                    return Err(format!("inverted range {lo}-{hi}"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        if *pos >= chars.len() {
            return Err("unclosed character class".into());
        }
        *pos += 1;
        if ranges.is_empty() {
            return Err("empty character class".into());
        }
        Ok(Node::Class(ranges))
    }

    fn parse_quant(chars: &[char], pos: &mut usize) -> Result<(usize, usize), String> {
        if *pos >= chars.len() {
            return Ok((1, 1));
        }
        match chars[*pos] {
            '*' => {
                *pos += 1;
                Ok((0, UNBOUNDED_MAX))
            }
            '+' => {
                *pos += 1;
                Ok((1, UNBOUNDED_MAX))
            }
            '?' => {
                *pos += 1;
                Ok((0, 1))
            }
            '{' => {
                *pos += 1;
                let mut min = String::new();
                while *pos < chars.len() && chars[*pos].is_ascii_digit() {
                    min.push(chars[*pos]);
                    *pos += 1;
                }
                let min: usize = min.parse().map_err(|_| "bad quantifier min")?;
                let max = if *pos < chars.len() && chars[*pos] == ',' {
                    *pos += 1;
                    let mut max = String::new();
                    while *pos < chars.len() && chars[*pos].is_ascii_digit() {
                        max.push(chars[*pos]);
                        *pos += 1;
                    }
                    max.parse().map_err(|_| "bad quantifier max")?
                } else {
                    min
                };
                if *pos >= chars.len() || chars[*pos] != '}' {
                    return Err("unclosed quantifier".into());
                }
                *pos += 1;
                if max < min {
                    return Err("inverted quantifier".into());
                }
                Ok((min, max))
            }
            _ => Ok((1, 1)),
        }
    }

    /// Printable sample space: mostly ASCII, with a few multi-byte
    /// characters so escaping and length logic meet real Unicode.
    const EXOTIC: &[char] = &['é', 'ß', '€', '中', '✓', 'Ω', '→', '𝄞'];

    fn printable(rng: &mut TestRng) -> char {
        if rng.below(8) == 0 {
            EXOTIC[rng.usize_in(0, EXOTIC.len())]
        } else {
            char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap()
        }
    }

    /// Append one generated match of `node` to `out`.
    pub fn emit(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Lit(c) => out.push(*c),
            Node::Printable => out.push(printable(rng)),
            Node::Class(ranges) => {
                let (lo, hi) = ranges[rng.usize_in(0, ranges.len())];
                let span = hi as u32 - lo as u32 + 1;
                let c = char::from_u32(lo as u32 + rng.below(span as u64) as u32).unwrap_or(lo);
                out.push(c);
            }
            Node::Alt(branches) => {
                let i = rng.usize_in(0, branches.len());
                emit(&branches[i], rng, out);
            }
            Node::Seq(items) => {
                for (atom, min, max) in items {
                    let n = if min == max {
                        *min
                    } else {
                        rng.usize_in(*min, *max + 1)
                    };
                    for _ in 0..n {
                        emit(atom, rng, out);
                    }
                }
            }
        }
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary_from(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_from(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_from(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy produced by [`any`].
    #[derive(Debug, Clone)]
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_from(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod prop {
    pub mod collection {
        use crate::strategy::Strategy;
        use std::collections::HashMap;
        use std::hash::Hash;
        use std::ops::Range;

        /// Vectors with lengths drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut crate::test_runner::TestRng) -> Vec<S::Value> {
                let n = rng.usize_in(self.size.start, self.size.end);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Hash maps with entry counts drawn from `size` (duplicate keys
        /// permitting — the map may come out smaller than requested).
        pub fn hash_map<K, V>(keys: K, values: V, size: Range<usize>) -> HashMapStrategy<K, V>
        where
            K: Strategy,
            V: Strategy,
            K::Value: Hash + Eq,
        {
            HashMapStrategy { keys, values, size }
        }

        #[derive(Debug, Clone)]
        pub struct HashMapStrategy<K, V> {
            keys: K,
            values: V,
            size: Range<usize>,
        }

        impl<K, V> Strategy for HashMapStrategy<K, V>
        where
            K: Strategy,
            V: Strategy,
            K::Value: Hash + Eq,
        {
            type Value = HashMap<K::Value, V::Value>;
            fn generate(
                &self,
                rng: &mut crate::test_runner::TestRng,
            ) -> HashMap<K::Value, V::Value> {
                let target = rng.usize_in(self.size.start, self.size.end);
                let mut map = HashMap::with_capacity(target);
                // Key collisions shrink the result; a few extra draws
                // keep sizes close to the target without looping forever.
                for _ in 0..target * 2 {
                    if map.len() >= target {
                        break;
                    }
                    map.insert(self.keys.generate(rng), self.values.generate(rng));
                }
                map
            }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Define property tests: each `fn` runs `config.cases` times over
/// freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    // Internal: config resolved, expand each test fn.
    (@run ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut passed: u32 = 0;
                let mut rejected: u32 = 0;
                while passed < config.cases {
                    if rejected > config.cases.saturating_mul(64).max(1024) {
                        panic!(
                            "proptest {}: too many prop_assume! rejections ({rejected})",
                            stringify!($name)
                        );
                    }
                    $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {
                            rejected += 1;
                        }
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest {} failed on case {}: {}",
                                stringify!($name),
                                passed,
                                msg
                            );
                        }
                    }
                }
            }
        )*
    };
    // Entry with an inner config attribute.
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config) $($rest)*);
    };
    // Entry with the default config.
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Assert inside a proptest body; failure fails the whole test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+))
            );
        }
    };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                            stringify!($left),
                            stringify!($right),
                            left,
                            right
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!($($fmt)+),
                    ));
                }
            }
        }
    };
}

/// Skip cases that do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = crate::test_runner::TestRng::deterministic("shape");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z][a-z0-9_.-]{0,8}", &mut rng);
            let chars: Vec<char> = s.chars().collect();
            assert!(!chars.is_empty() && chars.len() <= 9, "{s:?}");
            assert!(chars[0].is_ascii_lowercase(), "{s:?}");

            let p = Strategy::generate(&"(/[a-zA-Z0-9 .#?&=\\-]{0,12}){0,5}", &mut rng);
            assert!(p.is_empty() || p.starts_with('/'), "{p:?}");

            let alt = Strategy::generate(&"(/|[a-z.]{1,6}){0,8}", &mut rng);
            assert!(alt
                .chars()
                .all(|c| c == '/' || c == '.' || c.is_ascii_lowercase()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The runner, strategies, and assertion macros cooperate.
        #[test]
        fn runner_smoke(
            n in 1usize..10,
            v in prop::collection::vec(any::<u8>(), 0..16),
            choice in prop_oneof![Just(1i32), Just(2i32)],
            s in "\\PC{0,5}",
        ) {
            prop_assume!(n != 9);
            prop_assert!(n < 9, "n = {n}");
            prop_assert_eq!(v.len(), v.len());
            prop_assert!(choice == 1 || choice == 2);
            prop_assert!(s.chars().count() <= 5);
        }
    }
}
