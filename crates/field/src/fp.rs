//! The prime field `F_p` with a runtime modulus.
//!
//! The modulus depends on the cluster size (`p` = smallest prime above `n`),
//! so it is a runtime value rather than a type parameter. [`Fp`] is a small
//! context object that interprets plain `u64` values (type-aliased as
//! [`FpElem`]) as field elements; all arithmetic goes through it.
//!
//! # Barrett reduction
//!
//! Every modulus fits in 32 bits, so the product of two canonical elements
//! fits in a `u64` and reduction never needs a `u128` division. [`Fp`]
//! stores `m = ⌊(2^64 − 1) / p⌋` and reduces `x` as `x − ⌊x·m / 2^64⌋·p`
//! followed by one conditional subtract. That is exact for *every* `u64`:
//! `m ≥ (2^64 − p) / p` gives `x/p − 1 < x·m/2^64 ≤ x/p`, so the quotient
//! estimate is `⌊x/p⌋` or one less and the remainder lands in `[0, 2p)`.
//!
//! The same 32-bit bound lets `Fp::dot` sum many products before
//! reducing: `Fp` also stores how many products of canonical elements fit
//! in one `u64` accumulator, and `dot` reduces at least that often.

use crate::{is_prime, FieldError};

/// A field element. Always reduced, i.e. `< p` for the owning [`Fp`].
pub type FpElem = u64;

/// The prime field `F_p`.
///
/// `Fp` is a lightweight, copyable context: methods take and return raw
/// [`FpElem`] values, which keeps shares and polynomial coefficients as
/// compact `u64` vectors.
///
/// # Example
///
/// ```
/// use byzclock_field::Fp;
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// let x = fp.add(7, 9);
/// assert_eq!(x, 5);
/// assert_eq!(fp.mul(x, fp.inv(x)?), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp {
    p: u64,
    /// Barrett constant `⌊(2^64 − 1) / p⌋` (see the module docs).
    m: u64,
    /// How many products of canonical elements one `u64` sum holds:
    /// `⌊(2^64 − 1) / (p − 1)²⌋`, at least 1 for every 32-bit `p`.
    lazy: usize,
}

impl Fp {
    /// Creates the field `F_p`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NotPrime`] if `p` is composite and
    /// [`FieldError::ModulusTooLarge`] if `p` does not fit in 32 bits.
    /// The bound is what makes the arithmetic exact: the product of two
    /// canonical elements must fit in a `u64` for the Barrett reduction
    /// and the delayed-reduction sums of `Fp::dot`. It is far beyond any
    /// cluster: node ids are `u16`, so [`Fp::for_cluster`] never needs
    /// more than `p = 65537`.
    pub fn new(p: u64) -> Result<Self, FieldError> {
        if p > u64::from(u32::MAX) {
            return Err(FieldError::ModulusTooLarge(p));
        }
        if !is_prime(p) {
            return Err(FieldError::NotPrime(p));
        }
        let max = p - 1;
        Ok(Fp {
            p,
            m: u64::MAX / p,
            lazy: usize::try_from(u64::MAX / (max * max)).unwrap_or(usize::MAX),
        })
    }

    /// The field used by a cluster of `n` nodes: the smallest prime above
    /// `max(n, 2)` (Remark 2.3 of the paper).
    ///
    /// Node ids are `u16`, so a real cluster has `n ≤ 65536` and
    /// `p ≤ 65537`.
    ///
    /// # Panics
    ///
    /// Panics if that prime does not fit in 32 bits (`n ≥ 4294967291`),
    /// the same bound [`Fp::new`] enforces.
    ///
    /// # Example
    ///
    /// ```
    /// let fp = byzclock_field::Fp::for_cluster(7);
    /// assert_eq!(fp.modulus(), 11);
    /// ```
    pub fn for_cluster(n: usize) -> Self {
        let p = crate::smallest_prime_above((n as u64).max(2));
        match Fp::new(p) {
            Ok(fp) => fp,
            Err(e) => panic!("no field for a cluster of {n} nodes: {e}"),
        }
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Minimum number of bytes that hold any canonical element, i.e.
    /// `ceil(log2(p) / 8)` — the element width the packed wire format pays
    /// per field value. For every realistic cluster (`p` = smallest prime
    /// above `n`) this is 1, against the 8 bytes of a fixed-width `u64`.
    ///
    /// # Example
    ///
    /// ```
    /// use byzclock_field::Fp;
    ///
    /// assert_eq!(Fp::for_cluster(7).elem_width(), 1);   // p = 11
    /// assert_eq!(Fp::new(65537).unwrap().elem_width(), 3);
    /// ```
    pub fn elem_width(&self) -> usize {
        let max = self.p - 1;
        if max == 0 {
            1
        } else {
            (64 - max.leading_zeros() as usize).div_ceil(8)
        }
    }

    /// Reduces an arbitrary `u64` into the field (Barrett; see the module
    /// docs for why one conditional subtract is exact).
    #[inline]
    pub fn reduce(&self, x: u64) -> FpElem {
        let q = ((u128::from(x) * u128::from(self.m)) >> 64) as u64;
        self.sub_if_ge_p(x - q * self.p)
    }

    /// `x − p` if `x ≥ p`, else `x`, without a branch: field data is
    /// random, so a data-dependent branch here would mispredict half the
    /// time. Callers pass `x < 2p`.
    #[inline]
    fn sub_if_ge_p(&self, x: u64) -> u64 {
        x - (self.p & u64::from(x >= self.p).wrapping_neg())
    }

    /// The inner product `Σ a_i·b_i` of two vectors of canonical elements
    /// (over the shorter length). Products are summed in a `u64` and
    /// reduced at least once per `lazy` terms, so the sum can never
    /// overflow whatever the modulus.
    #[inline]
    pub(crate) fn dot(&self, a: &[FpElem], b: &[FpElem]) -> FpElem {
        let len = a.len().min(b.len());
        let (a, b) = (&a[..len], &b[..len]);
        if len <= self.lazy {
            // Every cluster-sized row: one sum, one reduction.
            debug_assert!(a.iter().chain(b).all(|&v| self.contains(v)));
            return self.reduce(a.iter().zip(b).fold(0u64, |s, (&x, &y)| s + x * y));
        }
        let mut acc = 0;
        for (ca, cb) in a.chunks(self.lazy).zip(b.chunks(self.lazy)) {
            debug_assert!(ca.iter().chain(cb).all(|&v| self.contains(v)));
            let sum = ca.iter().zip(cb).fold(0u64, |s, (&x, &y)| s + x * y);
            acc = self.add(acc, self.reduce(sum));
        }
        acc
    }

    /// Returns `true` if `x` is a canonical element (`x < p`).
    pub fn contains(&self, x: u64) -> bool {
        x < self.p
    }

    /// Addition in `F_p`.
    #[inline]
    pub fn add(&self, a: FpElem, b: FpElem) -> FpElem {
        debug_assert!(self.contains(a) && self.contains(b));
        self.sub_if_ge_p(a + b)
    }

    /// Subtraction in `F_p`.
    #[inline]
    pub fn sub(&self, a: FpElem, b: FpElem) -> FpElem {
        debug_assert!(self.contains(a) && self.contains(b));
        self.sub_if_ge_p(a + self.p - b)
    }

    /// Additive inverse.
    #[inline]
    pub fn neg(&self, a: FpElem) -> FpElem {
        debug_assert!(self.contains(a));
        self.sub_if_ge_p(self.p - a)
    }

    /// Multiplication in `F_p`: one `u64` product (canonical elements are
    /// below 2^32) and a Barrett reduction.
    #[inline]
    pub fn mul(&self, a: FpElem, b: FpElem) -> FpElem {
        debug_assert!(self.contains(a) && self.contains(b));
        self.reduce(a * b)
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, mut base: FpElem, mut exp: u64) -> FpElem {
        debug_assert!(self.contains(base));
        let mut acc: FpElem = 1 % self.p;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] when `a == 0`.
    pub fn inv(&self, a: FpElem) -> Result<FpElem, FieldError> {
        if a == 0 {
            return Err(FieldError::ZeroInverse);
        }
        Ok(self.pow(a, self.p - 2))
    }

    /// Division `a / b`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] when `b == 0`.
    pub fn div(&self, a: FpElem, b: FpElem) -> Result<FpElem, FieldError> {
        Ok(self.mul(a, self.inv(b)?))
    }

    /// Samples a uniform field element.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> FpElem {
        rng.random_range(0..self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TEST_PRIMES: [u64; 6] = [2, 5, 11, 101, 65537, P_MAX];

    #[test]
    fn rejects_composite_modulus() {
        assert_eq!(Fp::new(12), Err(FieldError::NotPrime(12)));
        assert_eq!(Fp::new(1), Err(FieldError::NotPrime(1)));
    }

    #[test]
    fn rejects_oversized_modulus() {
        let p = (1u64 << 33) + 9; // arbitrary > 32-bit value
        assert!(matches!(Fp::new(p), Err(FieldError::ModulusTooLarge(_))));
    }

    #[test]
    fn for_cluster_matches_remark_2_3() {
        assert_eq!(Fp::for_cluster(7).modulus(), 11);
        assert_eq!(Fp::for_cluster(4).modulus(), 5);
        // `NodeId` is `u16`: the largest real cluster needs p = 65537.
        assert_eq!(Fp::for_cluster(65536).modulus(), 65537);
        // The 32-bit boundary itself is still a valid field.
        assert_eq!(Fp::for_cluster(P_MAX as usize - 1).modulus(), P_MAX);
        // Degenerate cluster sizes still produce a valid field.
        assert_eq!(Fp::for_cluster(0).modulus(), 3);
        assert_eq!(Fp::for_cluster(1).modulus(), 3);
    }

    /// The largest prime below 2^32: the last modulus the 32-bit bound
    /// admits.
    const P_MAX: u64 = 4_294_967_291;

    #[test]
    #[should_panic(expected = "no field for a cluster")]
    fn for_cluster_enforces_the_32_bit_bound() {
        // The smallest prime above P_MAX is 2^32 + 15.
        Fp::for_cluster(P_MAX as usize);
    }

    #[test]
    fn barrett_reduction_is_exact_at_the_boundaries() {
        for p in [2, 3, 5, 65537, P_MAX] {
            let fp = Fp::new(p).unwrap();
            let max = p - 1;
            for x in [
                0,
                1,
                p - 1,
                p,
                p + 1,
                2 * p - 1,
                max * max,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(fp.reduce(x), x % p, "p = {p}, x = {x}");
            }
            assert_eq!(
                fp.mul(max, max),
                ((u128::from(max) * u128::from(max)) % u128::from(p)) as u64
            );
        }
    }

    #[test]
    fn dot_reduces_before_the_accumulator_overflows() {
        // Near the bound a u64 holds a single product, so `dot` must
        // reduce after every term; at p = 65537 it never needs to within
        // a cluster-sized row.
        let fp = Fp::new(P_MAX).unwrap();
        assert_eq!(fp.lazy, 1);
        let max = P_MAX - 1;
        let a = vec![max; 9];
        let want = (9 * (u128::from(max) * u128::from(max))) % u128::from(P_MAX);
        assert_eq!(u128::from(fp.dot(&a, &a)), want);
        let fp = Fp::new(65537).unwrap();
        assert!(fp.lazy > 1 << 31);
        assert_eq!(Fp::new(2).unwrap().lazy, usize::MAX);
        let a = vec![65536; 65536];
        assert_eq!(fp.dot(&a, &a), ((65536 * 65536u128 * 65536) % 65537) as u64);
    }

    #[test]
    fn elem_width_is_the_minimal_byte_count() {
        assert_eq!(Fp::new(2).unwrap().elem_width(), 1);
        assert_eq!(Fp::new(251).unwrap().elem_width(), 1); // max elem 250
        assert_eq!(Fp::new(257).unwrap().elem_width(), 2); // max elem 256
        assert_eq!(Fp::new(65537).unwrap().elem_width(), 3);
        for n in [4usize, 7, 10, 13, 100] {
            // Every realistic cluster field packs into a single byte...
            // until n outgrows 255.
            let fp = Fp::for_cluster(n);
            let width = fp.elem_width();
            assert!(256u64.pow(width as u32) > fp.modulus() - 1);
            if fp.modulus() <= 256 {
                assert_eq!(width, 1);
            }
        }
    }

    #[test]
    fn zero_has_no_inverse() {
        let fp = Fp::new(11).unwrap();
        assert_eq!(fp.inv(0), Err(FieldError::ZeroInverse));
        assert_eq!(fp.div(3, 0), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn binary_field_edge_cases() {
        let fp = Fp::new(2).unwrap();
        assert_eq!(fp.add(1, 1), 0);
        assert_eq!(fp.neg(1), 1);
        assert_eq!(fp.inv(1).unwrap(), 1);
        assert_eq!(fp.pow(1, 999), 1);
        assert_eq!(fp.pow(0, 0), 1, "0^0 is the empty product");
    }

    fn prime_and_pair() -> impl Strategy<Value = (u64, u64, u64)> {
        proptest::sample::select(TEST_PRIMES.to_vec()).prop_flat_map(|p| (Just(p), 0..p, 0..p))
    }

    fn prime_and_triple() -> impl Strategy<Value = (u64, u64, u64, u64)> {
        proptest::sample::select(TEST_PRIMES.to_vec())
            .prop_flat_map(|p| (Just(p), 0..p, 0..p, 0..p))
    }

    proptest! {
        #[test]
        fn add_is_commutative_and_reduced((p, a, b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.add(a, b), fp.add(b, a));
            prop_assert!(fp.contains(fp.add(a, b)));
        }

        #[test]
        fn reduce_and_mul_match_the_u128_remainder(
            (p, a, b) in prime_and_pair(),
            x in any::<u64>(),
        ) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.reduce(x), x % p);
            prop_assert_eq!(u128::from(fp.mul(a, b)), (u128::from(a) * u128::from(b)) % u128::from(p));
        }

        #[test]
        fn mul_distributes_over_add((p, a, b, c) in prime_and_triple()) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.mul(a, fp.add(b, c)), fp.add(fp.mul(a, b), fp.mul(a, c)));
        }

        #[test]
        fn sub_inverts_add((p, a, b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.sub(fp.add(a, b), b), a);
            prop_assert_eq!(fp.add(a, fp.neg(a)), 0);
        }

        #[test]
        fn inverse_is_inverse((p, a, _b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            if a != 0 {
                prop_assert_eq!(fp.mul(a, fp.inv(a).unwrap()), 1 % p);
            }
        }

        #[test]
        fn fermat_little_theorem((p, a, _b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            if a != 0 {
                prop_assert_eq!(fp.pow(a, p - 1), 1 % p);
            }
        }

        #[test]
        fn pow_adds_exponents((p, a, _b) in prime_and_pair(), e1 in 0u64..64, e2 in 0u64..64) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.mul(fp.pow(a, e1), fp.pow(a, e2)), fp.pow(a, e1 + e2));
        }
    }
}
