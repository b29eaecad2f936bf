//! Reed–Solomon decoding via the Berlekamp–Welch algorithm, in syndrome
//! form.
//!
//! The coin's recover round broadcasts Shamir shares; up to `f` of them come
//! from Byzantine nodes and may be arbitrary. With shares of a degree-`f`
//! polynomial held by `n ≥ 3f + 1` nodes, at least `n − f ≥ 2f + 1` shares
//! are correct, which meets the Berlekamp–Welch requirement
//! `points ≥ degree + 2·errors + 1`. Decoding is therefore *binding*: every
//! correct node reconstructs the same polynomial no matter which `≤ f`
//! shares the adversary falsifies — even with recover-round rushing.
//!
//! # The syndrome kernel
//!
//! Write `n` for the number of points, `d` for the degree and
//! `r = n − d − 1` for the redundancy. Everything that depends only on the
//! evaluation points `x_i` (distinct) is computed once per point set by
//! [`BatchDecoder::new`]:
//!
//! - **Dual-GRS weights.** With `v_i = 1 / ∏_{j≠i} (x_i − x_j)`, the sum
//!   `Σ_i v_i·g(x_i)` is the `x^{n−1}` coefficient of the interpolant of
//!   `g`, so it vanishes for every `g` of degree `≤ n − 2`. Hence the
//!   syndromes `s_m = Σ_i w[m][i]·y_i` with `w[m][i] = v_i·x_i^m`,
//!   `m < r`, are all zero on every codeword `y_i = P(x_i)`
//!   (`deg x^m·P ≤ n − 2`) — and, the `r` weight rows being independent,
//!   *only* on codewords.
//! - A pairwise inverse-difference table `1 / (x_i − x_j)` for Newton
//!   interpolation, and the powers `x_i^k`.
//!
//! Per codeword the decoder computes the `r` syndromes, summing each row
//! in a `u64` and reducing once (`Fp::dot`). All zero means the view is
//! a codeword: `P` is read off the first `d + 1` points. Otherwise comes
//! the **Hankel key equation**. For an error budget `b` (`2b ≤ r`), a
//! locator `E(x) = Σ_k λ_k x^k` of degree `≤ b` satisfies
//!
//! `Σ_k λ_k·s_{t+k} = Σ_i w[t][i]·E(x_i)·y_i = 0` for every `t < r − b`,
//!
//! exactly when `(E(x_i)·y_i)_i` has zero syndromes for degree `d + b`,
//! i.e. when some `Q` of degree `≤ d + b` has `Q(x_i) = E(x_i)·y_i` — the
//! classic Berlekamp–Welch key equation with `Q` eliminated. So a nonzero
//! kernel vector of the `(r − b) × (b + 1)` Hankel matrix
//! `H[t][k] = s_{t+k}` ([`kernel_vector_in_place`]) is a locator, and `P`
//! is interpolated through `d + 1` points with `E(x_i) ≠ 0` (a nonzero `E`
//! has at most `b` roots, and `n − b ≥ d + 1`). The candidate is accepted
//! only if it is within `b` mismatches of the view.
//!
//! # Why every path returns the same polynomial
//!
//! The answer is *the* codeword within `b` mismatches of the view, or
//! `None` — the same answer the textbook ladder of growing error counts
//! gives:
//!
//! - Two polynomials of degree `≤ d` within `b` mismatches of one view
//!   agree on `≥ n − 2b ≥ d + 1` points, so they are equal: such a
//!   codeword is unique when it exists.
//! - When it exists (call it `P`, wrong at `t ≤ b` points), the locator of
//!   its error positions times `x^{b−t}` is a kernel vector, so a kernel
//!   vector exists. And *every* nonzero kernel `E` yields `P`: `Q − P·E`
//!   has degree `≤ d + b` and vanishes at the `≥ n − b ≥ d + b + 1`
//!   correct points, so `Q = P·E`, and `P(x_i) = y_i` wherever
//!   `E(x_i) ≠ 0`.
//! - When it does not exist, every candidate fails the mismatch check.
//!
//! Which kernel vector the elimination picks, which `d + 1` points are
//! interpolated, and which budget `b ≥ t` is used therefore never change
//! the output — which is why [`decode`], [`decode_with_errors`] and
//! [`BatchDecoder`] share this one kernel and agree with a brute-force
//! oracle over every `(d + 1)`-subset (pinned by the proptests below).

// Indexed loops in this file mirror the paper's matrix/polynomial
// subscripts; iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::linalg::kernel_vector_in_place;
use crate::{Fp, FpElem, Poly};

/// Decodes a polynomial of degree at most `degree` from `points`, tolerating
/// up to `(points.len() − degree − 1) / 2` corrupted y-values.
///
/// Returns `None` when decoding fails: more errors than that budget, fewer
/// than `degree + 1` points, or duplicate x-coordinates (in the protocol the
/// point list is keyed by node id, so duplicates indicate caller error only
/// in tests — the decode fails rather than panics).
///
/// Decoding many codewords over one x-set? Use [`BatchDecoder`], which
/// computes the point-set tables once and returns identical results.
///
/// # Example
///
/// ```
/// use byzclock_field::{Fp, Poly, rs};
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// let p = Poly::from_coeffs(vec![4, 2]); // 4 + 2x
/// let mut pts: Vec<(u64, u64)> = (1..=5).map(|x| (x, p.eval(&fp, x))).collect();
/// pts[2].1 = fp.add(pts[2].1, 1); // corrupt one share
/// assert_eq!(rs::decode(&fp, &pts, 1), Some(p));
/// # Ok(())
/// # }
/// ```
pub fn decode(fp: &Fp, points: &[(FpElem, FpElem)], degree: usize) -> Option<Poly> {
    let max_errors = points.len().saturating_sub(degree + 1) / 2;
    decode_with_errors(fp, points, degree, max_errors)
}

/// Berlekamp–Welch with an explicit error budget: the unique polynomial of
/// degree `≤ degree` within `min(max_errors, (n − degree − 1) / 2)`
/// mismatches of `points`, or `None`.
///
/// The Hankel key equation takes any budget up to `(n − degree − 1) / 2`
/// directly (see the module docs), so there is no ladder to climb.
/// Exposed for tests and for callers that know a tighter bound than
/// [`decode`] assumes. x-coordinates must be distinct; duplicates make the
/// decode fail.
pub fn decode_with_errors(
    fp: &Fp,
    points: &[(FpElem, FpElem)],
    degree: usize,
    max_errors: usize,
) -> Option<Poly> {
    let xs: Vec<FpElem> = points.iter().map(|&(x, _)| x).collect();
    let ys: Vec<FpElem> = points.iter().map(|&(_, y)| y).collect();
    BatchDecoder::with_budget(fp, &xs, degree, max_errors)?.decode_one(&ys)
}

/// Decodes many codewords that share one evaluation-point set: the
/// syndrome weights, inverse differences and powers of the points are
/// computed once, and each codeword costs one syndrome pass plus, when it
/// is not clean, a small Hankel solve and one interpolation (see the
/// module docs).
///
/// This is the shape of the GVSS recover round: at each beat a node
/// decodes one degree-`f` polynomial per `(dealer, target)` pair, and all
/// of them are evaluated at the same node indices. Results are identical
/// to calling [`decode`] per codeword (pinned by proptests against a
/// brute-force oracle).
///
/// # Example
///
/// ```
/// use byzclock_field::{BatchDecoder, Fp, Poly};
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// let xs: Vec<u64> = (1..=7).collect();
/// let p = Poly::from_coeffs(vec![5, 3, 7]);
/// let q = Poly::from_coeffs(vec![2, 0, 9]);
/// let mut ys_p: Vec<u64> = xs.iter().map(|&x| p.eval(&fp, x)).collect();
/// let ys_q: Vec<u64> = xs.iter().map(|&x| q.eval(&fp, x)).collect();
/// ys_p[4] = fp.add(ys_p[4], 3); // one corrupted share
///
/// let mut dec = BatchDecoder::new(&fp, &xs, 2).expect("distinct xs, enough points");
/// assert_eq!(dec.budget(), 2);
/// assert_eq!(dec.decode_batch(&[ys_p, ys_q]), vec![Some(p), Some(q)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchDecoder {
    fp: Fp,
    xs: Vec<FpElem>,
    degree: usize,
    budget: usize,
    /// `inv_diff[i·n + j] = 1 / (x_i − x_j)`, zero on the diagonal.
    inv_diff: Vec<FpElem>,
    /// Syndrome weights, row-major: `weights[m·n + i] = v_i·x_i^m` for the
    /// `r = n − degree − 1` syndromes.
    weights: Vec<FpElem>,
    /// `xpow[i·stride + k] = x_i^k` for `k < stride = max(degree, budget) + 1`.
    xpow: Vec<FpElem>,
    stride: usize,
    /// Per-codeword scratch, reused so steady-state decodes allocate only
    /// the returned polynomial.
    scratch: Scratch,
}

#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The reduced codeword.
    ys: Vec<FpElem>,
    /// The `r` syndromes.
    syndromes: Vec<FpElem>,
    /// The Hankel matrix, eliminated in place.
    hankel: Vec<FpElem>,
    /// Locator coefficients `λ_0..=λ_budget`.
    locator: Vec<FpElem>,
    /// The `degree + 1` interpolation points, ascending indices.
    chosen: Vec<usize>,
    /// Newton divided differences, then monomial coefficients.
    coeffs: Vec<FpElem>,
}

impl BatchDecoder {
    /// A decoder for codewords of degree at most `degree` evaluated at
    /// `xs`.
    ///
    /// Returns `None` exactly when [`decode`] would fail for *any*
    /// codeword over these points: an empty or too-short point set
    /// (`xs.len() < degree + 1`) or duplicate x-coordinates.
    pub fn new(fp: &Fp, xs: &[FpElem], degree: usize) -> Option<Self> {
        Self::with_budget(fp, xs, degree, usize::MAX)
    }

    /// [`BatchDecoder::new`] with the error budget capped at `max_errors`.
    fn with_budget(fp: &Fp, xs: &[FpElem], degree: usize, max_errors: usize) -> Option<Self> {
        let n = xs.len();
        if n < degree + 1 {
            return None;
        }
        let xs: Vec<FpElem> = xs.iter().map(|&x| fp.reduce(x)).collect();
        let inv_diff = inverse_differences(fp, &xs)?;
        let redundancy = n - degree - 1;
        let budget = max_errors.min(redundancy / 2);
        // Row 0 holds v_i = Π_{j≠i} 1 / (x_i − x_j); row m is row m − 1
        // scaled by x_i.
        let mut weights = Vec::with_capacity(redundancy * n);
        if redundancy > 0 {
            weights.extend(inv_diff.chunks_exact(n).enumerate().map(|(i, row)| {
                (0..n)
                    .filter(|&j| j != i)
                    .fold(1, |acc, j| fp.mul(acc, row[j]))
            }));
        }
        for k in n..redundancy * n {
            weights.push(fp.mul(weights[k - n], xs[k % n]));
        }
        let stride = degree.max(budget) + 1;
        let mut xpow = Vec::with_capacity(n * stride);
        for &x in &xs {
            let mut xk = 1;
            for _ in 0..stride {
                xpow.push(xk);
                xk = fp.mul(xk, x);
            }
        }
        Some(BatchDecoder {
            fp: *fp,
            xs,
            degree,
            budget,
            inv_diff,
            weights,
            xpow,
            stride,
            scratch: Scratch::default(),
        })
    }

    /// Number of evaluation points per codeword.
    pub fn codeword_len(&self) -> usize {
        self.xs.len()
    }

    /// The error budget: up to this many corrupted values per codeword are
    /// tolerated (`(len − degree − 1) / 2`).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Decodes one codeword. Returns the unique polynomial of degree
    /// `≤ degree` within [`BatchDecoder::budget`] mismatches of `ys`, or
    /// `None` — including when `ys.len()` does not match
    /// [`BatchDecoder::codeword_len`].
    ///
    /// A clean codeword costs one syndrome pass and one interpolation; a
    /// corrupted one adds the Hankel solve for its error locator and the
    /// mismatch check. Either way the answer is the one the module docs
    /// prove unique.
    pub fn decode_one(&mut self, ys: &[FpElem]) -> Option<Poly> {
        let n = self.xs.len();
        if ys.len() != n {
            return None;
        }
        let fp = self.fp;
        let (d, b) = (self.degree, self.budget);
        let redundancy = n - d - 1;
        let sc = &mut self.scratch;
        sc.ys.clear();
        sc.ys.extend(ys.iter().map(|&y| fp.reduce(y)));
        sc.syndromes.clear();
        sc.syndromes
            .extend(self.weights.chunks_exact(n).map(|w| fp.dot(w, &sc.ys)));
        sc.chosen.clear();
        if sc.syndromes.iter().all(|&s| s == 0) {
            // A codeword: any d + 1 points determine it.
            sc.chosen.extend(0..=d);
            interpolate(&fp, &self.xs, &self.inv_diff, sc);
            return Some(Poly::from_coeffs(sc.coeffs.clone()));
        }
        // The Hankel key equation H[t][k] = s_{t+k}, t < r − b, k ≤ b.
        let cols = b + 1;
        sc.hankel.clear();
        for t in 0..redundancy - b {
            sc.hankel.extend_from_slice(&sc.syndromes[t..t + cols]);
        }
        sc.locator.clear();
        sc.locator.resize(cols, 0);
        if !kernel_vector_in_place(&fp, &mut sc.hankel, cols, &mut sc.locator) {
            return None; // no locator of degree <= b: nothing within budget
        }
        // Interpolate through the first d + 1 points the locator does not
        // vanish at; a nonzero E has at most b roots and n − b ≥ d + 1.
        for i in 0..n {
            let row = &self.xpow[i * self.stride..];
            if fp.dot(&sc.locator, row) != 0 {
                sc.chosen.push(i);
                if sc.chosen.len() == d + 1 {
                    break;
                }
            }
        }
        interpolate(&fp, &self.xs, &self.inv_diff, sc);
        // Accept only within budget; this rejects views with no codeword
        // nearby. The chosen points match by construction.
        let mut mismatches = 0;
        let mut next_chosen = 0;
        for i in 0..n {
            if sc.chosen.get(next_chosen) == Some(&i) {
                next_chosen += 1;
                continue;
            }
            if fp.dot(&sc.coeffs, &self.xpow[i * self.stride..]) != sc.ys[i] {
                mismatches += 1;
                if mismatches > b {
                    return None;
                }
            }
        }
        Some(Poly::from_coeffs(sc.coeffs.clone()))
    }

    /// Decodes a batch of codewords; `out[i]` is [`decode_one`] of
    /// `codewords[i]`, all sharing the decoder's point-set tables.
    ///
    /// [`decode_one`]: BatchDecoder::decode_one
    pub fn decode_batch(&mut self, codewords: &[Vec<FpElem>]) -> Vec<Option<Poly>> {
        codewords.iter().map(|ys| self.decode_one(ys)).collect()
    }
}

/// The `n × n` table `1 / (x_i − x_j)` (zero on the diagonal), or `None`
/// when two points coincide. One field inversion in all: the differences
/// of the upper triangle are inverted together (Montgomery's batch trick)
/// and the lower triangle is their negation.
fn inverse_differences(fp: &Fp, xs: &[FpElem]) -> Option<Vec<FpElem>> {
    let n = xs.len();
    let mut table = vec![0; n * n];
    // Prefix products of the upper-triangle differences, in row order.
    let mut prefix = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    let mut acc = 1;
    for i in 0..n {
        for j in i + 1..n {
            let diff = fp.sub(xs[i], xs[j]);
            if diff == 0 {
                return None;
            }
            prefix.push(acc);
            acc = fp.mul(acc, diff);
        }
    }
    let mut inv = fp.inv(acc).ok()?;
    for i in (0..n).rev() {
        for j in (i + 1..n).rev() {
            let diff = fp.sub(xs[i], xs[j]);
            let before = prefix.pop()?;
            let inv_diff = fp.mul(inv, before);
            inv = fp.mul(inv, diff);
            table[i * n + j] = inv_diff;
            table[j * n + i] = fp.neg(inv_diff);
        }
    }
    Some(table)
}

/// Newton interpolation through `sc.chosen` (`d + 1` point indices),
/// leaving the monomial coefficients of the result in `sc.coeffs`.
fn interpolate(fp: &Fp, xs: &[FpElem], inv_diff: &[FpElem], sc: &mut Scratch) {
    let n = xs.len();
    let pts = &sc.chosen;
    let c = &mut sc.coeffs;
    c.clear();
    c.extend(pts.iter().map(|&i| sc.ys[i]));
    let d = pts.len() - 1;
    // Divided differences: c[j] = f[x_{j−k}, …, x_j] after level k.
    for k in 1..=d {
        for j in (k..=d).rev() {
            let step = inv_diff[pts[j] * n + pts[j - k]];
            c[j] = fp.mul(fp.sub(c[j], c[j - 1]), step);
        }
    }
    // Horner over the Newton basis, expanding in place: after the step
    // for `k`, c[k..] holds the monomial coefficients of
    // c_k + (x − x_k)·(c_{k+1} + (x − x_{k+1})·(…)). Ascending order reads
    // each c[i + 1] before it is overwritten.
    for k in (0..d).rev() {
        let xk = xs[pts[k]];
        for i in k..d {
            let t = fp.mul(xk, c[i + 1]);
            c[i] = fp.sub(c[i], t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn eval_points(fp: &Fp, p: &Poly, n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|x| (x, p.eval(fp, x))).collect()
    }

    /// The brute-force decoder the kernel is checked against: interpolate
    /// every `(degree + 1)`-subset of the (reduced) points and keep the
    /// candidates within `min(max_errors, (n − degree − 1) / 2)`
    /// mismatches. Uniqueness is asserted, not assumed. Short and
    /// duplicate point sets decode to `None`, as [`decode`] documents.
    fn oracle(fp: &Fp, points: &[(u64, u64)], degree: usize, max_errors: usize) -> Option<Poly> {
        let pts: Vec<(u64, u64)> = points
            .iter()
            .map(|&(x, y)| (fp.reduce(x), fp.reduce(y)))
            .collect();
        let n = pts.len();
        let distinct = (0..n).all(|i| (i + 1..n).all(|j| pts[i].0 != pts[j].0));
        if n < degree + 1 || !distinct {
            return None;
        }
        let budget = max_errors.min((n - degree - 1) / 2);
        let mut found: Option<Poly> = None;
        // Lexicographic (degree + 1)-subsets of 0..n.
        let mut subset: Vec<usize> = (0..=degree).collect();
        loop {
            let chosen: Vec<(u64, u64)> = subset.iter().map(|&i| pts[i]).collect();
            let cand = Poly::interpolate(fp, &chosen).expect("distinct points");
            let mismatches = pts.iter().filter(|&&(x, y)| cand.eval(fp, x) != y).count();
            if mismatches <= budget {
                match &found {
                    Some(prev) => assert_eq!(prev, &cand, "two codewords within budget"),
                    None => found = Some(cand),
                }
            }
            let Some(k) = (0..=degree)
                .rev()
                .find(|&k| subset[k] < n - 1 - (degree - k))
            else {
                return found;
            };
            subset[k] += 1;
            for j in k + 1..=degree {
                subset[j] = subset[j - 1] + 1;
            }
        }
    }

    /// A random decode shape: a field (p = 2 and 3 included), up to 13
    /// x-coordinates — distinct in most draws, with duplicates sometimes
    /// and unreduced representatives half the time — and a degree that
    /// may exceed the point count.
    fn random_point_set(rng: &mut StdRng) -> (Fp, Vec<u64>, usize) {
        let p = [2u64, 3, 5, 7, 13, 17, 101][rng.random_range(0..7usize)];
        let fp = Fp::new(p).unwrap();
        let mut xs: Vec<u64> = if rng.random_range(0..8u32) == 0 {
            (0..rng.random_range(0..=13usize))
                .map(|_| rng.random_range(0..p))
                .collect()
        } else {
            let mut all: Vec<u64> = (0..p).collect();
            for i in (1..all.len()).rev() {
                all.swap(i, rng.random_range(0..=i));
            }
            all.truncate(rng.random_range(0..=13usize.min(p as usize)));
            all
        };
        if rng.random() {
            xs.iter_mut()
                .for_each(|x| *x += p * rng.random_range(0..1000u64));
        }
        (fp, xs, rng.random_range(0..=5usize))
    }

    /// A view over `xs`: a random codeword of degree `≤ degree` with
    /// anywhere from zero to two-past-the-budget corrupted positions,
    /// or (one draw in eight) pure noise; unreduced half the time.
    fn random_view(fp: &Fp, xs: &[u64], degree: usize, rng: &mut StdRng) -> Vec<u64> {
        let p = fp.modulus();
        let n = xs.len();
        let mut ys: Vec<u64> = if rng.random_range(0..8u32) == 0 {
            (0..n).map(|_| rng.random_range(0..p)).collect()
        } else {
            let poly = Poly::from_coeffs((0..=degree).map(|_| fp.sample(rng)).collect());
            xs.iter().map(|&x| poly.eval(fp, x)).collect()
        };
        let budget = n.saturating_sub(degree + 1) / 2;
        let errors = rng.random_range(0..=budget + 2).min(n);
        let mut wrong: Vec<usize> = Vec::new();
        while wrong.len() < errors {
            let i = rng.random_range(0..n);
            if !wrong.contains(&i) {
                wrong.push(i);
                ys[i] = fp.add(ys[i], 1 + rng.random_range(0..p - 1));
            }
        }
        if rng.random() {
            ys.iter_mut()
                .for_each(|y| *y += p * rng.random_range(0..1000u64));
        }
        ys
    }

    #[test]
    fn oracle_sees_beyond_budget_views_and_the_tiny_fields() {
        // Over a random batch, every error count from clean to past the
        // budget occurs, and the decoder agrees with the oracle on each.
        let mut rng = StdRng::seed_from_u64(5);
        let fp = Fp::for_cluster(10);
        let xs: Vec<u64> = (1..=10).collect();
        let mut dec = BatchDecoder::new(&fp, &xs, 3).unwrap();
        let mut outcomes = [0usize; 2];
        for _ in 0..300 {
            let ys = random_view(&fp, &xs, 3, &mut rng);
            let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            let want = oracle(&fp, &pts, 3, usize::MAX);
            outcomes[usize::from(want.is_some())] += 1;
            assert_eq!(dec.decode_one(&ys), want);
        }
        assert!(outcomes[0] > 20 && outcomes[1] > 20, "{outcomes:?}");
        // p = 2 and p = 3: every point of the field, every degree.
        for p in [2u64, 3] {
            let fp = Fp::new(p).unwrap();
            let xs: Vec<u64> = (0..p).collect();
            for degree in 0..p as usize {
                let mut dec = BatchDecoder::new(&fp, &xs, degree).unwrap();
                for code in 0..p.pow(p as u32) {
                    let ys: Vec<u64> = (0..p).map(|i| code / p.pow(i as u32) % p).collect();
                    let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
                    assert_eq!(dec.decode_one(&ys), oracle(&fp, &pts, degree, usize::MAX));
                }
            }
        }
    }

    #[test]
    fn decodes_clean_shares() {
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let pts = eval_points(&fp, &p, 7);
        assert_eq!(decode(&fp, &pts, 2), Some(p));
    }

    #[test]
    fn decodes_with_max_budget_errors() {
        // n = 7, degree = 2 -> budget = (7 - 3) / 2 = 2 errors.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let mut pts = eval_points(&fp, &p, 7);
        pts[0].1 = fp.add(pts[0].1, 3);
        pts[4].1 = fp.add(pts[4].1, 9);
        assert_eq!(decode(&fp, &pts, 2), Some(p));
    }

    #[test]
    fn fails_beyond_budget() {
        // Three errors against a budget of two: must not return the original.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let mut pts = eval_points(&fp, &p, 7);
        for i in 0..3 {
            pts[i].1 = fp.add(pts[i].1, 1);
        }
        assert_ne!(decode(&fp, &pts, 2), Some(p));
    }

    #[test]
    fn too_few_points_fails() {
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let pts = eval_points(&fp, &p, 2);
        assert_eq!(decode(&fp, &pts, 2), None);
    }

    #[test]
    fn duplicate_x_fails_cleanly() {
        let fp = Fp::new(11).unwrap();
        let pts = vec![(1, 2), (1, 3), (2, 4), (3, 5)];
        assert_eq!(decode(&fp, &pts, 1), None);
        assert!(BatchDecoder::new(&fp, &[1, 1, 2, 3], 1).is_none());
    }

    #[test]
    fn zero_polynomial_decodes() {
        let fp = Fp::new(11).unwrap();
        let pts: Vec<_> = (1..=5u64).map(|x| (x, 0u64)).collect();
        assert_eq!(decode(&fp, &pts, 1), Some(Poly::zero()));
        let mut dec = BatchDecoder::new(&fp, &[1, 2, 3, 4, 5], 1).unwrap();
        assert_eq!(dec.decode_one(&[0; 5]), Some(Poly::zero()));
    }

    #[test]
    fn binding_under_equivocated_shares() {
        // Byzantine nodes may send *different* corrupted shares to different
        // observers; both observers must still decode the same polynomial.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![8, 1, 2]);
        let base = eval_points(&fp, &p, 7);
        let mut view_a = base.clone();
        let mut view_b = base.clone();
        view_a[1].1 = 0;
        view_a[6].1 = 5;
        view_b[1].1 = 9;
        view_b[6].1 = 1;
        assert_eq!(decode(&fp, &view_a, 2), Some(p.clone()));
        assert_eq!(decode(&fp, &view_b, 2), Some(p));
    }

    #[test]
    fn batch_decoder_rejects_short_point_sets_and_bad_lengths() {
        let fp = Fp::new(11).unwrap();
        assert!(BatchDecoder::new(&fp, &[], 1).is_none());
        assert!(BatchDecoder::new(&fp, &[1, 2], 2).is_none());
        let mut dec = BatchDecoder::new(&fp, &[1, 2, 3, 4, 5], 1).unwrap();
        assert_eq!(dec.codeword_len(), 5);
        assert_eq!(dec.decode_one(&[1, 2, 3]), None, "length mismatch");
    }

    #[test]
    fn batch_decoder_reduces_inputs_like_decode() {
        // Unreduced xs/ys must behave as their reduced forms, matching the
        // per-point reduction of the one-shot path.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![4, 2]);
        let xs: Vec<u64> = (1..=5).collect();
        let ys: Vec<u64> = xs.iter().map(|&x| p.eval(&fp, x) + 22).collect();
        let mut dec = BatchDecoder::new(&fp, &xs, 1).unwrap();
        assert_eq!(dec.decode_one(&ys), Some(p));
        // Duplicate-after-reduction xs are rejected like literal ones.
        assert!(BatchDecoder::new(&fp, &[1, 12, 2, 3], 1).is_none());
    }

    #[test]
    fn batch_reuses_stages_across_mixed_error_counts() {
        // One decoder, many codewords with 0..=budget errors each, decoded
        // in an order that exercises stage reuse after rewinds.
        let fp = Fp::for_cluster(13);
        let mut rng = StdRng::seed_from_u64(42);
        let f = 4;
        let mut dec = BatchDecoder::new(&fp, &(1..=13).collect::<Vec<_>>(), f).unwrap();
        for round in 0..3u64 {
            for errors in [f, 0, 2, 1, f, 0] {
                let p = Poly::random_with_secret(&fp, fp.sample(&mut rng), f, &mut rng);
                let mut ys: Vec<u64> = (1..=13).map(|x| p.eval(&fp, x)).collect();
                for i in 0..errors {
                    ys[i] = fp.add(ys[i], 1 + round);
                }
                assert_eq!(
                    dec.decode_one(&ys),
                    Some(p),
                    "round {round}, {errors} errors"
                );
            }
        }
    }

    proptest! {
        /// Shamir recovery with adversarial corruption: n = 3f + 1 shares,
        /// f of them corrupted arbitrarily, degree-f secret polynomial.
        #[test]
        fn shamir_recover_under_f_faults(seed in 0u64..300, f in 1usize..4) {
            let n = 3 * f + 1;
            let fp = Fp::for_cluster(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = fp.sample(&mut rng);
            let p = Poly::random_with_secret(&fp, secret, f, &mut rng);
            let mut pts = eval_points(&fp, &p, n as u64);
            // Corrupt f distinct shares with arbitrary values.
            for i in 0..f {
                pts[i].1 = fp.sample(&mut rng);
            }
            let decoded = decode(&fp, &pts, f).expect("within Berlekamp-Welch budget");
            prop_assert_eq!(decoded.eval(&fp, 0), secret);
        }

        /// Random polynomials, random error patterns within budget.
        #[test]
        fn random_error_patterns(seed in 0u64..300, degree in 0usize..4, extra in 0usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fp = Fp::new(101).unwrap();
            let budget = extra / 2;
            let n = degree + 1 + 2 * budget;
            let p = Poly::random_with_secret(&fp, fp.sample(&mut rng), degree, &mut rng);
            let mut pts = eval_points(&fp, &p, n as u64);
            let mut corrupted = 0usize;
            while corrupted < budget {
                let idx = rng.random_range(0..n);
                let new_y = fp.sample(&mut rng);
                if new_y != p.eval(&fp, pts[idx].0) {
                    pts[idx].1 = new_y;
                    corrupted += 1;
                }
            }
            prop_assert_eq!(decode(&fp, &pts, degree), Some(p));
        }

        /// `BatchDecoder` output equals the brute-force oracle (and the
        /// one-shot [`decode`]) for every codeword of a batch, at every
        /// error count from clean to beyond the budget, over unreduced
        /// inputs, duplicate and short point sets, `n ≤ 13` and the p = 2
        /// and p = 3 fields.
        #[test]
        fn batch_decoder_matches_sequential_decode(seed in 0u64..400, codewords in 1usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (fp, xs, degree) = random_point_set(&mut rng);
            let batch: Vec<Vec<u64>> =
                (0..codewords).map(|_| random_view(&fp, &xs, degree, &mut rng)).collect();
            let batched = match BatchDecoder::new(&fp, &xs, degree) {
                Some(mut dec) => dec.decode_batch(&batch),
                None => vec![None; codewords],
            };
            for (ys, got) in batch.iter().zip(&batched) {
                let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
                let want = oracle(&fp, &pts, degree, usize::MAX);
                prop_assert_eq!(got, &want, "p {} xs {:?} ys {:?}", fp.modulus(), xs, ys);
                prop_assert_eq!(decode(&fp, &pts, degree), want);
            }
        }

        /// `decode_with_errors` with a caller budget equals the oracle at
        /// that budget, for every cut from 0 past the decoder's own limit.
        #[test]
        fn incremental_ladder_matches_at_every_budget(seed in 0u64..400) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (fp, xs, degree) = random_point_set(&mut rng);
            let ys = random_view(&fp, &xs, degree, &mut rng);
            let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            for max_errors in 0..=xs.len() / 2 + 1 {
                prop_assert_eq!(
                    decode_with_errors(&fp, &pts, degree, max_errors),
                    oracle(&fp, &pts, degree, max_errors),
                    "max_errors {}, p {}, points {:?}", max_errors, fp.modulus(), pts
                );
            }
        }
    }
}
