//! Gaussian elimination over `F_p`.
//!
//! Systems here are tiny (a handful of unknowns per dealing), so a dense
//! row-reduction is the clear choice. Two entry points serve two shapes
//! of work:
//!
//! - [`solve`] / [`solve_in_place`] — classic one-shot Gauss–Jordan on an
//!   inhomogeneous system `A x = b` — the crate's general-purpose linear
//!   solver. The decoder does not call it.
//! - [`kernel_vector_in_place`] — a deterministic nonzero kernel vector of
//!   a homogeneous system, eliminated only as far as its first dependent
//!   column. The Berlekamp–Welch decoder ([`crate::rs`]) reads its error
//!   locator off the kernel of a small Hankel matrix of syndromes this way,
//!   in caller-owned scratch so the per-codeword path does not allocate.

// Indexed loops in this file mirror the paper's matrix/polynomial
// subscripts; iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::{FieldError, Fp, FpElem};

/// Solves the linear system `A x = b` over `F_p`.
///
/// Returns one particular solution with all free variables set to zero, or
/// `None` if the system is inconsistent. `a` is row-major with `a.len()`
/// rows; every row must have `unknowns` entries and `b.len()` must equal
/// `a.len()`.
///
/// # Panics
///
/// Panics if the dimensions are inconsistent (programmer error, not data).
///
/// # Example
///
/// ```
/// use byzclock_field::{Fp, linalg};
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// // x + y = 3, x - y = 1  =>  x = 2, y = 1
/// let a = vec![vec![1, 1], vec![1, 10]];
/// let sol = linalg::solve(&fp, a, vec![3, 1], 2).expect("consistent");
/// assert_eq!(sol, vec![2, 1]);
/// # Ok(())
/// # }
/// ```
pub fn solve(
    fp: &Fp,
    mut a: Vec<Vec<FpElem>>,
    mut b: Vec<FpElem>,
    unknowns: usize,
) -> Option<Vec<FpElem>> {
    solve_in_place(fp, &mut a, &mut b, unknowns)
}

/// [`solve`] on borrowed storage: the row-reduction happens inside `a` and
/// `b`, which are left in eliminated (garbage, but allocated) state, so a
/// caller solving many systems can reuse one allocation.
pub fn solve_in_place(
    fp: &Fp,
    a: &mut [Vec<FpElem>],
    b: &mut [FpElem],
    unknowns: usize,
) -> Option<Vec<FpElem>> {
    assert_eq!(a.len(), b.len(), "matrix/rhs row mismatch");
    for row in a.iter() {
        assert_eq!(row.len(), unknowns, "row width mismatch");
    }
    let rows = a.len();
    let mut pivot_of_col: Vec<Option<usize>> = vec![None; unknowns];
    let mut rank = 0usize;

    for col in 0..unknowns {
        // Find a pivot row at or below `rank`.
        let Some(pr) = (rank..rows).find(|&r| a[r][col] != 0) else {
            continue;
        };
        a.swap(rank, pr);
        b.swap(rank, pr);
        let inv = fp
            .inv(a[rank][col])
            .expect("pivot is nonzero by construction");
        for v in a[rank].iter_mut() {
            *v = fp.mul(*v, inv);
        }
        b[rank] = fp.mul(b[rank], inv);
        for r in 0..rows {
            if r != rank && a[r][col] != 0 {
                let factor = a[r][col];
                for c in 0..unknowns {
                    let delta = fp.mul(factor, a[rank][c]);
                    a[r][c] = fp.sub(a[r][c], delta);
                }
                let delta = fp.mul(factor, b[rank]);
                b[r] = fp.sub(b[r], delta);
            }
        }
        pivot_of_col[col] = Some(rank);
        rank += 1;
        if rank == rows {
            break;
        }
    }

    // Inconsistency check: a zero row with nonzero rhs.
    for r in rank..rows {
        if b[r] != 0 && a[r].iter().all(|&v| v == 0) {
            return None;
        }
    }

    let mut x = vec![0; unknowns];
    for (col, pivot) in pivot_of_col.iter().enumerate() {
        if let Some(pr) = pivot {
            x[col] = b[*pr];
        }
    }
    Some(x)
}

/// Like [`solve`] but maps inconsistency to [`FieldError::Inconsistent`].
///
/// # Errors
///
/// Returns [`FieldError::Inconsistent`] when the system has no solution.
pub fn solve_or_err(
    fp: &Fp,
    a: Vec<Vec<FpElem>>,
    b: Vec<FpElem>,
    unknowns: usize,
) -> Result<Vec<FpElem>, FieldError> {
    solve(fp, a, b, unknowns).ok_or(FieldError::Inconsistent)
}

/// Writes a nonzero kernel vector of the row-major `rows × cols` matrix
/// `a` (`rows = a.len() / cols`) into `x` and returns `true`, or returns
/// `false` when the columns are linearly independent.
///
/// The vector is deterministic: it is the unique kernel vector whose
/// variable for the *first* column dependent on the columns before it is
/// 1 and whose later variables are 0. The elimination runs forward only
/// and stops at that column, then back-substitutes. Neither step divides:
/// rows are combined as `pivot·row − factor·pivot_row`, and the
/// back-substitution rescales instead, so the only field inversion is the
/// final normalization. `a` is left in a partially eliminated state.
///
/// # Panics
///
/// Panics if `cols` is zero, `a.len()` is not a multiple of `cols`, or
/// `x.len() != cols` (dimension errors, not data).
///
/// # Example
///
/// ```
/// use byzclock_field::{linalg, Fp};
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// // Rows of [[1, 2, 3], [0, 1, 1]]: the third column equals the first
/// // plus the second, so it is the first dependent one.
/// let mut a = vec![1, 2, 3, 0, 1, 1];
/// let mut x = vec![0; 3];
/// assert!(linalg::kernel_vector_in_place(&fp, &mut a, 3, &mut x));
/// // x = (-1, -1, 1): 1*(-1) + 2*(-1) + 3 = 0 and 0 - 1 + 1 = 0.
/// assert_eq!(x, vec![10, 10, 1]);
/// # Ok(())
/// # }
/// ```
pub fn kernel_vector_in_place(fp: &Fp, a: &mut [FpElem], cols: usize, x: &mut [FpElem]) -> bool {
    assert!(
        cols > 0 && a.len().is_multiple_of(cols),
        "matrix is not rows x cols"
    );
    assert_eq!(x.len(), cols, "kernel vector length mismatch");
    let rows = a.len() / cols;
    // Every column before `col` took a pivot, so the pivot of column `c`
    // sits in row `c` and the elimination front is row `col`.
    for col in 0..cols {
        let Some(pr) = (col..rows).find(|&r| a[r * cols + col] != 0) else {
            back_substitute(fp, a, cols, col, x);
            return true;
        };
        if pr != col {
            for c in col..cols {
                a.swap(col * cols + c, pr * cols + c);
            }
        }
        let pivot = a[col * cols + col];
        for r in col + 1..rows {
            let factor = fp.neg(a[r * cols + col]);
            if factor == 0 {
                continue;
            }
            // Entries left of `c = col + 1` are zero below the front (or
            // never read again).
            for c in col + 1..cols {
                let (row, front) = (a[r * cols + c], a[col * cols + c]);
                a[r * cols + c] = fp.dot(&[pivot, factor], &[row, front]);
            }
        }
    }
    false
}

/// Solves the upper-triangular rows `0..free` of an eliminated
/// [`kernel_vector_in_place`] matrix for the kernel vector of column
/// `free`. Each step scales the variables found so far by the row's pivot
/// instead of dividing by it; one inversion normalizes `x[free]` to 1.
fn back_substitute(fp: &Fp, a: &[FpElem], cols: usize, free: usize, x: &mut [FpElem]) {
    x.fill(0);
    x[free] = 1;
    for c in (0..free).rev() {
        let row = &a[c * cols..(c + 1) * cols];
        let t = fp.dot(&row[c + 1..=free], &x[c + 1..=free]);
        for v in &mut x[c + 1..=free] {
            *v = fp.mul(*v, row[c]);
        }
        x[c] = fp.neg(t);
    }
    // x[free] is the product of the pivots: nonzero.
    let inv = fp.inv(x[free]).expect("pivots are nonzero");
    for v in &mut x[..=free] {
        *v = fp.mul(*v, inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solves_square_system() {
        let fp = Fp::new(101).unwrap();
        let a = vec![vec![2, 1, 1], vec![1, 3, 2], vec![1, 0, 0]];
        let x = vec![5, 7, 9];
        let b: Vec<u64> = a
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&x)
                    .fold(0, |acc, (&c, &xi)| fp.add(acc, fp.mul(c, xi)))
            })
            .collect();
        let sol = solve(&fp, a.clone(), b, 3).unwrap();
        assert_eq!(sol, x);
    }

    #[test]
    fn detects_inconsistency() {
        let fp = Fp::new(11).unwrap();
        // x + y = 1 and x + y = 2 cannot both hold.
        let a = vec![vec![1, 1], vec![1, 1]];
        assert_eq!(solve(&fp, a.clone(), vec![1, 2], 2), None);
        assert_eq!(
            solve_or_err(&fp, a, vec![1, 2], 2),
            Err(FieldError::Inconsistent)
        );
    }

    #[test]
    fn underdetermined_returns_particular_solution() {
        let fp = Fp::new(11).unwrap();
        // Single equation x + 2y = 5: free variable y is set to 0.
        let sol = solve(&fp, vec![vec![1, 2]], vec![5], 2).unwrap();
        assert_eq!(sol, vec![5, 0]);
    }

    #[test]
    fn zero_rows_are_tolerated() {
        let fp = Fp::new(11).unwrap();
        let a = vec![vec![0, 0], vec![1, 0]];
        let sol = solve(&fp, a, vec![0, 4], 2).unwrap();
        assert_eq!(sol, vec![4, 0]);
    }

    #[test]
    fn empty_system_is_trivially_consistent() {
        let fp = Fp::new(11).unwrap();
        let sol = solve(&fp, vec![], vec![], 3).unwrap();
        assert_eq!(sol, vec![0, 0, 0]);
    }

    /// Row-major copy of column vectors, for [`kernel_vector_in_place`].
    fn row_major(cols: &[Vec<u64>]) -> Vec<u64> {
        let rows = cols[0].len();
        (0..rows)
            .flat_map(|r| cols.iter().map(move |col| col[r]))
            .collect()
    }

    fn kernel_of(fp: &Fp, cols: &[Vec<u64>]) -> Option<Vec<u64>> {
        let mut a = row_major(cols);
        let mut x = vec![0; cols.len()];
        kernel_vector_in_place(fp, &mut a, cols.len(), &mut x).then_some(x)
    }

    // The `eliminator_*` tests cover `kernel_vector_in_place`, the
    // elimination behind the decoder's error-locator solve.
    #[test]
    fn eliminator_full_rank_has_no_kernel() {
        let fp = Fp::new(11).unwrap();
        let cols = [vec![1, 2, 3], vec![0, 1, 4], vec![5, 0, 2]];
        assert_eq!(kernel_of(&fp, &cols), None);
    }

    #[test]
    fn eliminator_zero_column_is_free() {
        let fp = Fp::new(11).unwrap();
        // A zero first column is dependent on its own.
        assert_eq!(kernel_of(&fp, &[vec![0, 0]]), Some(vec![1]));
        assert_eq!(kernel_of(&fp, &[vec![0, 0], vec![1, 1]]), Some(vec![1, 0]));
        // Later columns get zero coefficients, whatever they hold.
        let cols = [vec![2, 1, 7], vec![4, 2, 3], vec![0, 0, 5]];
        assert_eq!(kernel_of(&fp, &cols), Some(vec![9, 1, 0]));
    }

    /// `A v = 0` checked literally for a kernel vector over the original
    /// (pre-elimination) columns.
    fn assert_in_kernel(fp: &Fp, cols: &[Vec<u64>], v: &[u64]) {
        let rows = cols[0].len();
        for r in 0..rows {
            let mut acc = 0;
            for (c, col) in cols.iter().enumerate() {
                acc = fp.add(acc, fp.mul(col[r], v[c]));
            }
            assert_eq!(acc, 0, "row {r} not annihilated");
        }
    }

    proptest! {
        /// Whenever a kernel vector is offered it must annihilate every
        /// original column; `None` only for independent columns, as a
        /// from-scratch rank count via [`solve`]'s elimination confirms.
        #[test]
        fn eliminator_kernel_vectors_are_kernel_vectors(
            seed in 0u64..400,
            rows in 1usize..6,
            ncols in 1usize..8,
        ) {
            let fp = Fp::new(101).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<Vec<u64>> = (0..ncols)
                .map(|_| (0..rows).map(|_| rng.random_range(0..101)).collect())
                .collect();
            match kernel_of(&fp, &cols) {
                Some(v) => {
                    // Normalized: the dependent column's variable is the
                    // last nonzero one, and it is 1.
                    prop_assert_eq!(v.iter().rev().find(|&&x| x != 0), Some(&1));
                    assert_in_kernel(&fp, &cols, &v);
                }
                None => {
                    // Independent columns: each one is outside the span of
                    // the ones before it, so `A x = col_k` over the first
                    // k columns is inconsistent.
                    prop_assert!(ncols <= rows);
                    for k in 1..ncols {
                        let a: Vec<Vec<u64>> =
                            (0..rows).map(|r| (0..k).map(|c| cols[c][r]).collect()).collect();
                        prop_assert_eq!(solve(&fp, a, cols[k].clone(), k), None);
                    }
                }
            }
        }
    }

    proptest! {
        /// Random consistent systems are solved: we generate x and A, then
        /// compute b = A x, so a solution must exist (not necessarily x).
        #[test]
        fn random_consistent_systems(seed in 0u64..500, rows in 1usize..7, cols in 1usize..7) {
            let fp = Fp::new(101).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let a: Vec<Vec<u64>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0..101)).collect())
                .collect();
            let x: Vec<u64> = (0..cols).map(|_| rng.random_range(0..101)).collect();
            let b: Vec<u64> = a
                .iter()
                .map(|row| row.iter().zip(&x).fold(0, |acc, (&c, &xi)| fp.add(acc, fp.mul(c, xi))))
                .collect();
            let sol = solve(&fp, a.clone(), b.clone(), cols).expect("constructed consistent");
            // Verify the returned vector actually satisfies the system.
            for (row, &rhs) in a.iter().zip(&b) {
                let lhs = row.iter().zip(&sol).fold(0, |acc, (&c, &xi)| fp.add(acc, fp.mul(c, xi)));
                prop_assert_eq!(lhs, rhs);
            }
        }
    }
}
