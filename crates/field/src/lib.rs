//! Prime-field arithmetic and coding-theory primitives for the `byzclock`
//! common coin.
//!
//! The PODC'08 clock-synchronization stack plugs in a Feldman–Micali-style
//! common coin built from verifiable secret sharing over a small prime field
//! `F_p` with `p > n` (Remark 2.3 of the paper: the constants are "part of
//! the code" — we use the smallest prime larger than `n`). This crate
//! supplies everything that layer needs:
//!
//! - [`Fp`]: a dynamic-modulus prime field with element type [`FpElem`].
//!   Moduli fit in 32 bits, so products fit in a `u64`: multiplication is
//!   one multiply plus an exact Barrett reduction, and inner products
//!   (`Fp::dot`) reduce once per row instead of once per term,
//! - [`Poly`]: univariate polynomials (evaluation, Lagrange interpolation,
//!   arithmetic, division),
//! - [`SymmetricBivariate`]: symmetric bivariate polynomials used by the
//!   graded VSS dealing phase,
//! - [`linalg`]: Gaussian elimination over `F_p` — a general solver and the
//!   small kernel-vector solve the decoder's key equation needs,
//! - [`rs`]: Reed–Solomon decoding via the Berlekamp–Welch algorithm, which
//!   lets the coin's recover round tolerate up to `f` corrupted shares.
//!   The decoder works in syndrome form: per evaluation-point set it
//!   precomputes the dual-GRS weights `v_i·x_i^m` (with
//!   `v_i = 1 / ∏_{j≠i} (x_i − x_j)`); per codeword it computes
//!   `n − d − 1` syndromes, which are all zero exactly on codewords, and
//!   otherwise reads the error locator off the kernel of the small Hankel
//!   matrix `H[t][k] = s_{t+k}` — the Berlekamp–Welch key equation with
//!   the `Q` unknowns eliminated. The codeword within budget is unique, so
//!   the one-shot ([`rs::decode`]) and the batched ([`BatchDecoder`], the
//!   per-beat GVSS recover shape) paths return the same polynomial; the
//!   [`rs`] module docs carry the derivation and the uniqueness argument.
//!
//! # Example
//!
//! ```
//! use byzclock_field::{Fp, Poly, rs};
//!
//! # fn main() -> Result<(), byzclock_field::FieldError> {
//! let fp = Fp::new(11)?; // smallest prime > n for n = 10
//! // Share the secret 7 with a degree-2 polynomial: p(x) = 7 + 3x + 5x^2.
//! let poly = Poly::from_coeffs(vec![7, 3, 5]);
//! let mut shares: Vec<(u64, u64)> = (1..=7).map(|x| (x, poly.eval(&fp, x))).collect();
//! shares[0].1 = 9; // one corrupted share
//! shares[3].1 = 0; // two corrupted shares
//! let decoded = rs::decode(&fp, &shares, 2).expect("2 errors are within budget");
//! assert_eq!(decoded.eval(&fp, 0), 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bivariate;
mod error;
mod fp;
mod poly;
mod primes;

pub mod linalg;
pub mod rs;

pub use bivariate::SymmetricBivariate;
pub use error::FieldError;
pub use fp::{Fp, FpElem};
pub use poly::Poly;
pub use primes::{is_prime, smallest_prime_above};
pub use rs::BatchDecoder;
