//! Direct calls into the field crate's decoder at the shapes the two
//! coin workloads decode, so the recover round's time can be split into
//! decode and the rest.
//!
//! - `coin-noise`: n = 22 points, degree f = 7, and all seven Byzantine
//!   points wrong — every codeword takes the full-budget rung of the
//!   Berlekamp–Welch ladder.
//! - `committee-sync`: the c = 19 committee, degree f_c = 6, clean
//!   codewords decoded as one batch — the fast path.
//!
//! Each decode is checked against the polynomial that made the codeword.

use byzclock_coin::committee_fault_budget;
use byzclock_field::{BatchDecoder, Fp, FpElem, Poly};
use byzclock_sim::SimRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Codewords per replay batch.
const CODEWORDS: usize = 256;
/// Minimum timed decode time per replay.
const MIN_TIMED_NS: u128 = 100_000_000;

/// ns per codeword through `BatchDecoder::decode_one` with `f` errors.
pub fn ladder_ns_per_codeword(seed: u64) -> Result<f64, String> {
    replay(22, 7, 7, seed, false)
}

/// ns per codeword through `BatchDecoder::decode_batch`, error-free.
pub fn batch_ns_per_codeword(seed: u64) -> Result<f64, String> {
    replay(19, committee_fault_budget(19), 0, seed, true)
}

fn replay(n: usize, degree: usize, errors: usize, seed: u64, batch: bool) -> Result<f64, String> {
    let fp = Fp::for_cluster(n);
    let xs: Vec<FpElem> = (1..=n as u64).collect();
    let mut decoder =
        BatchDecoder::new(&fp, &xs, degree).ok_or("decoder shape rejected by the field crate")?;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut polys = Vec::with_capacity(CODEWORDS);
    let mut codewords = Vec::with_capacity(CODEWORDS);
    for _ in 0..CODEWORDS {
        let poly = Poly::from_coeffs((0..=degree).map(|_| fp.sample(&mut rng)).collect());
        let mut ys: Vec<FpElem> = xs.iter().map(|&x| poly.eval(&fp, x)).collect();
        let mut wrong = Vec::with_capacity(errors);
        while wrong.len() < errors {
            let i = rng.random_range(0..n);
            if !wrong.contains(&i) {
                wrong.push(i);
                ys[i] = fp.add(ys[i], 1 + rng.random_range(0..fp.modulus() - 1));
            }
        }
        polys.push(poly);
        codewords.push(ys);
    }
    let decode_all = |decoder: &mut BatchDecoder| -> Vec<Option<Poly>> {
        if batch {
            decoder.decode_batch(&codewords)
        } else {
            codewords.iter().map(|ys| decoder.decode_one(ys)).collect()
        }
    };
    // The first pass builds the cached factorizations, as the first beat
    // of a run does, and checks every decode.
    let first = decode_all(&mut decoder);
    if first
        .iter()
        .zip(&polys)
        .any(|(got, want)| got.as_ref() != Some(want))
    {
        return Err(format!(
            "field replay decoded a wrong polynomial (n={n} degree={degree} errors={errors})"
        ));
    }
    let (mut decoded, t0) = (0usize, Instant::now());
    while t0.elapsed().as_nanos() < MIN_TIMED_NS {
        decoded += std::hint::black_box(decode_all(&mut decoder)).len();
    }
    Ok(t0.elapsed().as_nanos() as f64 / decoded as f64)
}
