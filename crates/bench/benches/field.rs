//! Substrate micro-benchmarks: the field/coding kernels the coin's recover
//! round leans on (Berlekamp–Welch dominates the per-beat cost).
//!
//! The `berlekamp_welch_batch` group is the tentpole measurement: a
//! beat-shaped batch of `n` codewords over one evaluation-point set,
//! decoded per codeword (`sequential_*`) vs through one [`BatchDecoder`]
//! (`batched_*`, decoder construction included — that is what the GVSS
//! recover round pays each beat).
//!
//! The `recover_shapes` group decodes at the two shapes the repository
//! benchmark's coin workloads run, with the decoder built once as the GVSS
//! workspace cache does.

use byzclock_field::{rs, BatchDecoder, Fp, FpElem, Poly};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn shares(fp: &Fp, f: usize, n: usize, errors: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let poly = Poly::random_with_secret(fp, fp.sample(&mut rng), f, &mut rng);
    let mut pts: Vec<(u64, u64)> = (1..=n as u64).map(|x| (x, poly.eval(fp, x))).collect();
    for p in pts.iter_mut().take(errors) {
        p.1 = fp.add(p.1, 1);
    }
    pts
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("berlekamp_welch");
    for &(n, f) in &[(4usize, 1usize), (7, 2), (13, 4)] {
        let fp = Fp::for_cluster(n);
        let clean = shares(&fp, f, n, 0, 7);
        let dirty = shares(&fp, f, n, f, 8);
        group.bench_with_input(BenchmarkId::new("clean", n), &clean, |b, pts| {
            b.iter(|| rs::decode(&fp, black_box(pts), f))
        });
        group.bench_with_input(BenchmarkId::new("f_errors", n), &dirty, |b, pts| {
            b.iter(|| rs::decode(&fp, black_box(pts), f))
        });
    }
    group.finish();
}

fn bench_interpolate(c: &mut Criterion) {
    let fp = Fp::for_cluster(13);
    let pts = shares(&fp, 4, 13, 0, 9);
    c.bench_function("lagrange_interpolate_13", |b| {
        b.iter(|| Poly::interpolate(&fp, black_box(&pts[..5])))
    });
}

/// A beat-shaped batch: `n` codewords (one per dealer) over the shared
/// point set `1..=n`, each with `errors` corrupted shares.
fn batch(fp: &Fp, f: usize, n: usize, errors: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    (0..n)
        .map(|i| shares(fp, f, n, errors, seed.wrapping_add(i as u64)))
        .collect()
}

fn bench_batch_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("berlekamp_welch_batch");
    for &(n, f) in &[(7usize, 2usize), (13, 4)] {
        let fp = Fp::for_cluster(n);
        let xs: Vec<u64> = (1..=n as u64).collect();
        for (case, errors) in [("clean", 0), ("f_errors", f)] {
            let pts = batch(&fp, f, n, errors, 7);
            let ys: Vec<Vec<u64>> = pts
                .iter()
                .map(|cw| cw.iter().map(|&(_, y)| y).collect())
                .collect();
            group.bench_with_input(
                BenchmarkId::new(format!("sequential_{case}"), n),
                &pts,
                |b, pts| {
                    b.iter(|| {
                        pts.iter()
                            .filter_map(|cw| rs::decode(&fp, black_box(cw), f))
                            .count()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("batched_{case}"), n),
                &ys,
                |b, ys| {
                    b.iter(|| {
                        let mut dec =
                            BatchDecoder::new(&fp, &xs, f).expect("distinct xs, enough points");
                        dec.decode_batch(black_box(ys))
                            .iter()
                            .filter(|p| p.is_some())
                            .count()
                    })
                },
            );
        }
    }
    group.finish();
}

/// Distinct codewords per `recover_shapes` case.
const SHAPE_CODEWORDS: usize = 256;

/// `SHAPE_CODEWORDS` distinct codewords of random degree-`degree`
/// polynomials at `1..=n`, each with `errors` distinct wrong positions.
///
/// Distinct on purpose: decoding one codeword over and over lets the
/// branch predictor learn that decode's exact branch sequence, which hides
/// the cost of data-dependent branching. On the op-log elimination decoder
/// this kernel replaced, a repeated codeword and 256 distinct ones
/// measured about 2× apart.
fn distinct_codewords(fp: &Fp, n: usize, degree: usize, errors: usize) -> Vec<Vec<FpElem>> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..SHAPE_CODEWORDS)
        .map(|_| {
            let poly = Poly::from_coeffs((0..=degree).map(|_| fp.sample(&mut rng)).collect());
            let mut ys: Vec<FpElem> = (1..=n as u64).map(|x| poly.eval(fp, x)).collect();
            let mut wrong: Vec<usize> = Vec::with_capacity(errors);
            while wrong.len() < errors {
                let i = rng.random_range(0..n);
                if !wrong.contains(&i) {
                    wrong.push(i);
                    ys[i] = fp.add(ys[i], 1 + rng.random_range(0..fp.modulus() - 1));
                }
            }
            ys
        })
        .collect()
}

/// The benchmark workloads' decode shapes, per 256-codeword pass:
/// `coin-noise` (22 points, degree 7, all 7 Byzantine shares wrong, one
/// `decode_one` per codeword) and `committee-sync` (the c = 19 committee,
/// degree 6, clean, one `decode_batch`).
fn bench_recover_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("recover_shapes");
    for (name, n, degree, errors) in [("full_rung_22_7", 22, 7, 7), ("clean_batch_19_6", 19, 6, 0)]
    {
        let fp = Fp::for_cluster(n);
        let xs: Vec<u64> = (1..=n as u64).collect();
        let codewords = distinct_codewords(&fp, n, degree, errors);
        let mut dec = BatchDecoder::new(&fp, &xs, degree).expect("distinct xs, enough points");
        group.bench_with_input(
            BenchmarkId::new(name, SHAPE_CODEWORDS),
            &codewords,
            |b, cws| {
                b.iter(|| {
                    if errors == 0 {
                        dec.decode_batch(black_box(cws)).len()
                    } else {
                        cws.iter()
                            .filter_map(|ys| dec.decode_one(black_box(ys)))
                            .count()
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decode,
    bench_batch_decode,
    bench_recover_shapes,
    bench_interpolate
);
criterion_main!(benches);
