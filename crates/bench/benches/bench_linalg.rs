//! Benchmarks for the exact linear-algebra substrate.

use anonet_bench::experiments::linalg_scaling::{mr_levels, push_mr_level};
use anonet_bench::experiments::modp_scaling::push_modp_level;
use anonet_linalg::{gauss, CrtKernelTracker, KernelTracker, Matrix, ModpKernelTracker, Ratio};
use anonet_multigraph::system;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn dense_m_r(r: usize) -> Matrix {
    system::observation_matrix(r)
        .expect("matrix builds")
        .to_dense()
        .expect("densifies")
}

fn bench_rref(c: &mut Criterion) {
    let mut g = c.benchmark_group("rational_rref_M_r");
    g.sample_size(10);
    for r in [0usize, 1, 2, 3] {
        let m = dense_m_r(r);
        g.bench_with_input(BenchmarkId::from_parameter(r), &m, |b, m| {
            b.iter(|| gauss::rref(black_box(m)).expect("exact"))
        });
    }
    g.finish();
}

fn bench_kernel_basis(c: &mut Criterion) {
    let mut g = c.benchmark_group("rational_kernel_basis_M_r");
    g.sample_size(10);
    for r in [1usize, 2, 3] {
        let m = dense_m_r(r);
        g.bench_with_input(BenchmarkId::from_parameter(r), &m, |b, m| {
            b.iter(|| gauss::kernel_basis(black_box(m)).expect("exact"))
        });
    }
    g.finish();
}

fn bench_sparse_product(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_Mr_times_kr");
    g.sample_size(10);
    for r in [4usize, 6, 8] {
        let m = system::observation_matrix(r).expect("matrix builds");
        let k = system::kernel_vector(r);
        g.bench_with_input(BenchmarkId::from_parameter(r), &(m, k), |b, (m, k)| {
            b.iter(|| m.mul_vec(black_box(k)).expect("exact"))
        });
    }
    g.finish();
}

fn bench_incremental_vs_batch(c: &mut Criterion) {
    // The whole M_0..M_r trajectory: batch reruns rref per round,
    // incremental reduces only the appended rows (`exp_linalg_scaling`
    // measures the same contrast over a larger grid).
    let mut g = c.benchmark_group("kernel_trajectory_M_r");
    g.sample_size(10);
    for r in [1usize, 2, 3] {
        let dense: Vec<Matrix> = (0..=r).map(dense_m_r).collect();
        g.bench_with_input(BenchmarkId::new("batch", r), &dense, |b, dense| {
            b.iter(|| {
                for m in dense {
                    black_box(gauss::rref(black_box(m)).expect("exact"));
                }
            })
        });
        let levels = mr_levels(r);
        g.bench_with_input(BenchmarkId::new("incremental", r), &levels, |b, levels| {
            b.iter(|| {
                let mut k = KernelTracker::new(1);
                for rows in levels {
                    push_mr_level(&mut k, rows);
                    black_box(k.nullity());
                }
            })
        });
    }
    g.finish();
}

fn bench_tracker_append(c: &mut Criterion) {
    // Cost of one append against an established echelon.
    let m3 = dense_m_r(3);
    c.bench_function("tracker_append_row_M_3", |b| {
        let mut base = KernelTracker::new(m3.cols());
        base.append_matrix(&m3).expect("seed echelon");
        let row: Vec<i64> = (0..m3.cols() as i64).map(|i| i % 3 - 1).collect();
        b.iter(|| {
            let mut t = base.clone();
            black_box(t.append_row_i64(black_box(&row)).expect("append"));
        })
    });
}

fn bench_ratio_ops(c: &mut Criterion) {
    let xs: Vec<Ratio> = (1..200)
        .map(|i| Ratio::new(i, (i % 17) + 1).expect("valid"))
        .collect();
    c.bench_function("ratio_sum_200", |b| {
        b.iter(|| black_box(&xs).iter().copied().sum::<Ratio>())
    });
    c.bench_function("ratio_checked_sum_200", |b| {
        b.iter(|| Ratio::checked_sum(black_box(&xs).iter().copied()).expect("no overflow"))
    });
}

fn bench_modp_tracker(c: &mut Criterion) {
    // The mod-p fast path against the exact tracker on the same M_0..M_r
    // append trajectory (`exp_modp_scaling` measures the larger grid).
    let mut g = c.benchmark_group("modp_trajectory_M_r");
    g.sample_size(10);
    for r in [2usize, 3, 4] {
        let levels = mr_levels(r);
        g.bench_with_input(BenchmarkId::new("exact", r), &levels, |b, levels| {
            b.iter(|| {
                let mut k = KernelTracker::new(1);
                for rows in levels {
                    push_mr_level(&mut k, rows);
                    black_box(k.nullity());
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("modp", r), &levels, |b, levels| {
            b.iter(|| {
                let mut k = ModpKernelTracker::new(1);
                for rows in levels {
                    push_modp_level(&mut k, rows);
                    black_box(k.nullity());
                }
            })
        });
    }
    g.finish();

    // Raw tracker append against an established mod-p echelon.
    let m3 = dense_m_r(3);
    c.bench_function("modp_tracker_append_row_M_3", |b| {
        let mut base = ModpKernelTracker::new(m3.cols());
        for i in 0..m3.rows() {
            let row: Vec<i64> = m3
                .row(i)
                .iter()
                .map(|x| i64::try_from(x.numer()).expect("0/1 entries"))
                .collect();
            base.append_row_i64(&row).expect("seed echelon");
        }
        let row: Vec<i64> = (0..m3.cols() as i64).map(|i| i % 3 - 1).collect();
        b.iter(|| {
            let mut t = base.clone();
            black_box(t.append_row_i64(black_box(&row)).expect("append"));
        })
    });
}

/// Seeded low-rank trajectory, same construction as `exp_modp_scaling`.
fn low_rank_rows(n: usize, cols: usize, rank: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let basis: Vec<Vec<i64>> = (0..rank)
        .map(|_| (0..cols).map(|_| rng.gen_range(-1i64..=1)).collect())
        .collect();
    (0..n)
        .map(|_| {
            let mut row = vec![0i64; cols];
            for _ in 0..3 {
                let b = rng.gen_range(0..rank);
                let c = rng.gen_range(-1i64..=1);
                for (x, y) in row.iter_mut().zip(&basis[b]) {
                    *x += c * *y;
                }
            }
            row
        })
        .collect()
}

fn bench_fused_vs_scalar(c: &mut Criterion) {
    // The delayed-reduction fused append path (MontPrime::accumulate4 /
    // fold_sub) against the scalar reference elimination, on the dense
    // low-rank regime the `fast` family of `exp_modp_scaling` gates.
    let mut g = c.benchmark_group("modp_fused_vs_scalar");
    g.sample_size(10);
    for n in [1_000usize, 4_000] {
        let rows = low_rank_rows(n, 81, 40, 808);
        g.bench_with_input(BenchmarkId::new("scalar", n), &rows, |b, rows| {
            b.iter(|| {
                let mut t = ModpKernelTracker::new(81);
                for row in rows {
                    t.append_row_scalar_i64(black_box(row)).expect("append");
                }
                black_box(t.rank());
            })
        });
        g.bench_with_input(BenchmarkId::new("fused", n), &rows, |b, rows| {
            b.iter(|| {
                let mut t = ModpKernelTracker::new(81);
                for row in rows {
                    t.append_row_i64(black_box(row)).expect("append");
                }
                black_box(t.rank());
            })
        });
    }
    g.finish();
}

fn bench_crt_tracker(c: &mut Criterion) {
    // Three-lane maintenance plus on-demand CRT certification, against
    // the one-lane tracker.
    let mut g = c.benchmark_group("crt_vs_modp_trajectory");
    g.sample_size(10);
    for n in [500usize, 2_000] {
        let rows = low_rank_rows(n, 81, 24, 909);
        g.bench_with_input(BenchmarkId::new("modp", n), &rows, |b, rows| {
            b.iter(|| {
                let mut t = ModpKernelTracker::new(81);
                for row in rows {
                    t.append_row_i64(black_box(row)).expect("append");
                }
                black_box(t.rank());
            })
        });
        g.bench_with_input(BenchmarkId::new("crt", n), &rows, |b, rows| {
            b.iter(|| {
                let mut t = CrtKernelTracker::new(81);
                for row in rows {
                    t.append_row_i64(black_box(row)).expect("append");
                }
                black_box(t.rank());
            })
        });
        g.bench_with_input(BenchmarkId::new("crt_certify", n), &rows, |b, rows| {
            let mut t = CrtKernelTracker::new(81);
            for row in rows {
                t.append_row_i64(row).expect("append");
            }
            b.iter(|| black_box(&t).certify().expect("certifies"))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_rref,
    bench_kernel_basis,
    bench_sparse_product,
    bench_incremental_vs_batch,
    bench_tracker_append,
    bench_ratio_ops,
    bench_modp_tracker,
    bench_fused_vs_scalar,
    bench_crt_tracker
);
criterion_main!(benches);
