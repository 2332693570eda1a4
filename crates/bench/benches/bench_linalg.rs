//! Benchmarks for the exact linear-algebra substrate.

use anonet_bench::experiments::linalg_scaling::{mr_levels, push_mr_level};
use anonet_linalg::{gauss, KernelTracker, Matrix, Ratio};
use anonet_multigraph::system;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

criterion_group!(
    benches,
    bench_rref,
    bench_kernel_basis,
    bench_sparse_product,
    bench_incremental_vs_batch,
    bench_tracker_append,
    bench_ratio_ops
);
criterion_main!(benches);
