//! Criterion bench over the real matmul kernels — the calibration basis
//! connecting Rust kernel time to the paper's NumPy task time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use swf_simcore::DetRng;
use swf_workloads::{matmul, Kernel, Matrix};

fn kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for dim in [64usize, 128, 350] {
        let mut rng = DetRng::new(7, "bench");
        let a = Matrix::random(dim, dim, &mut rng, -100, 100);
        let b = Matrix::random(dim, dim, &mut rng, -100, 100);
        group.sample_size(10);
        for kernel in [Kernel::Naive, Kernel::Blocked] {
            // Naive at 350 is slow; skip to keep bench time sane.
            if dim == 350 && kernel == Kernel::Naive {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{kernel:?}"), dim),
                &dim,
                |bch, _| bch.iter(|| matmul(&a, &b, kernel).checksum()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, kernels);
criterion_main!(benches);
