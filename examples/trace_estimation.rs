//! Trace estimation on a compressed operator — the "trace estimation in
//! Bayesian optimization" workload from the paper's introduction, plus a
//! user-defined kernel showing how to plug custom physics into the library.
//!
//! ```sh
//! cargo run --release --example trace_estimation
//! ```

use h2sketch::dense::EntryAccess;
use h2sketch::kernels::{Kernel, KernelMatrix};
use h2sketch::matrix::{direct_construct, DirectConfig};
use h2sketch::runtime::Runtime;
use h2sketch::sketch::{sketch_construct, SketchConfig};
use h2sketch::solve::hutchinson_trace;
use h2sketch::tree::{uniform_cube, Admissibility, ClusterTree, Partition};
use std::sync::Arc;

/// A user-defined kernel: inverse multiquadric `1 / sqrt(r² + c²)`.
#[derive(Clone, Copy)]
struct InverseMultiquadric {
    c: f64,
}

impl Kernel for InverseMultiquadric {
    fn eval_r(&self, r: f64) -> f64 {
        1.0 / (r * r + self.c * self.c).sqrt()
    }

    fn diag(&self) -> f64 {
        1.0 / self.c
    }
}

fn main() {
    let n = 8192;
    let points = uniform_cube(n, 61);
    let tree = Arc::new(ClusterTree::build(&points, 64));
    let partition = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));

    let kernel = KernelMatrix::new(InverseMultiquadric { c: 0.5 }, tree.points.clone());

    // Compress with the sketching construction (sampler = reference H2).
    let reference = direct_construct(
        &kernel,
        tree.clone(),
        partition.clone(),
        &DirectConfig {
            tol: 1e-9,
            ..Default::default()
        },
    );
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 128,
        ..Default::default()
    };
    let (h2, stats) = sketch_construct(&reference, &kernel, tree.clone(), partition, &rt, &cfg);
    println!(
        "custom kernel compressed: {} samples, {:.1} MiB, ranks {:?}",
        stats.total_samples,
        h2.memory_bytes() as f64 / (1 << 20) as f64,
        h2.rank_range()
    );

    // Hutchinson trace through the O(N) matvec: tr(K) is exactly N·diag
    // for a radial kernel — a built-in ground truth.
    let exact = n as f64 * kernel.entry(0, 0);
    for probes in [8, 32, 128] {
        let est = hutchinson_trace(&h2, probes, 62);
        println!(
            "hutchinson trace, {probes:>4} probes: {est:>12.2} (exact {exact:.2}, rel dev {:.2e})",
            (est - exact).abs() / exact
        );
    }
    let est = hutchinson_trace(&h2, 128, 63);
    assert!((est - exact).abs() < 0.05 * exact, "trace estimate drifted");
}
