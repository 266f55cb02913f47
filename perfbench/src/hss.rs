//! `hss_pcg_solve`: time to a stated accuracy for a kernel system with a
//! nugget. A 1-D exponential kernel plus a diagonal shift under weak
//! admissibility; the operator is an accurate direct H2, the preconditioner
//! the ULV factor of a loose sketched H2 of that operator. Timed: the
//! factorization, single-RHS PCG solves and one blocked PCG solve.

use crate::probe::{Probe, TracedOp, TracedPrec};
use crate::{fingerprint, line_points, within, Layers, Rep, SetupLog, Stopwatch, Workload, MIB};
use h2_core::{sketch_construct, SketchConfig};
use h2_dense::{gaussian_mat, LinOp, Mat};
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::{direct_construct, DirectConfig, H2Matrix};
use h2_runtime::Runtime;
use h2_solve::{block_pcg, pcg, Preconditioner, UlvFactor};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 65536;
const LEAF: usize = 32;
const SHIFT: f64 = 0.1;
const OPERATOR_TOL: f64 = 1e-11;
const PRECOND_TOL: f64 = 1e-4;
/// Single-RHS solves per repetition, on the first columns of the blocked
/// right-hand side.
const K1: usize = 4;
const K_BLOCK: usize = 16;
/// The stated accuracy: every column's true residual `‖b − A x‖/‖b‖` on A.
const ACCURACY: f64 = 1e-10;
/// PCG stops on its recursively updated residual, which drifts from the
/// true one by a few percent; stopping at half the stated accuracy makes
/// every column meet it.
const RTOL: f64 = 0.5 * ACCURACY;
const MAX_ITERS: usize = 200;

pub struct HssSolve {
    a: H2Matrix,
    prec: H2Matrix,
    b: Mat,
}

/// Add `sigma` to the diagonal of the stored dense diagonal blocks.
pub fn shift_diag(h2: &mut H2Matrix, sigma: f64) {
    for i in 0..h2.dense.pairs.len() {
        let (s, t) = h2.dense.pairs[i];
        if s == t {
            let blk = &mut h2.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += sigma;
            }
            h2.dense.resync_demoted(i);
        }
    }
}

impl Workload for HssSolve {
    fn setup(seed: u64, log: &mut SetupLog) -> Self {
        let pts = line_points(N, 0.0);
        let tree = log.time("tree.build_s", || Arc::new(ClusterTree::build(&pts, LEAF)));
        let part = log.time("tree.partition_s", || {
            Arc::new(Partition::build(&tree, Admissibility::Weak))
        });
        log.record_partition(&tree, &part);
        let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
        let dcfg = DirectConfig {
            tol: OPERATOR_TOL,
            ..Default::default()
        };
        let mut a = log.time("matrix.direct_build_s", || {
            direct_construct(&km, tree.clone(), part.clone(), &dcfg)
        });
        let scfg = SketchConfig {
            tol: PRECOND_TOL,
            ..Default::default()
        };
        let (mut prec, _) = sketch_construct(&a, &km, tree, part, &Runtime::parallel(), &scfg);
        shift_diag(&mut a, SHIFT);
        shift_diag(&mut prec, SHIFT);
        HssSolve {
            a,
            prec,
            b: gaussian_mat(N, K_BLOCK, seed ^ 0xB10C),
        }
    }

    fn run(&mut self, probe: Option<&Probe>) -> Rep {
        let traced_a = probe.map(|p| TracedOp::new(&self.a, p, "matrix", self.a.memory_bytes()));
        let a: &dyn LinOp = match &traced_a {
            Some(t) => t,
            None => &self.a,
        };

        let watch = Stopwatch::start();
        let ulv = match probe {
            None => UlvFactor::new(&self.prec),
            Some(p) => p.time("solve", "factor", || UlvFactor::new(&self.prec)),
        }
        .expect("the shifted preconditioner is nonsingular");
        let factor_s = watch.wall_s();

        let traced_m = probe.map(|p| TracedPrec::new(&ulv, p));
        let m: &dyn Preconditioner = match &traced_m {
            Some(t) => t,
            None => &ulv,
        };
        let t1 = Instant::now();
        let singles: Vec<_> = (0..K1)
            .map(|j| pcg(a, m, self.b.col(j), MAX_ITERS, RTOL))
            .collect();
        let k1_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let block = block_pcg(a, m, &self.b, MAX_ITERS, RTOL);
        let k16_s = t2.elapsed().as_secs_f64();
        let (seconds, cpu_seconds) = (watch.wall_s(), watch.cpu_s());

        // Every column must reach the stated accuracy on A itself.
        let mut residuals: Vec<f64> = singles.iter().map(|r| r.relative_residual).collect();
        residuals.extend(&block.relative_residual);
        let failed = residuals.iter().filter(|&&r| !within(r, ACCURACY)).count() as u64;

        let mut fp: Vec<u64> = singles.iter().map(|r| fingerprint(&r.x)).collect();
        fp.push(fingerprint(block.x.as_slice()));
        fp.extend(singles.iter().map(|r| r.iterations as u64));
        fp.extend(block.iterations.iter().map(|&i| i as u64));

        let residual_max = residuals.iter().copied().fold(0.0, f64::max);
        let mut layers: Layers = vec![
            ("solve.residual_max", residual_max),
            ("solve.ulv_mib", ulv.memory_bytes() as f64 / MIB),
        ];
        if let Some(p) = probe {
            let iters_k1 = singles.iter().map(|r| r.iterations).sum::<usize>() as f64 / K1 as f64;
            let iters_k16 = block.iterations.iter().copied().max().unwrap_or(0) as f64;
            let solve_s = k1_s + k16_s;
            layers.extend(crate::matrix_layers(p));
            layers.extend([
                ("solve.factor_s", factor_s),
                ("solve.factor_gflops", ulv.factor_flops() / factor_s * 1e-9),
                ("solve.k1_s", k1_s / K1 as f64),
                ("solve.k16_s", k16_s),
                ("solve.precond_calls", p.count("solve.precond_calls") as f64),
                ("solve.precond_s", p.seconds("solve.precond_ns")),
                ("solve.iters_k1", iters_k1),
                ("solve.iters_k16", iters_k16),
                (
                    "solve.krylov_self_s",
                    solve_s - p.seconds("matrix.apply_ns") - p.seconds("solve.precond_ns"),
                ),
            ]);
        }
        Rep {
            seconds,
            cpu_seconds,
            fingerprint: fp,
            attempted: (K1 + K_BLOCK) as u64,
            failed,
            layers,
        }
    }
}
