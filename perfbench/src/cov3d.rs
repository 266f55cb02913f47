//! `cov3d_construct`: the paper's headline case. Adaptive sketching
//! construction of a 3-D exponential covariance matrix under strong
//! admissibility, sampling a fast H2 operator built in set-up. Only
//! `sketch_construct` is timed.

use crate::probe::{Probe, TracedGen, TracedOp};
use crate::{fingerprint, within, Layers, Rep, SetupLog, Stopwatch, Workload, MIB};
use h2_core::{sketch_construct, SketchConfig};
use h2_dense::{gaussian_mat, relative_error_2, LinOp, Mat};
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::{direct_construct, DirectConfig, H2Matrix};
use h2_runtime::Runtime;
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

const N: usize = 8192;
const LEAF: usize = 32;
const ETA: f64 = 0.7;
const TOL: f64 = 1e-6;
const INITIAL_SAMPLES: usize = 128;
/// The sampler is two orders tighter than the construction, so the
/// measured error is the construction's own.
const SAMPLER_TOL: f64 = 1e-8;
/// Power iterations of the relative-error check.
const CHECK_ITERS: usize = 10;

pub struct Cov3d {
    seed: u64,
    tree: Arc<ClusterTree>,
    part: Arc<Partition>,
    km: KernelMatrix<ExponentialKernel>,
    sampler: H2Matrix,
    probe_vec: Mat,
    /// Fingerprint and measured error of the first checked construction;
    /// later constructions with the same fingerprint are the same matrix.
    checked: Option<(Vec<u64>, f64)>,
}

impl Workload for Cov3d {
    fn setup(seed: u64, log: &mut SetupLog) -> Self {
        let pts = h2_tree::uniform_cube(N, seed);
        let tree = log.time("tree.build_s", || Arc::new(ClusterTree::build(&pts, LEAF)));
        let part = log.time("tree.partition_s", || {
            Arc::new(Partition::build(&tree, Admissibility::Strong { eta: ETA }))
        });
        log.record_partition(&tree, &part);
        let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
        let cfg = DirectConfig {
            tol: SAMPLER_TOL,
            ..Default::default()
        };
        let sampler = log.time("matrix.direct_build_s", || {
            direct_construct(&km, tree.clone(), part.clone(), &cfg)
        });
        Cov3d {
            seed,
            tree,
            part,
            km,
            sampler,
            probe_vec: gaussian_mat(N, 1, seed ^ 0xF1F1),
            checked: None,
        }
    }

    fn run(&mut self, probe: Option<&Probe>) -> Rep {
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: TOL,
            initial_samples: INITIAL_SAMPLES,
            ..Default::default()
        };
        let (tree, part) = (self.tree.clone(), self.part.clone());
        let watch = Stopwatch::start();
        let (h2, stats) = match probe {
            None => sketch_construct(&self.sampler, &self.km, tree, part, &rt, &cfg),
            Some(p) => {
                let op = TracedOp::new(&self.sampler, p, "matrix", self.sampler.memory_bytes());
                let gen = TracedGen::new(&self.km, p);
                p.time("core", "construct", || {
                    sketch_construct(&op, &gen, tree, part, &rt, &cfg)
                })
            }
        };
        let (seconds, cpu_seconds) = (watch.wall_s(), watch.cpu_s());

        let y = h2.apply_mat(&self.probe_vec);
        let fp = vec![
            fingerprint(y.as_slice()),
            h2.memory_bytes() as u64,
            stats.total_samples as u64,
        ];
        let rel_err = match &self.checked {
            Some((first, err)) if *first == fp => *err,
            _ => {
                let err = relative_error_2(&self.sampler, &h2, CHECK_ITERS, self.seed);
                self.checked.get_or_insert((fp.clone(), err));
                err
            }
        };
        let failed = u64::from(!within(rel_err, TOL));

        let mut layers: Layers = vec![
            ("core.rel_err", rel_err),
            ("matrix.h2_mib", h2.memory_bytes() as f64 / MIB),
        ];
        if let Some(p) = probe {
            let apply_s = p.seconds("matrix.apply_ns");
            let entry_s = p.seconds("kernels.entry_ns");
            layers.extend(crate::matrix_layers(p));
            layers.extend(crate::kernel_layers(p));
            layers.extend(crate::core_layers(&[stats], seconds, apply_s, entry_s));
        }
        Rep {
            seconds,
            cpu_seconds,
            fingerprint: fp,
            attempted: 1,
            failed,
            layers,
        }
    }
}
