//! `serve_mixed`: the operator service under an open-loop traffic mix.
//! Reads hit three pre-warmed hot operators; every tenth burst asks for a
//! never-seen operator, which the `build` closure constructs and factors for
//! real. Timed: one replay of the traffic through `ServeSim::run`.

use crate::hss::shift_diag;
use crate::probe::{Probe, TracedGen, TracedOp};
use crate::{
    fingerprint, line_points, stage, within, Layers, Rep, SetupLog, Stopwatch, Workload, MIB,
};
use h2_core::{sketch_construct, SketchConfig, SketchStats};
use h2_dense::{gaussian_mat, LinOp, Mat};
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::{direct_construct, DirectConfig};
use h2_runtime::{DeviceModel, PipelineMode, Runtime};
use h2_serve::{AdmissionPolicy, CachedOperator, OpKey, Request, ServeConfig, ServeSim};
use h2_solve::UlvFactor;
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

const N: usize = 8192;
const LEAF: usize = 32;
const SHIFT: f64 = 0.1;
const SAMPLER_TOL: f64 = 1e-10;
const BUILD_TOL: f64 = 1e-9;
/// Virtual devices of the serving fabric: one per host core.
const DEVICES: usize = 2;
/// Hot operators, pre-built in set-up.
const HOT: usize = 3;
/// The keys of one burst's requests: hot-key popularity 7/12, 4/12, 1/12.
const BURST_KEYS: [u64; 12] = [0, 1, 0, 0, 1, 0, 2, 0, 1, 0, 1, 0];
/// The cache budget holds this many operators.
const BUDGET_OPS: usize = 4;
const BURSTS: usize = 40;
/// Modeled seconds between bursts (open loop: arrivals follow the schedule
/// whatever the service does).
const BURST_GAP: f64 = 2e-3;
/// Every this-many bursts, one request names a never-seen operator.
const COLD_EVERY: usize = 10;
const MAX_WIDTH: usize = 4;
/// Responses per replay whose residual is checked against their operator.
const SAMPLED: usize = 6;
const RESIDUAL_TOL: f64 = 1e-8;

/// Operators the `build` closure made, with their construction statistics.
#[derive(Default)]
struct BuildLog {
    stats: Vec<SketchStats>,
    built: BTreeMap<u64, CachedOperator>,
}

pub struct ServeMixed {
    seed: u64,
    hot: Vec<CachedOperator>,
    budget: usize,
}

fn key(index: u64) -> OpKey {
    OpKey::from_hash("exp1d", index, BUILD_TOL)
}

/// Construct and factor the operator of geometry `index`: a direct H2
/// serves as the sampler of the sketching construction, whose result is
/// shifted and ULV-factored.
fn build_op(
    index: u64,
    probe: Option<&Probe>,
    log: Option<&mut SetupLog>,
) -> (CachedOperator, SketchStats) {
    let pts = line_points(N, 2.0 * index as f64);
    let (tree, tree_s) = stage(probe, "tree", "build", || {
        Arc::new(ClusterTree::build(&pts, LEAF))
    });
    let (part, part_s) = stage(probe, "tree", "partition", || {
        Arc::new(Partition::build(&tree, Admissibility::Weak))
    });
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let dcfg = DirectConfig {
        tol: SAMPLER_TOL,
        ..Default::default()
    };
    let (sampler, direct_s) = stage(probe, "matrix", "direct_build", || {
        direct_construct(&km, tree.clone(), part.clone(), &dcfg)
    });
    if let Some(log) = log {
        log.record("tree.build_s", tree_s);
        log.record("tree.partition_s", part_s);
        log.record("matrix.direct_build_s", direct_s);
        log.record_partition(&tree, &part);
    }
    let cfg = SketchConfig {
        tol: BUILD_TOL,
        initial_samples: 64,
        max_rank: 96,
        ..Default::default()
    };
    let rt = Runtime::parallel();
    let (mut h2, stats) = match probe {
        None => sketch_construct(&sampler, &km, tree, part, &rt, &cfg),
        Some(p) => {
            let op = TracedOp::new(&sampler, p, "matrix", sampler.memory_bytes());
            let gen = TracedGen::new(&km, p);
            p.time("core", "construct", || {
                sketch_construct(&op, &gen, tree, part, &rt, &cfg)
            })
        }
    };
    shift_diag(&mut h2, SHIFT);
    let (ulv, _) = stage(probe, "solve", "factor", || UlvFactor::new(&h2));
    let ulv = ulv.expect("the shifted operator is nonsingular");
    let op = CachedOperator {
        h2: Arc::new(h2),
        ulv: Arc::new(ulv),
    };
    (op, stats)
}

/// The open-loop traffic. Every burst holds the same requests, so every
/// seed asks for the same work: `BURST_KEYS` in order with widths 1, 2, 3,
/// 4 repeating, and on every `COLD_EVERY`-th burst the first key-0 request
/// turned into a never-seen key. The seed draws the right-hand sides.
fn traffic(seed: u64) -> Vec<Request> {
    let mut requests = Vec::new();
    for burst in 0..BURSTS {
        let arrival = burst as f64 * BURST_GAP;
        let mut keys = BURST_KEYS;
        if burst % COLD_EVERY == COLD_EVERY - 1 {
            keys[0] = (HOT + burst / COLD_EVERY) as u64;
        }
        for (slot, index) in keys.into_iter().enumerate() {
            let width = 1 + slot % MAX_WIDTH;
            let id = requests.len() as u64;
            requests.push(Request {
                id,
                key: key(index),
                arrival,
                rhs: request_rhs(seed, id, width),
            });
        }
    }
    requests
}

fn request_rhs(seed: u64, id: u64, width: usize) -> Mat {
    gaussian_mat(N, width, seed ^ (id << 20) ^ 0x5E17)
}

impl Workload for ServeMixed {
    fn setup(seed: u64, log: &mut SetupLog) -> Self {
        let hot: Vec<CachedOperator> = (0..HOT as u64)
            .map(|i| build_op(i, None, Some(log)).0)
            .collect();
        let budget = hot.iter().map(|o| o.memory_bytes()).max().unwrap_or(0) * BUDGET_OPS;
        ServeMixed { seed, hot, budget }
    }

    fn run(&mut self, probe: Option<&Probe>) -> Rep {
        let log = RefCell::new(BuildLog::default());
        let cfg = ServeConfig {
            devices: DEVICES,
            mode: PipelineMode::Pipelined,
            model: DeviceModel::default(),
            policy: AdmissionPolicy {
                max_batch: 32,
                max_wait: 2e-4,
            },
            cache_budget_bytes: self.budget,
        };
        let hot = &self.hot;
        let mut sim = ServeSim::new(cfg, |k: &OpKey| {
            if let Some(op) = hot.get(k.geometry as usize) {
                return op.clone();
            }
            let (op, stats) = match probe {
                Some(p) => p.time("serve", "build", || build_op(k.geometry, Some(p), None)),
                None => build_op(k.geometry, None, None),
            };
            let mut l = log.borrow_mut();
            l.stats.push(stats);
            l.built.insert(k.geometry, op.clone());
            op
        });
        // Warm the cache with the pre-built hot operators, outside the timing.
        let warm: Vec<Request> = (0..HOT as u64)
            .map(|i| Request {
                id: u64::MAX - i,
                key: key(i),
                arrival: 0.0,
                rhs: gaussian_mat(N, 1, i),
            })
            .collect();
        sim.run(warm);
        let before = (
            sim.cache().hits(),
            sim.cache().misses(),
            sim.cache().evictions(),
        );

        let requests = traffic(self.seed);
        let inputs: BTreeMap<u64, (u64, usize)> = requests
            .iter()
            .map(|r| (r.id, (r.key.geometry, r.width())))
            .collect();
        let watch = Stopwatch::start();
        let (responses, report) = match probe {
            None => sim.run(requests),
            Some(p) => p.time("serve", "run", || sim.run(requests)),
        };
        let (seconds, cpu_seconds) = (watch.wall_s(), watch.cpu_s());
        let hits = sim.cache().hits() - before.0;
        let misses = sim.cache().misses() - before.1;
        let evictions = sim.cache().evictions() - before.2;
        let resident = sim.cache().total_bytes();
        drop(sim);

        // Every request answered exactly once, transfer bytes equal to the
        // simulator's, and sampled answers solve their operator.
        let mut answered: Vec<u64> = responses.iter().map(|r| r.id).collect();
        answered.sort_unstable();
        answered.dedup();
        let duplicates = (responses.len() - answered.len()) as u64;
        let attempted = inputs.len() as u64;
        let unanswered =
            attempted - answered.iter().filter(|id| inputs.contains_key(id)).count() as u64;
        let mut failed = unanswered + duplicates;
        if !report.bytes_equal {
            failed += 1;
        }
        let log = log.borrow();
        let stride = (responses.len() / SAMPLED).max(1);
        for resp in responses.iter().step_by(stride) {
            let (index, width) = inputs[&resp.id];
            let rhs = request_rhs(self.seed, resp.id, width);
            let op = self
                .hot
                .get(index as usize)
                .or_else(|| log.built.get(&index))
                .expect("every served key was built");
            let mut r = op.h2.apply_mat(&resp.x);
            for (ri, bi) in r.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
                *ri -= bi;
            }
            if !within(r.norm_fro(), RESIDUAL_TOL * rhs.norm_fro()) {
                failed += 1;
            }
        }

        let mut xs = Vec::new();
        for resp in &responses {
            xs.extend_from_slice(resp.x.as_slice());
            xs.push(resp.latency);
        }
        let fp = vec![
            fingerprint(&xs),
            report.solve_bytes,
            report.batches as u64,
            report.p50_latency.to_bits(),
            report.p99_latency.to_bits(),
        ];

        let mut layers: Layers = vec![
            ("serve.p50_modeled_s", report.p50_latency),
            ("serve.p99_modeled_s", report.p99_latency),
            ("serve.solve_bytes", report.solve_bytes as f64),
            ("serve.bytes_equal", f64::from(u8::from(report.bytes_equal))),
            ("serve.cache_mib", resident as f64 / MIB),
        ];
        if let Some(p) = probe {
            let build_s = p.seconds("serve.build_ns");
            let sweep_s = seconds - build_s;
            let construct_s = p.seconds("core.construct_ns");
            let apply_s = p.seconds("matrix.apply_ns");
            let entry_s = p.seconds("kernels.entry_ns");
            layers.extend(crate::matrix_layers(p));
            layers.extend(crate::kernel_layers(p));
            layers.extend(crate::core_layers(
                &log.stats,
                construct_s,
                apply_s,
                entry_s,
            ));
            layers.extend([
                ("solve.factor_s", p.seconds("solve.factor_ns")),
                ("serve.rhs_per_s", report.total_rhs as f64 / seconds),
                ("serve.batches", report.batches as f64),
                ("serve.mean_width", report.mean_batch_width),
                (
                    "serve.hit_ratio",
                    hits as f64 / (hits + misses).max(1) as f64,
                ),
                ("serve.evictions", evictions as f64),
                ("serve.builds", log.stats.len() as f64),
                ("serve.build_s", build_s),
                ("serve.sweep_s", sweep_s),
                (
                    "serve.sweep_ms_per_batch",
                    sweep_s * 1e3 / report.batches.max(1) as f64,
                ),
            ]);
        }
        Rep {
            seconds,
            cpu_seconds,
            fingerprint: fp,
            attempted,
            failed,
            layers,
        }
    }
}
