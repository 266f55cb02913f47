//! Host benchmark of the construct → factor/solve → serve path.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cov3d_construct|hss_pcg_solve|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up several times from the seed (reporting the
//! median set-up time), repeats its timed operation for `--seconds`
//! (reporting its median time), checks every output, and prints one metric
//! per line followed by a final JSON line. With `--trace 0` the JSON holds
//! the end-to-end metrics; with `--trace 1` untraced repetitions alternate
//! with repetitions traced through the wrappers of [`probe`], the traced
//! outputs must be bit-identical to the untraced ones, and the JSON holds
//! the per-layer metrics. A Chrome trace of the last traced repetition is
//! written under `perfbench/out/`.
//!
//! The end-to-end times are CPU seconds of the whole process, which leave
//! out time the process waits for a core on a shared host; per-layer times
//! are wall-clock seconds.

mod cov3d;
mod host;
mod hss;
mod probe;
mod serve;

use h2_core::SketchStats;
use h2_tree::{ClusterTree, Partition};
use probe::Probe;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

pub const MIB: f64 = 1024.0 * 1024.0;

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Timed repetitions per run (of each kind in a traced run) at least, even
/// when they overrun `--seconds`.
const MIN_REPS: usize = 3;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_cpu_s", "s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with tracing on; a layer a
/// workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tree.build_s", "s"),
    ("tree.partition_s", "s"),
    ("tree.near_blocks", "count"),
    ("tree.far_blocks", "count"),
    ("matrix.direct_build_s", "s"),
    ("matrix.h2_mib", "MiB"),
    ("matrix.apply_calls", "count"),
    ("matrix.apply_cols", "count"),
    ("matrix.apply_s", "s"),
    ("matrix.apply_k1_calls", "count"),
    ("matrix.apply_k1_s", "s"),
    ("matrix.apply_gbps", "GB/s"),
    ("kernels.entries", "count"),
    ("kernels.entry_s", "s"),
    ("kernels.entries_per_s", "1/s"),
    ("core.construct_s", "s"),
    ("core.construct_self_s", "s"),
    ("core.rel_err", "ratio"),
    ("core.samples", "count"),
    ("core.rounds", "count"),
    ("core.launches", "count"),
    ("core.pack_mib", "MiB"),
    ("core.phase.sampling_s", "s"),
    ("core.phase.rand_s", "s"),
    ("core.phase.bsr_gemm_s", "s"),
    ("core.phase.entry_gen_s", "s"),
    ("core.phase.convergence_test_s", "s"),
    ("core.phase.id_s", "s"),
    ("core.phase.upsweep_s", "s"),
    ("core.phase.misc_s", "s"),
    ("core.phase.unattributed_s", "s"),
    ("dense.gemm_gflops", "GF/s"),
    ("host.triad_gbps", "GB/s"),
    ("host.peak_rss_mib", "MiB"),
    ("host.op_wall_s", "s"),
    ("solve.factor_s", "s"),
    ("solve.factor_gflops", "GF/s"),
    ("solve.k1_s", "s"),
    ("solve.k16_s", "s"),
    ("solve.precond_calls", "count"),
    ("solve.precond_s", "s"),
    ("solve.iters_k1", "count"),
    ("solve.iters_k16", "count"),
    ("solve.krylov_self_s", "s"),
    ("solve.residual_max", "ratio"),
    ("solve.ulv_mib", "MiB"),
    ("serve.rhs_per_s", "1/s"),
    ("serve.p50_modeled_s", "s"),
    ("serve.p99_modeled_s", "s"),
    ("serve.batches", "count"),
    ("serve.mean_width", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.builds", "count"),
    ("serve.build_s", "s"),
    ("serve.sweep_s", "s"),
    ("serve.sweep_ms_per_batch", "ms"),
    ("serve.solve_bytes", "bytes"),
    ("serve.bytes_equal", "bool"),
    ("serve.cache_mib", "MiB"),
    ("trace.overhead_frac", "ratio"),
];

pub type Layers = Vec<(&'static str, f64)>;

/// Wall-clock and process CPU time since a start point.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: host::cpu_seconds(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        host::cpu_seconds() - self.cpu
    }
}

/// One timed repetition of a workload's operation.
pub struct Rep {
    /// Wall seconds of the timed region only.
    pub seconds: f64,
    /// CPU seconds of the timed region, all threads together.
    pub cpu_seconds: f64,
    /// Exact outputs; equal fingerprints mean equal results.
    pub fingerprint: Vec<u64>,
    /// Checked outputs (constructions, solved columns or requests).
    pub attempted: u64,
    /// Checked outputs that were wrong.
    pub failed: u64,
    /// Per-layer values of this repetition.
    pub layers: Layers,
}

pub trait Workload {
    /// Build the workload's inputs from `seed`, recording set-up layer
    /// timings in `log`.
    fn setup(seed: u64, log: &mut SetupLog) -> Self;
    /// One repetition; `probe` is set in traced repetitions.
    fn run(&mut self, probe: Option<&Probe>) -> Rep;
}

/// Layer values observed during set-up; medians are reported.
#[derive(Default)]
pub struct SetupLog {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl SetupLog {
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, t0.elapsed().as_secs_f64());
        r
    }

    pub fn record(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    pub fn record_partition(&mut self, tree: &ClusterTree, part: &Partition) {
        let far: usize = (0..tree.nlevels()).map(|l| part.far_count(tree, l)).sum();
        self.record("tree.near_blocks", part.near_count(tree) as f64);
        self.record("tree.far_blocks", far as f64);
    }
}

/// Time `f`; in a traced repetition also record it as span `cat`/`name`.
pub fn stage<R>(
    probe: Option<&Probe>,
    cat: &'static str,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let r = match probe {
        Some(p) => p.time(cat, name, f),
        None => f(),
    };
    (r, t0.elapsed().as_secs_f64())
}

/// Whether a measured error meets its limit; a NaN error never does.
pub fn within(error: f64, limit: f64) -> bool {
    error <= limit
}

/// FNV-1a over the exact bit patterns of `xs`.
pub fn fingerprint(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `n` evenly spaced points on the unit segment starting at `offset`.
pub fn line_points(n: usize, offset: f64) -> Vec<[f64; 3]> {
    (0..n)
        .map(|i| [offset + (i as f64 + 0.5) / n as f64, 0.0, 0.0])
        .collect()
}

/// Sampler/operator application layer values from a traced repetition.
pub fn matrix_layers(p: &Probe) -> Layers {
    let apply_s = p.seconds("matrix.apply_ns");
    vec![
        ("matrix.apply_calls", p.count("matrix.apply_calls") as f64),
        ("matrix.apply_cols", p.count("matrix.apply_cols") as f64),
        ("matrix.apply_s", apply_s),
        (
            "matrix.apply_k1_calls",
            p.count("matrix.apply_k1_calls") as f64,
        ),
        ("matrix.apply_k1_s", p.seconds("matrix.apply_k1_ns")),
        (
            "matrix.apply_gbps",
            p.count("matrix.apply_bytes") as f64 / apply_s.max(1e-12) * 1e-9,
        ),
    ]
}

/// Entry-generation layer values from a traced repetition.
pub fn kernel_layers(p: &Probe) -> Layers {
    let entries = p.count("kernels.entries") as f64;
    let entry_s = p.seconds("kernels.entry_ns");
    vec![
        ("kernels.entries", entries),
        ("kernels.entry_s", entry_s),
        ("kernels.entries_per_s", entries / entry_s.max(1e-12)),
    ]
}

/// Construction layer values: the program's own statistics summed over
/// `stats`, next to the outside timing `construct_s` minus the sampler and
/// entry-generation time spent inside it.
pub fn core_layers(stats: &[SketchStats], construct_s: f64, apply_s: f64, entry_s: f64) -> Layers {
    let sum = |f: &dyn Fn(&SketchStats) -> f64| stats.iter().map(f).sum::<f64>();
    let phase = |name: &str| {
        sum(&|s| {
            s.phase_seconds
                .iter()
                .filter(|(p, _)| *p == name)
                .map(|(_, t)| t)
                .sum()
        })
    };
    vec![
        ("core.construct_s", construct_s),
        ("core.construct_self_s", construct_s - apply_s - entry_s),
        ("core.samples", sum(&|s| s.total_samples as f64)),
        ("core.rounds", sum(&|s| s.rounds as f64)),
        ("core.launches", sum(&|s| s.total_launches() as f64)),
        ("core.pack_mib", sum(&|s| s.pack_bytes as f64) / MIB),
        ("core.phase.sampling_s", phase("sampling")),
        ("core.phase.rand_s", phase("rand")),
        ("core.phase.bsr_gemm_s", phase("bsr_gemm")),
        ("core.phase.entry_gen_s", phase("entry_gen")),
        ("core.phase.convergence_test_s", phase("convergence_test")),
        ("core.phase.id_s", phase("id")),
        ("core.phase.upsweep_s", phase("upsweep")),
        ("core.phase.misc_s", phase("misc")),
        (
            "core.phase.unattributed_s",
            construct_s - sum(&|s| s.phase_total()),
        ),
    ]
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("--{k} is required"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints: correctness totals and the metrics by name.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Repeat `w.run` until `budget` has elapsed and at least `MIN_REPS` of
/// each kind ran. A traced run alternates untraced and traced repetitions,
/// so slow drift of the host affects both alike.
fn repeat<W: Workload>(w: &mut W, budget: Duration, trace: bool) -> (Vec<Rep>, Vec<(Rep, Probe)>) {
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < MIN_REPS || (trace && traced.len() < MIN_REPS) || t0.elapsed() < budget {
        untraced.push(w.run(None));
        if trace {
            let p = Probe::new();
            traced.push((w.run(Some(&p)), p));
        }
    }
    (untraced, traced)
}

fn measure<W: Workload>(name: &str, args: &Args) -> Outcome {
    let mut log = SetupLog::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let watch = Stopwatch::start();
        built = Some(W::setup(args.seed, &mut log));
        setup_s.push(watch.cpu_s());
    }
    let mut w = built.expect("at least one set-up");

    let (untraced, traced) = repeat(&mut w, Duration::from_secs(args.seconds), args.trace);

    // Every repetition must reproduce the first one exactly: the program is
    // deterministic, and tracing must not change any output.
    let all = || untraced.iter().chain(traced.iter().map(|(r, _)| r));
    let reference = &untraced[0].fingerprint;
    let identical = all().all(|r| &r.fingerprint == reference);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    if !identical {
        eprintln!("{name}: repetitions produced different outputs");
    }
    let op_s: Vec<f64> = untraced.iter().map(|r| r.cpu_seconds).collect();
    let traced_s: Vec<f64> = traced.iter().map(|(r, _)| r.cpu_seconds).collect();
    let wall_s: Vec<f64> = untraced.iter().map(|r| r.seconds).collect();

    let metrics: Vec<(&'static str, &'static str, f64)> = if !args.trace {
        let values = [median(&setup_s), median(&op_s), host::peak_heap_mib()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    } else {
        let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (rep, _) in &traced {
            for &(k, v) in &rep.layers {
                per.entry(k).or_default().push(v);
            }
        }
        for (k, v) in &log.values {
            per.insert(k, v.clone());
        }
        per.insert(
            "trace.overhead_frac",
            vec![median(&traced_s) / median(&op_s) - 1.0],
        );
        per.insert("host.op_wall_s", vec![median(&wall_s)]);
        per.insert("dense.gemm_gflops", vec![host::gemm_gflops()]);
        per.insert("host.peak_rss_mib", vec![host::peak_rss_mib()]);
        per.insert("host.triad_gbps", vec![host::triad_gbps()]);
        println!(
            "triad: 3 arrays of {} MiB each",
            (host::TRIAD_LEN * std::mem::size_of::<f64>()) >> 20
        );
        if let Some((_, p)) = traced.last() {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace_{name}.json"));
            match p.write_chrome_trace(&path) {
                Ok(n) => println!("chrome trace: {} ({n} spans)", path.display()),
                Err(e) => eprintln!("chrome trace: {}: {e}", path.display()),
            }
        }
        for k in per.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == k),
                "per-layer metric {k} is not declared"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, per.get(n).map(|v| median(v)).unwrap_or(0.0)))
            .collect()
    };
    println!("set-up CPU seconds: {setup_s:.3?}");
    println!("untraced op CPU seconds: {op_s:.3?}");
    println!("untraced op wall seconds: {wall_s:.3?}");
    println!("traced op CPU seconds: {traced_s:.3?}");
    println!(
        "{name}: seed {} setups {} reps {} untraced + {} traced, threads {}",
        args.seed,
        setup_s.len(),
        untraced.len(),
        traced.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    Outcome {
        correct: identical && failed == 0 && metrics.iter().all(|m| m.2.is_finite()),
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <cov3d_construct|hss_pcg_solve|serve_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cov3d_construct" => measure::<cov3d::Cov3d>("cov3d_construct", &args),
        "hss_pcg_solve" => measure::<hss::HssSolve>("hss_pcg_solve", &args),
        "serve_mixed" => measure::<serve::ServeMixed>("serve_mixed", &args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for (name, unit, value) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
