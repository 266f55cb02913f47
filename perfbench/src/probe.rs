//! Benchmark-side instrumentation. The program itself is not changed: these
//! wrappers sit between the benchmark and each layer's public interface,
//! time every call, and record it as an `h2_obs` span plus `Registry`
//! counters. Wrappers forward every call unchanged, so a traced run computes
//! bit-identical outputs to an untraced one.

use h2_dense::{EntryAccess, LinOp, Mat, MatMut, MatRef};
use h2_obs::{ChromeTrace, Counter, Registry, Tracer};
use h2_solve::Preconditioner;
use std::sync::Arc;
use std::time::Instant;

/// Span sink and counters of one traced repetition.
pub struct Probe {
    pub tracer: Arc<Tracer>,
    pub registry: Registry,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            tracer: Tracer::new(1 << 17),
            registry: Registry::new(),
        }
    }

    /// Run `f` inside span `cat`/`name`, adding its wall nanoseconds to
    /// counter `<cat>.<name>_ns` and one to `<cat>.<name>_calls`.
    pub fn time<R>(&self, cat: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.tracer.span(cat, name);
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.registry.counter(&format!("{cat}.{name}_ns")).add(ns);
        self.registry.counter(&format!("{cat}.{name}_calls")).inc();
        r
    }

    pub fn count(&self, name: &str) -> u64 {
        self.registry.counter_value(name).unwrap_or(0)
    }

    /// A nanosecond counter read as seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.count(name) as f64 * 1e-9
    }

    /// Write the spans recorded so far as a Chrome trace.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let events = self.tracer.drain();
        let mut trace = ChromeTrace::new();
        trace.process_name(1, "benchmark host threads");
        trace.add_span_events(&events, 1, 2);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        trace.write(path)?;
        Ok(events.len())
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A traced [`LinOp`]: counts calls, columns and wall time of every block
/// application under `<layer>.apply_*`, split out for single-column calls
/// (the power iterations and Krylov matvecs) under `<layer>.apply_k1_*`.
/// Each call also adds the operator's stored bytes to `<layer>.apply_bytes`:
/// the bytes one application must read at least once, as computed, not
/// measured, traffic.
pub struct TracedOp<'a> {
    inner: &'a dyn LinOp,
    tracer: &'a Tracer,
    span: &'static str,
    op_bytes: u64,
    bytes: Counter,
    calls: Counter,
    cols: Counter,
    ns: Counter,
    k1_calls: Counter,
    k1_ns: Counter,
}

impl<'a> TracedOp<'a> {
    pub fn new(
        inner: &'a dyn LinOp,
        probe: &'a Probe,
        layer: &'static str,
        op_bytes: usize,
    ) -> Self {
        let c = |m: &str| probe.registry.counter(&format!("{layer}.{m}"));
        TracedOp {
            inner,
            tracer: &probe.tracer,
            span: layer,
            op_bytes: op_bytes as u64,
            bytes: c("apply_bytes"),
            calls: c("apply_calls"),
            cols: c("apply_cols"),
            ns: c("apply_ns"),
            k1_calls: c("apply_k1_calls"),
            k1_ns: c("apply_k1_ns"),
        }
    }

    fn timed(&self, d: usize, f: impl FnOnce()) {
        let _span = self.tracer.span(self.span, "apply");
        let t0 = Instant::now();
        f();
        let ns = elapsed_ns(t0);
        self.calls.inc();
        self.cols.add(d as u64);
        self.ns.add(ns);
        self.bytes.add(self.op_bytes);
        if d == 1 {
            self.k1_calls.inc();
            self.k1_ns.add(ns);
        }
    }
}

impl LinOp for TracedOp<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn apply(&self, x: MatRef<'_>, y: MatMut<'_>) {
        self.timed(x.cols(), || self.inner.apply(x, y));
    }

    fn apply_transpose(&self, x: MatRef<'_>, y: MatMut<'_>) {
        self.timed(x.cols(), || self.inner.apply_transpose(x, y));
    }
}

/// A traced [`EntryAccess`]: counts generated entries and the summed
/// thread time of every `block`/`entry` call under `kernels.*`. Calls come
/// from all worker threads, so `kernels.entry_ns` is thread time, not wall
/// time.
pub struct TracedGen<'a> {
    inner: &'a dyn EntryAccess,
    tracer: &'a Tracer,
    calls: Counter,
    entries: Counter,
    ns: Counter,
}

impl<'a> TracedGen<'a> {
    pub fn new(inner: &'a dyn EntryAccess, probe: &'a Probe) -> Self {
        let c = |m: &str| probe.registry.counter(&format!("kernels.{m}"));
        TracedGen {
            inner,
            tracer: &probe.tracer,
            calls: c("block_calls"),
            entries: c("entries"),
            ns: c("entry_ns"),
        }
    }
}

impl EntryAccess for TracedGen<'_> {
    fn entry(&self, i: usize, j: usize) -> f64 {
        let t0 = Instant::now();
        let v = self.inner.entry(i, j);
        self.ns.add(elapsed_ns(t0));
        self.entries.inc();
        v
    }

    fn block(&self, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        let _span = self.tracer.span("kernels", "block");
        let t0 = Instant::now();
        self.inner.block(rows, cols, out);
        self.ns.add(elapsed_ns(t0));
        self.calls.inc();
        self.entries.add((rows.len() * cols.len()) as u64);
    }
}

/// A traced [`Preconditioner`]: counts applications, columns and wall time
/// under `solve.precond_*`.
pub struct TracedPrec<'a> {
    inner: &'a dyn Preconditioner,
    tracer: &'a Tracer,
    calls: Counter,
    cols: Counter,
    ns: Counter,
}

impl<'a> TracedPrec<'a> {
    pub fn new(inner: &'a dyn Preconditioner, probe: &'a Probe) -> Self {
        let c = |m: &str| probe.registry.counter(&format!("solve.{m}"));
        TracedPrec {
            inner,
            tracer: &probe.tracer,
            calls: c("precond_calls"),
            cols: c("precond_cols"),
            ns: c("precond_ns"),
        }
    }

    fn timed<R>(&self, d: usize, f: impl FnOnce() -> R) -> R {
        let _span = self.tracer.span("solve", "precond");
        let t0 = Instant::now();
        let r = f();
        self.ns.add(elapsed_ns(t0));
        self.calls.inc();
        self.cols.add(d as u64);
        r
    }
}

impl Preconditioner for TracedPrec<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn apply_inv(&self, r: &Mat) -> Mat {
        self.timed(r.cols(), || self.inner.apply_inv(r))
    }

    fn apply_inv_into(&self, r: MatRef<'_>, z: MatMut<'_>) {
        self.timed(r.cols(), || self.inner.apply_inv_into(r, z));
    }
}
