//! Host facts and in-run rooflines: peak heap and resident memory,
//! packed-GEMM throughput and a STREAM-style triad, all measured in the
//! benchmark's own process so the per-layer rates have a denominator from
//! the same run.

use h2_dense::{gaussian_mat, par_gemm, Mat, Op};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting live bytes so a run can report its peak
/// heap footprint. Unlike peak RSS, the count does not depend on how the
/// allocator's per-thread arenas keep and reuse freed memory.
pub struct CountingAlloc;

// The counters publish no other data, so relaxed ordering suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters besides, so `System`'s guarantees
// carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Peak live heap bytes of this process so far, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Layout of `struct rusage` on 64-bit Linux: two `timeval`s, then
/// fourteen `long` counters of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    counters: [i64; 14],
}

/// Layout of `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds spent so far by all threads of this process. Unlike
/// wall-clock time, this leaves out time the process waits for a core: on a
/// shared host, time the scheduler gives other processes, and on a guest
/// with steal-time accounting, time the hypervisor gives other guests.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable value with the C layout of
    // `struct timespec` on 64-bit Linux, and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn rusage() -> Rusage {
    let mut ru = Rusage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the C layout of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().counters[0] as f64 / 1024.0
}

/// Packed GEMM rate in GF/s on a square product, the compute roofline of
/// the batched kernels (best of several repetitions).
pub fn gemm_gflops() -> f64 {
    const N: usize = 512;
    let a = gaussian_mat(N, N, 1);
    let b = gaussian_mat(N, N, 2);
    let mut c = Mat::zeros(N, N);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        par_gemm(Op::NoTrans, Op::NoTrans, 1.0, a.rf(), b.rf(), 0.0, c.rm());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    2.0 * (N * N * N) as f64 / best * 1e-9
}

/// Elements per triad array: 64 MiB of f64 each. The host's last-level
/// cache (300 MiB) is larger than the three arrays together, so this is a
/// cache-resident bound, not DRAM bandwidth; arrays four times the LLC
/// would need 3.6 GiB on a shared host.
pub const TRIAD_LEN: usize = 8 << 20;

/// STREAM triad `a = b + s·c` over two threads, in GB/s of the three arrays'
/// traffic (best of several repetitions).
pub fn triad_gbps() -> f64 {
    let mut a = vec![0.0f64; TRIAD_LEN];
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let half = TRIAD_LEN / 2;
    let mut best = f64::INFINITY;
    for rep in 0..5 {
        let s = 0.5 + rep as f64;
        let t0 = Instant::now();
        let (a0, a1) = a.split_at_mut(half);
        std::thread::scope(|sc| {
            sc.spawn(|| triad(a0, &b[..half], &c[..half], s));
            triad(a1, &b[half..], &c[half..], s);
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&a);
    (3 * TRIAD_LEN * std::mem::size_of::<f64>()) as f64 / best * 1e-9
}

fn triad(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = b + s * c;
    }
}
