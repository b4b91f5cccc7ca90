//! Proof that frame acquisition is allocation-free once warm: a
//! `MatchedFilter::detect` and a `detect_all_into` on a capture window
//! must not touch the global allocator at all.
//!
//! A counting allocator wraps `System` and tallies every `alloc` /
//! `realloc` / `alloc_zeroed`. The detector is warmed until its
//! workspaces — the per-thread `DetectScratch` behind `detect`, the
//! caller's own one behind `detect_all_into`, the overlap-save block, the
//! obs layer's per-site metric handles — have grown to the window shape,
//! then ten more scans must leave the counter exactly where it was.
//!
//! Kept to a single `#[test]` on purpose: the harness runs tests on
//! multiple threads, and any concurrent test body would alias the global
//! counter with its own allocations.

use at_dsp::awgn::NoiseSource;
use at_dsp::detector::{DetectScratch, MatchedFilter};
use at_dsp::preamble::{Preamble, SAMPLE_RATE_HZ};
use at_linalg::Complex64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_detect_does_not_allocate() {
    // A 1040-sample capture window: 200 samples of lead-in, the 640-sample
    // preamble, 200 of tail, in 10 dB AWGN.
    let p = Preamble::new();
    let mf = MatchedFilter::new(&p, SAMPLE_RATE_HZ);
    let mut rx = vec![Complex64::ZERO; 200];
    rx.extend(p.reference(SAMPLE_RATE_HZ));
    rx.extend(vec![Complex64::ZERO; 200]);
    assert_eq!(rx.len(), 1040);
    let mut rng = StdRng::seed_from_u64(1040);
    NoiseSource::for_snr_db(10.0).corrupt(&mut rx, &mut rng);
    let mut scratch = DetectScratch::new();

    // Warm-up: grows the thread's detect workspace, the caller's scratch
    // and the metric handles to the window shape.
    for _ in 0..3 {
        assert_eq!(mf.detect(&rx).map(|d| d.start), Some(200));
        mf.detect_all_into(&rx, &mut scratch);
    }

    let before = allocations();
    for _ in 0..10 {
        let det = mf.detect(&rx);
        mf.detect_all_into(&rx, &mut scratch);
        assert_eq!(det.map(|d| d.start), Some(200));
        assert_eq!(scratch.detections().len(), 1);
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "a warm detect allocated {allocated} times in 10 scans"
    );
}
