//! Proof of the zero-allocation hot paths: a warm `try_localize` query
//! must not touch the global allocator at all, and a warm frame must
//! allocate only the spectrum it returns.
//!
//! A counting allocator wraps `System` and tallies every `alloc` /
//! `realloc` / `alloc_zeroed`. The server is warmed until every arena —
//! the engine's per-thread [`at_core::LocalizeScratch`], the pipeline's
//! fusion scratch, the obs layer's per-site metric handles — has grown to
//! the query shape, then ten more queries must leave the counter exactly
//! where it was. A warm 1-AP `localize_with` on an explicit
//! [`at_core::LocalizeScratch`] is held to the same bar: its bearing ray
//! ties every cell along it, so it pops the most blocks from the visit
//! heap.
//!
//! On the AP side, `process_frame` with the ArrayTrack configuration on a
//! 9-row capture (8 in-row antennas plus the off-row element) must make
//! exactly one allocation per frame, its output, once its per-thread
//! frame workspace and the shared bearing tables exist; the geometry
//! window and the per-peak mirror resolution must make none.
//!
//! Kept to a single `#[test]` on purpose: the harness runs tests on
//! multiple threads, and any concurrent test body would alias the global
//! counter with its own allocations.

use at_channel::geometry::{pt, Point};
use at_channel::{AntennaArray, ChannelSim, Floorplan, Transmitter};
use at_core::music::music_spectrum;
use at_core::pipeline::{process_frame, ApPipelineConfig};
use at_core::symmetry::resolve_mirror_peaks;
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::weighting::apply_geometry_weighting;
use at_core::{AoaSpectrum, ArrayTrackServer, LocalizationEngine, LocalizeScratch};
use at_dsp::SnapshotBlock;
use at_linalg::Complex64;
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

/// A synthetic single-lobe spectrum pointing at `target` from `pose`.
fn lobe_toward(pose: ApPose, target: Point) -> AoaSpectrum {
    let theta = pose.bearing_to(target);
    AoaSpectrum::from_fn(720, |t| {
        (-(at_channel::geometry::angle_diff(t, theta) / 0.08).powi(2)).exp() + 1e-6
    })
}

/// A 9-row, 10-snapshot capture (8 in-row antennas plus the off-row
/// element) of two free-space paths, from bearings 70° and 235°.
fn two_path_capture() -> SnapshotBlock {
    let fp = Floorplan::empty();
    let sim = ChannelSim::new(&fp);
    let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8).with_offrow_element();
    let capture = |deg: f64, dist: f64| {
        let tx = Transmitter::at(array.point_at(deg.to_radians(), dist));
        sim.receive(
            &tx,
            &array,
            |t| Complex64::cis(std::f64::consts::TAU * 1e6 * t),
            0.0,
            0.5e-6,
            at_dsp::SAMPLE_RATE_HZ,
        )
    };
    let (a, b) = (capture(70.0, 9.0), capture(235.0, 6.0));
    SnapshotBlock::new(
        a.iter()
            .zip(&b)
            .map(|(sa, sb)| (0..10).map(|t| sa[t] + sb[t].scale(0.6)).collect())
            .collect(),
    )
}

#[test]
fn warm_hot_paths_allocate_only_their_results() {
    let target = pt(7.0, 3.0);
    let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0));
    let mut server = ArrayTrackServer::new(region);
    let poses: Vec<ApPose> = [
        (pt(0.0, 0.0), 0.3),
        (pt(12.0, 0.0), 2.0),
        (pt(6.0, 8.0), 4.5),
    ]
    .into_iter()
    .map(|(center, axis_angle)| ApPose { center, axis_angle })
    .collect();
    for (i, &pose) in poses.iter().enumerate() {
        server.add_observation_from(i, pose, lobe_toward(pose, target), 0);
    }

    // Warm-up: the first call builds the engine, later calls grow every
    // per-thread arena and per-site metric handle to steady state.
    let warm = server.try_localize().expect("healthy deployment");
    for _ in 0..5 {
        let again = server.try_localize().expect("healthy deployment");
        assert_eq!(warm.position.x.to_bits(), again.position.x.to_bits());
        assert_eq!(warm.position.y.to_bits(), again.position.y.to_bits());
    }
    server.localize();

    // The tentpole claim: the warm query path is allocation-free.
    let before = allocations();
    for _ in 0..10 {
        server.try_localize().expect("healthy deployment");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm try_localize touched the allocator {} times over 10 queries",
        after - before
    );

    // The legacy panicking entry point shares the same arenas.
    let before = allocations();
    for _ in 0..10 {
        server.localize();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm localize touched the allocator {} times over 10 queries",
        after - before
    );

    // One AP: every cell along the bearing ray ties, so the search pops
    // the most blocks from its visit heap.
    let engine = LocalizationEngine::new(&poses, region, 720);
    let lone = lobe_toward(poses[0], target);
    let query = [(0, &lone)];
    let mut scratch = LocalizeScratch::new();
    for _ in 0..3 {
        engine.localize_with(&query, &mut scratch);
    }
    let before = allocations();
    for _ in 0..10 {
        engine.localize_with(&query, &mut scratch);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm 1-AP localize_with touched the allocator {} times over 10 queries",
        after - before
    );

    // The frame path: one allocation per frame, the returned spectrum.
    let cfg = ApPipelineConfig::arraytrack(8);
    let block = two_path_capture();
    let first = process_frame(&block, &cfg);
    for _ in 0..3 {
        assert_eq!(process_frame(&block, &cfg), first);
    }
    let before = allocations();
    for _ in 0..10 {
        process_frame(&block, &cfg);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        10,
        "10 warm frames made {} allocations, not one each",
        after - before
    );

    // Weighting and per-peak mirror resolution on their own: none.
    let inrow = SnapshotBlock::new((0..8).map(|m| block.stream(m).to_vec()).collect());
    let mut spectrum = music_spectrum(&inrow, &cfg.music);
    apply_geometry_weighting(&mut spectrum);
    let mirrored = spectrum.clone();
    resolve_mirror_peaks(&mut spectrum, &block, cfg.elements);
    assert_ne!(
        spectrum, mirrored,
        "the capture must exercise a side decision"
    );
    let before = allocations();
    for _ in 0..10 {
        apply_geometry_weighting(&mut spectrum);
        resolve_mirror_peaks(&mut spectrum, &block, cfg.elements);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm weighting + mirror resolution touched the allocator {} times over 10 frames",
        after - before
    );
}
