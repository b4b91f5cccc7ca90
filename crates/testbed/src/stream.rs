//! Live-operation simulation: the full Figure-1 flow over time.
//!
//! Clients transmit frames at random times; every AP captures each frame
//! into its circular [`FrameBuffer`] with a timestamp and client id; a
//! server tick every refresh interval drains per-client groups of frames
//! within the 100 ms suppression window (§2.4 step 1), runs the pipeline,
//! fuses the APs, and feeds a [`Tracker`]. This is the loop a deployed
//! ArrayTrack would run, and the integration surface for the buffer and
//! grouping semantics that per-fix experiments bypass.

use crate::deployment::{CaptureConfig, Deployment};
use at_channel::geometry::Point;
use at_channel::Transmitter;
use at_core::pipeline::{process_frame_group, ApPipelineConfig};
use at_core::suppression::{SuppressionConfig, GROUPING_WINDOW_S};
use at_core::synthesis::{localize, ApObservation};
use at_core::tracking::{Tracker, TrackerConfig};
use at_frontend::{FrameBuffer, FrameEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A client participating in the stream.
#[derive(Clone, Debug)]
pub(crate) struct StreamClient {
    /// Client identifier (also the suppression grouping key).
    pub id: u64,
    /// Trajectory: position as a function of time (seconds).
    pub path: fn(f64) -> Point,
    /// Mean interval between the client's frames, seconds.
    pub mean_frame_interval: f64,
}

/// Stream simulation settings.
#[derive(Clone, Debug)]
pub(crate) struct StreamConfig {
    /// Simulated wall-clock duration, seconds.
    pub duration: f64,
    /// Server tick (location refresh) interval, seconds (paper: 100 ms).
    pub refresh: f64,
    /// Capture settings.
    pub capture: CaptureConfig,
    /// Per-AP pipeline settings.
    pub pipeline: ApPipelineConfig,
    /// Per-AP frame buffer capacity.
    pub buffer_capacity: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            duration: 2.0,
            refresh: 0.1,
            capture: CaptureConfig::default(),
            pipeline: ApPipelineConfig::arraytrack(8),
            buffer_capacity: 64,
            seed: 0,
        }
    }
}

/// One produced location fix.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FixEvent {
    /// Which client.
    pub client_id: u64,
    /// Raw fused estimate.
    pub raw: Point,
    /// Tracker-smoothed estimate.
    pub tracked: Point,
    /// Ground-truth position at fix time.
    pub truth: Point,
    /// Number of frames per AP that fed this fix.
    pub frames_used: usize,
}

impl FixEvent {
    /// Raw estimate error, meters.
    pub(crate) fn raw_error(&self) -> f64 {
        self.raw.distance(self.truth)
    }

    /// Tracked estimate error, meters.
    pub(crate) fn tracked_error(&self) -> f64 {
        self.tracked.distance(self.truth)
    }
}

/// Summary of a stream run.
#[derive(Clone, Debug)]
pub(crate) struct StreamReport {
    /// Every fix produced, in time order.
    pub fixes: Vec<FixEvent>,
    /// Frames evicted from AP buffers (overload indicator).
    pub frames_evicted: u64,
}

impl StreamReport {
    /// Fixes for one client.
    pub(crate) fn fixes_for(&self, client_id: u64) -> Vec<&FixEvent> {
        self.fixes
            .iter()
            .filter(|f| f.client_id == client_id)
            .collect()
    }

    /// Mean raw error over all fixes.
    pub(crate) fn mean_raw_error(&self) -> f64 {
        if self.fixes.is_empty() {
            return 0.0;
        }
        self.fixes.iter().map(|f| f.raw_error()).sum::<f64>() / self.fixes.len() as f64
    }

    /// Mean tracked error over all fixes.
    pub(crate) fn mean_tracked_error(&self) -> f64 {
        if self.fixes.is_empty() {
            return 0.0;
        }
        self.fixes.iter().map(|f| f.tracked_error()).sum::<f64>() / self.fixes.len() as f64
    }
}

/// Runs the live loop over a deployment.
pub(crate) fn run_stream(
    dep: &Deployment,
    clients: &[StreamClient],
    cfg: &StreamConfig,
) -> StreamReport {
    assert!(!clients.is_empty(), "need at least one client");
    assert!(cfg.refresh > 0.0 && cfg.duration > 0.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Generate each client's frame schedule (exponential inter-arrivals).
    let mut frames: Vec<(f64, usize)> = Vec::new(); // (time, client index)
    for (ci, c) in clients.iter().enumerate() {
        let mut t = rng.gen_range(0.0..c.mean_frame_interval);
        while t < cfg.duration {
            frames.push((t, ci));
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += -c.mean_frame_interval * u.ln();
        }
    }
    frames.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

    // One buffer per AP, as in the hardware design (Fig. 1).
    let mut buffers: Vec<FrameBuffer> = (0..dep.aps.len())
        .map(|_| FrameBuffer::new(cfg.buffer_capacity))
        .collect();
    let mut trackers: Vec<Tracker> = clients
        .iter()
        .map(|_| Tracker::new(TrackerConfig::default()))
        .collect();
    let mut last_fix_time: Vec<Option<f64>> = vec![None; clients.len()];

    let region = dep.search_region().with_resolution(0.2);
    let suppression = SuppressionConfig::default();
    let mut fixes = Vec::new();

    let mut frame_iter = frames.into_iter().peekable();
    let mut tick = cfg.refresh;
    while tick <= cfg.duration + 1e-9 {
        // Deliver all frames transmitted before this tick.
        while let Some(&(t, ci)) = frame_iter.peek() {
            if t > tick {
                break;
            }
            frame_iter.next();
            let client = &clients[ci];
            let pos = (client.path)(t);
            let tx = Transmitter::at(pos);
            for (ap_idx, buffer) in buffers.iter_mut().enumerate() {
                let block = dep.capture_frame(ap_idx, pos, &tx, &cfg.capture, &mut rng);
                buffer.push(FrameEntry {
                    block,
                    timestamp: t,
                    client_id: client.id,
                    detection_metric: 1.0,
                });
            }
        }

        // Serve each client that has fresh frames at every AP.
        for (ci, client) in clients.iter().enumerate() {
            let groups: Vec<Vec<FrameEntry>> = buffers
                .iter_mut()
                .map(|b| b.take_recent_group(client.id, GROUPING_WINDOW_S))
                .collect();
            if groups.iter().any(|g| g.is_empty()) {
                continue; // not every AP heard this client this tick
            }
            let frames_used = groups.iter().map(|g| g.len()).min().expect("non-empty");
            let observations: Vec<ApObservation> = groups
                .iter()
                .enumerate()
                .map(|(ap_idx, group)| {
                    let blocks: Vec<_> = group.iter().map(|e| e.block.clone()).collect();
                    ApObservation {
                        pose: dep.aps[ap_idx].pose,
                        spectrum: process_frame_group(&blocks, &cfg.pipeline, &suppression),
                    }
                })
                .collect();
            let raw = localize(&observations, region).position;
            let dt = last_fix_time[ci].map(|t| tick - t).unwrap_or(cfg.refresh);
            let tracked = trackers[ci].update(raw, dt.max(1e-3));
            last_fix_time[ci] = Some(tick);
            fixes.push(FixEvent {
                client_id: client.id,
                raw,
                tracked,
                truth: (client.path)(tick),
                frames_used,
            });
        }
        tick += cfg.refresh;
    }

    StreamReport {
        fixes,
        frames_evicted: buffers.iter().map(|b| b.evicted()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_channel::geometry::pt;

    fn static_client(_t: f64) -> Point {
        pt(20.0, 12.0)
    }

    fn walking_client(t: f64) -> Point {
        pt(10.0 + t * 1.2, 12.0)
    }

    fn second_static(_t: f64) -> Point {
        pt(34.0, 8.0)
    }

    #[test]
    fn static_client_yields_steady_fixes() {
        let dep = Deployment::free_space(1);
        let clients = [StreamClient {
            id: 7,
            path: static_client,
            mean_frame_interval: 0.03,
        }];
        let cfg = StreamConfig {
            duration: 1.0,
            seed: 2,
            ..StreamConfig::default()
        };
        let report = run_stream(&dep, &clients, &cfg);
        assert!(report.fixes.len() >= 5, "only {} fixes", report.fixes.len());
        assert!(
            report.mean_raw_error() < 0.5,
            "raw error {:.2}",
            report.mean_raw_error()
        );
        // Multiple frames per window feed suppression.
        assert!(report.fixes.iter().any(|f| f.frames_used >= 2));
        assert_eq!(report.frames_evicted, 0);
    }

    #[test]
    fn walking_client_is_tracked() {
        let dep = Deployment::free_space(3);
        let clients = [StreamClient {
            id: 1,
            path: walking_client,
            mean_frame_interval: 0.04,
        }];
        let cfg = StreamConfig {
            duration: 2.0,
            seed: 4,
            ..StreamConfig::default()
        };
        let report = run_stream(&dep, &clients, &cfg);
        assert!(report.fixes.len() >= 10);
        assert!(report.mean_raw_error() < 0.8, "{}", report.mean_raw_error());
        assert!(report.mean_tracked_error() < 0.8);
        // Fix positions advance with the walk.
        let first = report.fixes.first().unwrap().raw.x;
        let last = report.fixes.last().unwrap().raw.x;
        assert!(last > first + 1.0, "track should move: {first} -> {last}");
    }

    #[test]
    fn two_clients_are_kept_separate() {
        let dep = Deployment::free_space(5);
        let clients = [
            StreamClient {
                id: 10,
                path: static_client,
                mean_frame_interval: 0.04,
            },
            StreamClient {
                id: 20,
                path: second_static,
                mean_frame_interval: 0.04,
            },
        ];
        let cfg = StreamConfig {
            duration: 1.0,
            seed: 6,
            ..StreamConfig::default()
        };
        let report = run_stream(&dep, &clients, &cfg);
        let a = report.fixes_for(10);
        let b = report.fixes_for(20);
        assert!(!a.is_empty() && !b.is_empty());
        // Each client's fixes cluster at its own location, not the other's.
        for f in &a {
            assert!(f.raw.distance(pt(20.0, 12.0)) < 2.0, "{:?}", f.raw);
        }
        for f in &b {
            assert!(f.raw.distance(pt(34.0, 8.0)) < 2.0, "{:?}", f.raw);
        }
    }

    #[test]
    fn tiny_buffer_evicts_under_load() {
        let dep = Deployment::free_space(7);
        let clients = [StreamClient {
            id: 1,
            path: static_client,
            mean_frame_interval: 0.005, // aggressive traffic
        }];
        let cfg = StreamConfig {
            duration: 0.5,
            buffer_capacity: 2,
            seed: 8,
            ..StreamConfig::default()
        };
        let report = run_stream(&dep, &clients, &cfg);
        assert!(report.frames_evicted > 0, "tiny buffer should evict");
        // The system still produces fixes from what survives.
        assert!(!report.fixes.is_empty());
    }
}
