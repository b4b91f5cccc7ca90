//! The AP-side frame path: raw samples in, spectrum out.
//!
//! Per frame: `MatchedFilter::detect` on the raw window, then
//! `process_frame` on the captured snapshot block. Per 3-frame group:
//! `suppress_multipath`, then the quantized `codec::compress_into` the
//! uplink sends; both are charged to the group's last frame.
//!
//! Untraced, the path calls those public entry points as they are. Traced,
//! `process_frame` is decomposed into its own public calls (in-row copy →
//! correlation matrix → smoothing → eigendecomposition → noise subspace +
//! steering scan → weighting + symmetry), each in its own span; the
//! decomposition is bit-identical to `process_frame` (tested below).

use crate::inputs::Group;
use crate::trace::Tracer;
use at_core::pipeline::{process_frame, ApPipelineConfig, SymmetryMode};
use at_core::smoothing::spatial_smooth;
use at_core::steering::SteeringTable;
use at_core::symmetry::resolve_mirror_peaks;
use at_core::weighting::apply_geometry_weighting;
use at_core::{suppress_multipath, AoaSpectrum, SuppressionConfig};
use at_dsp::detector::MatchedFilter;
use at_dsp::preamble::{Preamble, SAMPLE_RATE_HZ};
use at_dsp::SnapshotBlock;
use at_linalg::{eigh, NoiseSubspace};
use at_serve::codec::{self, CompressedMode};
use std::time::Instant;

/// What the frame path produced and how long each frame took.
#[derive(Default)]
pub struct FrameLog {
    /// Per-frame processing time, ms (suppression + compress on each
    /// group's last frame).
    pub frame_ms: Vec<f64>,
    /// When each frame finished.
    pub frame_at: Vec<Instant>,
    /// Frames whose detector found no preamble.
    pub misses: u64,
    /// Frames detected at another offset than the true one.
    pub wrong_offsets: u64,
    /// Compressed blob bytes, summed over groups.
    pub blob_bytes: u64,
    /// Groups compressed.
    pub groups: u64,
}

impl FrameLog {
    /// Frames processed.
    pub fn frames(&self) -> u64 {
        self.frame_ms.len() as u64
    }

    /// Frames that failed detection (missed or misplaced).
    pub fn failed(&self) -> u64 {
        self.misses + self.wrong_offsets
    }
}

/// The AP-side configuration: detector, MUSIC pipeline, suppression.
pub struct ApPath {
    detector: MatchedFilter,
    pipeline: ApPipelineConfig,
    suppression: SuppressionConfig,
}

impl ApPath {
    /// The paper's full ArrayTrack AP configuration (8 in-row antennas
    /// plus the off-row element).
    pub fn new() -> Self {
        let pipeline = ApPipelineConfig::arraytrack(8);
        // The traced decomposition mirrors exactly this configuration.
        assert!(
            pipeline.weighting
                && pipeline.symmetry == SymmetryMode::PerPeak
                && pipeline.music.smoothing_groups > 1
                && !pipeline.music.forward_backward,
            "the traced decomposition assumes the ArrayTrack pipeline"
        );
        Self {
            detector: MatchedFilter::new(&Preamble::new(), SAMPLE_RATE_HZ),
            pipeline,
            suppression: SuppressionConfig::default(),
        }
    }

    /// Runs one group through the frame path, appending per-frame times to
    /// `log`. Returns the suppressed spectrum; `blob` holds its quantized
    /// compressed form. Traced when `tr` is enabled, with one `ap.frame`
    /// span per frame whose request id is `request` + frame index.
    pub fn run_group(
        &self,
        group: &Group,
        tr: &mut Tracer,
        request: u64,
        log: &mut FrameLog,
        blob: &mut Vec<u8>,
    ) -> AoaSpectrum {
        let mut spectra = Vec::with_capacity(group.frames.len());
        let last = group.frames.len() - 1;
        let mut out = None;
        for (i, frame) in group.frames.iter().enumerate() {
            let req = request + i as u64;
            let id = tr.open();
            let start_ns = tr.now();
            let t0 = Instant::now();
            let detection = tr.span("dsp.detect", Some(id), req, || {
                self.detector.detect(&frame.window)
            });
            let spectrum = if tr.enabled() {
                self.spectrum_traced(&frame.block, tr, id, req)
            } else {
                process_frame(&frame.block, &self.pipeline)
            };
            spectra.push(spectrum);
            if i == last {
                let suppressed = tr.span("core.suppression", Some(id), req, || {
                    suppress_multipath(&spectra, &self.suppression)
                });
                tr.span("serve.codec.compress", Some(id), req, || {
                    blob.clear();
                    codec::compress_into(blob, &suppressed, CompressedMode::Quantized);
                });
                out = Some(suppressed);
            }
            let t1 = Instant::now();
            log.frame_ms.push((t1 - t0).as_secs_f64() * 1e3);
            log.frame_at.push(t1);
            tr.close(id, "ap.frame", None, req, start_ns);
            match detection {
                None => log.misses += 1,
                Some(d) if d.start != frame.offset => log.wrong_offsets += 1,
                Some(_) => {}
            }
        }
        log.blob_bytes += blob.len() as u64;
        log.groups += 1;
        out.expect("a group has at least one frame")
    }

    /// `process_frame`, decomposed into its public calls with one span
    /// each.
    fn spectrum_traced(
        &self,
        block: &SnapshotBlock,
        tr: &mut Tracer,
        parent: u32,
        req: u64,
    ) -> AoaSpectrum {
        let p = Some(parent);
        let m = self.pipeline.elements;
        let music = self.pipeline.music;
        let inrow = tr.span("core.pipeline.inrow", p, req, || {
            SnapshotBlock::new((0..m).map(|i| block.stream(i).to_vec()).collect())
        });
        let rxx = tr.span("dsp.rxx", p, req, || inrow.correlation_matrix());
        let smoothed = tr.span("core.smoothing", p, req, || {
            spatial_smooth(&rxx, music.smoothing_groups)
        });
        let ms = smoothed.rows();
        let (eig, signals) = tr.span("linalg.eig", p, req, || {
            let eig = eigh(&smoothed).expect("correlation matrices are Hermitian");
            let lmax = eig.eigenvalues[0].max(0.0);
            let d = eig
                .eigenvalues
                .iter()
                .filter(|&&l| l > music.eigenvalue_threshold * lmax)
                .count()
                .clamp(1, ms - 1);
            (eig, d)
        });
        let mut spectrum = tr.span("core.steering.scan", p, req, || {
            let noise = NoiseSubspace::from_eigen(&eig, signals);
            SteeringTable::shared(ms, music.bins).scan_projection(&noise)
        });
        tr.span("core.symmetry", p, req, || {
            apply_geometry_weighting(&mut spectrum);
            resolve_mirror_peaks(&mut spectrum, block, m);
        });
        spectrum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Inputs;

    #[test]
    fn decomposition_is_bit_identical_to_process_frame() {
        let inputs = Inputs::generate(5, 2);
        let path = ApPath::new();
        let mut tr = Tracer::new(true, Instant::now());
        // A spread of APs and clients, every frame of each group.
        for g in inputs.groups.iter().step_by(37) {
            for f in &g.frames {
                let plain = process_frame(&f.block, &path.pipeline);
                let traced = path.spectrum_traced(&f.block, &mut tr, 0, 0);
                let bits =
                    |s: &AoaSpectrum| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&plain), bits(&traced));
            }
        }
    }

    #[test]
    fn traced_and_plain_groups_agree_and_detect_exactly() {
        let inputs = Inputs::generate(11, 2);
        let path = ApPath::new();
        let origin = Instant::now();
        let (mut plain_log, mut traced_log) = (FrameLog::default(), FrameLog::default());
        for g in inputs.groups.iter().step_by(29) {
            let (mut b1, mut b2) = (Vec::new(), Vec::new());
            let s1 = path.run_group(
                g,
                &mut Tracer::new(false, origin),
                0,
                &mut plain_log,
                &mut b1,
            );
            let mut tr = Tracer::new(true, origin);
            let s2 = path.run_group(g, &mut tr, 0, &mut traced_log, &mut b2);
            assert_eq!(s1, s2);
            assert_eq!(b1, b2);
            // One frame span per frame, each parenting its layer spans.
            let frames = tr.spans().iter().filter(|s| s.name == "ap.frame").count();
            assert_eq!(frames, g.frames.len());
            assert!(tr.spans().iter().any(|s| s.name == "linalg.eig"));
        }
        assert_eq!(plain_log.failed(), 0);
        assert_eq!(traced_log.failed(), 0);
    }
}
