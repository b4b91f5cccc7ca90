//! A deployed testbed: floorplan + APs (with simulated radio hardware and
//! calibration) + clients, and the frame-capture path experiments share.
//!
//! Reproduces the paper's experimental methodology (§4): each AP is an
//! 8-antenna λ/2 ULA (plus the off-row element) on simulated WARP radios
//! with unknown oscillator offsets, calibrated once with the CW-tone rig;
//! clients transmit 802.11 preambles; APs capture 10-sample snapshot
//! blocks via diversity synthesis across the two long training symbols.

use at_channel::geometry::Point;
use at_channel::{AntennaArray, ChannelSim, Floorplan, Transmitter};
use at_core::synthesis::{ApPose, SearchRegion};
use at_dsp::awgn::NoiseSource;
use at_dsp::preamble::{Preamble, LONG_SYMBOL_S, LTS0_START_S, LTS1_START_S};
use at_dsp::SnapshotBlock;
use at_frontend::{Calibration, CalibrationRig, FrontEnd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Capture settings shared by the experiments.
#[derive(Clone, Copy, Debug)]
pub struct CaptureConfig {
    /// Snapshots per AoA spectrum (paper default: 10, §4.3.3).
    pub snapshots: usize,
    /// In-row antennas per AP.
    pub elements: usize,
    /// Capture the off-row antenna too (required for symmetry removal).
    pub offrow: bool,
    /// Receiver noise power per sample (sets the physical SNR together
    /// with distance; 1e-10 yields ≈ 30 dB at 10 m free space).
    pub noise_power: f64,
    /// Client transmit amplitude.
    pub tx_amplitude: f64,
    /// Estimate the client's carrier frequency offset from the two long
    /// training symbols and de-rotate the diversity-synthesized lower set
    /// (required for correctness whenever clients have realistic CFO;
    /// disable only to demonstrate the failure mode).
    pub cfo_correction: bool,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        Self {
            snapshots: 10,
            elements: 8,
            offrow: true,
            noise_power: 1e-10,
            tx_amplitude: 1.0,
            cfo_correction: true,
        }
    }
}

/// One AP of the deployment: pose, array, and (calibrated) radio hardware.
#[derive(Clone, Debug)]
pub struct Ap {
    /// Array pose in the floorplan.
    pub pose: ApPose,
    /// Simulated radio front end with oscillator offsets.
    pub frontend: FrontEnd,
    /// Calibration recovered by the CW-tone rig at deploy time.
    pub calibration: Calibration,
    /// Seed for this AP's static antenna-element imperfections (mutual
    /// coupling / pattern / placement errors that the CW-tone calibration
    /// cannot see — §4.2.1's residual error sources).
    pub imperfection_seed: u64,
}

impl Ap {
    /// The antenna array geometry for a given capture configuration.
    pub fn array(&self, cfg: &CaptureConfig) -> AntennaArray {
        let a = AntennaArray::ula(self.pose.center, self.pose.axis_angle, cfg.elements)
            .with_imperfections(self.imperfection_seed);
        if cfg.offrow {
            a.with_offrow_element()
        } else {
            a
        }
    }
}

/// The full deployed testbed.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The office floorplan.
    pub floorplan: Floorplan,
    /// Deployed APs.
    pub aps: Vec<Ap>,
    /// Client ground-truth positions.
    pub clients: Vec<Point>,
}

impl Deployment {
    /// Deploys the paper's office testbed: 6 APs, 41 clients, with each
    /// AP's radios calibrated via the two-pass CW rig.
    pub fn office(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let aps = crate::office::ap_poses()
            .into_iter()
            .enumerate()
            .map(|(i, (center, axis_angle))| {
                let frontend = FrontEnd::new(8, seed ^ (0xA9_00 + i as u64));
                let rig = CalibrationRig::new(8, 0.3, seed ^ (0xCA_11 + i as u64));
                let calibration = rig.calibrate(&frontend, &mut rng);
                Ap {
                    pose: ApPose { center, axis_angle },
                    frontend,
                    calibration,
                    imperfection_seed: seed ^ (0xE1E0 + i as u64),
                }
            })
            .collect();
        Self {
            floorplan: crate::office::office_floorplan(),
            aps,
            clients: crate::office::client_positions(),
        }
    }

    /// Deploys the secondary research-lab testbed: 4 APs, 12 clients, same
    /// hardware pipeline — the generalization check that nothing is tuned
    /// to the office floorplan.
    pub fn lab(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let aps = crate::office::lab_ap_poses()
            .into_iter()
            .enumerate()
            .map(|(i, (center, axis_angle))| {
                let frontend = FrontEnd::new(8, seed ^ (0x1AB00 + i as u64));
                let rig = CalibrationRig::new(8, 0.3, seed ^ (0x1AB11 + i as u64));
                let calibration = rig.calibrate(&frontend, &mut rng);
                Ap {
                    pose: ApPose { center, axis_angle },
                    frontend,
                    calibration,
                    imperfection_seed: seed ^ (0x1ABE0 + i as u64),
                }
            })
            .collect();
        Self {
            floorplan: crate::office::lab_floorplan(),
            aps,
            clients: crate::office::lab_client_positions(),
        }
    }

    /// A free-space deployment (no walls) with the same AP/client layout —
    /// the control condition for tests.
    pub fn free_space(seed: u64) -> Self {
        let mut d = Self::office(seed);
        d.floorplan = Floorplan::empty();
        d
    }

    /// The search region covering this deployment's floorplan (falling
    /// back to the office extent for free-space controls), at the paper's
    /// 10 cm pitch.
    pub fn search_region(&self) -> SearchRegion {
        let (lo, hi) = self.floorplan.bounds().unwrap_or((
            at_channel::geometry::pt(0.0, 0.0),
            at_channel::geometry::pt(crate::office::WIDTH, crate::office::DEPTH),
        ));
        SearchRegion::new(lo, hi)
    }

    /// Captures one frame from a client at `position` as seen by AP
    /// `ap_idx`: channel propagation of the genuine preamble, AWGN, WARP
    /// diversity capture across `S0`/`S1`, and calibration correction.
    ///
    /// Rows of the returned block: `elements` in-row antennas, then (if
    /// configured) the off-row antenna.
    pub fn capture_frame<R: Rng>(
        &self,
        ap_idx: usize,
        position: Point,
        tx: &Transmitter,
        cfg: &CaptureConfig,
        rng: &mut R,
    ) -> SnapshotBlock {
        let ap = &self.aps[ap_idx];
        self.capture_frame_with(
            ap_idx,
            &ap.array(cfg),
            &ap.calibration,
            cfg.noise_power,
            position,
            tx,
            cfg,
            rng,
        )
    }

    /// [`Deployment::capture_frame`] with the AP's hardware state made
    /// explicit — the hook the fault-injection layer ([`crate::acquire`])
    /// uses to substitute an impaired array, a drifted calibration table,
    /// or a spiked noise floor. Passing the AP's own array, calibration
    /// and `cfg.noise_power` reproduces `capture_frame` exactly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture_frame_with<R: Rng>(
        &self,
        ap_idx: usize,
        array: &AntennaArray,
        calibration: &Calibration,
        noise_power: f64,
        position: Point,
        tx: &Transmitter,
        cfg: &CaptureConfig,
        rng: &mut R,
    ) -> SnapshotBlock {
        let _t = at_obs::time_stage!(at_obs::stages::CAPTURE, "ap" => ap_idx);
        let ap = &self.aps[ap_idx];
        let sim = ChannelSim::new(&self.floorplan);
        let preamble = Preamble::new();
        let tx = Transmitter {
            position,
            amplitude: tx.amplitude * cfg.tx_amplitude,
            ..*tx
        };

        // Stream window covering both long training symbols. The channel's
        // propagation delay (< 0.2 µs here) stays inside the window because
        // diversity capture skips the first `switch_samples` anyway.
        let fs = ap.frontend.sample_rate;
        let t0 = LTS0_START_S;
        let duration = (LTS1_START_S - LTS0_START_S) + LONG_SYMBOL_S;
        let mut streams = sim.receive(&tx, array, |t| preamble.eval(t), t0, duration, fs);

        // Receiver noise.
        let noise = NoiseSource::with_power(noise_power);
        for s in &mut streams {
            noise.corrupt(s, rng);
        }

        let lts1_offset = ((LTS1_START_S - LTS0_START_S) * fs).round() as usize;
        let radios = ap.frontend.radios();
        assert!(
            cfg.elements + usize::from(cfg.offrow) <= 2 * radios,
            "{} antennas exceed two ports per radio",
            cfg.elements
        );
        let (block, _ants) = if cfg.elements > radios {
            // The paper's 16-antenna mode (§3 footnote 3): each radio's two
            // ports carry two in-row antennas, synthesized across S0/S1.
            assert!(
                !cfg.offrow,
                "all ports are occupied by in-row antennas in 16-antenna mode"
            );
            let port_a: Vec<Option<usize>> = (0..radios).map(Some).collect();
            let port_b: Vec<Option<usize>> = (0..radios)
                .map(|r| (radios + r < cfg.elements).then_some(radios + r))
                .collect();
            let cfo = if cfg.cfo_correction {
                let delta = ap.frontend.switch_samples();
                let w = 32.min(lts1_offset - delta);
                at_dsp::estimate_cfo(
                    &streams[0][delta..delta + w],
                    &streams[0][lts1_offset + delta..lts1_offset + delta + w],
                    lts1_offset as f64 / fs,
                )
                .unwrap_or(0.0)
            } else {
                0.0
            };
            ap.frontend.diversity_capture_cfo(
                &streams,
                &port_a,
                &port_b,
                0,
                lts1_offset,
                cfg.snapshots,
                cfo,
            )
        } else if cfg.offrow {
            // Radio r's port A carries in-row antenna r (for r < elements);
            // the off-row antenna rides radio 0's port B.
            let radios = ap.frontend.radios();
            let port_a: Vec<Option<usize>> = (0..radios)
                .map(|r| (r < cfg.elements).then_some(r))
                .collect();
            let mut port_b = vec![None; radios];
            port_b[0] = Some(cfg.elements); // off-row antenna on radio 0 port B
                                            // Fine CFO estimate from antenna 0's two LTS copies, exactly
                                            // as a real receiver would, then de-rotate the S1 captures.
            let cfo = if cfg.cfo_correction {
                let delta = ap.frontend.switch_samples();
                let w = 32.min(lts1_offset - delta);
                at_dsp::estimate_cfo(
                    &streams[0][delta..delta + w],
                    &streams[0][lts1_offset + delta..lts1_offset + delta + w],
                    lts1_offset as f64 / fs,
                )
                .unwrap_or(0.0)
            } else {
                0.0
            };
            ap.frontend.diversity_capture_cfo(
                &streams,
                &port_a,
                &port_b,
                0,
                lts1_offset,
                cfg.snapshots,
                cfo,
            )
        } else {
            let delta = ap.frontend.switch_samples();
            (
                ap.frontend
                    .capture(&streams[..cfg.elements], delta, cfg.snapshots),
                (0..cfg.elements).collect(),
            )
        };

        // Undo the oscillator offsets. Row m is radio m % radios (port A
        // for m < radios, port B above); the off-row row rode radio 0's
        // port B.
        let radios = ap.frontend.radios();
        let mut radio_of: Vec<usize> = (0..cfg.elements).map(|m| m % radios).collect();
        if cfg.offrow {
            radio_of.push(0);
        }
        calibration.apply(&block, &radio_of)
    }

    /// Captures a group of `frames` frames with ≤ 5 cm random client jitter
    /// between frames — the paper's semi-static setting (§4.2), which feeds
    /// multipath suppression.
    #[allow(clippy::too_many_arguments)]
    pub fn capture_frame_group<R: Rng>(
        &self,
        ap_idx: usize,
        position: Point,
        tx: &Transmitter,
        cfg: &CaptureConfig,
        frames: usize,
        jitter: f64,
        rng: &mut R,
    ) -> Vec<SnapshotBlock> {
        (0..frames)
            .map(|i| {
                let p = if i == 0 {
                    position
                } else {
                    let ang = rng.gen_range(0.0..std::f64::consts::TAU);
                    let r = rng.gen_range(0.0..jitter);
                    at_channel::geometry::pt(position.x + r * ang.cos(), position.y + r * ang.sin())
                };
                self.capture_frame(ap_idx, p, tx, cfg, rng)
            })
            .collect()
    }

    /// Received signal strength at an AP from a client position, in dB
    /// relative to unit transmit power, quantized to whole decibels like
    /// commodity hardware reports it (§5: "usually measured in units of
    /// whole decibels") — the input to the RSSI baselines.
    pub(crate) fn rss_db(&self, ap_idx: usize, position: Point, cfg: &CaptureConfig) -> f64 {
        let ap = &self.aps[ap_idx];
        let array = ap.array(cfg);
        let sim = ChannelSim::new(&self.floorplan);
        let tx = Transmitter::at(position).with_amplitude(cfg.tx_amplitude);
        let p = sim.received_power(&tx, &array);
        (10.0 * p.log10()).round()
    }
}

/// The experiments' sweep parallelism, now shared with the localization
/// engine's heatmap fill: see `at_core::parallel` (lock-free chunked
/// partitioning; the old implementation here locked a `Mutex` per output
/// element).
pub use at_core::parallel::parallel_map;

#[cfg(test)]
mod tests {
    use super::*;
    use at_channel::geometry::pt;

    #[test]
    fn office_deployment_composition() {
        let d = Deployment::office(1);
        assert_eq!(d.aps.len(), 6);
        assert_eq!(d.clients.len(), 41);
        assert!(d.floorplan.walls().len() > 25);
    }

    #[test]
    fn capture_produces_expected_rows() {
        let d = Deployment::free_space(2);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = CaptureConfig::default();
        let tx = Transmitter::at(pt(10.0, 10.0));
        let block = d.capture_frame(0, pt(10.0, 10.0), &tx, &cfg, &mut rng);
        assert_eq!(block.antennas(), 9);
        assert_eq!(block.snapshots(), 10);

        let cfg_inrow = CaptureConfig {
            offrow: false,
            ..cfg
        };
        let block = d.capture_frame(0, pt(10.0, 10.0), &tx, &cfg_inrow, &mut rng);
        assert_eq!(block.antennas(), 8);
    }

    #[test]
    fn sixteen_antenna_capture_works() {
        let d = Deployment::free_space(31);
        let cfg = CaptureConfig {
            elements: 16,
            offrow: false,
            ..CaptureConfig::default()
        };
        let client = pt(20.0, 12.0);
        let mut rng = StdRng::seed_from_u64(17);
        let tx = Transmitter::at(client);
        let block = d.capture_frame(0, client, &tx, &cfg, &mut rng);
        assert_eq!(block.antennas(), 16);
        // The synthesized 16-element block still carries a clean bearing.
        use at_core::music::{music_spectrum, strongest_bearing, MusicConfig};
        let spec = music_spectrum(&block, &MusicConfig::default());
        let truth = d.aps[0].pose.bearing_to(client);
        let best = strongest_bearing(&spec).unwrap();
        let err = at_channel::geometry::angle_diff(best, truth).min(
            at_channel::geometry::angle_diff(best, std::f64::consts::TAU - truth),
        );
        assert!(err < 2f64.to_radians(), "16-antenna bearing error {err}");
    }

    #[test]
    #[should_panic(expected = "exceed two ports")]
    fn too_many_antennas_rejected() {
        let d = Deployment::free_space(32);
        let cfg = CaptureConfig {
            elements: 17,
            offrow: false,
            ..CaptureConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let tx = Transmitter::at(pt(10.0, 10.0));
        let _ = d.capture_frame(0, pt(10.0, 10.0), &tx, &cfg, &mut rng);
    }

    #[test]
    fn capture_is_deterministic_given_rng() {
        let d = Deployment::office(7);
        let cfg = CaptureConfig::default();
        let tx = Transmitter::at(pt(20.0, 12.0));
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let b1 = d.capture_frame(2, pt(20.0, 12.0), &tx, &cfg, &mut r1);
        let b2 = d.capture_frame(2, pt(20.0, 12.0), &tx, &cfg, &mut r2);
        for m in 0..b1.antennas() {
            for (x, y) in b1.stream(m).iter().zip(b2.stream(m)) {
                assert_eq!(*x, *y);
            }
        }
    }

    #[test]
    fn calibrated_capture_localizes_in_free_space() {
        // End-to-end sanity: despite random radio offsets, calibration
        // makes the full pipeline recover the client bearing.
        use at_core::pipeline::{process_frame, ApPipelineConfig};
        let d = Deployment::free_space(11);
        let cfg = CaptureConfig::default();
        let client = pt(20.0, 12.0);
        let mut rng = StdRng::seed_from_u64(5);
        let tx = Transmitter::at(client);
        let block = d.capture_frame(0, client, &tx, &cfg, &mut rng);
        let spec = process_frame(&block, &ApPipelineConfig::arraytrack(8));
        let truth = d.aps[0].pose.bearing_to(client);
        let peak = spec.find_peaks(0.3)[0];
        assert!(
            at_channel::geometry::angle_diff(peak.theta, truth) < 4f64.to_radians(),
            "peak {} vs truth {truth}",
            peak.theta
        );
    }

    #[test]
    fn frame_group_jitters_positions() {
        let d = Deployment::free_space(13);
        let cfg = CaptureConfig::default();
        let mut rng = StdRng::seed_from_u64(17);
        let tx = Transmitter::at(pt(10.0, 10.0));
        let blocks = d.capture_frame_group(0, pt(10.0, 10.0), &tx, &cfg, 3, 0.05, &mut rng);
        assert_eq!(blocks.len(), 3);
        // Jittered frames differ from the first.
        let differs =
            (0..blocks[0].antennas()).any(|m| blocks[0].stream(m)[0] != blocks[1].stream(m)[0]);
        assert!(differs);
    }

    #[test]
    fn rss_decreases_with_distance_and_is_quantized() {
        let d = Deployment::free_space(19);
        let cfg = CaptureConfig::default();
        let near = d.rss_db(0, pt(8.0, 21.0), &cfg);
        let far = d.rss_db(0, pt(46.0, 2.0), &cfg);
        assert!(near > far, "near {near} dB vs far {far} dB");
        assert_eq!(near, near.round());
    }

    #[test]
    fn parallel_map_matches_serial() {
        let items: Vec<u64> = (0..100).collect();
        let par = parallel_map(&items, 8, |i, x| i as u64 + x * 2);
        let ser: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 + x * 2)
            .collect();
        assert_eq!(par, ser);
    }
}
