//! Simulated WARP-like radio bank with per-radio oscillator phase offsets.
//!
//! Each radio downconverts with its own 2.4 GHz oscillator, introducing "an
//! unknown phase offset to the resulting signal, rendering AoA inoperable"
//! until calibrated (paper §3). We model each radio as a fixed random phase
//! rotation applied to everything it receives; the two antenna ports of a
//! radio share its oscillator, so they share the offset.

use at_dsp::SnapshotBlock;
use at_linalg::Complex64;
use rand::Rng;
use rand::SeedableRng;

/// Hardware switching time between a radio's two antenna ports: 500 ns
/// during which "the received signal is highly distorted and unusable"
/// (paper §2.2, footnote 1).
pub(crate) const ANTSEL_SWITCH_S: f64 = 500e-9;

/// A bank of radio front ends at an AP.
#[derive(Clone, Debug)]
pub struct FrontEnd {
    /// Per-radio oscillator phase offsets in radians. Unknown to the
    /// algorithms until recovered by calibration.
    phase_offsets: Vec<f64>,
    /// ADC sampling rate, Hz.
    pub sample_rate: f64,
}

impl FrontEnd {
    /// A front end with `radios` radios and random oscillator offsets drawn
    /// from the given seed.
    pub fn new(radios: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self {
            phase_offsets: (0..radios)
                .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
                .collect(),
            sample_rate: at_dsp::SAMPLE_RATE_HZ,
        }
    }

    /// An idealized front end with zero phase offsets (for algorithm tests
    /// that want to bypass calibration).
    #[cfg(test)]
    pub(crate) fn perfect(radios: usize) -> Self {
        Self {
            phase_offsets: vec![0.0; radios],
            sample_rate: at_dsp::SAMPLE_RATE_HZ,
        }
    }

    /// Number of radios.
    pub fn radios(&self) -> usize {
        self.phase_offsets.len()
    }

    /// The (simulation-internal) true oscillator offset of radio `r`.
    /// Exposed so tests and the calibration rig can verify recovery; the
    /// localization pipeline never reads it.
    pub fn true_offset(&self, r: usize) -> f64 {
        self.phase_offsets[r]
    }

    /// The AntSel switching time in samples at this front end's rate.
    pub fn switch_samples(&self) -> usize {
        (ANTSEL_SWITCH_S * self.sample_rate).ceil() as usize
    }

    /// Captures `k` samples starting at `start` from each antenna stream,
    /// with antenna `m` wired to radio `m` (one port per radio).
    ///
    /// # Panics
    /// Panics if there are more streams than radios or the span overruns.
    pub fn capture(&self, streams: &[Vec<Complex64>], start: usize, k: usize) -> SnapshotBlock {
        assert!(
            streams.len() <= self.radios(),
            "{} antennas but only {} radios",
            streams.len(),
            self.radios()
        );
        let rows: Vec<Vec<Complex64>> = streams
            .iter()
            .enumerate()
            .map(|(m, s)| {
                assert!(start + k <= s.len(), "capture span out of range");
                let rot = Complex64::cis(self.phase_offsets[m]);
                s[start..start + k].iter().map(|z| *z * rot).collect()
            })
            .collect();
        SnapshotBlock::new(rows)
    }

    /// Diversity-synthesis capture (paper §2.2): radio `r` records antenna
    /// `r` ("upper set") during long training symbol `S0`, toggles AntSel,
    /// and records antenna `port_b[r]` ("lower set") during `S1`. Because
    /// `S0` and `S1` are identical and within the channel coherence time,
    /// sample `δ` of each can be treated as simultaneous, synthesizing an
    /// array of up to `2 × radios` antennas from `radios` radios.
    ///
    /// `lts0_start`/`lts1_start` are the sample indices where the two long
    /// training symbols begin in the streams; `k` samples are taken at a
    /// common in-symbol offset `δ ≥ switch_samples()` so the unusable
    /// post-switch window is never consumed.
    ///
    /// `port_a[r]`/`port_b[r]` give the antenna stream index wired to each
    /// port of radio `r` (`None` = port unconnected).
    ///
    /// Returns a [`SnapshotBlock`] with the port-A rows first, then one
    /// row per connected port-B antenna, plus the matching antenna indices.
    ///
    /// `cfo_hz` corrects for an estimated client carrier frequency offset:
    /// lower-set samples were taken `(lts1_start − lts0_start)/fs` seconds
    /// after their upper-set counterparts, so they carry an extra
    /// `e^{j2πΔf·ΔT}` that must be removed before the two sets can be
    /// treated as simultaneous (`0.0` when the transmitter and AP share a
    /// carrier frequency).
    #[allow(clippy::too_many_arguments)]
    pub fn diversity_capture_cfo(
        &self,
        streams: &[Vec<Complex64>],
        port_a: &[Option<usize>],
        port_b: &[Option<usize>],
        lts0_start: usize,
        lts1_start: usize,
        k: usize,
        cfo_hz: f64,
    ) -> (SnapshotBlock, Vec<usize>) {
        assert_eq!(port_a.len(), self.radios(), "one port-A entry per radio");
        assert_eq!(port_b.len(), self.radios(), "one port-B entry per radio");
        let delta = self.switch_samples();
        let mut rows = Vec::new();
        let mut antennas = Vec::new();

        // Upper set: each radio's port-A antenna during S0.
        for (r, &ant) in port_a.iter().enumerate() {
            let Some(ant) = ant else { continue };
            let s = &streams[ant];
            assert!(lts0_start + delta + k <= s.len(), "S0 span out of range");
            let rot = Complex64::cis(self.phase_offsets[r]);
            rows.push(
                s[lts0_start + delta..lts0_start + delta + k]
                    .iter()
                    .map(|z| *z * rot)
                    .collect(),
            );
            antennas.push(ant);
        }

        // Lower set: port-B antennas during S1, same in-symbol offset δ.
        // CFO correction: undo the rotation accumulated between the two
        // capture windows.
        let dt = (lts1_start as f64 - lts0_start as f64) / self.sample_rate;
        let cfo_rot = Complex64::cis(-std::f64::consts::TAU * cfo_hz * dt);
        for (r, &ant) in port_b.iter().enumerate() {
            let Some(ant) = ant else { continue };
            let s = &streams[ant];
            assert!(lts1_start + delta + k <= s.len(), "S1 span out of range");
            let rot = Complex64::cis(self.phase_offsets[r]) * cfo_rot;
            rows.push(
                s[lts1_start + delta..lts1_start + delta + k]
                    .iter()
                    .map(|z| *z * rot)
                    .collect(),
            );
            antennas.push(ant);
        }

        (SnapshotBlock::new(rows), antennas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_linalg::c64;

    fn tone_stream(n: usize, freq: f64, phase: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::cis(std::f64::consts::TAU * freq * i as f64 / 40e6 + phase))
            .collect()
    }

    #[test]
    fn perfect_frontend_is_transparent() {
        let fe = FrontEnd::perfect(2);
        let streams = vec![tone_stream(32, 1e6, 0.0), tone_stream(32, 1e6, 1.0)];
        let block = fe.capture(&streams, 4, 10);
        assert_eq!(block.antennas(), 2);
        assert_eq!(block.snapshots(), 10);
        #[allow(clippy::needless_range_loop)]
        for m in 0..2 {
            for (a, b) in block.stream(m).iter().zip(&streams[m][4..14]) {
                assert!((*a - *b).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn offsets_rotate_each_radio() {
        let fe = FrontEnd::new(3, 99);
        let streams = vec![
            vec![c64(1.0, 0.0); 16],
            vec![c64(1.0, 0.0); 16],
            vec![c64(1.0, 0.0); 16],
        ];
        let block = fe.capture(&streams, 0, 8);
        for r in 0..3 {
            let expect = Complex64::cis(fe.true_offset(r));
            for z in block.stream(r) {
                assert!((*z - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn offsets_are_deterministic_per_seed() {
        let a = FrontEnd::new(8, 42);
        let b = FrontEnd::new(8, 42);
        let c = FrontEnd::new(8, 43);
        for r in 0..8 {
            assert_eq!(a.true_offset(r), b.true_offset(r));
        }
        assert!((0..8).any(|r| a.true_offset(r) != c.true_offset(r)));
    }

    #[test]
    fn switch_time_is_20_samples_at_40msps() {
        let fe = FrontEnd::perfect(8);
        assert_eq!(fe.switch_samples(), 20);
    }

    #[test]
    fn diversity_capture_synthesizes_nine_antennas() {
        let fe = FrontEnd::perfect(8);
        // 9 antenna streams: a periodic tone so S0/S1 samples agree.
        let period = 128; // samples per fake "LTS"
        let streams: Vec<Vec<Complex64>> = (0..9)
            .map(|m| {
                (0..512)
                    .map(|i| {
                        Complex64::cis(std::f64::consts::TAU * (i % period) as f64 / period as f64)
                            * Complex64::cis(m as f64 * 0.3)
                    })
                    .collect()
            })
            .collect();
        let port_a: Vec<Option<usize>> = (0..8).map(Some).collect();
        let mut port_b = vec![None; 8];
        port_b[0] = Some(8); // ninth antenna on radio 0's port B
        let (block, ants) =
            fe.diversity_capture_cfo(&streams, &port_a, &port_b, 0, period, 10, 0.0);
        assert_eq!(block.antennas(), 9);
        assert_eq!(ants, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // Periodicity makes the lower-set row equal a same-δ upper capture.
        let delta = fe.switch_samples();
        for (i, z) in block.stream(8).iter().enumerate() {
            let direct = streams[8][delta + i];
            assert!((*z - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn diversity_capture_full_16_antennas() {
        let fe = FrontEnd::perfect(8);
        let streams: Vec<Vec<Complex64>> = (0..16)
            .map(|m| vec![Complex64::cis(m as f64 * 0.1); 400])
            .collect();
        let port_a: Vec<Option<usize>> = (0..8).map(Some).collect();
        let port_b: Vec<Option<usize>> = (0..8).map(|r| Some(r + 8)).collect();
        let (block, ants) = fe.diversity_capture_cfo(&streams, &port_a, &port_b, 0, 128, 10, 0.0);
        assert_eq!(block.antennas(), 16);
        assert_eq!(ants.len(), 16);
        assert_eq!(&ants[8..], &[8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn same_radio_applies_same_offset_to_both_ports() {
        let fe = FrontEnd::new(2, 7);
        let streams = vec![
            vec![Complex64::ONE; 400],
            vec![Complex64::ONE; 400],
            vec![Complex64::ONE; 400],
            vec![Complex64::ONE; 400],
        ];
        let port_a = vec![Some(0), Some(1)];
        let port_b = vec![Some(2), Some(3)];
        let (block, _) = fe.diversity_capture_cfo(&streams, &port_a, &port_b, 0, 128, 5, 0.0);
        // Rows 0 and 2 share radio 0; rows 1 and 3 share radio 1.
        assert!((block.stream(0)[0] - block.stream(2)[0]).abs() < 1e-12);
        assert!((block.stream(1)[0] - block.stream(3)[0]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overrun_capture_panics() {
        let fe = FrontEnd::perfect(1);
        fe.capture(&[vec![Complex64::ONE; 8]], 4, 8);
    }

    #[test]
    #[should_panic(expected = "only 1 radios")]
    fn too_many_antennas_panics() {
        let fe = FrontEnd::perfect(1);
        fe.capture(&[vec![Complex64::ONE; 8], vec![Complex64::ONE; 8]], 0, 4);
    }
}
