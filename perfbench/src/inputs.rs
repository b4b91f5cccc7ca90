//! Seeded workload inputs: the office deployment's 41 clients x 6 APs,
//! each (client, AP) pair captured as a 3-frame group through the channel
//! simulator, plus a raw detector window per frame holding the preamble at
//! a seeded offset in AWGN. The same seed gives the same inputs.

use at_channel::geometry::Point;
use at_channel::Transmitter;
use at_dsp::awgn::NoiseSource;
use at_dsp::preamble::{Preamble, SAMPLE_RATE_HZ};
use at_dsp::SnapshotBlock;
use at_linalg::Complex64;
use at_testbed::{parallel_map, CaptureConfig, Deployment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frames per (client, AP) group: the paper's semi-static setting (§4.2),
/// which feeds multipath suppression.
const FRAMES_PER_GROUP: usize = 3;
/// Client movement between the frames of a group, meters.
const JITTER_M: f64 = 0.05;
/// Noise-only samples the preamble may be preceded by in a window.
const MAX_OFFSET: usize = 400;
/// Window SNR against the unit-power preamble.
const WINDOW_SNR_DB: f64 = 10.0;

/// One captured frame: the calibrated snapshot block MUSIC runs on, and
/// the raw stream the detector scans, with its true preamble offset.
pub struct FrameInput {
    /// In-row antennas plus the off-row element, 10 snapshots each.
    pub block: SnapshotBlock,
    /// Raw samples: noise, then the preamble at `offset`, then noise.
    pub window: Vec<Complex64>,
    /// Sample index where the preamble starts in `window`.
    pub offset: usize,
}

/// The frames one AP captured from one client, in capture order.
pub struct Group {
    /// The group's frames.
    pub frames: Vec<FrameInput>,
}

/// Every input of a run.
pub struct Inputs {
    /// The office deployment.
    pub dep: Deployment,
    /// Client-major groups: `groups[client * n_aps + ap]`.
    pub groups: Vec<Group>,
    /// Ground-truth client positions.
    pub truth: Vec<Point>,
}

impl Inputs {
    /// Generates the inputs for `seed` on up to `threads` threads.
    pub fn generate(seed: u64, threads: usize) -> Self {
        let dep = Deployment::office(seed);
        let capture = CaptureConfig::default();
        let preamble = Preamble::new().reference(SAMPLE_RATE_HZ);
        let noise = NoiseSource::for_snr_db(WINDOW_SNR_DB);
        let n_aps = dep.aps.len();
        let clients = dep.clients.clone();
        let per_client: Vec<Vec<Group>> = parallel_map(&clients, threads, |ci, &client| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xBE4C_0000 + ci as u64));
            let tx = Transmitter::at(client);
            (0..n_aps)
                .map(|ap| {
                    let blocks = dep.capture_frame_group(
                        ap,
                        client,
                        &tx,
                        &capture,
                        FRAMES_PER_GROUP,
                        JITTER_M,
                        &mut rng,
                    );
                    let frames = blocks
                        .into_iter()
                        .map(|block| {
                            let offset = rng.gen_range(0..MAX_OFFSET);
                            let mut window = vec![Complex64::ZERO; offset];
                            window.extend_from_slice(&preamble);
                            window.resize(MAX_OFFSET + preamble.len(), Complex64::ZERO);
                            noise.corrupt(&mut window, &mut rng);
                            FrameInput {
                                block,
                                window,
                                offset,
                            }
                        })
                        .collect();
                    Group { frames }
                })
                .collect()
        });
        Self {
            groups: per_client.into_iter().flatten().collect(),
            truth: clients,
            dep,
        }
    }

    /// Number of deployment APs.
    pub fn n_aps(&self) -> usize {
        self.dep.aps.len()
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.truth.len()
    }
}
