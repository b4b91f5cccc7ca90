//! Extension experiment: linear vs. circular arrays (paper §6 discussion).
//!
//! The paper weighs the trade-off qualitatively: "circular array resolves
//! 360 degrees while linear resolves 180 degrees, \[but\] twice the number
//! of antennas is needed for circular array to achieve the same level of
//! resolution accuracy, while linear array has the problem of symmetry
//! ambiguity". This experiment makes it quantitative on the simulated
//! office: same 8 antennas per AP, arranged in a row vs. on a circle.

use crate::report::{f1, f3, Report};
use at_channel::geometry::angle_diff;
use at_channel::{AntennaArray, ChannelSim, Transmitter};
use at_core::music::{music_analysis_positions, music_spectrum, MusicConfig};
use at_core::steering::circular_frame_positions;
use at_core::AoaSpectrum;
use at_dsp::awgn::NoiseSource;
use at_dsp::preamble::{Preamble, LTS0_START_S};
use at_dsp::SnapshotBlock;
use at_testbed::{localization_sweep, Deployment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;

/// Captures 10 snapshots from `client` at an AP with the given array.
fn capture(
    dep: &Deployment,
    array: &AntennaArray,
    client: at_channel::Point,
    rng: &mut StdRng,
) -> SnapshotBlock {
    let sim = ChannelSim::new(&dep.floorplan);
    let p = Preamble::new();
    let tx = Transmitter::at(client);
    let mut streams = sim.receive(
        &tx,
        array,
        |t| p.eval(t),
        LTS0_START_S + 1.0e-6,
        10.0 / at_dsp::SAMPLE_RATE_HZ,
        at_dsp::SAMPLE_RATE_HZ,
    );
    let noise = NoiseSource::with_power(1e-10);
    for s in &mut streams {
        noise.corrupt(s, rng);
    }
    SnapshotBlock::new(streams)
}

/// Runs the experiment.
pub fn run() -> std::io::Result<()> {
    let report = Report::new("circular")?;
    report.section("Linear vs circular 8-antenna arrays (paper §6 discussion)");

    let dep = Deployment::office(42);

    // Part 1: single-AP ambiguity microbenchmark in free space.
    let free = Deployment::free_space(42);
    let mut rng = StdRng::seed_from_u64(4242);
    let mut lin_ghosts = 0;
    let mut circ_ghosts = 0;
    let mut lin_err = 0.0;
    let mut circ_err = 0.0;
    let trials = 24;
    let circ_positions = circular_frame_positions(8);
    for k in 0..trials {
        let theta = 0.3 + k as f64 * (TAU - 0.6) / trials as f64;
        let lin_array = AntennaArray::ula(at_channel::geometry::pt(0.0, 0.0), 0.0, 8);
        let circ_array = AntennaArray::uca(at_channel::geometry::pt(0.0, 0.0), 0.0, 8);
        let client = lin_array.point_at(theta, 12.0);

        let lin_spec = music_spectrum(
            &capture(&free, &lin_array, client, &mut rng),
            &MusicConfig::default(),
        );
        let circ_block = capture(&free, &circ_array, client, &mut rng);
        let circ_spec = music_analysis_positions(
            &circ_block.correlation_matrix(),
            &circ_positions,
            &MusicConfig {
                smoothing_groups: 1,
                ..MusicConfig::default()
            },
        )
        .spectrum;

        let fold_err = |spec: &AoaSpectrum| -> f64 {
            spec.find_peaks(0.5)
                .first()
                .map(|p| angle_diff(p.theta, theta).min(angle_diff(p.theta, TAU - theta)))
                .unwrap_or(f64::INFINITY)
        };
        lin_err += fold_err(&lin_spec).to_degrees() / trials as f64;
        circ_err += fold_err(&circ_spec).to_degrees() / trials as f64;
        // Ghost: a ≥half-power peak at the mirror bearing.
        if lin_spec.has_peak_near(TAU - theta, 0.1, 0.5) {
            lin_ghosts += 1;
        }
        if circ_spec.has_peak_near(TAU - theta, 0.1, 0.5) && angle_diff(theta, TAU - theta) > 0.2 {
            circ_ghosts += 1;
        }
    }
    report.table(
        &["array", "mean |bearing err|(°)", "mirror ghosts"],
        &[
            vec![
                "linear-8".into(),
                f3(lin_err),
                format!("{lin_ghosts}/{trials}"),
            ],
            vec![
                "circular-8".into(),
                f3(circ_err),
                format!("{circ_ghosts}/{trials}"),
            ],
        ],
    );

    // Part 2: office localization at 3 and 6 APs.
    let music_nosmooth = MusicConfig {
        smoothing_groups: 1,
        ..MusicConfig::default()
    };
    let mut variants: Vec<(&str, Vec<Vec<AoaSpectrum>>)> = Vec::new();
    for circular in [false, true] {
        let mut rng = StdRng::seed_from_u64(777);
        let spectra: Vec<Vec<AoaSpectrum>> = dep
            .clients
            .iter()
            .map(|&client| {
                (0..dep.aps.len())
                    .map(|ap| {
                        let pose = dep.aps[ap].pose;
                        if circular {
                            let array = AntennaArray::uca(pose.center, pose.axis_angle, 8);
                            let block = capture(&dep, &array, client, &mut rng);
                            music_analysis_positions(
                                &block.correlation_matrix(),
                                &circ_positions,
                                &music_nosmooth,
                            )
                            .spectrum
                        } else {
                            let array = AntennaArray::ula(pose.center, pose.axis_angle, 8);
                            let block = capture(&dep, &array, client, &mut rng);
                            music_spectrum(&block, &MusicConfig::default())
                        }
                    })
                    .collect()
            })
            .collect();
        variants.push((
            if circular {
                "circular-8"
            } else {
                "linear-8 (NG=2)"
            },
            spectra,
        ));
    }

    let mut rows = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (label, spectra) in &variants {
        let stats = localization_sweep(
            &dep,
            spectra,
            &[3, 6],
            0.2,
            at_testbed::experiments::default_threads(),
        );
        rows.push(vec![
            label.to_string(),
            f3(stats[&3].median()),
            f3(stats[&3].mean()),
            f3(stats[&6].median()),
            f3(stats[&6].mean()),
        ]);
        for k in [3usize, 6] {
            csv_rows.push(vec![
                label.to_string(),
                k.to_string(),
                f3(stats[&k].median()),
                f3(stats[&k].mean()),
            ]);
        }
    }
    report.table(
        &[
            "array",
            "3AP med(m)",
            "3AP mean(m)",
            "6AP med(m)",
            "6AP mean(m)",
        ],
        &rows,
    );
    report.csv("results", &["array", "aps", "median_m", "mean_m"], csv_rows)?;
    report.line(format!(
        "paper §6 trade-off: circular kills the {}-of-{trials} linear mirror ghosts, \
         but loses the smoothing aperture in coherent multipath",
        lin_ghosts
    ));
    report.line(f1(lin_err) + "° vs " + &f1(circ_err) + "° single-AP bearing error");
    Ok(())
}
