//! # at-dsp — baseband signal processing for ArrayTrack
//!
//! The physical-layer substrate: everything between "a client transmits a
//! frame" and "the AP has complex baseband samples per antenna".
//!
//! - [`preamble`]: continuous-time 802.11 OFDM preamble and data-symbol
//!   synthesis (paper Fig. 2) — exact fractional-delay evaluation for the
//!   multipath channel;
//! - [`fft`]: radix-2 FFT used in OFDM analysis, tests and the matched
//!   filter's overlap-save correlation;
//! - [`awgn`]: seedable complex Gaussian noise + dB/SNR bookkeeping;
//! - [`detector`]: Schmidl–Cox and the paper's full-preamble matched filter
//!   (§2.1, §4.3.4 — detection at −10 dB SNR), correlating by FFT;
//! - [`corr`]: sample array-correlation matrices `Rxx` (eq. 4), the input
//!   to MUSIC in `at-core`;
//! - [`cfo`]: carrier-frequency-offset estimation from the repeated long
//!   training symbols, needed before diversity synthesis can combine
//!   samples captured 3.2 µs apart (§2.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod awgn;
pub mod cfo;
pub mod corr;
pub mod detector;
pub mod fft;
pub mod preamble;

pub use awgn::{db_to_linear, linear_to_db, NoiseSource};
pub use cfo::estimate_cfo;
pub use corr::SnapshotBlock;
pub use detector::{DetectScratch, Detection, MatchedFilter, SchmidlCox};
pub use preamble::{Frame, Preamble, SAMPLE_RATE_HZ};
