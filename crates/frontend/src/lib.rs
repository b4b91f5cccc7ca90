//! # at-frontend — simulated AP radio hardware
//!
//! The stand-in for the paper's WARP FPGA platform (§3): everything between
//! the antenna feed and the sample buffers handed to the ArrayTrack server.
//!
//! - [`radio`]: a bank of radios with unknown per-oscillator phase offsets,
//!   plain capture, and diversity-synthesis capture across the two long
//!   training symbols with the 500 ns AntSel switching window (§2.2);
//! - [`calibration`]: the USRP2 CW-tone calibration with the cable-swap
//!   trick that separates internal oscillator offsets from external path
//!   imperfections (§3, eqs. 9–12);
//! - [`buffer`]: the per-frame circular buffer with the 100 ms grouping
//!   query used by multipath suppression (§2.1, §2.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod calibration;
pub mod radio;

pub use buffer::{FrameBuffer, FrameEntry};
pub use calibration::{Calibration, CalibrationRig};
pub use radio::FrontEnd;
