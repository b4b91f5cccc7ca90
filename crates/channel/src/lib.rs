//! # at-channel — indoor multipath RF channel simulator
//!
//! The substitute for the paper's physical office testbed (see DESIGN.md §1):
//! a 2D image-method ray tracer over a vector floorplan, producing the
//! per-antenna complex baseband samples that the real WARP hardware would
//! capture.
//!
//! - [`geometry`]: points, segments, mirroring, circles;
//! - [`floorplan`]: walls with materials, concrete pillars, obstruction loss;
//! - [`propagation`]: image-method path tracing (direct + 1st/2nd-order
//!   specular reflections) with free-space loss and per-bounce phase
//!   inversion;
//! - [`array`](mod@array): uniform linear arrays at λ/2 spacing plus the off-row
//!   disambiguation antenna (paper §2.3.4, §3);
//! - [`channel`]: applies traced paths to a waveform, yielding per-antenna
//!   sample streams with exact per-antenna carrier phases;
//! - [`polarization`] and [`height`]: the §4.3.2 and Appendix A effects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
#[allow(clippy::module_inception)]
pub mod channel;
pub mod floorplan;
pub mod geometry;
pub mod height;
pub mod polarization;
pub mod propagation;

pub use array::{half_wavelength, offrow_offset, wavelength, AntennaArray, ArrayLayout};
pub use channel::{ChannelSim, Transmitter};
pub use floorplan::{Floorplan, Material, Pillar, Wall};
pub use geometry::{pt, seg, Point, Segment};
pub use propagation::{free_space_path, Path, PathTracer};
