//! # at-serve — the networked location service
//!
//! ArrayTrack is designed as a *service*: many APs stream processed AoA
//! spectra into a central server, many clients ask it "where am I?" (§1;
//! the §4.4 latency budget is an end-to-end service number). This crate is
//! that network boundary, built entirely on `std::net` + threads:
//!
//! - [`proto`] — a versioned, length-prefixed binary wire protocol with a
//!   total decoder: arbitrary bytes yield a frame, a "need more" signal,
//!   or a typed error, never a panic;
//! - [`codec`] — wire-level spectrum compression (protocol v3): 16-bit
//!   log-domain quantization with a delta/varint/run-length tail for the
//!   AP uplink (~10× smaller), plus a lossless XOR-delta mode for
//!   bit-exact replay; the decompressor is total like the frame decoder;
//! - [`queue`] — the bounded closing admission queue that fusion workers
//!   pop directly;
//! - [`service`] — [`ServiceCore`], the state machine (epoch, session
//!   [`store`], AP health, capture tap) that the server drives live and
//!   `at-replay` drives from a journal;
//! - [`server`] — the thread-pool TCP server around that core: admission
//!   control that sheds load with typed `Overloaded` frames instead of
//!   queuing unboundedly, client-propagated deadlines enforced before the
//!   expensive fusion sweep, and drain-then-stop shutdown;
//! - [`client`] — a blocking client with the same bounded-attempts retry
//!   discipline as the testbed's acquisition layer.
//!
//! The core fuses through [`at_core::fuse_with_scratch`], the path behind
//! the in-process `ArrayTrackServer::try_localize`, so a networked fix is
//! bit-exact with the in-process one and degraded deployments keep their
//! typed `LocalizeError`/health semantics across the wire. Every stage
//! records into `at-obs` (queue-depth gauges, shed and deadline-miss
//! counters, `serve_*` stage histograms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod proto;
pub mod queue;
pub mod server;
pub mod service;
pub mod store;

pub use client::{
    ApClient, AppClient, Client, ClientConfig, ClientError, RemoteFix, RemoteTopology,
};
pub use codec::{CodecError, CompressedMode, Encoding};
pub use proto::{ApHealthReport, ClientKey, DecodeError, Frame};
pub use server::{spawn, spawn_recorded, ServeConfig, ServerHandle, ServiceConfig, StatsSnapshot};
pub use service::{BadAp, FuseScratch, LegacySession, Query, RecordTap, ServiceCore, SessionRef};
pub use store::{KeyedObs, SessionPolicy, SessionStore, StoreStats};
