//! The canonical system configuration: one [`SystemConfig`] every layer
//! agrees on, plus the topology-epoch transitions that let the AP set
//! change on a live service.
//!
//! Before this crate, the service's shape was scattered: `at-serve` held
//! poses/region/bins/health in its `ServiceConfig` and sized the engine,
//! the health tracker, and the session store from `poses.len()`
//! independently; the replay journal hashed the same fields with its own
//! hand-rolled FNV walk. One drifting copy meant a silent disagreement
//! between what the engine searched, what the store held, and what the
//! journal claimed to have recorded.
//!
//! [`SystemConfig`] unifies all of it — AP poses, search region, spectrum
//! resolution, health policy, session policy, default uplink codec — with
//! a **canonical byte serialization** (`SystemConfig::canonical_bytes`,
//! bit-exact for the float fields) and a **derived fingerprint**
//! ([`SystemConfig::fingerprint`], FNV-1a over the canonical bytes). Two
//! processes holding the same fingerprint provably search the same grid,
//! age spectra by the same policy, and bound residency the same way —
//! which is exactly the guarantee capture→replay needs.
//!
//! **Topology epochs**: the AP set is versioned runtime state, not a
//! construction-time constant. A [`TopologyOp`] (add / remove / move an
//! AP) applied via [`SystemConfig::apply`] produces the next epoch's
//! config plus an [`ApMapping`] saying where every old AP's *data* lives
//! in the new epoch — `None` for a departed AP (its spectra are reaped)
//! and for a moved one (its calibration changed; stale geometry must not
//! leak into fixes). Every consumer — engine rebuild, session-store
//! remap, health-tracker remap, journal epoch record — derives from this
//! one transition, so they can never disagree about what the
//! reconfiguration meant.
//!
//! Everything here is total and typed: malformed bytes and invalid
//! configurations come back as [`ConfigError`], never a panic, because
//! these values arrive over the wire (protocol v5 `Reconfigure`) and from
//! disk (journal epoch records).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use at_channel::geometry::pt;
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use std::fmt;
use std::time::Duration;

/// Version tag of the canonical serialization this crate writes.
pub(crate) const CANONICAL_VERSION: u16 = 1;

/// Magic prefix of the canonical serialization.
pub(crate) const CANONICAL_MAGIC: [u8; 4] = *b"ATCF";

/// Hard ceiling on deployment size: enough for a campus, small enough
/// that a hostile `Reconfigure` stream cannot balloon per-AP state.
pub const MAX_APS: usize = 4096;

/// Residency and eviction policy of the keyed session store.
///
/// Lives here (not in `at-serve`) because it is part of the canonical
/// system configuration: the resident-spectra cap changes which sessions
/// survive, so replaying a journal bit-exactly requires pinning it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionPolicy {
    /// A session untouched (no submit, no query) for longer than this is
    /// evicted by the reaper.
    pub idle_timeout: Duration,
    /// Hard cap on spectra resident across all sessions; an insert over
    /// the cap evicts the least-recently-touched *other* session first.
    /// Must be at least the deployment's AP count (one full session).
    pub max_resident_spectra: usize,
    /// Cadence of the background reaper's idle sweep.
    pub reap_interval: Duration,
    /// Length of one staleness refresh interval: every elapsed interval
    /// ages every resident spectrum by one, feeding
    /// `HealthPolicy::max_spectrum_age`.
    pub refresh_interval: Duration,
    /// Shard count (keys hash across shards; more shards, less writer
    /// contention).
    pub shards: usize,
}

impl Default for SessionPolicy {
    fn default() -> Self {
        Self {
            idle_timeout: Duration::from_secs(60),
            max_resident_spectra: 1 << 16,
            reap_interval: Duration::from_millis(250),
            refresh_interval: Duration::from_secs(1),
            shards: 16,
        }
    }
}

impl SessionPolicy {
    /// Typed validation of the policy.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.max_resident_spectra < 1 {
            return Err(ConfigError::Session("the cap must admit spectra"));
        }
        if self.shards < 1 {
            return Err(ConfigError::Session("the store needs at least one shard"));
        }
        if self.reap_interval.is_zero() || self.refresh_interval.is_zero() {
            return Err(ConfigError::Session("reaper cadences must be non-zero"));
        }
        if self.idle_timeout.is_zero() {
            return Err(ConfigError::Session("idle timeout must be non-zero"));
        }
        Ok(())
    }
}

/// Default uplink wire encoding the service advertises to AP clients
/// (the codec itself lives in `at-serve`; the canonical config records
/// the *policy* so two deployments with different defaults fingerprint
/// differently).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CodecDefault {
    /// Uncompressed `f64` bins (every server speaks it).
    #[default]
    Raw,
    /// 16-bit log-domain quantization (protocol v3, ~10× smaller).
    Quantized,
    /// Bit-exact XOR-delta compression (protocol v3, ~1.5× smaller).
    LosslessDelta,
}

impl CodecDefault {
    fn to_byte(self) -> u8 {
        match self {
            Self::Raw => 0,
            Self::Quantized => 1,
            Self::LosslessDelta => 2,
        }
    }

    #[cfg(test)]
    fn from_byte(b: u8) -> Result<Self, ConfigError> {
        match b {
            0 => Ok(Self::Raw),
            1 => Ok(Self::Quantized),
            2 => Ok(Self::LosslessDelta),
            _ => Err(ConfigError::Malformed("unknown codec default")),
        }
    }
}

/// Why a configuration (or a topology transition) was refused. Total and
/// descriptive: these cross the wire as protocol-error payloads, so an
/// admin sees *what* was wrong, and nothing here ever panics a server
/// thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The AP set is empty — a service needs at least one AP.
    NoAps,
    /// The AP set exceeds [`MAX_APS`].
    TooManyAps {
        /// Requested AP count.
        n_aps: usize,
    },
    /// Spectrum resolution outside the supported `8..=65536` range.
    BinsOutOfRange {
        /// Requested bin count.
        bins: usize,
    },
    /// An AP pose carries a non-finite coordinate or axis angle.
    NonFinitePose {
        /// Index of the offending AP.
        ap_id: u32,
    },
    /// The search region is degenerate or non-finite.
    BadRegion,
    /// The health policy is inconsistent (reason attached).
    Health(&'static str),
    /// The session policy is inconsistent (reason attached).
    Session(&'static str),
    /// The resident-spectra cap cannot hold one full session.
    CapBelowApCount {
        /// The configured cap.
        cap: usize,
        /// The AP count one session needs.
        n_aps: usize,
    },
    /// A topology op referenced an AP the current epoch does not have.
    BadApId {
        /// The referenced AP.
        ap_id: u32,
        /// APs in the current epoch.
        n_aps: usize,
    },
    /// A topology op would remove the last AP.
    LastAp,
    /// Canonical bytes (or an encoded op) did not parse.
    Malformed(&'static str),
    /// Canonical bytes carry a serialization version this build does not
    /// speak.
    UnsupportedVersion {
        /// The version found in the bytes.
        version: u16,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoAps => write!(f, "a service needs at least one AP"),
            Self::TooManyAps { n_aps } => {
                write!(f, "{n_aps} APs exceeds the {MAX_APS}-AP ceiling")
            }
            Self::BinsOutOfRange { bins } => {
                write!(f, "bins must be in 8..=65536, got {bins}")
            }
            Self::NonFinitePose { ap_id } => {
                write!(f, "AP {ap_id} has a non-finite pose")
            }
            Self::BadRegion => write!(f, "search region is degenerate or non-finite"),
            Self::Health(why) => write!(f, "health policy: {why}"),
            Self::Session(why) => write!(f, "session policy: {why}"),
            Self::CapBelowApCount { cap, n_aps } => write!(
                f,
                "resident-spectra cap {cap} cannot hold one full {n_aps}-AP session"
            ),
            Self::BadApId { ap_id, n_aps } => {
                write!(f, "AP {ap_id} out of range (epoch has {n_aps} APs)")
            }
            Self::LastAp => write!(f, "cannot remove the last AP"),
            Self::Malformed(what) => write!(f, "malformed config bytes: {what}"),
            Self::UnsupportedVersion { version } => {
                write!(f, "unsupported canonical config version {version}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The single canonical configuration of an ArrayTrack location service:
/// everything that determines what a fix *is* — geometry, resolution,
/// fusion policy, residency policy, uplink codec default.
///
/// See the module docs for why this is one struct with one byte form and
/// one fingerprint instead of per-layer copies.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Pose of every AP's antenna array, indexed by deployment AP id.
    pub poses: Vec<ApPose>,
    /// The rectangular search region and grid pitch.
    pub region: SearchRegion,
    /// Angular resolution of the spectra APs submit (pipeline default
    /// 720).
    pub bins: usize,
    /// AP health and fusion-quorum policy.
    pub health: HealthPolicy,
    /// Session residency and eviction policy.
    pub session: SessionPolicy,
    /// Default uplink wire encoding.
    pub codec: CodecDefault,
}

const POSE_BYTES: usize = 24;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_pose(out: &mut Vec<u8>, pose: &ApPose) {
    put_f64(out, pose.center.x);
    put_f64(out, pose.center.y);
    put_f64(out, pose.axis_angle);
}

/// A bounds-checked little-endian cursor; every getter is total.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ConfigError> {
        let end = self
            .at
            .checked_add(N)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ConfigError::Malformed(what))?;
        let mut buf = [0u8; N];
        buf.copy_from_slice(&self.bytes[self.at..end]);
        self.at = end;
        Ok(buf)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ConfigError> {
        Ok(self.take::<1>(what)?[0])
    }

    #[cfg(test)]
    fn u16(&mut self, what: &'static str) -> Result<u16, ConfigError> {
        Ok(u16::from_le_bytes(self.take(what)?))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ConfigError> {
        Ok(u32::from_le_bytes(self.take(what)?))
    }

    #[cfg(test)]
    fn u64(&mut self, what: &'static str) -> Result<u64, ConfigError> {
        Ok(u64::from_le_bytes(self.take(what)?))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, ConfigError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take(what)?)))
    }

    fn pose(&mut self) -> Result<ApPose, ConfigError> {
        Ok(ApPose {
            center: pt(self.f64("pose x")?, self.f64("pose y")?),
            axis_angle: self.f64("pose axis")?,
        })
    }

    fn consumed(&self) -> usize {
        self.at
    }

    #[cfg(test)]
    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// FNV-1a over `bytes` — the one hash every fingerprint in the system
/// derives from.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SystemConfig {
    /// Number of APs in this epoch's topology.
    pub fn n_aps(&self) -> usize {
        self.poses.len()
    }

    /// Typed validation: every constraint a service refuses to start (or
    /// reconfigure) under, as a [`ConfigError`] instead of a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.poses.is_empty() {
            return Err(ConfigError::NoAps);
        }
        if self.poses.len() > MAX_APS {
            return Err(ConfigError::TooManyAps {
                n_aps: self.poses.len(),
            });
        }
        for (i, pose) in self.poses.iter().enumerate() {
            check_pose(pose, i as u32)?;
        }
        if !self.region.min.x.is_finite()
            || !self.region.min.y.is_finite()
            || !self.region.max.x.is_finite()
            || !self.region.max.y.is_finite()
            || !self.region.resolution.is_finite()
            || self.region.max.x <= self.region.min.x
            || self.region.max.y <= self.region.min.y
            || self.region.resolution <= 0.0
        {
            return Err(ConfigError::BadRegion);
        }
        if !(8..=(1 << 16)).contains(&self.bins) {
            return Err(ConfigError::BinsOutOfRange { bins: self.bins });
        }
        self.health.check().map_err(ConfigError::Health)?;
        self.session.check()?;
        if self.session.max_resident_spectra < self.poses.len() {
            return Err(ConfigError::CapBelowApCount {
                cap: self.session.max_resident_spectra,
                n_aps: self.poses.len(),
            });
        }
        Ok(())
    }

    /// The canonical byte serialization: versioned, little-endian, floats
    /// as IEEE-754 bits (so encode→decode→encode is byte-identical).
    pub(crate) fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.poses.len() * POSE_BYTES);
        out.extend_from_slice(&CANONICAL_MAGIC);
        out.extend_from_slice(&CANONICAL_VERSION.to_le_bytes());
        out.push(self.codec.to_byte());
        out.push(0); // reserved
        put_u32(&mut out, self.poses.len() as u32);
        for pose in &self.poses {
            put_pose(&mut out, pose);
        }
        put_f64(&mut out, self.region.min.x);
        put_f64(&mut out, self.region.min.y);
        put_f64(&mut out, self.region.max.x);
        put_f64(&mut out, self.region.max.y);
        put_f64(&mut out, self.region.resolution);
        put_u32(&mut out, self.bins as u32);
        put_u32(&mut out, self.health.degraded_after);
        put_u32(&mut out, self.health.down_after);
        put_u64(&mut out, self.health.max_spectrum_age);
        put_u32(&mut out, self.health.min_quorum as u32);
        put_f64(&mut out, self.health.degraded_weight);
        put_u64(&mut out, duration_us(self.session.idle_timeout));
        put_u64(&mut out, self.session.max_resident_spectra as u64);
        put_u64(&mut out, duration_us(self.session.reap_interval));
        put_u64(&mut out, duration_us(self.session.refresh_interval));
        put_u32(&mut out, self.session.shards as u32);
        out
    }

    /// Parses (and validates) a canonical serialization. Total: malformed
    /// or trailing bytes come back as [`ConfigError`], never a panic.
    #[cfg(test)]
    pub(crate) fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, ConfigError> {
        let mut c = Cursor::new(bytes);
        if c.take::<4>("magic")? != CANONICAL_MAGIC {
            return Err(ConfigError::Malformed("bad magic"));
        }
        let version = c.u16("version")?;
        if version != CANONICAL_VERSION {
            return Err(ConfigError::UnsupportedVersion { version });
        }
        let codec = CodecDefault::from_byte(c.u8("codec")?)?;
        let _reserved = c.u8("reserved")?;
        let n_aps = c.u32("ap count")? as usize;
        if n_aps > MAX_APS {
            return Err(ConfigError::TooManyAps { n_aps });
        }
        let mut poses = Vec::with_capacity(n_aps);
        for _ in 0..n_aps {
            poses.push(c.pose()?);
        }
        let region = SearchRegion {
            min: pt(c.f64("region min x")?, c.f64("region min y")?),
            max: pt(c.f64("region max x")?, c.f64("region max y")?),
            resolution: c.f64("region resolution")?,
        };
        let bins = c.u32("bins")? as usize;
        let health = HealthPolicy {
            degraded_after: c.u32("degraded_after")?,
            down_after: c.u32("down_after")?,
            max_spectrum_age: c.u64("max_spectrum_age")?,
            min_quorum: c.u32("min_quorum")? as usize,
            degraded_weight: c.f64("degraded_weight")?,
        };
        let session = SessionPolicy {
            idle_timeout: Duration::from_micros(c.u64("idle_timeout")?),
            max_resident_spectra: usize::try_from(c.u64("max_resident_spectra")?)
                .map_err(|_| ConfigError::Malformed("cap overflows usize"))?,
            reap_interval: Duration::from_micros(c.u64("reap_interval")?),
            refresh_interval: Duration::from_micros(c.u64("refresh_interval")?),
            shards: c.u32("shards")? as usize,
        };
        if !c.done() {
            return Err(ConfigError::Malformed("trailing bytes"));
        }
        let config = Self {
            poses,
            region,
            bins,
            health,
            session,
            codec,
        };
        config.validate()?;
        Ok(config)
    }

    /// The derived fingerprint: FNV-1a over the canonical bytes. Equal
    /// fingerprints ⇒ byte-identical canonical configs ⇒ the same grid,
    /// the same policies, the same epoch semantics.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.canonical_bytes())
    }

    /// Applies one topology op, producing the next epoch's config and the
    /// [`ApMapping`] every stateful layer remaps through. The op is
    /// validated against *this* config and the result re-validated, so an
    /// invalid transition is a typed refusal and the current epoch stays
    /// untouched.
    pub fn apply(&self, op: &TopologyOp) -> Result<(SystemConfig, ApMapping), ConfigError> {
        let n = self.poses.len();
        let mut next = self.clone();
        let mapping = match *op {
            TopologyOp::Add { pose } => {
                check_pose(&pose, n as u32)?;
                next.poses.push(pose);
                ApMapping {
                    old_to_new: (0..n).map(|i| Some(i as u32)).collect(),
                    n_new: n + 1,
                }
            }
            TopologyOp::Remove { ap_id } => {
                let idx = check_ap_id(ap_id, n)?;
                if n == 1 {
                    return Err(ConfigError::LastAp);
                }
                next.poses.remove(idx);
                ApMapping {
                    old_to_new: (0..n)
                        .map(|i| match i.cmp(&idx) {
                            std::cmp::Ordering::Less => Some(i as u32),
                            std::cmp::Ordering::Equal => None,
                            std::cmp::Ordering::Greater => Some((i - 1) as u32),
                        })
                        .collect(),
                    n_new: n - 1,
                }
            }
            TopologyOp::Move { ap_id, pose } => {
                let idx = check_ap_id(ap_id, n)?;
                check_pose(&pose, ap_id)?;
                next.poses[idx] = pose;
                // The moved AP keeps its id but its calibration changed:
                // spectra captured under the old geometry must not fuse
                // into new-epoch fixes, so its data maps nowhere.
                ApMapping {
                    old_to_new: (0..n)
                        .map(|i| if i == idx { None } else { Some(i as u32) })
                        .collect(),
                    n_new: n,
                }
            }
        };
        next.validate()?;
        Ok((next, mapping))
    }
}

fn check_pose(pose: &ApPose, ap_id: u32) -> Result<(), ConfigError> {
    if pose.center.x.is_finite() && pose.center.y.is_finite() && pose.axis_angle.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NonFinitePose { ap_id })
    }
}

fn check_ap_id(ap_id: u32, n_aps: usize) -> Result<usize, ConfigError> {
    let idx = ap_id as usize;
    if idx < n_aps {
        Ok(idx)
    } else {
        Err(ConfigError::BadApId { ap_id, n_aps })
    }
}

/// One topology transition: the unit an admin requests over the wire
/// (protocol v5 `Reconfigure`) and the journal records as an epoch event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologyOp {
    /// A new AP joins at `pose`; it gets the next free id and starts
    /// cold (no spectra, healthy).
    Add {
        /// Pose of the joining AP's array.
        pose: ApPose,
    },
    /// AP `ap_id` leaves; its spectra are reaped and higher ids shift
    /// down by one.
    Remove {
        /// Departing AP.
        ap_id: u32,
    },
    /// AP `ap_id` is moved/recalibrated to `pose`; it keeps its id but
    /// starts cold (old-geometry spectra are reaped).
    Move {
        /// The AP being moved.
        ap_id: u32,
        /// Its new pose.
        pose: ApPose,
    },
}

impl fmt::Display for TopologyOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Add { pose } => write!(
                f,
                "add AP at ({:.2}, {:.2})@{:.3}rad",
                pose.center.x, pose.center.y, pose.axis_angle
            ),
            Self::Remove { ap_id } => write!(f, "remove AP {ap_id}"),
            Self::Move { ap_id, pose } => write!(
                f,
                "move AP {ap_id} to ({:.2}, {:.2})@{:.3}rad",
                pose.center.x, pose.center.y, pose.axis_angle
            ),
        }
    }
}

const OP_ADD: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_MOVE: u8 = 3;

impl TopologyOp {
    /// Appends the op's canonical wire encoding (shared by protocol v5
    /// frames and journal epoch records).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Self::Add { pose } => {
                out.push(OP_ADD);
                put_pose(out, &pose);
            }
            Self::Remove { ap_id } => {
                out.push(OP_REMOVE);
                put_u32(out, ap_id);
            }
            Self::Move { ap_id, pose } => {
                out.push(OP_MOVE);
                put_u32(out, ap_id);
                put_pose(out, &pose);
            }
        }
    }

    /// Decodes one op from the front of `bytes`, returning it and the
    /// bytes consumed. Total: anything unparseable is a typed error.
    pub fn decode(bytes: &[u8]) -> Result<(TopologyOp, usize), ConfigError> {
        let mut c = Cursor::new(bytes);
        let op = match c.u8("op tag")? {
            OP_ADD => TopologyOp::Add { pose: c.pose()? },
            OP_REMOVE => TopologyOp::Remove {
                ap_id: c.u32("ap id")?,
            },
            OP_MOVE => TopologyOp::Move {
                ap_id: c.u32("ap id")?,
                pose: c.pose()?,
            },
            _ => return Err(ConfigError::Malformed("unknown op tag")),
        };
        Ok((op, c.consumed()))
    }
}

/// Where every old AP's data lives after a topology transition.
///
/// `old_to_new[i] = Some(j)` means old AP `i`'s spectra and health state
/// carry over as new AP `j`; `None` means they are dropped (the AP left,
/// or moved and its old-geometry spectra are invalid). Joining APs have
/// no preimage — they start cold and surface through the existing
/// `QuorumNotMet` path until they submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApMapping {
    /// Per old AP id: the new id its data carries over to, or `None`.
    pub old_to_new: Vec<Option<u32>>,
    /// AP count of the new epoch.
    pub n_new: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn office() -> SystemConfig {
        SystemConfig {
            poses: (0..6)
                .map(|i| ApPose {
                    center: pt(f64::from(i) * 5.0, 2.0),
                    axis_angle: f64::from(i) * 0.3,
                })
                .collect(),
            region: SearchRegion::new(pt(0.0, 0.0), pt(30.0, 20.0)),
            bins: 720,
            health: HealthPolicy::default(),
            session: SessionPolicy::default(),
            codec: CodecDefault::LosslessDelta,
        }
    }

    #[test]
    fn canonical_bytes_roundtrip_bit_exactly() {
        let cfg = office();
        let bytes = cfg.canonical_bytes();
        let back = SystemConfig::from_canonical_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.canonical_bytes(), bytes);
        assert_eq!(back.fingerprint(), cfg.fingerprint());
    }

    #[test]
    fn fingerprint_changes_with_every_field() {
        let base = office().fingerprint();
        let mut moved = office();
        moved.poses[3].center.x += 0.01;
        assert_ne!(moved.fingerprint(), base);
        let mut rebinned = office();
        rebinned.bins = 360;
        assert_ne!(rebinned.fingerprint(), base);
        let mut requorumed = office();
        requorumed.health.min_quorum = 2;
        assert_ne!(requorumed.fingerprint(), base);
        let mut recapped = office();
        recapped.session.max_resident_spectra = 77;
        assert_ne!(recapped.fingerprint(), base);
        let mut recoded = office();
        recoded.codec = CodecDefault::Raw;
        assert_ne!(recoded.fingerprint(), base);
    }

    #[test]
    fn validate_refuses_bad_configs_with_typed_errors() {
        let mut empty = office();
        empty.poses.clear();
        assert_eq!(empty.validate(), Err(ConfigError::NoAps));

        let mut bins = office();
        bins.bins = 4;
        assert_eq!(
            bins.validate(),
            Err(ConfigError::BinsOutOfRange { bins: 4 })
        );

        let mut nan = office();
        nan.poses[2].axis_angle = f64::NAN;
        assert_eq!(nan.validate(), Err(ConfigError::NonFinitePose { ap_id: 2 }));

        let mut cap = office();
        cap.session.max_resident_spectra = 3;
        assert_eq!(
            cap.validate(),
            Err(ConfigError::CapBelowApCount { cap: 3, n_aps: 6 })
        );

        let mut health = office();
        health.health.degraded_after = 9;
        health.health.down_after = 2;
        assert!(matches!(health.validate(), Err(ConfigError::Health(_))));
    }

    #[test]
    fn decode_is_total_on_garbage() {
        assert!(SystemConfig::from_canonical_bytes(&[]).is_err());
        assert!(SystemConfig::from_canonical_bytes(b"ATCF").is_err());
        let mut bytes = office().canonical_bytes();
        bytes.push(0);
        assert_eq!(
            SystemConfig::from_canonical_bytes(&bytes),
            Err(ConfigError::Malformed("trailing bytes"))
        );
        bytes.pop();
        bytes[4] = 99; // version
        assert!(matches!(
            SystemConfig::from_canonical_bytes(&bytes),
            Err(ConfigError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn remove_shifts_ids_down_and_drops_the_departed() {
        let cfg = office();
        let (next, map) = cfg.apply(&TopologyOp::Remove { ap_id: 2 }).expect("apply");
        assert_eq!(next.n_aps(), 5);
        assert_eq!(next.poses[2], cfg.poses[3]);
        assert_eq!(
            map.old_to_new,
            vec![Some(0), Some(1), None, Some(2), Some(3), Some(4)]
        );
        assert_eq!(map.n_new, 5);
        assert_ne!(next.fingerprint(), cfg.fingerprint());
    }

    #[test]
    fn add_appends_cold_and_keeps_existing_ids() {
        let cfg = office();
        let pose = ApPose {
            center: pt(1.0, 19.0),
            axis_angle: 0.5,
        };
        let (next, map) = cfg.apply(&TopologyOp::Add { pose }).expect("apply");
        assert_eq!(next.n_aps(), 7);
        assert_eq!(next.poses[6], pose);
        assert!(map
            .old_to_new
            .iter()
            .enumerate()
            .all(|(i, m)| *m == Some(i as u32)));
        assert_eq!(map.n_new, 7);
    }

    #[test]
    fn move_keeps_the_id_but_drops_its_data() {
        let cfg = office();
        let pose = ApPose {
            center: pt(9.0, 9.0),
            axis_angle: 1.0,
        };
        let (next, map) = cfg
            .apply(&TopologyOp::Move { ap_id: 4, pose })
            .expect("apply");
        assert_eq!(next.n_aps(), 6);
        assert_eq!(next.poses[4], pose);
        assert_eq!(map.old_to_new[4], None);
        assert_eq!(map.old_to_new[3], Some(3));
    }

    #[test]
    fn apply_refuses_invalid_ops_and_leaves_config_untouched() {
        let cfg = office();
        assert!(matches!(
            cfg.apply(&TopologyOp::Remove { ap_id: 6 }),
            Err(ConfigError::BadApId { ap_id: 6, n_aps: 6 })
        ));
        let single = SystemConfig {
            poses: vec![cfg.poses[0]],
            ..office()
        };
        assert!(matches!(
            single.apply(&TopologyOp::Remove { ap_id: 0 }),
            Err(ConfigError::LastAp)
        ));
        // A cap that can't fit the grown session count refuses the add.
        let mut tight = office();
        tight.session.max_resident_spectra = 6;
        assert!(matches!(
            tight.apply(&TopologyOp::Add { pose: cfg.poses[0] }),
            Err(ConfigError::CapBelowApCount { .. })
        ));
    }

    #[test]
    fn op_encoding_roundtrips() {
        let ops = [
            TopologyOp::Add {
                pose: ApPose {
                    center: pt(1.5, -2.5),
                    axis_angle: 0.25,
                },
            },
            TopologyOp::Remove { ap_id: 3 },
            TopologyOp::Move {
                ap_id: 1,
                pose: ApPose {
                    center: pt(0.0, 7.0),
                    axis_angle: -1.0,
                },
            },
        ];
        for op in &ops {
            let mut bytes = Vec::new();
            op.encode(&mut bytes);
            let (back, used) = TopologyOp::decode(&bytes).expect("decode");
            assert_eq!(back, *op);
            assert_eq!(used, bytes.len());
        }
        assert!(TopologyOp::decode(&[]).is_err());
        assert!(TopologyOp::decode(&[9]).is_err());
        assert!(TopologyOp::decode(&[OP_MOVE, 1]).is_err());
    }
}
