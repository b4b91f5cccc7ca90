//! `SpectrumCodec`: the wire-level spectrum compression behind protocol
//! v3's compressed submit frames.
//!
//! A 720-bin spectrum costs 5.7 KB as raw `f64` bins — the dominant AP
//! uplink cost once six AP processes fan into one server. Pseudospectra
//! are smooth in the log domain and flat across their noise floor, so two
//! compressed representations cover the deployment spectrum:
//!
//! - **Quantized** ([`CompressedMode::Quantized`], lossy): each bin maps
//!   to a 16-bit code on a log-domain grid spanning [`DYNAMIC_RANGE_NATS`]
//!   below the spectrum's peak (code 0 is reserved for zero / below-floor
//!   bins). Codes are delta-encoded bin to bin, zigzag-mapped, and written
//!   as LEB128 varints; a zero delta is followed by a varint run length,
//!   so the flat noise floor of a lobe spectrum collapses to a few bytes.
//!   The grid step is `DYNAMIC_RANGE_NATS / 65534` ≈ 4.2e-4 nats, i.e. a
//!   worst-case relative error of ~2.1e-4 per bin — far below anything
//!   the localization engine can resolve (the loadgen gate holds p50 fix
//!   displacement under 1 mm).
//! - **Lossless** ([`CompressedMode::Lossless`], bit-exact): consecutive
//!   bins' `f64` bit patterns are XORed (adjacent bins share sign,
//!   exponent, and high mantissa bits, so the XOR is small) and written as
//!   varints with the same zero-run tail. Decoding reproduces every bin
//!   `to_bits`-identically — the replay/parity mode.
//!
//! Both decoders are **total**: any byte slice yields either a spectrum
//! that already satisfies the [`AoaSpectrum`] invariants (finite,
//! non-negative, ≥ 8 bins) or a typed [`CodecError`] — never a panic,
//! never an allocation beyond the declared (and capped) bin count. The
//! `codec_proptests` suite fuzzes this over arbitrary byte strings.
//!
//! Quantization is **idempotent**: compressing an already-dequantized
//! spectrum reproduces the same codes (the peak bin always maps to the
//! top code, so the stored peak value is exact), which is what lets a
//! decoded compressed [`crate::proto::Frame::Submit`] re-encode to the
//! same bytes.

use crate::proto::MAX_BINS;
use at_core::AoaSpectrum;
use std::fmt;

/// Log-domain span of the quantizer grid, in nats: bins more than this
/// far below the spectrum peak collapse to code 0 (decoded as exactly
/// zero). ln(1e12) — twelve decades, comfortably beyond the dynamic range
/// a MUSIC pseudospectrum carries meaningful shape in.
pub const DYNAMIC_RANGE_NATS: f64 = 27.631021115928547; // ln(1e12)

/// Number of non-zero quantizer codes (codes `1..=QMAX` span the grid;
/// code 0 is the below-floor sentinel).
const QMAX: u32 = 65_535;

/// Grid step in nats.
const STEP_NATS: f64 = DYNAMIC_RANGE_NATS / (QMAX - 1) as f64;

/// Worst-case relative error of one quantize→dequantize trip for a bin
/// within the representable range: half a grid step in the log domain.
/// (`codec_proptests` asserts the bound across the full dynamic range.)
pub const MAX_RELATIVE_ERROR: f64 = 2.2e-4; // exp(STEP_NATS / 2) - 1, padded

/// Wire byte identifying the quantized payload layout.
const MODE_QUANTIZED: u8 = 1;
/// Wire byte identifying the lossless payload layout.
const MODE_LOSSLESS: u8 = 2;

/// How an [`crate::client::ApClient`] puts spectra on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// Raw `f64` bins in a legacy (v1/v2) submit frame. Interoperates
    /// with every server.
    Raw,
    /// 16-bit log-domain quantized (lossy, ~2e-4 relative error,
    /// typically ≥8× smaller). Requires a v3 server.
    Quantized,
    /// XOR-delta compressed `f64` bits (bit-exact, modest savings).
    /// Requires a v3 server.
    LosslessDelta,
}

impl Encoding {
    /// The compressed-frame mode this policy maps to; `None` for raw.
    pub fn mode(self) -> Option<CompressedMode> {
        match self {
            Encoding::Raw => None,
            Encoding::Quantized => Some(CompressedMode::Quantized),
            Encoding::LosslessDelta => Some(CompressedMode::Lossless),
        }
    }

    /// Metric label value (`encoding` label on the uplink counters).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Encoding::Raw => "raw",
            Encoding::Quantized => "quantized",
            Encoding::LosslessDelta => "lossless",
        }
    }
}

/// Payload layout of one compressed spectrum blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressedMode {
    /// Delta-encoded 16-bit log-domain codes with a varint/run-length
    /// tail (lossy).
    Quantized,
    /// XOR-delta `f64` bit patterns with the same varint/run-length tail
    /// (bit-exact).
    Lossless,
}

impl CompressedMode {
    fn wire_byte(self) -> u8 {
        match self {
            CompressedMode::Quantized => MODE_QUANTIZED,
            CompressedMode::Lossless => MODE_LOSSLESS,
        }
    }

    /// The client policy that produces this mode.
    pub(crate) fn encoding(self) -> Encoding {
        match self {
            CompressedMode::Quantized => Encoding::Quantized,
            CompressedMode::Lossless => Encoding::LosslessDelta,
        }
    }
}

/// Why a byte slice is not a valid compressed spectrum. Every variant
/// carries a static reason so the framing layer can surface it as a
/// [`crate::proto::DecodeError::Malformed`] without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The blob ended before the declared structure did.
    Truncated(&'static str),
    /// The mode byte names no known layout.
    UnknownMode(u8),
    /// The declared bin count is outside `8..=MAX_BINS`.
    BinCountOutOfRange(usize),
    /// The bytes parse but violate an invariant (overlong varint, code
    /// out of range, run past the bin count, non-finite or negative
    /// reconstruction, trailing bytes).
    Corrupt(&'static str),
}

impl CodecError {
    /// Static human-readable reason (also the `Malformed` reason at the
    /// framing layer).
    pub(crate) fn reason(self) -> &'static str {
        match self {
            CodecError::Truncated(r) | CodecError::Corrupt(r) => r,
            CodecError::UnknownMode(_) => "unknown codec mode byte",
            CodecError::BinCountOutOfRange(_) => "compressed bin count out of range",
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(r) => write!(f, "truncated compressed spectrum: {r}"),
            CodecError::UnknownMode(b) => write!(f, "unknown codec mode byte 0x{b:02x}"),
            CodecError::BinCountOutOfRange(n) => {
                write!(f, "compressed bin count {n} outside 8..={MAX_BINS}")
            }
            CodecError::Corrupt(r) => write!(f, "corrupt compressed spectrum: {r}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// varint primitives (LEB128, little-endian 7-bit groups)
// ---------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint; rejects overlong encodings past 10 bytes and
/// payloads that overflow 64 bits.
fn read_varint(b: &[u8], i: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = b.get(*i) else {
            return Err(CodecError::Truncated("varint ran off the blob"));
        };
        *i += 1;
        let group = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && group > 1) {
            return Err(CodecError::Corrupt("varint overflows 64 bits"));
        }
        v |= group << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

// ---------------------------------------------------------------------
// quantizer
// ---------------------------------------------------------------------

/// Maps one bin value to its 16-bit code, given the spectrum peak.
fn quantize_bin(v: f64, vmax: f64) -> u32 {
    if v <= 0.0 || vmax <= 0.0 {
        return 0;
    }
    let r = (v / vmax).ln(); // ≤ 0 for v ≤ vmax
    if r <= -DYNAMIC_RANGE_NATS {
        return 0;
    }
    // r ∈ (-D, 0] maps onto codes 1..=QMAX; the peak (r = 0) always
    // lands on QMAX exactly, which is what makes requantization
    // idempotent (the stored peak is exact).
    let code = 1 + ((r + DYNAMIC_RANGE_NATS) / STEP_NATS).round() as i64;
    code.clamp(1, i64::from(QMAX)) as u32
}

/// Maps one code back to its bin value.
fn dequantize_bin(code: u32, vmax: f64) -> f64 {
    if code == 0 {
        return 0.0;
    }
    vmax * ((code - 1) as f64 * STEP_NATS - DYNAMIC_RANGE_NATS).exp()
}

/// The spectrum as the quantized wire path delivers it: every bin snapped
/// to the 16-bit log-domain grid. `compress`-then-`decompress` in
/// [`CompressedMode::Quantized`] equals this exactly, so it is the
/// reference for accuracy comparisons without any sockets involved.
pub fn quantized(spectrum: &AoaSpectrum) -> AoaSpectrum {
    let vmax = spectrum.max_value();
    AoaSpectrum::from_values(
        spectrum
            .values()
            .iter()
            .map(|&v| dequantize_bin(quantize_bin(v, vmax), vmax))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// compress
// ---------------------------------------------------------------------

/// Appends the compressed blob for `spectrum` to `out`.
///
/// Blob layout (all little-endian):
///
/// ```text
/// mode: u8          1 = quantized, 2 = lossless
/// bins: u32
/// quantized:  vmax: f64 bits, then per bin: varint(zigzag(Δcode));
///             a zero delta is followed by varint(extra repeats)
/// lossless:   first bin: f64 bits, then per bin: varint(bits ⊕ prev);
///             a zero XOR is followed by varint(extra repeats)
/// ```
pub fn compress_into(out: &mut Vec<u8>, spectrum: &AoaSpectrum, mode: CompressedMode) {
    out.push(mode.wire_byte());
    out.extend_from_slice(&(spectrum.bins() as u32).to_le_bytes());
    match mode {
        CompressedMode::Quantized => {
            let vmax = spectrum.max_value();
            out.extend_from_slice(&vmax.to_bits().to_le_bytes());
            let mut prev: i64 = 0;
            let values = spectrum.values();
            let mut i = 0;
            while i < values.len() {
                let code = i64::from(quantize_bin(values[i], vmax));
                push_varint(out, zigzag(code - prev));
                if code == prev {
                    // Run-length the flat stretch (noise floors, zeroed
                    // tails): count bins repeating this exact code.
                    let mut run = 0u64;
                    while i + 1 < values.len()
                        && i64::from(quantize_bin(values[i + 1], vmax)) == code
                    {
                        run += 1;
                        i += 1;
                    }
                    push_varint(out, run);
                }
                prev = code;
                i += 1;
            }
        }
        CompressedMode::Lossless => {
            let values = spectrum.values();
            out.extend_from_slice(&values[0].to_bits().to_le_bytes());
            let mut prev = values[0].to_bits();
            let mut i = 1;
            while i < values.len() {
                let bits = values[i].to_bits();
                push_varint(out, bits ^ prev);
                if bits == prev {
                    let mut run = 0u64;
                    while i + 1 < values.len() && values[i + 1].to_bits() == bits {
                        run += 1;
                        i += 1;
                    }
                    push_varint(out, run);
                }
                prev = bits;
                i += 1;
            }
        }
    }
}

/// The compressed blob as a fresh buffer.
pub fn compress(spectrum: &AoaSpectrum, mode: CompressedMode) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(&mut out, spectrum, mode);
    out
}

/// Raw wire cost of the same spectrum in a legacy `f64` submit payload
/// (`u32` bin count + 8 bytes per bin) — the denominator of the
/// compression-ratio gauge.
pub(crate) fn raw_wire_bytes(bins: usize) -> u64 {
    4 + 8 * bins as u64
}

// ---------------------------------------------------------------------
// decompress
// ---------------------------------------------------------------------

/// Decodes a compressed blob back into a validated [`AoaSpectrum`].
///
/// Total: any byte slice returns either a spectrum satisfying the
/// `AoaSpectrum` invariants or a typed [`CodecError`] — never a panic.
/// The whole slice must be consumed (trailing bytes are
/// [`CodecError::Corrupt`], so a frame's declared payload length stays
/// authoritative).
pub fn decompress(blob: &[u8]) -> Result<(CompressedMode, AoaSpectrum), CodecError> {
    let mut i = 0usize;
    let Some(&mode_byte) = blob.first() else {
        return Err(CodecError::Truncated("empty blob"));
    };
    i += 1;
    let mode = match mode_byte {
        MODE_QUANTIZED => CompressedMode::Quantized,
        MODE_LOSSLESS => CompressedMode::Lossless,
        other => return Err(CodecError::UnknownMode(other)),
    };
    let bins = {
        let Some(raw) = blob.get(i..i + 4) else {
            return Err(CodecError::Truncated("bin count"));
        };
        i += 4;
        u32::from_le_bytes(raw.try_into().expect("4-byte slice")) as usize
    };
    if !(8..=MAX_BINS).contains(&bins) {
        return Err(CodecError::BinCountOutOfRange(bins));
    }
    let mut values = Vec::with_capacity(bins);
    match mode {
        CompressedMode::Quantized => {
            let Some(raw) = blob.get(i..i + 8) else {
                return Err(CodecError::Truncated("peak value"));
            };
            i += 8;
            let vmax = f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8-byte slice")));
            if !vmax.is_finite() || vmax < 0.0 {
                return Err(CodecError::Corrupt("peak must be finite and non-negative"));
            }
            let mut prev: i64 = 0;
            while values.len() < bins {
                let z = read_varint(blob, &mut i)?;
                let code = prev + unzigzag(z);
                if !(0..=i64::from(QMAX)).contains(&code) {
                    return Err(CodecError::Corrupt("quantizer code out of range"));
                }
                values.push(dequantize_bin(code as u32, vmax));
                if code == prev {
                    let run = read_varint(blob, &mut i)?;
                    if run > (bins - values.len()) as u64 {
                        return Err(CodecError::Corrupt("run length past the bin count"));
                    }
                    let v = dequantize_bin(code as u32, vmax);
                    for _ in 0..run {
                        values.push(v);
                    }
                }
                prev = code;
            }
        }
        CompressedMode::Lossless => {
            let Some(raw) = blob.get(i..i + 8) else {
                return Err(CodecError::Truncated("first bin"));
            };
            i += 8;
            let mut prev = u64::from_le_bytes(raw.try_into().expect("8-byte slice"));
            push_checked(&mut values, prev)?;
            while values.len() < bins {
                let x = read_varint(blob, &mut i)?;
                let bits = prev ^ x;
                push_checked(&mut values, bits)?;
                if x == 0 {
                    let run = read_varint(blob, &mut i)?;
                    if run > (bins - values.len()) as u64 {
                        return Err(CodecError::Corrupt("run length past the bin count"));
                    }
                    let v = f64::from_bits(bits);
                    for _ in 0..run {
                        values.push(v);
                    }
                }
                prev = bits;
            }
        }
    }
    if i != blob.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last bin"));
    }
    Ok((mode, AoaSpectrum::from_values(values)))
}

/// Pushes a reconstructed bit pattern, enforcing the spectrum invariants
/// before `AoaSpectrum::from_values` could assert on them.
fn push_checked(values: &mut Vec<f64>, bits: u64) -> Result<(), CodecError> {
    let v = f64::from_bits(bits);
    if !v.is_finite() || v < 0.0 {
        return Err(CodecError::Corrupt(
            "reconstructed bin is not finite and non-negative",
        ));
    }
    values.push(v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loadgen workload's spectrum shape: one clean lobe over a flat
    /// floor, 720 bins.
    fn lobe(bins: usize, bearing: f64) -> AoaSpectrum {
        AoaSpectrum::from_fn(bins, |t| {
            let d = at_channel::geometry::angle_diff(t, bearing);
            (-(d / 0.22).powi(2)).exp() + 0.01
        })
    }

    /// A noisy pseudospectrum: deterministic scrambled bins over ten
    /// decades.
    fn noisy(bins: usize, seed: u64) -> AoaSpectrum {
        let mut state = seed | 1;
        AoaSpectrum::from_values(
            (0..bins)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                    10f64.powf(u * 10.0 - 5.0)
                })
                .collect(),
        )
    }

    #[test]
    fn lossless_roundtrip_is_bit_exact() {
        for s in [lobe(720, 1.3), noisy(720, 7), noisy(8, 9), lobe(64, 0.0)] {
            let blob = compress(&s, CompressedMode::Lossless);
            let (mode, back) = decompress(&blob).expect("own blob decodes");
            assert_eq!(mode, CompressedMode::Lossless);
            assert_eq!(back.bins(), s.bins());
            for (a, b) in back.values().iter().zip(s.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn quantized_roundtrip_matches_the_quantized_reference() {
        for s in [lobe(720, 2.1), noisy(720, 42)] {
            let blob = compress(&s, CompressedMode::Quantized);
            let (mode, back) = decompress(&blob).expect("own blob decodes");
            assert_eq!(mode, CompressedMode::Quantized);
            let reference = quantized(&s);
            for (a, b) in back.values().iter().zip(reference.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn quantization_is_idempotent() {
        // Re-compressing the dequantized spectrum reproduces the exact
        // blob: the property that lets a decoded compressed frame
        // re-encode byte-identically.
        for s in [lobe(720, 0.7), noisy(720, 3)] {
            let blob = compress(&s, CompressedMode::Quantized);
            let (_, back) = decompress(&blob).expect("decodes");
            assert_eq!(compress(&back, CompressedMode::Quantized), blob);
        }
    }

    #[test]
    fn quantizer_error_is_bounded() {
        let s = noisy(720, 11);
        let q = quantized(&s);
        let vmax = s.max_value();
        for (&orig, &deq) in s.values().iter().zip(q.values()) {
            if orig >= vmax * 1e-11 {
                let rel = (deq - orig).abs() / orig;
                assert!(rel <= MAX_RELATIVE_ERROR, "rel err {rel:e} at {orig:e}");
            } else {
                assert!((deq - orig).abs() <= vmax * 1e-11);
            }
        }
    }

    #[test]
    fn lobe_spectrum_compresses_at_least_8x() {
        let s = lobe(720, 4.0);
        let blob = compress(&s, CompressedMode::Quantized);
        let raw = raw_wire_bytes(s.bins());
        let ratio = raw as f64 / blob.len() as f64;
        assert!(
            ratio >= 8.0,
            "quantized lobe ratio {ratio:.1}x ({} of {raw} bytes)",
            blob.len()
        );
    }

    #[test]
    fn all_zero_and_flat_spectra_work() {
        let zero = AoaSpectrum::from_values(vec![0.0; 720]);
        let flat = AoaSpectrum::from_values(vec![3.5; 720]);
        for s in [&zero, &flat] {
            for mode in [CompressedMode::Quantized, CompressedMode::Lossless] {
                let blob = compress(s, mode);
                // A constant spectrum is one token plus a run: tiny.
                assert!(blob.len() < 64, "flat blob is {} bytes", blob.len());
                let (_, back) = decompress(&blob).expect("decodes");
                for (a, b) in back.values().iter().zip(s.values()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn hostile_blobs_fail_typed() {
        assert_eq!(decompress(&[]), Err(CodecError::Truncated("empty blob")));
        assert_eq!(decompress(&[9]), Err(CodecError::UnknownMode(9)));
        // Bin count of 4 is under the spectrum minimum.
        let mut b = vec![MODE_LOSSLESS];
        b.extend_from_slice(&4u32.to_le_bytes());
        assert_eq!(decompress(&b), Err(CodecError::BinCountOutOfRange(4)));
        // Negative first bin violates the spectrum invariant.
        let mut b = vec![MODE_LOSSLESS];
        b.extend_from_slice(&8u32.to_le_bytes());
        b.extend_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(matches!(decompress(&b), Err(CodecError::Corrupt(_))));
        // NaN peak is rejected before any bin decodes.
        let mut b = vec![MODE_QUANTIZED];
        b.extend_from_slice(&8u32.to_le_bytes());
        b.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(decompress(&b), Err(CodecError::Corrupt(_))));
        // Trailing bytes after a complete spectrum are corrupt.
        let mut blob = compress(&lobe(64, 1.0), CompressedMode::Quantized);
        blob.push(0);
        assert_eq!(
            decompress(&blob),
            Err(CodecError::Corrupt("trailing bytes after the last bin"))
        );
    }

    #[test]
    fn truncated_blobs_fail_typed() {
        let blob = compress(&lobe(720, 1.0), CompressedMode::Quantized);
        for cut in 0..blob.len() {
            match decompress(&blob[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("decoded a spectrum from a {cut}-byte prefix"),
            }
        }
    }
}
