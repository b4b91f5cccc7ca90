//! Property tests for the wire protocol: the decoder is total (never
//! panics, for any bytes) and encode→decode is bit-exact for every frame
//! type.

use at_core::health::{ApStatus, LocalizeError};
use at_core::AoaSpectrum;
use at_serve::proto::{
    decode, ApHealthReport, DecodeError, Frame, HEADER_LEN, MAGIC, MIN_VERSION, VERSION,
};
use at_serve::{codec, CompressedMode};
use proptest::prelude::*;

/// Round-trips `frame` and checks bit-exactness (f64 payloads compare via
/// `AoaSpectrum`/`f64` `PartialEq`, which the encoders preserve bit-for-bit
/// through `to_bits`/`from_bits`).
fn roundtrip_exact(frame: &Frame) {
    let bytes = frame.encode();
    let (decoded, used) = decode(&bytes)
        .expect("own encoding must decode")
        .expect("own encoding is complete");
    assert_eq!(used, bytes.len());
    assert_eq!(&decoded, frame);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder: they decode, ask for
    /// more, or fail with a typed error.
    #[test]
    fn decoder_is_total_on_random_bytes(bytes in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..96)) {
        let _ = decode(&bytes);
    }

    /// Random bytes carrying a valid header prefix exercise the payload
    /// parsers without panicking.
    #[test]
    fn decoder_is_total_on_header_shaped_bytes(
        ty_raw in 0u32..256,
        payload in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..64),
    ) {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(ty_raw as u8);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = decode(&bytes);
    }

    /// Truncating or bit-flipping a valid frame never panics, and a
    /// truncation is never misread as a complete frame.
    #[test]
    fn corrupted_frames_fail_cleanly(
        token in 0u64..u64::MAX,
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let bytes = Frame::Ping { token }.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if let Ok(Some((_, used))) = decode(&bytes[..cut.min(bytes.len())]) {
            prop_assert!(used <= cut);
        }
        let mut flipped = bytes.clone();
        let at = ((flipped.len() as f64) * flip_frac) as usize % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        let _ = decode(&flipped);
    }

    /// Every submit encoding — raw or compressed, keyed or not — round-trips
    /// bit-exactly for arbitrary finite non-negative spectra, travels
    /// under its own type byte at the lowest version that defines it, and
    /// is the typed `VersionGated` error under every older header.
    #[test]
    fn submit_roundtrips_bit_exact(
        key in 0u64..u64::MAX,
        ap_id in 0u32..64,
        age in 0u64..100,
        bins_step in 0usize..4,
        seed in 0u64..u64::MAX,
        encoding_pick in 0u8..6,
    ) {
        let bins = [8, 64, 360, 720][bins_step];
        // A deterministic but seed-scrambled spectrum body.
        let mut state = seed | 1;
        let values: Vec<f64> = (0..bins)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
            })
            .collect();
        let raw = AoaSpectrum::from_values(values);
        // Quantized frames round-trip grid-snapped spectra bit-exactly
        // (quantization is idempotent), so construct those on the grid.
        let (mode, spectrum) = match encoding_pick / 2 {
            0 => (None, raw),
            1 => (Some(CompressedMode::Lossless), raw),
            _ => (Some(CompressedMode::Quantized), codec::quantized(&raw)),
        };
        let key = (encoding_pick % 2 == 1).then_some(key);
        let (ty, need) = match (key.is_some(), mode.is_some()) {
            (false, false) => (0x01, 1),
            (true, false) => (0x06, 2),
            (false, true) => (0x08, 3),
            (true, true) => (0x09, 3),
        };
        let frame = Frame::Submit { key, ap_id, age, mode, spectrum };
        roundtrip_exact(&frame);
        let mut bytes = frame.encode();
        prop_assert_eq!((bytes[2], bytes[3]), (need, ty));
        for old in MIN_VERSION..need {
            bytes[2] = old;
            prop_assert_eq!(
                decode(&bytes),
                Err(DecodeError::VersionGated { frame: ty, got: old, need })
            );
        }
    }

    /// Fix frames round-trip bit-exactly, including negative/tiny floats
    /// and per-AP health entries.
    #[test]
    fn fix_roundtrips_bit_exact(
        x in -1e6f64..1e6,
        y in -1e6f64..1e6,
        exp in -300i32..300,
        n_aps in 0usize..6,
        status_pick in 0u8..3,
        fails in 0u32..100,
    ) {
        let status = match status_pick {
            0 => ApStatus::Healthy,
            1 => ApStatus::Degraded,
            _ => ApStatus::Down,
        };
        let frame = Frame::Fix {
            x,
            y,
            likelihood: 1.5f64 * 10f64.powi(exp),
            health: (0..n_aps)
                .map(|i| ApHealthReport {
                    ap_id: i as u32,
                    status,
                    consecutive_failures: fails,
                })
                .collect(),
        };
        roundtrip_exact(&frame);
    }

    /// Every simple frame type round-trips for arbitrary field values.
    #[test]
    fn simple_frames_roundtrip(
        a in 0u32..u32::MAX,
        b in 0u64..u64::MAX,
        c in 0usize..10_000,
    ) {
        roundtrip_exact(&Frame::ReportFailure { ap_id: a });
        roundtrip_exact(&Frame::Localize { deadline_ms: a });
        roundtrip_exact(&Frame::ClearSession);
        roundtrip_exact(&Frame::Ping { token: b });
        roundtrip_exact(&Frame::SubmitAck { observations: a });
        roundtrip_exact(&Frame::Overloaded { retry_after_ms: a });
        roundtrip_exact(&Frame::DeadlineExceeded);
        roundtrip_exact(&Frame::Pong { token: b });
        roundtrip_exact(&Frame::ShuttingDown);
        roundtrip_exact(&Frame::Failed { error: LocalizeError::NoObservations });
        roundtrip_exact(&Frame::Failed {
            error: LocalizeError::QuorumNotMet {
                available: c,
                required: c + 1,
                stale: c / 2,
                down: c / 3,
                degenerate: c / 5,
            },
        });
        roundtrip_exact(&Frame::Failed {
            error: LocalizeError::ResolutionMismatch {
                observation: c,
                bins: c + 8,
                expected: c + 16,
            },
        });
    }

    /// Protocol-error messages survive the trip (ASCII subset; the
    /// encoder truncates at u16::MAX and re-reads as lossy UTF-8).
    #[test]
    fn protocol_error_roundtrips(
        code_raw in 0u32..256,
        msg_len in 0usize..200,
        fill in 32u8..127,
    ) {
        let code = code_raw as u8;
        let frame = Frame::ProtocolError {
            code,
            message: String::from_utf8(vec![fill; msg_len]).unwrap(),
        };
        roundtrip_exact(&frame);
    }

    /// The keyed (v2) frames round-trip bit-exactly for arbitrary keys,
    /// APs, ages, deadlines, and seed-scrambled spectra.
    #[test]
    fn keyed_frames_roundtrip_bit_exact(
        key in 0u64..u64::MAX,
        ap_id in 0u32..64,
        age in 0u64..100,
        deadline_ms in 0u32..u32::MAX,
        bins_step in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let bins = [8, 64, 360, 720][bins_step];
        let mut state = seed | 1;
        let values: Vec<f64> = (0..bins)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
            })
            .collect();
        roundtrip_exact(&Frame::Submit {
            key: Some(key),
            ap_id,
            age,
            mode: None,
            spectrum: AoaSpectrum::from_values(values),
        });
        roundtrip_exact(&Frame::LocalizeKey { key, deadline_ms });
    }

    /// A keyed frame whose header claims an old protocol version is
    /// rejected with the typed `VersionGated` error — never misparsed,
    /// never accepted.
    #[test]
    fn keyed_frames_under_old_versions_fail_typed(
        key in 0u64..u64::MAX,
        deadline_ms in 0u32..u32::MAX,
    ) {
        let mut bytes = Frame::LocalizeKey { key, deadline_ms }.encode();
        prop_assert_eq!(bytes[2], 2, "keyed frames declare v2 on the wire");
        bytes[2] = MIN_VERSION; // replay under the v1 header
        match decode(&bytes) {
            Err(DecodeError::VersionGated { got, need, .. }) => {
                prop_assert_eq!(got, MIN_VERSION);
                prop_assert_eq!(need, 2);
            }
            other => prop_assert!(false, "wanted VersionGated, got {:?}", other),
        }
    }

    /// Any version byte on an otherwise header-shaped frame either
    /// decodes (in the supported range) or fails typed: out-of-range
    /// versions get `BadVersion`, in-range versions never panic on any
    /// payload.
    #[test]
    fn arbitrary_version_bytes_never_panic(
        version_raw in 0u32..256,
        ty_raw in 0u32..256,
        payload in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..64),
    ) {
        let version = version_raw as u8;
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(version);
        bytes.push(ty_raw as u8);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match decode(&bytes) {
            Err(DecodeError::BadVersion { got }) => {
                prop_assert_eq!(got, version);
                prop_assert!(!(MIN_VERSION..=VERSION).contains(&version));
            }
            _ => prop_assert!((MIN_VERSION..=VERSION).contains(&version)),
        }
    }
}
