//! Property tests for the v3 spectrum codec: the decompressor is total
//! (arbitrary bytes yield a typed error or a valid spectrum, never a
//! panic), lossless mode is bit-exact, quantized mode honours its
//! published error bound across the whole dynamic range, and compressed
//! frames are version-gated exactly like the other v2+/v3 frame types.

use at_core::AoaSpectrum;
use at_serve::codec::{self, CompressedMode, DYNAMIC_RANGE_NATS, MAX_RELATIVE_ERROR};
use at_serve::proto::{decode, DecodeError, Frame, HEADER_LEN, MAGIC, MIN_VERSION};
use proptest::prelude::*;

/// A deterministic seed-scrambled spectrum spanning `10^-span … 1` around
/// a unit peak (the peak is pinned so `vmax` is exercised every case).
fn scrambled_spectrum(bins: usize, seed: u64, span: f64) -> AoaSpectrum {
    let mut state = seed | 1;
    let values: Vec<f64> = (0..bins)
        .map(|i| {
            if i == bins / 2 {
                return 1.0;
            }
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            10f64.powf(-span * u)
        })
        .collect();
    AoaSpectrum::from_values(values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes into the blob decompressor never panic: they
    /// yield a typed `CodecError` or a spectrum satisfying the
    /// `AoaSpectrum` invariants (≥8 bins, finite, non-negative).
    #[test]
    fn decompressor_is_total_on_random_bytes(
        blob in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..160),
    ) {
        if let Ok((_, spectrum)) = codec::decompress(&blob) {
            prop_assert!(spectrum.bins() >= 8);
            prop_assert!(spectrum.values().iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    /// Blobs that start like a real compressed spectrum but carry random
    /// tails exercise the varint/run-length parsers without panicking.
    #[test]
    fn decompressor_is_total_on_blob_shaped_bytes(
        mode in 1u8..3,
        bins in 0u32..2048,
        tail in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..128),
    ) {
        let mut blob = vec![mode];
        blob.extend_from_slice(&bins.to_le_bytes());
        blob.extend_from_slice(&tail);
        if let Ok((_, spectrum)) = codec::decompress(&blob) {
            prop_assert_eq!(spectrum.bins(), bins as usize);
            prop_assert!(spectrum.values().iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    /// No truncated prefix of a valid blob decodes as complete — the
    /// decompressor insists on consuming exactly the whole blob.
    #[test]
    fn truncated_blobs_never_decode(
        seed in 0u64..u64::MAX,
        mode_pick in 0u8..2,
        cut_frac in 0.0f64..1.0,
    ) {
        let mode = if mode_pick == 0 { CompressedMode::Quantized } else { CompressedMode::Lossless };
        let blob = codec::compress(&scrambled_spectrum(64, seed, 6.0), mode);
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < blob.len());
        prop_assert!(codec::decompress(&blob[..cut]).is_err());
    }

    /// Lossless mode is bit-exact for arbitrary finite non-negative
    /// spectra — every f64, including subnormals-of-the-workload like
    /// tiny floor values, survives the XOR-delta trip untouched.
    #[test]
    fn lossless_roundtrip_is_bit_exact(
        bins_step in 0usize..4,
        seed in 0u64..u64::MAX,
        span in 0.0f64..14.0,
    ) {
        let bins = [8, 64, 360, 720][bins_step];
        let spectrum = scrambled_spectrum(bins, seed, span);
        let blob = codec::compress(&spectrum, CompressedMode::Lossless);
        let (mode, decoded) = codec::decompress(&blob).expect("own blob");
        prop_assert_eq!(mode, CompressedMode::Lossless);
        prop_assert_eq!(decoded.bins(), spectrum.bins());
        for (a, b) in decoded.values().iter().zip(spectrum.values()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Quantized mode honours its published bound across the dynamic
    /// range: values within `10^-12` of the peak reconstruct within
    /// `MAX_RELATIVE_ERROR` relative; values below that floor clamp to
    /// the below-floor sentinel and reconstruct to at most `vmax·10^-12`
    /// absolute. Scale invariance comes free (everything is relative to
    /// the peak), so `scale` sweeps twelve decades.
    #[test]
    fn quantized_error_bound_holds(
        bins_step in 0usize..3,
        seed in 0u64..u64::MAX,
        span in 0.0f64..14.0,
        scale_exp in -6i32..7,
    ) {
        let bins = [8, 64, 360][bins_step];
        let base = scrambled_spectrum(bins, seed, span);
        let scale = 10f64.powi(scale_exp);
        let spectrum = AoaSpectrum::from_values(
            base.values().iter().map(|v| v * scale).collect(),
        );
        let vmax = spectrum.max_value();
        let floor = vmax * (-DYNAMIC_RANGE_NATS).exp();

        let blob = codec::compress(&spectrum, CompressedMode::Quantized);
        let (mode, decoded) = codec::decompress(&blob).expect("own blob");
        prop_assert_eq!(mode, CompressedMode::Quantized);
        for (got, want) in decoded.values().iter().zip(spectrum.values()) {
            if *want > floor {
                let rel = (got - want).abs() / want;
                prop_assert!(
                    rel <= MAX_RELATIVE_ERROR,
                    "relative error {} beyond bound for value {}", rel, want
                );
            } else {
                prop_assert!(got.abs() <= floor, "below-floor value must clamp");
            }
        }

        // Idempotence: the decoded spectrum is on the quantizer's grid,
        // so re-compressing it reproduces the same blob byte-for-byte.
        prop_assert_eq!(codec::compress(&decoded, CompressedMode::Quantized), blob);
    }

    /// Compressed frames under pre-v3 headers fail with the typed
    /// `VersionGated` error — never misparsed, never accepted.
    #[test]
    fn compressed_frames_under_old_versions_fail_typed(
        key in 0u64..u64::MAX,
        ap_id in 0u32..64,
        age in 0u64..100,
        seed in 0u64..u64::MAX,
        old_version_pick in 0u8..2,
        keyed_pick in 0u8..2,
    ) {
        let spectrum = scrambled_spectrum(64, seed, 6.0);
        let frame = if keyed_pick == 1 {
            Frame::Submit {
                key: Some(key),
                ap_id,
                age,
                mode: Some(CompressedMode::Quantized),
                spectrum,
            }
        } else {
            Frame::Submit {
                key: None,
                ap_id,
                age,
                mode: Some(CompressedMode::Lossless),
                spectrum,
            }
        };
        let mut bytes = frame.encode();
        prop_assert_eq!(bytes[2], 3, "compressed frames declare v3 on the wire");
        let old = MIN_VERSION + old_version_pick; // v1 or v2
        bytes[2] = old;
        match decode(&bytes) {
            Err(DecodeError::VersionGated { got, need, .. }) => {
                prop_assert_eq!(got, old);
                prop_assert_eq!(need, 3);
            }
            other => prop_assert!(false, "wanted VersionGated, got {:?}", other),
        }
    }

    /// A compressed frame whose payload bytes are scrambled never panics
    /// the frame decoder: it decodes (rarely — the flip may be benign) or
    /// fails with a typed error.
    #[test]
    fn corrupted_compressed_frames_fail_cleanly(
        seed in 0u64..u64::MAX,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let frame = Frame::Submit {
            key: None,
            ap_id: 3,
            age: 1,
            mode: Some(CompressedMode::Quantized),
            spectrum: scrambled_spectrum(64, seed, 6.0),
        };
        let mut bytes = frame.encode();
        let at = HEADER_LEN + (((bytes.len() - HEADER_LEN) as f64 * flip_frac) as usize)
            .min(bytes.len() - HEADER_LEN - 1);
        bytes[at] ^= 1 << flip_bit;
        prop_assert_eq!(&bytes[..2], &MAGIC[..]);
        let _ = decode(&bytes);
    }
}
