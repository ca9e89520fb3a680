//! Per-codec property suite over the [`Codec`] trait: every registered
//! encoding must (1) roundtrip arbitrary doubles and amplitudes
//! bit-exactly, (2) surface payload corruption through the CRC-verified
//! decode as a typed error — never a panic, never silently wrong values —
//! and (3), for the cascade, always emit a buffer that
//! [`try_decode_any`] can bring back without knowing the picker ran.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qgpu_compress::{
    amplitude_crc32, codec_for_kind, try_decode_any, value_crc32, Codec, CodecKind, DecodeError,
    Encoded,
};
use qgpu_math::Complex64;

/// The concrete (non-meta) kinds plus the cascade, with a fixed GFC
/// segment count so failures reproduce.
fn all_codecs() -> Vec<Box<dyn Codec>> {
    CodecKind::ALL
        .into_iter()
        .map(|kind| codec_for_kind(kind, 4))
        .collect()
}

fn assert_caught_or_exact(
    codec: &dyn Codec,
    corrupted: &Encoded,
    original: &[f64],
    crc: u32,
) -> Result<(), TestCaseError> {
    match codec.try_decode_verified(corrupted, crc) {
        Err(DecodeError { .. }) => Ok(()),
        Ok(decoded) => {
            // Corruption in dead padding bits may decode harmlessly —
            // that is not "silently wrong".
            prop_assert_eq!(decoded.len(), original.len());
            for (a, b) in decoded.iter().zip(original) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "silently wrong value");
            }
            Ok(())
        }
    }
}

/// `len` doubles on the byte-count boundaries of GFC's size walk: each
/// value's residual (against zero in the first micro-chunk, then against
/// the value 32 back) cycles through 0, ±2^(8k), ±(2^(8k)−1), `i64::MIN`
/// and `i64::MAX`, and every eleventh value is −0.0 or a NaN with a
/// payload outright.
fn boundary_values(len: usize, rot: usize) -> Vec<f64> {
    let mut residuals = vec![0, i64::MIN, i64::MAX];
    for k in 0..8 {
        let p = 1i64 << (8 * k);
        residuals.extend([p, -p, p - 1, 1 - p]);
    }
    let outright = [1u64 << 63, 0x7ff8_0000_dead_beef, 0xfff0_0000_0000_0001];
    let mut bits: Vec<u64> = Vec::with_capacity(len);
    for i in 0..len {
        let prev = if i >= 32 { bits[i - 32] } else { 0 };
        bits.push(if (i + rot).is_multiple_of(11) {
            outright[i % outright.len()]
        } else {
            prev.wrapping_add(residuals[(i + rot) % residuals.len()] as u64)
        });
    }
    bits.into_iter().map(f64::from_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_codec_roundtrips_f64_bit_exactly(
        data in proptest::collection::vec(proptest::num::f64::ANY, 0..600),
    ) {
        for codec in all_codecs() {
            let enc = codec.encode(&data);
            let dec = codec.try_decode(&enc).expect("clean buffer");
            prop_assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(dec.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "codec {}", codec.kind());
            }
        }
    }

    #[test]
    fn every_codec_roundtrips_amplitudes_bit_exactly(
        amps in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..300),
    ) {
        let amps: Vec<Complex64> =
            amps.into_iter().map(|(re, im)| Complex64::new(re, im)).collect();
        for codec in all_codecs() {
            let crc = amplitude_crc32(&amps);
            let enc = codec.encode_amplitudes(&amps);
            let dec = codec
                .try_decode_amplitudes_verified(&enc, crc)
                .expect("clean buffer must verify");
            prop_assert_eq!(dec.len(), amps.len());
            for (a, b) in dec.iter().zip(&amps) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            prop_assert!(codec.try_decode_amplitudes_verified(&enc, crc ^ 1).is_err());
        }
    }

    #[test]
    fn corruption_is_detected_by_verified_decode(
        data in proptest::collection::vec(-1.0f64..1.0, 16..400),
        byte_pick in 0usize..8192,
        bit in 0u8..8,
    ) {
        for codec in all_codecs() {
            let crc = value_crc32(&data);
            let clean = codec.encode(&data);
            let mut segments: Vec<Vec<u8>> = (0..clean.num_segments())
                .map(|i| clean.segment(i).to_vec())
                .collect();
            let total: usize = segments.iter().map(|s| s.len()).sum();
            if total == 0 {
                continue;
            }
            // Flip one bit somewhere in the concatenated payload.
            let mut target = byte_pick % total;
            for seg in segments.iter_mut() {
                if target < seg.len() {
                    seg[target] ^= 1 << bit;
                    break;
                }
                target -= seg.len();
            }
            let corrupted =
                Encoded::from_parts(clean.codec(), clean.num_values(), segments);
            assert_caught_or_exact(codec.as_ref(), &corrupted, &data, crc)?;
        }
    }

    #[test]
    fn byte_soup_never_panics(
        soup in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..256), 1..4),
        declared in 0usize..1024,
        kind_pick in 0usize..4,
    ) {
        let kind = CodecKind::ALL[kind_pick];
        let codec = codec_for_kind(kind, soup.len().max(1));
        let buffer = Encoded::from_parts(kind, declared, soup);
        // Outcome is irrelevant — only that it is an outcome, not a panic.
        let _ = codec.try_decode(&buffer);
        let _ = codec.try_decode_verified(&buffer, 0xDEAD_BEEF);
        let _ = codec.try_decode_amplitudes(&buffer);
        let _ = try_decode_any(&buffer);
    }

    #[test]
    fn cascade_always_picks_a_decodable_encoding(
        data in proptest::collection::vec(proptest::num::f64::ANY, 0..800),
        segs in 1usize..12,
    ) {
        let cascade = codec_for_kind(CodecKind::Cascade, segs);
        let enc = cascade.encode(&data);
        prop_assert_ne!(enc.codec(), CodecKind::Cascade);
        // Decodable by the dispatcher, by the cascade itself, and by a
        // fresh instance of the winning codec.
        let via_any = try_decode_any(&enc).expect("dispatcher decode");
        let via_cascade = cascade.try_decode(&enc).expect("cascade decode");
        let via_winner = codec_for_kind(enc.codec(), segs)
            .try_decode(&enc)
            .expect("winner decode");
        for decoded in [via_any, via_cascade, via_winner] {
            prop_assert_eq!(decoded.len(), data.len());
            for (a, b) in data.iter().zip(decoded.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn encoded_len_is_the_encoded_size_to_the_byte(
        noisy in proptest::collection::vec(proptest::num::f64::ANY, 0..600),
        smooth in proptest::collection::vec(-1.0f64..1.0, 0..300),
        run in 1usize..80,
        segs in 1usize..12,
        (short, micro_chunks, off, rot) in (0usize..=97, 1usize..24, 0usize..7, 0usize..35),
        chunks in 1usize..6,
    ) {
        // Arbitrary bit patterns, amplitude-like values, and the same
        // values repeated in runs (the zero-run / pruned-chunk shape).
        let runs: Vec<f64> = smooth.iter().flat_map(|&v| std::iter::repeat_n(v, run)).collect();
        // Boundary residuals at a short length (head only, ragged tails)
        // and within 3 of a multiple of 32 — segment lengths are such
        // multiples, so this also straddles every segment boundary.
        let head = boundary_values(short, rot);
        let ragged = boundary_values(32 * micro_chunks + off - 3, rot);
        for kind in CodecKind::ALL {
            let codec = codec_for_kind(kind, segs);
            for data in [&noisy, &smooth, &runs, &head, &ragged] {
                prop_assert_eq!(
                    codec.encoded_len(data),
                    codec.encode(data).total_bytes(),
                    "codec {}", kind
                );
                // The same values as `chunks` amplitude chunks sized in one
                // call: each length is the single call's, and an observed
                // cascade publishes one pick per chunk.
                let amps: Vec<Complex64> =
                    data.chunks_exact(2).map(|p| Complex64::new(p[0], p[1])).collect();
                let chunk_len = amps.len() / chunks;
                let amps = &amps[..chunks * chunk_len];
                let single: Vec<u32> = (0..chunks)
                    .map(|i| &amps[i * chunk_len..(i + 1) * chunk_len])
                    .map(|c| codec.encoded_len_amplitudes(c) as u32)
                    .collect();
                let mut lens = vec![0; chunks];
                codec.encoded_lens(amps, chunk_len, &mut lens);
                prop_assert_eq!(&lens, &single, "codec {}", kind);
                let rec = qgpu_obs::Recorder::new();
                codec.encoded_lens_observed(amps, chunk_len, &mut lens, Some(&rec));
                prop_assert_eq!(&lens, &single, "codec {} observed", kind);
                let picks = rec.registry().snapshot().counter_total("codec.cascade.picks");
                let want = if kind == CodecKind::Cascade { chunks as u64 } else { 0 };
                prop_assert_eq!(picks, want, "codec {}", kind);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Runs of tiny chunks — 1 to 16 amplitudes, at most one GFC
    /// micro-chunk of values, which GFC sizes in closed form — sized in
    /// one call equal each chunk sized alone, for every codec. Components
    /// are drawn from ±0.0, subnormals, NaNs with payloads and ±∞ as
    /// often as from ordinary values.
    #[test]
    fn tiny_chunk_runs_size_like_single_chunks(
        picks in proptest::collection::vec((0usize..16, -1.0f64..1.0), 2..64),
        segs in 1usize..12,
    ) {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            5e-324,
            -f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -1.0e300,
        ];
        let nan_payload = f64::from_bits(0xfff0_0000_dead_beef);
        let values: Vec<f64> = picks
            .iter()
            .map(|&(k, v)| match k {
                0..=7 => SPECIAL[k],
                8 => nan_payload,
                _ => v,
            })
            .collect();
        for kind in CodecKind::ALL {
            let codec = codec_for_kind(kind, segs);
            for chunk_len in 1usize..=16 {
                // Three chunks' worth, cycling through the drawn values.
                let amps: Vec<Complex64> = (0..3 * chunk_len)
                    .map(|i| Complex64::new(values[2 * i % values.len()], values[(2 * i + 1) % values.len()]))
                    .collect();
                let single: Vec<u32> = amps
                    .chunks_exact(chunk_len)
                    .map(|c| codec.encoded_len_amplitudes(c) as u32)
                    .collect();
                let mut run = vec![0; 3];
                codec.encoded_lens(&amps, chunk_len, &mut run);
                prop_assert_eq!(&run, &single, "codec {}, chunk_len {}", kind, chunk_len);
            }
        }
    }
}
