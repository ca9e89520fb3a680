//! ALP-style adaptive lossless floating-point codec.
//!
//! ALP (Afroozeh & Boncz, "ALP: Adaptive Lossless floating-Point
//! compression") observes that many stored doubles are decimals in
//! disguise: `v * 10^e` rounds to an integer that divides back to the
//! exact same bit pattern. Such values pack into a frame-of-reference +
//! bit-width integer stream; the stragglers are kept verbatim as
//! *exceptions*. This module implements the single-exponent variant:
//! per block it probes a sampled stride of values for the exponent that
//! round-trips the most of them, bit-packs the resulting integers, and
//! patches the exceptions on decode.
//!
//! Quantum amplitudes are usually irrational, so ALP degrades to an
//! exception-heavy near-raw stream on generic states — but collapses
//! measurement outcomes, basis states, and synthetic/decimal workloads
//! dramatically, which is exactly the niche the
//! [`CascadeCodec`](crate::cascade::CascadeCodec) probes it for.

use crate::codec::{Codec, CodecKind, DecodeError, Encoded};

/// Values per independently coded block.
const BLOCK: usize = 1024;

/// Largest decimal exponent probed (10^14 keeps `v * 10^e` exact for the
/// magnitudes amplitudes take).
const MAX_EXP: usize = 14;

/// At most this many values are probed per block when choosing the
/// exponent; the full block is still verified value-by-value.
const SAMPLE: usize = 64;

/// `|rounded|` bound so the integer stream stays well inside `i64`.
const MAX_MAGNITUDE: f64 = (1u64 << 51) as f64;

const POW10: [f64; MAX_EXP + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
];

/// The adaptive decimal-scaling codec. Stateless; block and probe sizes
/// are compile-time constants chosen to mirror the reference design.
///
/// # Examples
///
/// ```
/// use qgpu_compress::{AlpCodec, Codec};
///
/// let codec = AlpCodec::new();
/// let decimals: Vec<f64> = (0..512).map(|i| i as f64 * 0.01).collect();
/// let enc = codec.encode(&decimals);
/// assert!(enc.total_bytes() < 8 * decimals.len() / 2);
/// assert_eq!(codec.decode(&enc), decimals);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlpCodec;

impl AlpCodec {
    /// Creates the codec (stateless).
    pub fn new() -> Self {
        AlpCodec
    }
}

/// Does `v` survive `round(v * 10^e) / 10^e` bit-exactly?
fn encode_value(v: f64, e: usize) -> Option<i64> {
    let scaled = v * POW10[e];
    if !scaled.is_finite() || scaled.abs() > MAX_MAGNITUDE {
        return None;
    }
    let d = scaled.round();
    let i = d as i64;
    if ((i as f64) / POW10[e]).to_bits() == v.to_bits() {
        Some(i)
    } else {
        None
    }
}

fn best_exponent(block: &[f64]) -> usize {
    // An odd stride so the probe never aliases with power-of-two value
    // patterns (e.g. every 16th element of `i * 0.25` is an integer,
    // which would fool the exponent search into picking e = 0).
    let stride = ((block.len() / SAMPLE).max(1)) | 1;
    let mut best = (0usize, 0usize);
    for e in 0..=MAX_EXP {
        let hits = block
            .iter()
            .step_by(stride)
            .filter(|&&v| encode_value(v, e).is_some())
            .count();
        if hits > best.1 {
            best = (e, hits);
        }
    }
    best.0
}

fn pack_bits(vals: &[u64], width: usize, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + (vals.len() * width).div_ceil(8), 0);
    let bits = &mut out[start..];
    let mut pos = 0usize;
    for &v in vals {
        for b in 0..width {
            if (v >> b) & 1 == 1 {
                bits[(pos + b) >> 3] |= 1 << ((pos + b) & 7);
            }
        }
        pos += width;
    }
}

fn unpack_bits(bytes: &[u8], count: usize, width: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut pos = 0usize;
    for _ in 0..count {
        let mut v = 0u64;
        for b in 0..width {
            if (bytes[(pos + b) >> 3] >> ((pos + b) & 7)) & 1 == 1 {
                v |= 1 << b;
            }
        }
        out.push(v);
        pos += width;
    }
    out
}

/// Block layout:
/// `[u16 n][u8 exponent][u8 bit_width][i64 base][u16 n_exceptions]`
/// `[packed deltas: ceil(n*width/8) bytes][exceptions: (u16 pos, u64 bits)*]`
fn encode_block(block: &[f64], payload: &mut Vec<u8>) {
    let e = best_exponent(block);
    let mut ints = Vec::with_capacity(block.len());
    let mut exceptions: Vec<(u16, u64)> = Vec::new();
    for (i, &v) in block.iter().enumerate() {
        match encode_value(v, e) {
            Some(d) => ints.push(Some(d)),
            None => {
                exceptions.push((i as u16, v.to_bits()));
                ints.push(None);
            }
        }
    }
    let base = ints.iter().flatten().copied().min().unwrap_or(0);
    // Exception slots carry the base itself (delta 0) so the packed
    // stream stays dense; decode patches them from the exception list.
    let deltas: Vec<u64> = ints
        .iter()
        .map(|d| d.unwrap_or(base).wrapping_sub(base) as u64)
        .collect();
    let width = deltas
        .iter()
        .map(|&d| 64 - d.leading_zeros() as usize)
        .max()
        .unwrap_or(0);

    payload.extend_from_slice(&(block.len() as u16).to_le_bytes());
    payload.push(e as u8);
    payload.push(width as u8);
    payload.extend_from_slice(&base.to_le_bytes());
    payload.extend_from_slice(&(exceptions.len() as u16).to_le_bytes());
    pack_bits(&deltas, width, payload);
    for (pos, bits) in exceptions {
        payload.extend_from_slice(&pos.to_le_bytes());
        payload.extend_from_slice(&bits.to_le_bytes());
    }
}

/// Bytes [`encode_block`] writes for `block`, without the buffers: the
/// packed width is the span of the integers that encode (exception slots
/// pack delta 0), and each exception costs its 10-byte record.
fn block_encoded_len(block: &[f64]) -> usize {
    let e = best_exponent(block);
    let (mut lo, mut hi, mut exceptions) = (i64::MAX, i64::MIN, 0usize);
    for &v in block {
        match encode_value(v, e) {
            Some(d) => (lo, hi) = (lo.min(d), hi.max(d)),
            None => exceptions += 1,
        }
    }
    let span = if lo <= hi {
        hi.wrapping_sub(lo) as u64
    } else {
        0
    };
    let width = 64 - span.leading_zeros() as usize;
    14 + (block.len() * width).div_ceil(8) + 10 * exceptions
}

fn decode_block(payload: &[u8], out: &mut Vec<f64>) -> Result<usize, &'static str> {
    if payload.len() < 14 {
        return Err("block header truncated");
    }
    let n = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes")) as usize;
    let e = payload[2] as usize;
    let width = payload[3] as usize;
    let base = i64::from_le_bytes(payload[4..12].try_into().expect("8 bytes"));
    let n_exc = u16::from_le_bytes(payload[12..14].try_into().expect("2 bytes")) as usize;
    if n == 0 || n > BLOCK {
        return Err("invalid block value count");
    }
    if e > MAX_EXP || width > 64 || n_exc > n {
        return Err("invalid block parameters");
    }
    let packed_len = (n * width).div_ceil(8);
    let total = 14 + packed_len + n_exc * 10;
    if payload.len() < total {
        return Err("block payload truncated");
    }
    let deltas = unpack_bits(&payload[14..14 + packed_len], n, width);
    let start = out.len();
    for d in deltas {
        let i = base.wrapping_add(d as i64);
        out.push((i as f64) / POW10[e]);
    }
    let mut exc = &payload[14 + packed_len..total];
    for _ in 0..n_exc {
        let pos = u16::from_le_bytes(exc[0..2].try_into().expect("2 bytes")) as usize;
        let bits = u64::from_le_bytes(exc[2..10].try_into().expect("8 bytes"));
        if pos >= n {
            return Err("exception position out of range");
        }
        out[start + pos] = f64::from_bits(bits);
        exc = &exc[10..];
    }
    Ok(total)
}

impl Codec for AlpCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Alp
    }

    fn encode(&self, data: &[f64]) -> Encoded {
        let mut payload = Vec::new();
        for block in data.chunks(BLOCK) {
            encode_block(block, &mut payload);
        }
        Encoded::from_parts(CodecKind::Alp, data.len(), vec![payload])
    }

    fn encoded_len(&self, data: &[f64]) -> usize {
        data.chunks(BLOCK).map(block_encoded_len).sum()
    }

    fn try_decode(&self, enc: &Encoded) -> Result<Vec<f64>, DecodeError> {
        let err = |message: &'static str| DecodeError {
            codec: CodecKind::Alp,
            segment: 0,
            message,
        };
        if enc.codec() != CodecKind::Alp {
            return Err(err("buffer was not alp encoded"));
        }
        if enc.num_segments() != 1 {
            return Err(err("alp expects one segment"));
        }
        let mut payload = enc.segment(0);
        let mut out = Vec::with_capacity(enc.num_values());
        while !payload.is_empty() {
            if out.len() >= enc.num_values() {
                return Err(err("trailing payload bytes"));
            }
            let used = decode_block(payload, &mut out).map_err(err)?;
            payload = &payload[used..];
        }
        if out.len() != enc.num_values() {
            return Err(err("decoded value count does not match metadata"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[f64]) {
        let codec = AlpCodec::new();
        let enc = codec.encode(data);
        let dec = codec.decode(&enc);
        assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(dec.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_input() {
        roundtrip(&[]);
    }

    #[test]
    fn decimals_pack_tightly() {
        let codec = AlpCodec::new();
        let data: Vec<f64> = (0..4096).map(|i| i as f64 * 0.25).collect();
        let enc = codec.encode(&data);
        assert!(
            enc.total_bytes() < 8 * data.len() / 2,
            "{} bytes",
            enc.total_bytes()
        );
        roundtrip(&data);
    }

    #[test]
    fn zeros_pack_to_headers_only() {
        let codec = AlpCodec::new();
        let enc = codec.encode(&vec![0.0; 4096]);
        // width 0, no exceptions: 14 bytes per 1024-value block.
        assert_eq!(enc.total_bytes(), 14 * 4);
        roundtrip(&vec![0.0; 4096]);
    }

    #[test]
    fn irrational_values_become_exceptions() {
        let data: Vec<f64> = (0..512).map(|i| ((i + 1) as f64).sqrt().recip()).collect();
        roundtrip(&data);
    }

    #[test]
    fn special_values_roundtrip() {
        roundtrip(&[
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
        ]);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let codec = AlpCodec::new();
        let enc = codec.encode(&vec![1.25; 100]);
        let mut seg = enc.segment(0).to_vec();
        seg.pop();
        let broken = Encoded::from_parts(CodecKind::Alp, 100, vec![seg]);
        assert!(codec.try_decode(&broken).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip_is_bit_exact(
            data in proptest::collection::vec(proptest::num::f64::ANY, 0..2200),
        ) {
            let codec = AlpCodec::new();
            let enc = codec.encode(&data);
            let dec = codec.decode(&enc);
            prop_assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(dec.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn corrupted_blocks_error_not_panic(
            data in proptest::collection::vec(-1.0f64..1.0, 32..300),
            cut in 1usize..32,
        ) {
            let codec = AlpCodec::new();
            let enc = codec.encode(&data);
            let mut seg = enc.segment(0).to_vec();
            let cut = cut % seg.len().max(1);
            seg.truncate(cut);
            let broken = Encoded::from_parts(CodecKind::Alp, data.len(), vec![seg]);
            prop_assert!(codec.try_decode(&broken).is_err());
        }
    }
}
