//! The GFC lossless double-precision compressor.
//!
//! Faithful reimplementation of the algorithm Q-GPU runs as GPU kernels
//! (paper §IV-D and Figure 11): segments map to warps, micro-chunks of 32
//! values map to warp lanes, and each residual is stored as a 4-bit
//! sign/length prefix plus its non-zero low-order bytes.

use std::fmt;

use qgpu_math::Complex64;
use serde::{Deserialize, Serialize};

use crate::codec::{
    amplitude_crc32, amps_as_f64, chunks_of, saturating_u32, value_crc32, Codec, CodecKind,
    DecodeError, Encoded,
};
use crate::stats::CompressionStats;

/// Error returned when a compressed buffer cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeGfcError {
    /// Index of the offending segment.
    pub segment: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for DecodeGfcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt GFC segment {}: {}", self.segment, self.message)
    }
}

impl std::error::Error for DecodeGfcError {}

/// Number of values per micro-chunk — one per thread of a 32-lane warp.
pub const MICRO_CHUNK: usize = 32;

/// A compressed buffer: independently compressed segments plus enough
/// metadata to restore the original length.
///
/// # Examples
///
/// ```
/// use qgpu_compress::GfcCodec;
///
/// let codec = GfcCodec::new(2);
/// let c = codec.compress(&[0.0; 100]);
/// assert_eq!(c.num_values(), 100);
/// assert!(c.total_bytes() < 800);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Compressed {
    num_values: usize,
    segments: Vec<Vec<u8>>,
}

impl Compressed {
    /// Number of `f64` values the buffer decodes to.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Number of independently compressed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total compressed payload in bytes.
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Raw bytes of segment `i` (for persistence formats).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn segment(&self, i: usize) -> &[u8] {
        &self.segments[i]
    }

    /// Reassembles a buffer from persisted parts. `num_values` is the
    /// decoded `f64` count the buffer must produce; decoding validates it.
    pub fn from_parts(num_values: usize, segments: Vec<Vec<u8>>) -> Self {
        Compressed {
            num_values,
            segments,
        }
    }

    /// Compression statistics against the uncompressed size.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::new(self.num_values * 8, self.total_bytes())
    }

    /// Decomposes into `(num_values, segments)` for codec-agnostic
    /// [`Encoded`] framing.
    pub fn into_parts(self) -> (usize, Vec<Vec<u8>>) {
        (self.num_values, self.segments)
    }
}

/// The GFC codec: configuration (segment count) plus compress/decompress
/// entry points.
///
/// The segment count trades parallelism (each segment is one warp's work)
/// against ratio (each segment restarts the residual predictor). The
/// paper chooses it "to match the GPU parallelism".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GfcCodec {
    num_segments: usize,
}

impl GfcCodec {
    /// Creates a codec with the given segment count.
    ///
    /// # Panics
    ///
    /// Panics if `num_segments == 0`.
    pub fn new(num_segments: usize) -> Self {
        assert!(num_segments > 0, "need at least one segment");
        GfcCodec { num_segments }
    }

    /// The configured segment count.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Compresses a slice of doubles.
    pub fn compress(&self, data: &[f64]) -> Compressed {
        let seg_len = segment_len(data.len(), self.num_segments);
        let segments = if seg_len == 0 {
            vec![compress_segment(data)]
        } else {
            data.chunks(seg_len).map(compress_segment).collect()
        };
        Compressed {
            num_values: data.len(),
            segments,
        }
    }

    /// Compresses a complex-amplitude slice (viewed as interleaved
    /// `re, im` doubles, exactly how the simulator stores chunks).
    pub fn compress_amplitudes(&self, amps: &[Complex64]) -> Compressed {
        self.compress(amps_as_f64(amps))
    }

    /// Decompresses back into doubles.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is corrupt; use [`GfcCodec::try_decompress`]
    /// to handle untrusted data.
    pub fn decompress(&self, c: &Compressed) -> Vec<f64> {
        self.try_decompress(c).expect("corrupt compressed buffer")
    }

    /// Decompresses back into doubles, reporting corruption as an error.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeGfcError`] when a segment header is truncated, the
    /// declared lengths disagree with the payload, or the total value
    /// count does not match the buffer's metadata.
    pub fn try_decompress(&self, c: &Compressed) -> Result<Vec<f64>, DecodeGfcError> {
        let mut out = Vec::with_capacity(c.num_values);
        for (i, seg) in c.segments.iter().enumerate() {
            decompress_segment(seg, &mut out).map_err(|message| DecodeGfcError {
                segment: i,
                message,
            })?;
        }
        if out.len() != c.num_values {
            return Err(DecodeGfcError {
                segment: c.segments.len(),
                message: "decoded value count does not match metadata",
            });
        }
        Ok(out)
    }

    /// Decompresses into complex amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is corrupt or holds an odd number of doubles;
    /// use [`GfcCodec::try_decompress_amplitudes`] for untrusted data.
    pub fn decompress_amplitudes(&self, c: &Compressed) -> Vec<Complex64> {
        self.try_decompress_amplitudes(c)
            .expect("corrupt compressed buffer")
    }

    /// Decompresses and verifies the decoded content against the CRC32
    /// computed at encode time (see [`value_crc32`]). The structural
    /// checks in [`GfcCodec::try_decompress`] reject most damage; the CRC
    /// closes the gap where corrupted bytes still parse into the right
    /// number of values — without it those would surface as silently
    /// wrong amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeGfcError`] on structural corruption or a content
    /// CRC mismatch.
    pub fn try_decompress_verified(
        &self,
        c: &Compressed,
        expected_crc: u32,
    ) -> Result<Vec<f64>, DecodeGfcError> {
        let out = self.try_decompress(c)?;
        if value_crc32(&out) != expected_crc {
            return Err(DecodeGfcError {
                segment: c.segments.len(),
                message: "decoded content fails CRC32 verification",
            });
        }
        Ok(out)
    }

    /// Amplitude counterpart of [`GfcCodec::try_decompress_verified`]:
    /// the CRC is over the interleaved doubles ([`amplitude_crc32`]).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeGfcError`] on structural corruption, an odd double
    /// count, or a content CRC mismatch.
    pub fn try_decompress_amplitudes_verified(
        &self,
        c: &Compressed,
        expected_crc: u32,
    ) -> Result<Vec<Complex64>, DecodeGfcError> {
        let amps = self.try_decompress_amplitudes(c)?;
        if amplitude_crc32(&amps) != expected_crc {
            return Err(DecodeGfcError {
                segment: c.segments.len(),
                message: "decoded content fails CRC32 verification",
            });
        }
        Ok(amps)
    }

    /// Decompresses into complex amplitudes, reporting corruption.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeGfcError`] on corrupt buffers or an odd number of
    /// decoded doubles.
    pub fn try_decompress_amplitudes(
        &self,
        c: &Compressed,
    ) -> Result<Vec<Complex64>, DecodeGfcError> {
        let doubles = self.try_decompress(c)?;
        if doubles.len() % 2 != 0 {
            return Err(DecodeGfcError {
                segment: c.segments.len(),
                message: "odd number of doubles for a complex buffer",
            });
        }
        Ok(doubles
            .chunks_exact(2)
            .map(|p| Complex64::new(p[0], p[1]))
            .collect())
    }
}

impl GfcCodec {
    /// [`Codec::encoded_len`] through `walk`.
    fn sized(&self, walk: SizeWalk, data: &[f64]) -> usize {
        // One segment (every chunk under 512 doubles in the engine) is the
        // whole slice: no segment length to divide out.
        if self.num_segments == 1 || data.is_empty() {
            return walk(data);
        }
        data.chunks(segment_len(data.len(), self.num_segments))
            .map(walk)
            .sum()
    }
}

impl Default for GfcCodec {
    /// 32 segments — enough warps to saturate a small GPU.
    fn default() -> Self {
        GfcCodec::new(32)
    }
}

impl Codec for GfcCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Gfc
    }

    /// Identical byte stream to [`GfcCodec::compress`] — the [`Encoded`]
    /// segments *are* the [`Compressed`] segments, so trait callers see
    /// the exact sizes (and golden fingerprints) the hardwired pipeline
    /// produced.
    fn encode(&self, data: &[f64]) -> Encoded {
        let (num_values, segments) = self.compress(data).into_parts();
        Encoded::from_parts(CodecKind::Gfc, num_values, segments)
    }

    fn encoded_len(&self, data: &[f64]) -> usize {
        self.sized(size_walk(), data)
    }

    /// One fetch of the size walk for the whole run — or none, for
    /// chunks of at most `CLOSED_FORM_VALUES` values, sized in closed
    /// form (`tiny_lens`).
    fn encoded_lens(&self, amps: &[Complex64], chunk_len: usize, out: &mut [u32]) {
        if 2 * chunk_len <= CLOSED_FORM_VALUES {
            return tiny_lens(amps, chunk_len, out);
        }
        let walk = size_walk();
        for (chunk, len) in chunks_of(amps, chunk_len, out.len()).zip(out) {
            *len = saturating_u32(self.sized(walk, amps_as_f64(chunk)));
        }
    }

    fn try_decode(&self, enc: &Encoded) -> Result<Vec<f64>, DecodeError> {
        if enc.codec() != CodecKind::Gfc {
            return Err(DecodeError {
                codec: CodecKind::Gfc,
                segment: 0,
                message: "buffer was not gfc encoded",
            });
        }
        let mut out = Vec::with_capacity(enc.num_values());
        for i in 0..enc.num_segments() {
            decompress_segment(enc.segment(i), &mut out).map_err(|message| DecodeError {
                codec: CodecKind::Gfc,
                segment: i,
                message,
            })?;
        }
        if out.len() != enc.num_values() {
            return Err(DecodeError {
                codec: CodecKind::Gfc,
                segment: enc.num_segments(),
                message: "decoded value count does not match metadata",
            });
        }
        Ok(out)
    }
}

/// Rounds the per-segment length up to a micro-chunk multiple.
fn segment_len(total: usize, num_segments: usize) -> usize {
    let raw = total.div_ceil(num_segments);
    raw.div_ceil(MICRO_CHUNK) * MICRO_CHUNK
}

/// Whole leading zero bytes of a residual magnitude that the format
/// drops: 0..=7, so a value always keeps at least one payload byte.
/// `| 1` gives that range without a clamp — it leaves the highest set bit
/// of a non-zero magnitude where it is and turns 0 (64 zero bits, which
/// would read as 8 bytes) into 1 (63 bits, 7 bytes), exactly
/// `(leading_zeros / 8).min(7)` — and `leading_zeros` never sees 0.
#[inline(always)]
fn leading_zero_bytes(magnitude: u64) -> u32 {
    (magnitude | 1).leading_zeros() / 8
}

/// Value `i`'s residual against the same lane of the previous
/// micro-chunk, as `(sign, magnitude, leading-zero bytes)`.
#[inline]
fn residual(values: &[f64], i: usize) -> (u8, u64, u8) {
    // Lane j of micro-chunk k predicts from lane j of micro-chunk k-1.
    let prev = if i >= MICRO_CHUNK {
        values[i - MICRO_CHUNK].to_bits()
    } else {
        0
    };
    let residual = values[i].to_bits().wrapping_sub(prev) as i64;
    let magnitude = residual.unsigned_abs();
    (
        u8::from(residual < 0),
        magnitude,
        leading_zero_bytes(magnitude) as u8,
    )
}

/// `compress_segment(values).len()` without the buffers — the one body of
/// the size walk, instantiated below once per instruction set. The first
/// micro-chunk predicts from zero and is summed on its own; every later
/// value is zipped against the one a micro-chunk before it, so the loop
/// has no branch and no bounds check: the compiler interleaves its sum
/// over independent accumulators, and vectorizes it where the target
/// counts leading zeros per lane.
#[inline(always)]
fn segment_encoded_len_body(values: &[f64]) -> usize {
    let dropped = |cur: &f64, prev: u64| {
        let residual = cur.to_bits().wrapping_sub(prev) as i64;
        leading_zero_bytes(residual.unsigned_abs()) as usize
    };
    let n = values.len();
    let (head, rest) = values.split_at(n.min(MICRO_CHUNK));
    let head_dropped: usize = head.iter().map(|v| dropped(v, 0)).sum();
    let rest_dropped: usize = rest
        .iter()
        .zip(&values[..rest.len()])
        .map(|(v, prev)| dropped(v, prev.to_bits()))
        .sum();
    8 + n.div_ceil(2) + 8 * n - head_dropped - rest_dropped
}

/// The longest chunk, in values, that [`Codec::encoded_lens`] sizes in
/// closed form. The closed form is a scalar loop; the size walk counts
/// leading zeros eight lanes at a time where the CPU allows, so past a
/// few values one walk call per chunk is the cheaper of the two. On the
/// 2-vCPU AVX-512 host of EXPERIMENTS.md, per chunk of 1, 2, 4, 8 and 16
/// amplitudes: 3.5, 5.1, 9.3, 17.2 and 38.5 ns in closed form against
/// 10.6, 10.1, 12.4, 13.8 and 18.7 ns through the walk.
const CLOSED_FORM_VALUES: usize = 8;

/// [`Codec::encoded_lens`] of chunks of `chunk_len` amplitudes, at most
/// one micro-chunk of values each, in one loop over the run: every value
/// predicts from 0 and the chunk is one segment, so its size is
/// `8 + ⌈n/2⌉ + 8n` bytes less the leading zero bytes of each value's
/// bits read as a signed residual — [`segment_encoded_len_body`] with no
/// history. The widths the engine uses get the loop with their width
/// folded in (a division per call otherwise, which showed where every
/// call sizes one 2-amplitude chunk).
#[inline]
fn tiny_lens(amps: &[Complex64], chunk_len: usize, out: &mut [u32]) {
    assert_eq!(
        amps.len(),
        out.len() * chunk_len,
        "{} chunks of {chunk_len} amplitudes",
        out.len()
    );
    assert!(2 * chunk_len <= MICRO_CHUNK, "one micro-chunk at most");
    let values = amps_as_f64(amps);
    match 2 * chunk_len {
        0 => out.fill(8),
        2 => tiny_lens_body(values, 2, out),
        4 => tiny_lens_body(values, 4, out),
        8 => tiny_lens_body(values, 8, out),
        n => tiny_lens_body(values, n, out),
    }
}

/// [`tiny_lens`] over chunks of `n > 0` values.
#[inline(always)]
fn tiny_lens_body(values: &[f64], n: usize, out: &mut [u32]) {
    let whole = 8 + n.div_ceil(2) as u32 + 8 * n as u32;
    for (chunk, len) in values.chunks_exact(n).zip(out) {
        let dropped: u32 = chunk
            .iter()
            .map(|v| leading_zero_bytes((v.to_bits() as i64).unsigned_abs()))
            .sum();
        *len = whole - dropped;
    }
}

/// A size walk: [`segment_encoded_len_body`] compiled for one target.
type SizeWalk = fn(&[f64]) -> usize;

fn segment_encoded_len_portable(values: &[f64]) -> usize {
    segment_encoded_len_body(values)
}

/// The body again with AVX-512 lanes: `vplzcntq` counts eight residuals'
/// leading zeros at once (optimized builds only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512cd,avx512vl,lzcnt")]
fn segment_encoded_len_wide(values: &[f64]) -> usize {
    segment_encoded_len_body(values)
}

/// The wide instantiation, where this CPU can run it.
fn wide_size_walk() -> Option<SizeWalk> {
    #[cfg(target_arch = "x86_64")]
    if qgpu_math::isa::wide() {
        // SAFETY: `isa::wide` detected every feature
        // `segment_encoded_len_wide` enables on the running CPU.
        return Some(|values| unsafe { segment_encoded_len_wide(values) });
    }
    None
}

/// The widest size walk available (the probe decides once per process).
fn size_walk() -> SizeWalk {
    wide_size_walk().unwrap_or(segment_encoded_len_portable)
}

fn compress_segment(values: &[f64]) -> Vec<u8> {
    // Layout: [u32 count][u32 payload_len][packed 4-bit headers][payload].
    let n = values.len();
    let mut headers = Vec::with_capacity(n.div_ceil(2));
    let mut payload: Vec<u8> = Vec::with_capacity(n * 4);
    let mut pending_header: Option<u8> = None;

    for i in 0..n {
        let (sign, magnitude, lzb) = residual(values, i);
        let header = (sign << 3) | lzb;
        match pending_header.take() {
            None => pending_header = Some(header),
            Some(first) => headers.push((first << 4) | header),
        }
        let keep = 8 - lzb as usize;
        payload.extend_from_slice(&magnitude.to_le_bytes()[..keep]);
    }
    if let Some(first) = pending_header {
        headers.push(first << 4);
    }

    let mut out = Vec::with_capacity(8 + headers.len() + payload.len());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&headers);
    out.extend_from_slice(&payload);
    out
}

fn decompress_segment(seg: &[u8], out: &mut Vec<f64>) -> Result<(), &'static str> {
    if seg.len() < 8 {
        return Err("segment shorter than its header");
    }
    let n = u32::from_le_bytes(seg[0..4].try_into().expect("4 bytes")) as usize;
    let payload_len = u32::from_le_bytes(seg[4..8].try_into().expect("4 bytes")) as usize;
    let header_len = n.div_ceil(2);
    if seg.len() != 8 + header_len + payload_len {
        return Err("declared lengths disagree with segment size");
    }
    let headers = &seg[8..8 + header_len];
    let payload = &seg[8 + header_len..];

    let start = out.len();
    let mut pos = 0usize;
    for i in 0..n {
        let packed = headers[i / 2];
        let header = if i % 2 == 0 {
            packed >> 4
        } else {
            packed & 0x0f
        };
        let sign = (header >> 3) & 1;
        let lzb = (header & 0x7) as usize;
        let keep = 8 - lzb;
        if pos + keep > payload.len() {
            return Err("payload truncated");
        }
        let mut bytes = [0u8; 8];
        bytes[..keep].copy_from_slice(&payload[pos..pos + keep]);
        pos += keep;
        let magnitude = u64::from_le_bytes(bytes);
        let residual = if sign == 1 {
            (magnitude as i64).wrapping_neg()
        } else {
            magnitude as i64
        };
        let prev = if i >= MICRO_CHUNK {
            out[start + i - MICRO_CHUNK].to_bits()
        } else {
            0
        };
        let cur = prev.wrapping_add(residual as u64);
        out.push(f64::from_bits(cur));
    }
    if pos != payload.len() {
        return Err("trailing payload bytes");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(codec: &GfcCodec, data: &[f64]) {
        let c = codec.compress(data);
        let d = codec.decompress(&c);
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(d.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "lossless roundtrip violated");
        }
    }

    #[test]
    fn empty_input() {
        roundtrip(&GfcCodec::new(4), &[]);
    }

    #[test]
    fn zeros_compress_extremely_well() {
        let codec = GfcCodec::new(4);
        let data = vec![0.0f64; 4096];
        let c = codec.compress(&data);
        // 4 bits header + 1 byte payload per value + segment overhead.
        assert!(
            c.total_bytes() < data.len() * 2,
            "{} bytes",
            c.total_bytes()
        );
        roundtrip(&codec, &data);
    }

    #[test]
    fn smooth_data_compresses() {
        let codec = GfcCodec::default();
        let data: Vec<f64> = (0..8192).map(|i| (i as f64 * 1e-4).sin() * 0.25).collect();
        let c = codec.compress(&data);
        assert!(
            c.total_bytes() < 8 * data.len(),
            "smooth data should compress: {} vs {}",
            c.total_bytes(),
            8 * data.len()
        );
        roundtrip(&codec, &data);
    }

    #[test]
    fn random_data_does_not_explode() {
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<f64> = (0..4096).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let codec = GfcCodec::new(8);
        let c = codec.compress(&data);
        // Worst case: 0.5 byte header + 8 bytes payload per value + overhead.
        assert!(c.total_bytes() <= data.len() * 9 + 8 * 8);
        roundtrip(&codec, &data);
    }

    #[test]
    fn special_values_roundtrip() {
        let data = vec![
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::EPSILON,
        ];
        roundtrip(&GfcCodec::new(1), &data);
    }

    #[test]
    fn nan_payload_preserved() {
        let data = vec![f64::from_bits(0x7ff8_0000_dead_beef), 1.0, f64::NAN];
        let codec = GfcCodec::new(1);
        let c = codec.compress(&data);
        let d = codec.decompress(&c);
        for (a, b) in data.iter().zip(d.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn segment_count_respected() {
        let codec = GfcCodec::new(8);
        let data = vec![1.0; 1024];
        let c = codec.compress(&data);
        assert_eq!(c.num_segments(), 8);
        // 1024 / 8 = 128 values per segment, a micro-chunk multiple.
        roundtrip(&codec, &data);
    }

    #[test]
    fn ragged_tail_segment() {
        // Length not divisible by segments * MICRO_CHUNK.
        let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.125).collect();
        roundtrip(&GfcCodec::new(4), &data);
        roundtrip(&GfcCodec::new(3), &data);
        roundtrip(&GfcCodec::new(7), &data);
    }

    #[test]
    fn more_segments_than_values() {
        let data = vec![2.5; 5];
        roundtrip(&GfcCodec::new(64), &data);
    }

    #[test]
    fn complex_amplitudes_roundtrip() {
        let amps: Vec<Complex64> = (0..512)
            .map(|i| Complex64::new((i as f64).cos() * 0.1, (i as f64).sin() * 0.1))
            .collect();
        let codec = GfcCodec::new(4);
        let c = codec.compress_amplitudes(&amps);
        let d = codec.decompress_amplitudes(&c);
        assert_eq!(amps.len(), d.len());
        for (a, b) in amps.iter().zip(d.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn stats_ratio() {
        let codec = GfcCodec::new(2);
        let c = codec.compress(&vec![0.0; 1024]);
        let stats = c.stats();
        assert!(stats.ratio() > 4.0, "ratio = {}", stats.ratio());
    }

    #[test]
    fn repeated_value_stream() {
        // Identical values across micro-chunks give zero residuals.
        let codec = GfcCodec::new(1);
        let data = vec![std::f64::consts::PI; 2048];
        let c = codec.compress(&data);
        // First micro-chunk stores full values; the rest collapse.
        assert!(c.total_bytes() < 2048 * 2 + 32 * 8);
        roundtrip(&codec, &data);
    }

    #[test]
    fn try_decompress_reports_segment_index() {
        let codec = GfcCodec::new(4);
        let mut c = codec.compress(&vec![1.0; 256]);
        c.segments[2].pop();
        let err = codec.try_decompress(&c).expect_err("corrupt");
        assert_eq!(err.segment, 2);
        assert!(err.to_string().contains("segment 2"));
    }

    #[test]
    fn try_decompress_detects_count_mismatch() {
        let codec = GfcCodec::new(1);
        let mut c = codec.compress(&vec![0.5; 64]);
        // Drop a whole segment worth of values by replacing with an empty
        // but well-formed segment (count 0, payload 0).
        c.segments[0] = vec![0, 0, 0, 0, 0, 0, 0, 0];
        let err = codec.try_decompress(&c).expect_err("count mismatch");
        assert!(err.message.contains("count"));
    }

    /// `len` doubles on the size walk's byte-count boundaries: residuals
    /// cycle through 0, ±2^(8k), ±(2^(8k)−1), `i64::MIN` and `i64::MAX`;
    /// every eleventh value is −0.0 or a NaN with a payload outright.
    fn boundary_values(len: usize, rot: usize) -> Vec<f64> {
        let mut residuals = vec![0, i64::MIN, i64::MAX];
        for k in 0..8 {
            let p = 1i64 << (8 * k);
            residuals.extend([p, -p, p - 1, 1 - p]);
        }
        let outright = [1u64 << 63, 0x7ff8_0000_dead_beef, 0xfff0_0000_0000_0001];
        let mut bits: Vec<u64> = Vec::with_capacity(len);
        for i in 0..len {
            let prev = if i >= MICRO_CHUNK {
                bits[i - MICRO_CHUNK]
            } else {
                0
            };
            bits.push(if (i + rot).is_multiple_of(11) {
                outright[i % outright.len()]
            } else {
                prev.wrapping_add(residuals[(i + rot) % residuals.len()] as u64)
            });
        }
        bits.into_iter().map(f64::from_bits).collect()
    }

    #[test]
    fn every_size_walk_matches_the_encoder_to_the_byte() {
        // Both instantiations are one body, so they can only diverge if
        // the compiler (or an edit that forks the body) breaks one: run
        // every one this host has against the encoder itself. Lengths
        // 0..=97 (head only, ragged tails, tails not a multiple of the
        // vector width) and within 3 of every micro-chunk multiple.
        let walks: Vec<SizeWalk> = [
            Some(segment_encoded_len_portable as SizeWalk),
            wide_size_walk(),
        ]
        .into_iter()
        .flatten()
        .collect();
        let lens = (0..=97).chain((4..=24).flat_map(|k| k * MICRO_CHUNK - 3..=k * MICRO_CHUNK + 3));
        let mut rng = StdRng::seed_from_u64(18);
        for len in lens {
            let noise: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for data in [boundary_values(len, len % 35), noise] {
                let want = compress_segment(&data).len();
                for walk in &walks {
                    assert_eq!(walk(&data), want, "len {len}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip_is_bit_exact(
            data in proptest::collection::vec(
                proptest::num::f64::ANY, 0..600),
            segs in 1usize..16,
        ) {
            let codec = GfcCodec::new(segs);
            let c = codec.compress(&data);
            let d = codec.decompress(&c);
            prop_assert_eq!(d.len(), data.len());
            for (a, b) in data.iter().zip(d.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn corrupted_buffers_are_rejected_not_miscoded(
            data in proptest::collection::vec(-1.0f64..1.0, 32..300),
            flip_byte in 0usize..64,
        ) {
            let codec = GfcCodec::new(2);
            let mut c = codec.compress(&data);
            // Truncate the first segment: must error, never panic or
            // silently decode.
            if !c.segments[0].is_empty() {
                let cut = flip_byte % c.segments[0].len();
                c.segments[0].truncate(cut);
                prop_assert!(codec.try_decompress(&c).is_err());
            }
        }

        #[test]
        fn compressed_size_bounded(
            data in proptest::collection::vec(-1.0f64..1.0, 0..600),
        ) {
            let codec = GfcCodec::default();
            let c = codec.compress(&data);
            // Never more than 9 bytes per value plus per-segment overhead.
            prop_assert!(c.total_bytes() <= data.len() * 9 + 9 * c.num_segments());
        }
    }
}
