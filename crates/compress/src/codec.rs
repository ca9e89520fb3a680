//! The codec abstraction layer: a [`Codec`] trait over lossless `f64`
//! encoders, codec-agnostic [`Encoded`] framing, and the CRC-sealed
//! verified-decode path shared by every implementation.
//!
//! Historically the pipeline was hardwired to [`GfcCodec`]; this module
//! lifts the pieces that were never GFC-specific — the segment framing,
//! the `value_crc32`/`amplitude_crc32` content seals, the observed
//! compress/decompress spans — into one place so alternative encoders
//! ([`ZeroRunCodec`],
//! [`AlpCodec`]) and the sampling
//! [`CascadeCodec`](crate::cascade::CascadeCodec) plug into the engine,
//! the checkpoint format, and the modeled `Timeline` without touching
//! call sites.

use std::fmt;
use std::str::FromStr;

use qgpu_faults::Crc32;
use qgpu_math::Complex64;
use qgpu_obs::Recorder;
use serde::{Deserialize, Serialize};

use crate::alp::AlpCodec;
use crate::gfc::GfcCodec;
use crate::stats::CompressionStats;
use crate::zero_run::ZeroRunCodec;

/// CRC32 (IEEE) over the little-endian bytes of a double slice — the
/// integrity tag the resilient pipeline computes at encode time and
/// verifies after decode, catching corruption the formats' own structural
/// checks cannot (a bit flip that still parses).
pub fn value_crc32(data: &[f64]) -> u32 {
    let mut crc = Crc32::new();
    for v in data {
        crc.update(&v.to_le_bytes());
    }
    crc.finish()
}

/// [`value_crc32`] over interleaved `re, im` amplitude doubles — matches
/// what [`Codec::try_decode_amplitudes_verified`] recomputes.
pub fn amplitude_crc32(amps: &[Complex64]) -> u32 {
    value_crc32(amps_as_f64(amps))
}

/// `n` consecutive `chunk_len`-amplitude chunks of `amps` (see
/// [`Codec::encoded_lens`]).
pub(crate) fn chunks_of(
    amps: &[Complex64],
    chunk_len: usize,
    n: usize,
) -> impl Iterator<Item = &[Complex64]> {
    assert_eq!(
        amps.len(),
        n * chunk_len,
        "{n} chunks of {chunk_len} amplitudes"
    );
    (0..n).map(move |i| &amps[i * chunk_len..(i + 1) * chunk_len])
}

/// An encoded length as [`Codec::encoded_lens`] reports it.
pub(crate) fn saturating_u32(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// Reinterprets amplitudes as interleaved doubles (zero-copy).
pub(crate) fn amps_as_f64(amps: &[Complex64]) -> &[f64] {
    // Safety: Complex64 is repr(C) with exactly two f64 fields.
    unsafe { std::slice::from_raw_parts(amps.as_ptr().cast::<f64>(), amps.len() * 2) }
}

/// Identifies a concrete encoding. The discriminants are stable on-disk
/// identifiers (checkpoint format v3 stores one per segment) — never
/// renumber them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum CodecKind {
    /// The paper's GFC warp-parallel residual coder.
    Gfc,
    /// Run-length shortcut for all-zero / repeated-value chunks.
    ZeroRun,
    /// ALP-style adaptive lossless decimal-scaled FP coder.
    Alp,
    /// Sampling meta-codec: scores the other three per chunk and
    /// delegates; never appears as an on-disk encoding id.
    Cascade,
}

impl CodecKind {
    /// Every selectable kind, in CLI order.
    pub const ALL: [CodecKind; 4] = [
        CodecKind::Gfc,
        CodecKind::ZeroRun,
        CodecKind::Alp,
        CodecKind::Cascade,
    ];

    /// Stable one-byte on-disk identifier (checkpoint v3 segments).
    pub fn id(self) -> u8 {
        match self {
            CodecKind::Gfc => 0,
            CodecKind::ZeroRun => 1,
            CodecKind::Alp => 2,
            CodecKind::Cascade => 3,
        }
    }

    /// Inverse of [`CodecKind::id`].
    pub fn from_id(id: u8) -> Option<CodecKind> {
        match id {
            0 => Some(CodecKind::Gfc),
            1 => Some(CodecKind::ZeroRun),
            2 => Some(CodecKind::Alp),
            3 => Some(CodecKind::Cascade),
            _ => None,
        }
    }

    /// Canonical CLI / metrics name.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Gfc => "gfc",
            CodecKind::ZeroRun => "zero-run",
            CodecKind::Alp => "alp",
            CodecKind::Cascade => "cascade",
        }
    }

    /// Modeled encode throughput relative to GFC's compress kernel — the
    /// same ratios the device specs bake into their per-codec modeled
    /// bandwidths, used by the cascade to score `ratio × throughput`.
    pub fn throughput_factor(self) -> f64 {
        match self {
            CodecKind::Gfc => 1.0,
            // A run-length scan is read-bandwidth bound and writes almost
            // nothing; far cheaper than GFC's residual + prefix packing.
            CodecKind::ZeroRun => 3.5,
            // Exponent probing plus bit-packing costs more than GFC.
            CodecKind::Alp => 0.7,
            // Sampling overhead on top of the winner's own cost.
            CodecKind::Cascade => 0.9,
        }
    }

    /// Recorder span label for this codec's encode pass (e.g.
    /// `"gfc.compress"`) — the engine's sizing pass reuses it so the
    /// measured Compress span names the codec that actually ran.
    pub fn compress_span(self) -> &'static str {
        match self {
            CodecKind::Gfc => "gfc.compress",
            CodecKind::ZeroRun => "zero-run.compress",
            CodecKind::Alp => "alp.compress",
            CodecKind::Cascade => "cascade.compress",
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Default for CodecKind {
    /// GFC — the paper's codec and the bit-exact golden default.
    fn default() -> Self {
        CodecKind::Gfc
    }
}

impl FromStr for CodecKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "gfc" => Ok(CodecKind::Gfc),
            "zero-run" | "zerorun" | "zero_run" => Ok(CodecKind::ZeroRun),
            "alp" => Ok(CodecKind::Alp),
            "cascade" => Ok(CodecKind::Cascade),
            other => Err(format!(
                "unknown codec '{other}' (expected gfc|zero-run|alp|cascade)"
            )),
        }
    }
}

/// A codec-agnostic encoded buffer: which encoding produced it, how many
/// doubles it decodes to, and the independently decodable segments.
///
/// Segment granularity is codec-defined (GFC emits one per warp; the
/// scalar codecs emit one in total); persistence formats that need
/// per-segment metadata store [`Encoded::codec`] alongside each one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Encoded {
    codec: CodecKind,
    num_values: usize,
    segments: Vec<Vec<u8>>,
}

impl Encoded {
    /// Assembles a buffer from parts (decoding validates consistency).
    pub fn from_parts(codec: CodecKind, num_values: usize, segments: Vec<Vec<u8>>) -> Self {
        Encoded {
            codec,
            num_values,
            segments,
        }
    }

    /// The encoding that produced this buffer (for a cascade, the
    /// *winning* inner codec — never [`CodecKind::Cascade`] itself).
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Number of `f64` values the buffer decodes to.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Number of independently encoded segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Raw bytes of segment `i` (for persistence formats).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn segment(&self, i: usize) -> &[u8] {
        &self.segments[i]
    }

    /// All segments, consumed (for persistence formats).
    pub fn into_segments(self) -> Vec<Vec<u8>> {
        self.segments
    }

    /// Total encoded payload in bytes (framing excluded, matching how
    /// the engine models transfer sizes).
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Compression statistics against the uncompressed size.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::new(self.num_values * 8, self.total_bytes())
    }
}

/// Error returned when an encoded buffer cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The encoding that was being decoded.
    pub codec: CodecKind,
    /// Index of the offending segment (one past the end for whole-buffer
    /// failures such as CRC mismatches).
    pub segment: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt {} segment {}: {}",
            self.codec, self.segment, self.message
        )
    }
}

impl std::error::Error for DecodeError {}

/// A lossless `f64` codec the engine can hold as `dyn Codec`.
///
/// Implementors provide bit-exact [`Codec::encode`]/[`Codec::try_decode`]
/// over raw doubles; the amplitude views, observed (span + ratio
/// histogram) variants, and CRC-verified decodes are shared provided
/// methods so every codec gets the same sealing semantics the resilient
/// pipeline relies on.
pub trait Codec: fmt::Debug + Send + Sync {
    /// Which encoding family this codec selects (a cascade reports
    /// [`CodecKind::Cascade`] even though its buffers carry the winner).
    fn kind(&self) -> CodecKind;

    /// Encodes a slice of doubles, losslessly.
    fn encode(&self, data: &[f64]) -> Encoded;

    /// `self.encode(data).total_bytes()`, for callers that only size a
    /// transfer. Every codec overrides it to walk the data without
    /// building the buffer; the result must equal the encoded size to the
    /// byte.
    fn encoded_len(&self, data: &[f64]) -> usize {
        self.encode(data).total_bytes()
    }

    /// Decodes back into doubles, reporting corruption as an error.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the buffer is structurally corrupt or
    /// was produced by an encoding this codec cannot decode.
    fn try_decode(&self, enc: &Encoded) -> Result<Vec<f64>, DecodeError>;

    /// Decodes back into doubles.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is corrupt; use [`Codec::try_decode`] for
    /// untrusted data.
    fn decode(&self, enc: &Encoded) -> Vec<f64> {
        self.try_decode(enc).expect("corrupt encoded buffer")
    }

    /// Encodes a complex-amplitude slice (viewed as interleaved `re, im`
    /// doubles, exactly how the simulator stores chunks).
    fn encode_amplitudes(&self, amps: &[Complex64]) -> Encoded {
        self.encode(amps_as_f64(amps))
    }

    /// [`Codec::encoded_len`] of a complex-amplitude slice.
    fn encoded_len_amplitudes(&self, amps: &[Complex64]) -> usize {
        self.encoded_len(amps_as_f64(amps))
    }

    /// [`Codec::encoded_len_amplitudes`] of every `chunk_len`-amplitude
    /// chunk of `amps`, into `out` (one per chunk, saturating at
    /// `u32::MAX`): the engine sizes a run of consecutive live chunks in
    /// one call. A codec with per-call setup overrides it to pay that
    /// once per run; every result must equal the single call's.
    ///
    /// # Panics
    ///
    /// Panics if `amps.len() != out.len() * chunk_len`.
    fn encoded_lens(&self, amps: &[Complex64], chunk_len: usize, out: &mut [u32]) {
        for (chunk, len) in chunks_of(amps, chunk_len, out.len()).zip(out) {
            *len = saturating_u32(self.encoded_len_amplitudes(chunk));
        }
    }

    /// [`Codec::encoded_lens`] under observation — the engine's sizing
    /// pass. A codec that makes a per-chunk decision publishes it here
    /// (the cascade counts its picks); the Compress span and the ratio
    /// histogram are the caller's, opened once per gate.
    ///
    /// # Panics
    ///
    /// Panics like [`Codec::encoded_lens`].
    fn encoded_lens_observed(
        &self,
        amps: &[Complex64],
        chunk_len: usize,
        out: &mut [u32],
        _rec: Option<&Recorder>,
    ) {
        self.encoded_lens(amps, chunk_len, out);
    }

    /// Decodes into complex amplitudes, reporting corruption.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on corrupt buffers or an odd number of
    /// decoded doubles.
    fn try_decode_amplitudes(&self, enc: &Encoded) -> Result<Vec<Complex64>, DecodeError> {
        let doubles = self.try_decode(enc)?;
        if doubles.len() % 2 != 0 {
            return Err(DecodeError {
                codec: enc.codec(),
                segment: enc.num_segments(),
                message: "odd number of doubles for a complex buffer",
            });
        }
        Ok(doubles
            .chunks_exact(2)
            .map(|p| Complex64::new(p[0], p[1]))
            .collect())
    }

    /// Decodes into complex amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is corrupt or holds an odd number of doubles;
    /// use [`Codec::try_decode_amplitudes`] for untrusted data.
    fn decode_amplitudes(&self, enc: &Encoded) -> Vec<Complex64> {
        self.try_decode_amplitudes(enc)
            .expect("corrupt encoded buffer")
    }

    /// Decodes and verifies the content against the CRC32 computed at
    /// encode time (see [`value_crc32`]). The structural checks in
    /// [`Codec::try_decode`] reject most damage; the CRC closes the gap
    /// where corrupted bytes still parse into the right number of values
    /// — without it those would surface as silently wrong amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on structural corruption or a content CRC
    /// mismatch.
    fn try_decode_verified(
        &self,
        enc: &Encoded,
        expected_crc: u32,
    ) -> Result<Vec<f64>, DecodeError> {
        let out = self.try_decode(enc)?;
        if value_crc32(&out) != expected_crc {
            return Err(DecodeError {
                codec: enc.codec(),
                segment: enc.num_segments(),
                message: "decoded content fails CRC32 verification",
            });
        }
        Ok(out)
    }

    /// Amplitude counterpart of [`Codec::try_decode_verified`]: the CRC
    /// is over the interleaved doubles ([`amplitude_crc32`]).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on structural corruption, an odd double
    /// count, or a content CRC mismatch.
    fn try_decode_amplitudes_verified(
        &self,
        enc: &Encoded,
        expected_crc: u32,
    ) -> Result<Vec<Complex64>, DecodeError> {
        let amps = self.try_decode_amplitudes(enc)?;
        if amplitude_crc32(&amps) != expected_crc {
            return Err(DecodeError {
                codec: enc.codec(),
                segment: enc.num_segments(),
                message: "decoded content fails CRC32 verification",
            });
        }
        Ok(amps)
    }
}

/// Builds the codec a run configured, sized for the given chunk.
///
/// `gfc_segments` only affects GFC-family encoders (including the
/// cascade's GFC candidate); the scalar codecs ignore it.
pub fn codec_for_kind(kind: CodecKind, gfc_segments: usize) -> Box<dyn Codec> {
    match kind {
        CodecKind::Gfc => Box::new(GfcCodec::new(gfc_segments)),
        CodecKind::ZeroRun => Box::new(ZeroRunCodec::new()),
        CodecKind::Alp => Box::new(AlpCodec::new()),
        CodecKind::Cascade => Box::new(crate::cascade::CascadeCodec::new(gfc_segments)),
    }
}

/// Decodes a buffer produced by *any* concrete encoding, dispatching on
/// [`Encoded::codec`] — how cascade buffers and mixed-codec checkpoint
/// segments come back without knowing the encoder up front.
///
/// # Errors
///
/// Returns [`DecodeError`] on structural corruption or a buffer tagged
/// [`CodecKind::Cascade`] (cascades always stamp the winner).
pub fn try_decode_any(enc: &Encoded) -> Result<Vec<f64>, DecodeError> {
    match enc.codec() {
        CodecKind::Gfc => GfcCodec::default().try_decode(enc),
        CodecKind::ZeroRun => ZeroRunCodec::new().try_decode(enc),
        CodecKind::Alp => AlpCodec::new().try_decode(enc),
        CodecKind::Cascade => Err(DecodeError {
            codec: CodecKind::Cascade,
            segment: 0,
            message: "cascade buffers must carry the winning inner codec",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ids_roundtrip() {
        for kind in CodecKind::ALL {
            assert_eq!(CodecKind::from_id(kind.id()), Some(kind));
            assert_eq!(kind.name().parse::<CodecKind>().unwrap(), kind);
        }
        assert_eq!(CodecKind::from_id(200), None);
    }

    #[test]
    fn kind_parse_aliases_and_errors() {
        assert_eq!("ZeroRun".parse::<CodecKind>().unwrap(), CodecKind::ZeroRun);
        assert_eq!("zero_run".parse::<CodecKind>().unwrap(), CodecKind::ZeroRun);
        assert_eq!(" gfc ".parse::<CodecKind>().unwrap(), CodecKind::Gfc);
        assert!("lz4".parse::<CodecKind>().is_err());
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in CodecKind::ALL {
            let codec = codec_for_kind(kind, 4);
            assert_eq!(codec.kind(), kind);
            let data: Vec<f64> = (0..200).map(|i| (i as f64 * 0.01).cos()).collect();
            let enc = codec.encode(&data);
            let dec = try_decode_any(&enc).unwrap();
            assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(dec.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn verified_decode_rejects_wrong_crc() {
        let data = vec![0.25f64; 128];
        for kind in CodecKind::ALL {
            let codec = codec_for_kind(kind, 2);
            let enc = codec.encode(&data);
            let crc = value_crc32(&data);
            assert!(codec.try_decode_verified(&enc, crc).is_ok());
            let err = codec.try_decode_verified(&enc, crc ^ 1).unwrap_err();
            assert!(err.message.contains("CRC32"), "{err}");
        }
    }

    #[test]
    fn cascade_tagged_buffers_are_rejected() {
        let enc = Encoded::from_parts(CodecKind::Cascade, 0, vec![]);
        assert!(try_decode_any(&enc).is_err());
    }
}
