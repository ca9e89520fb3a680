//! Constant/zero-run shortcut codec.
//!
//! Pruning proves that many in-flight chunks are all zeros (or a single
//! repeated amplitude): GFC still pays its full residual pass on those,
//! while a run-length scan collapses them to a handful of bytes at near
//! memcpy speed. This codec is that shortcut — the cheapest candidate in
//! the [`CascadeCodec`](crate::cascade::CascadeCodec) and a useful
//! standalone choice for heavily pruned circuits.

use crate::codec::{Codec, CodecKind, DecodeError, Encoded};

/// Maximum values a single run record covers (keeps run lengths in `u32`).
const MAX_RUN: usize = u32::MAX as usize;

/// Run-length encoder over raw `f64` bit patterns: each run is stored as
/// `[u32 length][u64 bits]`, so an all-zero chunk of any size costs 12
/// bytes. Worst case (no repeats) is 12 bytes per value — 1.5× expansion
/// — which the engine's raw-size cap and the cascade's scoring both
/// absorb.
///
/// # Examples
///
/// ```
/// use qgpu_compress::{Codec, ZeroRunCodec};
///
/// let codec = ZeroRunCodec::new();
/// let enc = codec.encode(&[0.0; 65536]);
/// assert_eq!(enc.total_bytes(), 12);
/// assert_eq!(codec.decode(&enc), vec![0.0; 65536]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroRunCodec;

impl ZeroRunCodec {
    /// Creates the codec (stateless).
    pub fn new() -> Self {
        ZeroRunCodec
    }
}

/// Length of the run of bit-identical values starting at `data[i]`.
fn run_at(data: &[f64], i: usize) -> usize {
    let bits = data[i].to_bits();
    let mut run = 1usize;
    while i + run < data.len() && run < MAX_RUN && data[i + run].to_bits() == bits {
        run += 1;
    }
    run
}

impl Codec for ZeroRunCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::ZeroRun
    }

    fn encode(&self, data: &[f64]) -> Encoded {
        let mut payload = Vec::new();
        let mut i = 0usize;
        while i < data.len() {
            let run = run_at(data, i);
            payload.extend_from_slice(&(run as u32).to_le_bytes());
            payload.extend_from_slice(&data[i].to_bits().to_le_bytes());
            i += run;
        }
        Encoded::from_parts(CodecKind::ZeroRun, data.len(), vec![payload])
    }

    fn encoded_len(&self, data: &[f64]) -> usize {
        let (mut i, mut runs) = (0usize, 0usize);
        while i < data.len() {
            i += run_at(data, i);
            runs += 1;
        }
        12 * runs
    }

    fn try_decode(&self, enc: &Encoded) -> Result<Vec<f64>, DecodeError> {
        let err = |segment: usize, message: &'static str| DecodeError {
            codec: CodecKind::ZeroRun,
            segment,
            message,
        };
        if enc.codec() != CodecKind::ZeroRun {
            return Err(err(0, "buffer was not zero-run encoded"));
        }
        if enc.num_segments() != 1 {
            return Err(err(enc.num_segments(), "zero-run expects one segment"));
        }
        let payload = enc.segment(0);
        if !payload.len().is_multiple_of(12) {
            return Err(err(0, "payload is not a whole number of run records"));
        }
        let mut out = Vec::with_capacity(enc.num_values());
        for rec in payload.chunks_exact(12) {
            let run = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")) as usize;
            let bits = u64::from_le_bytes(rec[4..12].try_into().expect("8 bytes"));
            if run == 0 {
                return Err(err(0, "zero-length run"));
            }
            if out.len() + run > enc.num_values() {
                return Err(err(0, "runs exceed declared value count"));
            }
            let v = f64::from_bits(bits);
            out.resize(out.len() + run, v);
        }
        if out.len() != enc.num_values() {
            return Err(err(0, "decoded value count does not match metadata"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[f64]) {
        let codec = ZeroRunCodec::new();
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
    fn zeros_collapse_to_one_record() {
        let codec = ZeroRunCodec::new();
        let enc = codec.encode(&vec![0.0; 1 << 16]);
        assert_eq!(enc.total_bytes(), 12);
        roundtrip(&vec![0.0; 1 << 16]);
    }

    #[test]
    fn signed_zeros_are_distinct_runs() {
        let codec = ZeroRunCodec::new();
        let enc = codec.encode(&[0.0, -0.0, 0.0]);
        assert_eq!(enc.total_bytes(), 36);
        roundtrip(&[0.0, -0.0, 0.0]);
    }

    #[test]
    fn nan_payloads_survive() {
        roundtrip(&[f64::from_bits(0x7ff8_dead_beef_0001); 7]);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let codec = ZeroRunCodec::new();
        let enc = codec.encode(&vec![1.5; 100]);
        let mut seg = enc.segment(0).to_vec();
        seg.pop();
        let broken = Encoded::from_parts(CodecKind::ZeroRun, 100, vec![seg]);
        assert!(codec.try_decode(&broken).is_err());
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let codec = ZeroRunCodec::new();
        let enc = codec.encode(&vec![1.5; 100]);
        let broken = Encoded::from_parts(CodecKind::ZeroRun, 99, enc.into_segments());
        assert!(codec.try_decode(&broken).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip_is_bit_exact(
            data in proptest::collection::vec(proptest::num::f64::ANY, 0..400),
        ) {
            let codec = ZeroRunCodec::new();
            let enc = codec.encode(&data);
            let dec = codec.decode(&enc);
            prop_assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(dec.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn repeated_blocks_compress(
            v in -1.0f64..1.0,
            reps in 64usize..512,
        ) {
            let codec = ZeroRunCodec::new();
            let data = vec![v; reps];
            let enc = codec.encode(&data);
            prop_assert_eq!(enc.total_bytes(), 12);
        }
    }
}
