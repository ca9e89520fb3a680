//! Sampling-selected compression cascade.
//!
//! btrblocks and Vortex pick an encoding per block by compressing a small
//! sample under every candidate and keeping the winner, instead of
//! hardcoding one scheme. [`CascadeCodec`] applies that recipe to the
//! simulator's chunks: it probes a strided sample with GFC, the zero-run
//! shortcut, and ALP, scores each candidate on
//! `estimated ratio × modeled throughput`, and encodes the full chunk
//! with the winner. Buffers are stamped with the winning
//! [`CodecKind`], so any consumer decodes them through
//! [`try_decode_any`] without knowing the cascade
//! was involved.
//!
//! Candidates whose estimated ratio falls below break-even are discarded
//! (a fast codec that expands data is never a win over the raw-transfer
//! fallback), and GFC remains the default when nothing clears the bar —
//! so on dense amplitude chunks the cascade behaves exactly like GFC,
//! while pruned / collapsed chunks collapse to a 12-byte run record.

use std::borrow::Cow;

use qgpu_math::Complex64;
use qgpu_obs::Recorder;

use crate::alp::AlpCodec;
use crate::codec::{
    amps_as_f64, chunks_of, saturating_u32, try_decode_any, Codec, CodecKind, DecodeError, Encoded,
};
use crate::gfc::GfcCodec;
use crate::zero_run::ZeroRunCodec;

/// Contiguous values per sample run.
const SAMPLE_RUN: usize = 64;

/// Number of runs spread evenly across the chunk.
const SAMPLE_RUNS: usize = 4;

/// Candidates below this estimated ratio are discarded: encoding that
/// expands data never beats the engine's raw-size cap.
const MIN_RATIO: f64 = 1.0;

/// The sampling meta-codec. Holds one instance of every candidate; the
/// GFC candidate inherits the chunk-sized segment count the engine would
/// have used, so "cascade picks GFC" is byte-identical to running GFC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeCodec {
    gfc: GfcCodec,
    /// Single-segment GFC used on samples, where per-segment restart
    /// overhead would swamp the ratio estimate.
    probe_gfc: GfcCodec,
    zero_run: ZeroRunCodec,
    alp: AlpCodec,
}

impl CascadeCodec {
    /// Creates a cascade whose GFC candidate uses `gfc_segments`.
    ///
    /// # Panics
    ///
    /// Panics if `gfc_segments == 0`.
    pub fn new(gfc_segments: usize) -> Self {
        CascadeCodec {
            gfc: GfcCodec::new(gfc_segments),
            probe_gfc: GfcCodec::new(1),
            zero_run: ZeroRunCodec::new(),
            alp: AlpCodec::new(),
        }
    }

    /// Scores every candidate on the sample — by its exact encoded size,
    /// no buffer built — and returns the winner.
    pub fn pick(&self, data: &[f64]) -> CodecKind {
        if data.is_empty() {
            return CodecKind::Gfc;
        }
        let sample = sample_of(data);
        let raw = (sample.len() * 8) as f64;
        let mut winner = (CodecKind::Gfc, f64::MIN);
        for kind in [CodecKind::Gfc, CodecKind::ZeroRun, CodecKind::Alp] {
            let encoded_bytes = match kind {
                CodecKind::Gfc => self.probe_gfc.encoded_len(&sample),
                _ => self.member(kind).encoded_len(&sample),
            };
            let ratio = raw / encoded_bytes.max(1) as f64;
            if ratio < MIN_RATIO && kind != CodecKind::Gfc {
                continue;
            }
            let score = ratio * kind.throughput_factor();
            if score > winner.1 {
                winner = (kind, score);
            }
        }
        winner.0
    }

    /// The candidate that encodes a full chunk as `kind`.
    fn member(&self, kind: CodecKind) -> &dyn Codec {
        match kind {
            CodecKind::Gfc => &self.gfc,
            CodecKind::ZeroRun => &self.zero_run,
            CodecKind::Alp => &self.alp,
            CodecKind::Cascade => unreachable!("cascade never delegates to itself"),
        }
    }
}

/// Up to `SAMPLE_RUNS` contiguous runs of `SAMPLE_RUN` values, spread
/// evenly; short inputs are sampled whole (and in place).
fn sample_of(data: &[f64]) -> Cow<'_, [f64]> {
    if data.len() <= SAMPLE_RUN * SAMPLE_RUNS {
        return Cow::Borrowed(data);
    }
    let mut sample = Vec::with_capacity(SAMPLE_RUN * SAMPLE_RUNS);
    for r in 0..SAMPLE_RUNS {
        let start = r * (data.len() - SAMPLE_RUN) / (SAMPLE_RUNS - 1);
        sample.extend_from_slice(&data[start..start + SAMPLE_RUN]);
    }
    Cow::Owned(sample)
}

/// Publishes a run's cascade picks to the metrics registry: the total
/// `codec.cascade.picks` counter plus a per-winner counter, each added
/// once per run. Counter names must be `&'static str`, hence the match.
fn record_cascade_picks(rec: &Recorder, picks: &[(CodecKind, u64)]) {
    for &(winner, n) in picks.iter().filter(|&&(_, n)| n > 0) {
        rec.add("codec.cascade.picks", n);
        rec.add(
            match winner {
                CodecKind::Gfc => "codec.cascade.pick.gfc",
                CodecKind::ZeroRun => "codec.cascade.pick.zero-run",
                CodecKind::Alp => "codec.cascade.pick.alp",
                // Buffers carry the winning inner codec; a cascade tag
                // would be a bug, but a metrics helper is no place to
                // panic.
                CodecKind::Cascade => "codec.cascade.pick.cascade",
            },
            n,
        );
    }
}

impl Codec for CascadeCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Cascade
    }

    fn encode(&self, data: &[f64]) -> Encoded {
        self.member(self.pick(data)).encode(data)
    }

    fn encoded_len(&self, data: &[f64]) -> usize {
        self.member(self.pick(data)).encoded_len(data)
    }

    fn try_decode(&self, enc: &Encoded) -> Result<Vec<f64>, DecodeError> {
        try_decode_any(enc)
    }

    /// Publishes the per-chunk picks on the way: bumps
    /// `codec.cascade.picks` plus a per-winner counter, so a run's metrics
    /// show which encodings it actually used.
    fn encoded_lens_observed(
        &self,
        amps: &[Complex64],
        chunk_len: usize,
        out: &mut [u32],
        rec: Option<&Recorder>,
    ) {
        let mut picks = [CodecKind::Gfc, CodecKind::ZeroRun, CodecKind::Alp].map(|k| (k, 0));
        for (chunk, len) in chunks_of(amps, chunk_len, out.len()).zip(out) {
            let data = amps_as_f64(chunk);
            let pick = self.pick(data);
            if let Some(slot) = picks.iter_mut().find(|(k, _)| *k == pick) {
                slot.1 += 1;
            }
            *len = saturating_u32(self.member(pick).encoded_len(data));
        }
        if let Some(r) = rec {
            record_cascade_picks(r, &picks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zero_chunks_pick_zero_run() {
        let cascade = CascadeCodec::new(8);
        let data = vec![0.0f64; 4096];
        assert_eq!(cascade.pick(&data), CodecKind::ZeroRun);
        let enc = cascade.encode(&data);
        assert_eq!(enc.codec(), CodecKind::ZeroRun);
        assert_eq!(enc.total_bytes(), 12);
        assert_eq!(cascade.decode(&enc), data);
    }

    #[test]
    fn dense_amplitudes_pick_gfc() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<f64> = (0..4096).map(|_| rng.gen_range(-0.05..0.05)).collect();
        let cascade = CascadeCodec::new(8);
        assert_eq!(cascade.pick(&data), CodecKind::Gfc);
        let enc = cascade.encode(&data);
        assert_eq!(enc.codec(), CodecKind::Gfc);
    }

    #[test]
    fn decimal_data_picks_alp() {
        let data: Vec<f64> = (0..4096).map(|i| (i % 977) as f64 * 0.01).collect();
        let cascade = CascadeCodec::new(8);
        assert_eq!(cascade.pick(&data), CodecKind::Alp);
    }

    #[test]
    fn gfc_pick_matches_plain_gfc_bytes() {
        // When the cascade picks GFC the buffer must be byte-identical to
        // the engine's standalone GFC at the same segment count.
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<f64> = (0..2048).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let cascade = CascadeCodec::new(8);
        let via_cascade = cascade.encode(&data);
        let plain = GfcCodec::new(8).encode(&data);
        assert_eq!(via_cascade.codec(), CodecKind::Gfc);
        assert_eq!(via_cascade.total_bytes(), plain.total_bytes());
        assert_eq!(via_cascade, plain);
    }

    #[test]
    fn empty_input_is_decodable() {
        let cascade = CascadeCodec::new(4);
        let enc = cascade.encode(&[]);
        assert_eq!(cascade.decode(&enc), Vec::<f64>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cascade_always_picks_a_decodable_encoding(
            data in proptest::collection::vec(proptest::num::f64::ANY, 0..800),
            segs in 1usize..16,
        ) {
            let cascade = CascadeCodec::new(segs);
            let enc = cascade.encode(&data);
            prop_assert_ne!(enc.codec(), CodecKind::Cascade);
            let dec = try_decode_any(&enc).unwrap();
            prop_assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(dec.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn sparse_chunks_never_lose_to_plain_gfc(
            zeros in 512usize..2048,
            v in -1.0f64..1.0,
        ) {
            // Pruned chunk shape: a lone amplitude in a sea of zeros.
            let mut data = vec![0.0f64; zeros];
            data[0] = v;
            let cascade = CascadeCodec::new(8);
            let enc = cascade.encode(&data);
            let gfc = GfcCodec::new(8).encode(&data);
            prop_assert!(enc.total_bytes() <= gfc.total_bytes());
        }
    }
}
