//! Lossless floating-point compression for non-zero state amplitudes.
//!
//! Q-GPU compresses updated chunks on the GPU before copying them back to
//! the host, using the GFC algorithm (O'Neil & Burtscher, *Floating-point
//! data compression at 75 GB/s on a GPU*). This crate implements GFC
//! bit-exactly:
//!
//! * a chunk is split into [`segments`](gfc::GfcCodec) (one per warp in
//!   the paper's Figure 11), compressed independently;
//! * each segment is processed in *micro-chunks* of 32 doubles (one per
//!   warp lane); each lane subtracts its value in the previous micro-chunk
//!   as a 64-bit integer residual;
//! * each residual is encoded as a 4-bit prefix (1 sign bit + 3 bits of
//!   leading-zero-byte count) followed by the remaining bytes.
//!
//! GFC is one implementor of the crate's [`Codec`] trait (see [`codec`]),
//! which also covers the [`zero_run`] shortcut for pruned chunks, the
//! [`alp`] adaptive decimal coder, and the sampling [`cascade`] that
//! scores the candidates per chunk and delegates to the winner.
//!
//! The [`residual`] module reproduces the compressibility analysis of the
//! paper's Figure 10.
//!
//! # Examples
//!
//! ```
//! use qgpu_compress::gfc::GfcCodec;
//!
//! let codec = GfcCodec::new(4);
//! let data: Vec<f64> = (0..256).map(|i| 1.0 + i as f64 * 1e-6).collect();
//! let compressed = codec.compress(&data);
//! assert!(compressed.total_bytes() < 8 * data.len());
//! assert_eq!(codec.decompress(&compressed), data);
//! ```
//!
//! Codec-agnostic callers hold a `dyn Codec` instead:
//!
//! ```
//! use qgpu_compress::{codec_for_kind, try_decode_any, CodecKind};
//!
//! let codec = codec_for_kind(CodecKind::Cascade, 4);
//! let enc = codec.encode(&vec![0.0; 4096]);
//! assert_eq!(enc.codec(), CodecKind::ZeroRun); // sampled pick
//! assert_eq!(try_decode_any(&enc).unwrap(), vec![0.0; 4096]);
//! ```

pub mod alp;
pub mod cascade;
pub mod codec;
pub mod gfc;
pub mod residual;
pub mod stats;
pub mod zero_run;

pub use alp::AlpCodec;
pub use cascade::CascadeCodec;
pub use codec::{
    amplitude_crc32, codec_for_kind, try_decode_any, value_crc32, Codec, CodecKind, DecodeError,
    Encoded,
};
pub use gfc::{Compressed, GfcCodec};
pub use stats::CompressionStats;
pub use zero_run::ZeroRunCodec;
