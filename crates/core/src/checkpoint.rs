//! State-vector checkpointing: save and restore simulation states
//! through the same lossless [`qgpu_compress::Codec`] family the Q-GPU
//! pipeline streams through.
//!
//! Long simulations (the paper's 34-qubit runs take hours) benefit from
//! resumable checkpoints. Smooth or sparse states persist at a fraction
//! of their in-memory size, and the restore is bit-exact.
//!
//! # Format (version 3)
//!
//! ```text
//! magic "QGPUSTAT"   8 bytes
//! version            u32 LE (currently 3)
//! num_qubits         u32 LE
//! gates_done         u64 LE (program ops already applied; 0 = initial)
//! block_count        u32 LE
//! per block:         u8 codec id (see `CodecKind::id`) — the encoding
//!                    this block's bytes are in (the cascade stamps the
//!                    winning inner codec, so every block is decodable
//!                    without re-running the picker),
//!                    u64 LE value count, u32 LE segment_count,
//!                    per segment: u64 LE length, u32 LE CRC32 of the
//!                    segment bytes, then the segment bytes
//! file checksum      u32 LE CRC32 over every preceding byte
//! ```
//!
//! The state is split into contiguous amplitude blocks (the same ≥ 8
//! micro-chunks-per-segment sizing GFC uses) and each block is encoded
//! independently, so a cascade checkpoint can mix encodings — zero-run
//! for the pruned regions, GFC for the dense ones — and the per-block
//! codec id is what makes the file self-describing.
//!
//! Versions 1 and 2 (whole-state GFC; nothing writes them) are rejected
//! as unsupported. The per-segment CRCs localize damage; the trailing
//! file checksum catches corruption in the header and framing bytes the
//! segment CRCs do not cover. Both are verified before any decoded
//! amplitude is trusted.
//!
//! # Examples
//!
//! ```no_run
//! use qgpu::checkpoint;
//! use qgpu_compress::CodecKind;
//! use qgpu_statevec::StateVector;
//!
//! let state = StateVector::new_zero(20);
//! checkpoint::save_with_codec(state.amps(), 0, CodecKind::Gfc, "run.qgpustate")?;
//! let restored = checkpoint::load("run.qgpustate")?;
//! assert_eq!(restored.num_qubits(), 20);
//! # Ok::<(), qgpu::checkpoint::CheckpointError>(())
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use qgpu_compress::{codec_for_kind, try_decode_any, CodecKind, Encoded};
use qgpu_faults::Crc32;
use qgpu_math::Complex64;
use qgpu_statevec::StateVector;

const MAGIC: &[u8; 8] = b"QGPUSTAT";
const VERSION: u32 = 3;

/// Errors produced by checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file is not a checkpoint or is structurally damaged.
    Corrupt(&'static str),
    /// A block payload failed to decode under its declared codec.
    Codec(qgpu_compress::DecodeError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Codec(e) => write!(f, "corrupt checkpoint payload: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Codec(e) => Some(e),
            CheckpointError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A restored checkpoint: the state plus how far into the program it
/// was taken (`gates_done` program ops already applied; 0 for an
/// initial-state snapshot).
#[derive(Debug)]
pub struct Checkpoint {
    /// The restored state vector.
    pub state: StateVector,
    /// Program ops applied before the snapshot was taken.
    pub gates_done: u64,
}

/// Forwards writes while accumulating a CRC32 of everything written —
/// how the writer produces the trailing file checksum in one pass.
struct CrcWriter<'a, W: Write> {
    inner: &'a mut W,
    crc: Crc32,
}

impl<W: Write> Write for CrcWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Saves a mid-run snapshot encoded with the given codec — what the
/// engine's checkpoint middleware calls, on the amplitudes it borrows
/// from the running state, so a `--codec cascade` run writes
/// cascade-picked blocks.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem failure.
///
/// # Panics
///
/// Panics like [`write_checkpoint`].
pub fn save_with_codec<P: AsRef<Path>>(
    amps: &[Complex64],
    gates_done: u64,
    codec: CodecKind,
    path: P,
) -> Result<(), CheckpointError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_checkpoint(amps, gates_done, codec, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Writes a v3 checkpoint: the state split into blocks, each encoded
/// independently with `codec` and stamped with the id of the encoding
/// its bytes are actually in (for the cascade, the per-block winner).
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on write failure.
///
/// # Panics
///
/// Panics if `amps` is not a whole state (`2^n` amplitudes, `n ≥ 1`).
pub fn write_checkpoint<W: Write>(
    amps: &[Complex64],
    gates_done: u64,
    codec: CodecKind,
    w: &mut W,
) -> Result<(), CheckpointError> {
    assert!(amps.len().is_power_of_two() && amps.len() >= 2);
    let num_qubits = amps.len().trailing_zeros() as usize;
    // Blocks small enough that one damaged block localizes, but never so
    // small that GFC degrades to history-less micro-chunks; the inner
    // codec runs with a single segment because the block IS the segment.
    let block_len = amps.len().div_ceil(block_count_for(num_qubits));
    let enc = codec_for_kind(codec, 1);
    let blocks: Vec<&[Complex64]> = amps.chunks(block_len.max(1)).collect();
    let mut cw = CrcWriter {
        inner: w,
        crc: Crc32::new(),
    };
    cw.write_all(MAGIC)?;
    cw.write_all(&VERSION.to_le_bytes())?;
    cw.write_all(&(num_qubits as u32).to_le_bytes())?;
    cw.write_all(&gates_done.to_le_bytes())?;
    cw.write_all(&(blocks.len() as u32).to_le_bytes())?;
    for block in blocks {
        let e = enc.encode_amplitudes(block);
        cw.write_all(&[e.codec().id()])?;
        cw.write_all(&(e.num_values() as u64).to_le_bytes())?;
        cw.write_all(&(e.num_segments() as u32).to_le_bytes())?;
        for i in 0..e.num_segments() {
            let seg = e.segment(i);
            cw.write_all(&(seg.len() as u64).to_le_bytes())?;
            cw.write_all(&qgpu_faults::crc32(seg).to_le_bytes())?;
            cw.write_all(seg)?;
        }
    }
    let file_crc = cw.crc.finish();
    cw.inner.write_all(&file_crc.to_le_bytes())?;
    Ok(())
}

/// Loads a state vector from `path`.
///
/// # Errors
///
/// Returns [`CheckpointError`] for I/O failures, structural corruption,
/// CRC mismatches, or undecodable payloads.
pub fn load<P: AsRef<Path>>(path: P) -> Result<StateVector, CheckpointError> {
    Ok(load_with_progress(path)?.state)
}

/// Loads a checkpoint plus its progress marker from `path`.
///
/// # Errors
///
/// See [`load`].
pub fn load_with_progress<P: AsRef<Path>>(path: P) -> Result<Checkpoint, CheckpointError> {
    read_checkpoint(&mut BufReader::new(File::open(path)?))
}

/// Accumulates a CRC32 of every byte read — the reader's running
/// checksum, compared against the file trailer after the last segment.
struct CrcReader<'a, R: Read> {
    inner: &'a mut R,
    crc: Crc32,
}

impl<R: Read> CrcReader<'_, R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), CheckpointError> {
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        Ok(())
    }

    fn read_u32(&mut self) -> Result<u32, CheckpointError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self) -> Result<u64, CheckpointError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Reads a (v3) checkpoint from any reader.
///
/// # Errors
///
/// See [`load`].
pub fn read_checkpoint<R: Read>(r: &mut R) -> Result<Checkpoint, CheckpointError> {
    let mut cr = CrcReader {
        inner: r,
        crc: Crc32::new(),
    };
    let mut magic = [0u8; 8];
    cr.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic"));
    }
    let version = cr.read_u32()?;
    if version != VERSION {
        return Err(CheckpointError::Corrupt("unsupported version"));
    }
    let num_qubits = cr.read_u32()? as usize;
    if num_qubits == 0 || num_qubits > qgpu_statevec::MAX_QUBITS {
        return Err(CheckpointError::Corrupt("implausible qubit count"));
    }
    let gates_done = cr.read_u64()?;
    let amps = read_blocks(&mut cr, num_qubits)?;
    let computed = cr.crc.finish();
    let mut trailer = [0u8; 4];
    cr.inner.read_exact(&mut trailer)?;
    if u32::from_le_bytes(trailer) != computed {
        return Err(CheckpointError::Corrupt("file checksum mismatch"));
    }
    if amps.len() != 1usize << num_qubits {
        return Err(CheckpointError::Corrupt("amplitude count mismatch"));
    }
    Ok(Checkpoint {
        state: StateVector::from_amplitudes(amps),
        gates_done,
    })
}

/// Reads the block list: each block names its own codec and decodes
/// independently through the codec-agnostic dispatcher.
fn read_blocks<R: Read>(
    cr: &mut CrcReader<'_, R>,
    num_qubits: usize,
) -> Result<Vec<Complex64>, CheckpointError> {
    let block_count = cr.read_u32()? as usize;
    if block_count == 0 || block_count > 1 << 20 {
        return Err(CheckpointError::Corrupt("implausible block count"));
    }
    let total = 1usize << num_qubits;
    let mut amps: Vec<Complex64> = Vec::with_capacity(total);
    for _ in 0..block_count {
        let mut id = [0u8; 1];
        cr.read_exact(&mut id)?;
        let kind = CodecKind::from_id(id[0]).ok_or(CheckpointError::Corrupt("unknown codec id"))?;
        let num_values = cr.read_u64()? as usize;
        if !num_values.is_multiple_of(2) || num_values > total * 2 {
            return Err(CheckpointError::Corrupt("implausible block value count"));
        }
        let segment_count = cr.read_u32()? as usize;
        if segment_count == 0 || segment_count > 1 << 20 {
            return Err(CheckpointError::Corrupt("implausible segment count"));
        }
        let mut segments = Vec::with_capacity(segment_count);
        for _ in 0..segment_count {
            let len = cr.read_u64()? as usize;
            if len > total * 20 + 64 {
                return Err(CheckpointError::Corrupt("implausible segment length"));
            }
            let expected = cr.read_u32()?;
            let mut seg = vec![0u8; len];
            cr.read_exact(&mut seg)?;
            if qgpu_faults::crc32(&seg) != expected {
                return Err(CheckpointError::Corrupt("segment CRC mismatch"));
            }
            segments.push(seg);
        }
        let enc = Encoded::from_parts(kind, num_values, segments);
        let values = try_decode_any(&enc).map_err(CheckpointError::Codec)?;
        if values.len() != num_values {
            return Err(CheckpointError::Corrupt("block value count mismatch"));
        }
        amps.extend(values.chunks_exact(2).map(|p| Complex64::new(p[0], p[1])));
        if amps.len() > total {
            return Err(CheckpointError::Corrupt("amplitude count mismatch"));
        }
    }
    Ok(amps)
}

/// Block count scaled to the state (≥ 8 micro-chunks per block).
fn block_count_for(num_qubits: usize) -> usize {
    let doubles = 2usize << num_qubits;
    (doubles / 256).clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::generators::Benchmark;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qgpu-ckpt-{tag}-{}", std::process::id()))
    }

    fn benchmark_state(b: Benchmark, n: usize) -> StateVector {
        let c = b.generate(n);
        let mut s = StateVector::new_zero(n);
        s.run(&c);
        s
    }

    /// `state` after `gates_done` ops as a GFC v3 checkpoint in memory.
    fn gfc_bytes(state: &StateVector, gates_done: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_checkpoint(state.amps(), gates_done, CodecKind::Gfc, &mut buf).expect("write");
        buf
    }

    fn save_gfc(state: &StateVector, gates_done: u64, path: &Path) {
        save_with_codec(state.amps(), gates_done, CodecKind::Gfc, path).expect("save");
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let state = benchmark_state(Benchmark::Qft, 10);
        let path = temp_path("roundtrip");
        save_gfc(&state, 0, &path);
        let restored = load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.num_qubits(), 10);
        for (a, b) in state.amps().iter().zip(restored.amps().iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn compressible_states_shrink_on_disk() {
        let state = benchmark_state(Benchmark::Qaoa, 12);
        let path = temp_path("shrink");
        save_gfc(&state, 0, &path);
        let on_disk = std::fs::metadata(&path).expect("metadata").len();
        std::fs::remove_file(&path).ok();
        let raw = (1u64 << 12) * 16;
        assert!(on_disk < raw, "checkpoint {on_disk} B vs raw {raw} B");
    }

    #[test]
    fn in_memory_roundtrip() {
        let state = benchmark_state(Benchmark::Gs, 9);
        let buf = gfc_bytes(&state, 0);
        let restored = read_checkpoint(&mut buf.as_slice()).expect("read");
        assert_eq!(restored.gates_done, 0);
        assert!(restored.state.max_deviation(&state) < 1e-15);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_checkpoint(&mut &b"NOTASTATExxxxxxxxxxx"[..]).expect_err("bad magic");
        assert!(matches!(err, CheckpointError::Corrupt("bad magic")));
    }

    #[test]
    fn rejects_retired_versions() {
        // v1/v2 files (whole-state GFC) are refused at the version word,
        // before any of their layout is interpreted.
        let state = benchmark_state(Benchmark::Bv, 8);
        let mut buf = gfc_bytes(&state, 0);
        for version in [0u32, 1, 2, 4] {
            buf[8..12].copy_from_slice(&version.to_le_bytes());
            let err = read_checkpoint(&mut buf.as_slice()).expect_err("retired version");
            assert!(
                matches!(err, CheckpointError::Corrupt("unsupported version")),
                "version {version}: {err}"
            );
        }
    }

    #[test]
    fn rejects_truncated_payload() {
        let state = benchmark_state(Benchmark::Bv, 8);
        let mut buf = gfc_bytes(&state, 0);
        buf.truncate(buf.len() - 7);
        assert!(read_checkpoint(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_corrupted_body() {
        let state = benchmark_state(Benchmark::Hlf, 8);
        let mut buf = gfc_bytes(&state, 0);
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        // The CRCs make this unconditional: any payload bit flip is
        // caught, never a silently different state.
        assert!(read_checkpoint(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn every_codec_roundtrips_a_checkpoint() {
        let state = benchmark_state(Benchmark::Iqp, 10);
        for kind in CodecKind::ALL {
            let mut buf = Vec::new();
            write_checkpoint(state.amps(), 7, kind, &mut buf).expect("write");
            let ckpt = read_checkpoint(&mut buf.as_slice()).expect("read");
            assert_eq!(ckpt.gates_done, 7);
            for (a, b) in state.amps().iter().zip(ckpt.state.amps().iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "codec {kind}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "codec {kind}");
            }
        }
    }

    #[test]
    fn cascade_checkpoints_mix_codec_ids_on_sparse_states() {
        // A freshly-zeroed state touched by a handful of gates is mostly
        // zero blocks: the cascade must stamp zero-run on those, never
        // its own id, and the file must undercut the all-GFC encoding.
        let c = Benchmark::Bv.generate(12);
        let mut s = StateVector::new_zero(12);
        s.run(&c);
        let mut cascade_buf = Vec::new();
        write_checkpoint(s.amps(), 0, CodecKind::Cascade, &mut cascade_buf).expect("write");
        let mut gfc_buf = Vec::new();
        write_checkpoint(s.amps(), 0, CodecKind::Gfc, &mut gfc_buf).expect("write");
        assert!(
            cascade_buf.len() <= gfc_buf.len(),
            "cascade {} B vs gfc {} B",
            cascade_buf.len(),
            gfc_buf.len()
        );
        // Walk the block headers: ids must all be inner codecs.
        let ids = block_ids(&cascade_buf);
        assert!(!ids.is_empty());
        assert!(
            ids.iter().all(|&id| id != CodecKind::Cascade.id()),
            "cascade id leaked to disk: {ids:?}"
        );
        let restored = read_checkpoint(&mut cascade_buf.as_slice()).expect("read");
        assert_eq!(restored.state.max_deviation(&s), 0.0);
    }

    /// Extracts the per-block codec ids from a v3 buffer.
    fn block_ids(buf: &[u8]) -> Vec<u8> {
        let mut ids = Vec::new();
        let mut pos = 8 + 4 + 4 + 8; // magic, version, qubits, gates_done
        let block_count = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("u32")) as usize;
        pos += 4;
        for _ in 0..block_count {
            ids.push(buf[pos]);
            pos += 1 + 8; // id, num_values
            let segs = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("u32")) as usize;
            pos += 4;
            for _ in 0..segs {
                let len = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("u64")) as usize;
                pos += 8 + 4 + len; // len, crc, payload
            }
        }
        ids
    }

    #[test]
    fn progress_marker_roundtrips() {
        let state = benchmark_state(Benchmark::Qaoa, 9);
        let path = temp_path("progress");
        save_gfc(&state, 137, &path);
        let ckpt = load_with_progress(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(ckpt.gates_done, 137);
        assert!(ckpt.state.max_deviation(&state) == 0.0);
    }

    #[test]
    fn truncation_is_caught_at_every_cut() {
        let state = benchmark_state(Benchmark::Gs, 8);
        let buf = gfc_bytes(&state, 5);
        // Chop at a spread of positions, including mid-trailer: all must
        // error (Io on short reads, Corrupt on checksum damage).
        for cut in [0, 7, 11, 13, buf.len() / 3, buf.len() / 2, buf.len() - 2] {
            let mut short = buf.clone();
            short.truncate(cut);
            assert!(
                read_checkpoint(&mut short.as_slice()).is_err(),
                "truncation at {cut} slipped through"
            );
        }
    }

    #[test]
    fn single_bit_flips_are_caught_everywhere() {
        let state = benchmark_state(Benchmark::Hchain, 8);
        let buf = gfc_bytes(&state, 9);
        // Flip one bit at a sweep of offsets covering the header, the
        // progress marker, segment framing, payload, and the trailer.
        for pos in (0..buf.len()).step_by(13).chain([buf.len() - 1]) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                read_checkpoint(&mut bad.as_slice()).is_err(),
                "bit flip at byte {pos} slipped through"
            );
        }
    }
}
