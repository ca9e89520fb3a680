//! A recording [`Sink`] for the property suites, and the contract it
//! checks on any run: what the executor hands over is each chunk's final
//! state, at the slot of the group member it is, and every slot of a
//! chunk live before the run is handed over exactly once — no other.

use std::sync::Mutex;

use qgpu_circuit::access::GateAction;
use qgpu_math::Complex64;
use qgpu_statevec::executor::Sink;
use qgpu_statevec::{ChunkExecutor, ChunkedState};

/// One run as it was handed over: its slot, stride, first chunk and
/// amplitudes.
type Handed = (usize, usize, usize, Vec<Complex64>);

/// Counts the writes of each slot (member `j` of the group at rank `t`
/// at `t · group_len + j`, from `base` on) and records every run.
struct Recording<'a> {
    chunk_len: usize,
    base: usize,
    writes: &'a mut [u32],
    handed: &'a Mutex<Vec<Handed>>,
}

impl Sink for Recording<'_> {
    fn run(&mut self, slot: usize, stride: usize, first: usize, amps: &[Complex64]) {
        assert!(
            slot >= self.base,
            "slot {slot} below its part's {}",
            self.base
        );
        for i in 0..amps.len() / self.chunk_len {
            // Out of range: a slot outside the part the worker was given.
            self.writes[slot + i * stride - self.base] += 1;
        }
        let mut handed = self.handed.lock().unwrap();
        handed.push((slot, stride, first, amps.to_vec()));
    }

    fn split(&mut self, at: &[usize]) -> Vec<Box<dyn Sink + '_>> {
        let (mut writes, mut base) = (&mut self.writes[..], self.base);
        let mut parts: Vec<Box<dyn Sink + '_>> = Vec::new();
        for end in at.iter().copied().chain(std::iter::once(usize::MAX)) {
            assert!(end >= base, "cuts ascend");
            let cut = (end - base).min(writes.len());
            let (part, rest) = std::mem::take(&mut writes).split_at_mut(cut);
            parts.push(Box::new(Recording {
                writes: part,
                base,
                ..*self
            }));
            (writes, base) = (rest, end);
        }
        parts
    }
}

/// [`ChunkExecutor::try_apply_group_runs`] of `actions` over the groups
/// of `reps` mixing `high`, with a recording sink, then the sink's
/// contract checked against the state the run leaves.
pub fn run_with_sink(
    ex: &ChunkExecutor,
    state: &mut ChunkedState,
    actions: &[GateAction],
    reps: &[usize],
    high: &[usize],
) {
    let (chunk_len, group_len) = (state.chunk_len(), 1usize << high.len());
    let groups: Vec<Vec<usize>> = reps.iter().map(|&r| state.chunk_group(r, high)).collect();
    let was_live: Vec<bool> = (0..state.num_chunks())
        .map(|c| !state.is_zero_chunk(c))
        .collect();
    let mut writes = vec![0u32; reps.len() * group_len];
    let handed = Mutex::new(Vec::new());
    let mut sink = Recording {
        chunk_len,
        base: 0,
        writes: &mut writes,
        handed: &handed,
    };
    let listed = reps.iter().copied();
    ex.try_apply_group_runs(state, actions, listed, high, None, Some(&mut sink))
        .unwrap();
    for (t, group) in groups.iter().enumerate() {
        for (j, &c) in group.iter().enumerate() {
            let (got, want) = (writes[t * group_len + j], u32::from(was_live[c]));
            assert_eq!(
                got, want,
                "chunk {c} (rank {t}, member {j}) handed over {got} times"
            );
        }
    }
    let flat = state.as_flat();
    for (slot, stride, first, amps) in handed.into_inner().unwrap() {
        for (i, chunk) in amps.chunks_exact(chunk_len).enumerate() {
            let (c, at) = (first + i, slot + i * stride);
            let member = groups[at / group_len][at % group_len];
            assert_eq!(member, c, "slot {at} is chunk {member}, not {c}");
            let now = &flat[c * chunk_len..(c + 1) * chunk_len];
            let same = chunk
                .iter()
                .zip(now)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            assert!(same, "chunk {c} changed after it was handed over");
        }
    }
}
