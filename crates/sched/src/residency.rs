//! Chunk residency: where each chunk lives during execution, and the
//! per-chunk table ([`ChunkTable`]) that records what the host holds of
//! each one.
//!
//! The baseline (paper §III-B, Step 2) statically pins the first chunks
//! that fit into GPU memory and leaves the rest on the host; the Q-GPU
//! versions stream every chunk through the GPU instead. Multi-GPU
//! execution (paper §V-E, Figure 18) deals chunk groups round-robin
//! across devices.

use serde::{Deserialize, Serialize};

/// Where a chunk resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Location {
    /// Host memory.
    Host,
    /// Device memory of GPU `i`.
    Gpu(usize),
}

/// The baseline's static allocation: chunks `0..gpu_resident` live on the
/// GPU, the rest on the host.
///
/// # Examples
///
/// ```
/// use qgpu_sched::residency::{Location, StaticAllocation};
///
/// // The paper's P100@34q ratio: 496 of 8192 chunks resident.
/// let alloc = StaticAllocation::new(496, 8192);
/// assert_eq!(alloc.location(0), Location::Gpu(0));
/// assert_eq!(alloc.location(496), Location::Host);
/// assert!((alloc.gpu_fraction() - 0.0605).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticAllocation {
    gpu_resident: usize,
    num_chunks: usize,
}

impl StaticAllocation {
    /// Creates an allocation with the first `gpu_resident` chunks on GPU 0.
    ///
    /// `gpu_resident` is clamped to `num_chunks`.
    pub fn new(gpu_resident: usize, num_chunks: usize) -> Self {
        StaticAllocation {
            gpu_resident: gpu_resident.min(num_chunks),
            num_chunks,
        }
    }

    /// Where chunk `i` lives.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn location(&self, chunk: usize) -> Location {
        assert!(chunk < self.num_chunks, "chunk {chunk} out of range");
        if chunk < self.gpu_resident {
            Location::Gpu(0)
        } else {
            Location::Host
        }
    }

    /// Number of GPU-resident chunks.
    pub fn gpu_resident(&self) -> usize {
        self.gpu_resident
    }

    /// Total chunks.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Fraction of the state resident on the GPU.
    pub fn gpu_fraction(&self) -> f64 {
        if self.num_chunks == 0 {
            0.0
        } else {
            self.gpu_resident as f64 / self.num_chunks as f64
        }
    }
}

/// Round-robin assignment of chunk tasks to GPUs (the paper's Figure 18:
/// groups dealt to G0, G1, G0, G1, …): a rotating cursor, so dealing a
/// task is a compare, not a division.
///
/// # Examples
///
/// ```
/// use qgpu_sched::residency::RoundRobin;
///
/// let mut rr = RoundRobin::new(2);
/// assert_eq!(rr.next_gpu(), 0);
/// assert_eq!(rr.next_gpu(), 1);
/// assert_eq!(rr.next_gpu(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobin {
    num_gpus: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin dealer over `num_gpus` devices; the first
    /// task goes to GPU 0.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus == 0`.
    pub fn new(num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        RoundRobin { num_gpus, next: 0 }
    }

    /// The GPU that processes the next task.
    #[inline]
    pub fn next_gpu(&mut self) -> usize {
        let gpu = self.next;
        self.next = if gpu + 1 == self.num_gpus { 0 } else { gpu + 1 };
        gpu
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }
}

/// A chunk-indexed table without hashing: fixed-size pages of slots,
/// allocated when a chunk of theirs is first written, so memory follows
/// the *live* chunks — under pruning a few clusters of a huge index
/// space — not the highest one (only the page directory, 8 bytes per
/// [`ChunkTable::PAGE_SLOTS`] chunks, reaches that far). A slot is
/// stamped with the generation that wrote it, so [`ChunkTable::clear`] —
/// a repartition or collapse invalidates every chunk — is O(1) and keeps
/// the pages.
///
/// # Examples
///
/// ```
/// use qgpu_sched::residency::ChunkTable;
///
/// let mut t = ChunkTable::default();
/// t.insert(5, 7u32);
/// t.update_each([5, 6].into_iter(), |_, v| Some(v.unwrap_or(0) + 1));
/// assert_eq!((t.get(5), t.get(6)), (Some(8), Some(1)));
/// t.clear();
/// assert_eq!(t.get(5), None);
/// ```
#[derive(Debug, Default)]
pub struct ChunkTable<T> {
    generation: u64,
    pages: Vec<Option<Box<Page<T>>>>,
}

const SLOTS: usize = 64;

/// Slots of `(generation + 1 at the write, value)`; stamp 0 is never live.
type Page<T> = [(u64, T); SLOTS];

impl<T: Copy + Default> ChunkTable<T> {
    /// Slots per page. Live chunk indices are the subsets of the involved
    /// index bits — dense runs when those are low bits, strided singletons
    /// when they are high ones — and a small page wastes less on the
    /// second kind.
    pub const PAGE_SLOTS: usize = SLOTS;

    /// Chunk `chunk`'s value, if it has one.
    pub fn get(&self, chunk: usize) -> Option<T> {
        let page = self.pages.get(chunk / Self::PAGE_SLOTS)?.as_ref()?;
        let (stamp, v) = page[chunk % Self::PAGE_SLOTS];
        (stamp == self.generation + 1).then_some(v)
    }

    /// Gives chunk `chunk` `value`.
    pub fn insert(&mut self, chunk: usize, value: T) {
        let live = self.generation + 1;
        let p = chunk / Self::PAGE_SLOTS;
        if !matches!(self.pages.get(p), Some(Some(_))) {
            self.put_page(p, Box::new([(0, T::default()); SLOTS]));
        }
        let page = self.pages[p].as_mut().expect("the page was just put in");
        page[chunk % Self::PAGE_SLOTS] = (live, value);
    }

    #[cold]
    #[inline(never)]
    fn put_page(&mut self, p: usize, page: Box<Page<T>>) {
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        self.pages[p] = Some(page);
    }

    /// Forgets every value, keeping the pages.
    pub fn clear(&mut self) {
        self.generation += 1;
    }

    /// Pages allocated so far.
    pub fn pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Rewrites the listed chunks, looking a page up once for each run of
    /// listed chunks on it: `f(i, value)` gets the `i`-th listed chunk's
    /// value and returns its new one (`None` removes it). A page is
    /// allocated only to hold a value `f` sets.
    #[inline]
    pub fn update_each(
        &mut self,
        chunks: impl Iterator<Item = usize>,
        mut f: impl FnMut(usize, Option<T>) -> Option<T>,
    ) {
        let live = self.generation + 1;
        let mut chunks = chunks.enumerate().peekable();
        while let Some(&(_, c)) = chunks.peek() {
            let p = c / Self::PAGE_SLOTS;
            // A missing page is walked as a blank one, kept if written.
            let mut blank = None;
            let page = match self.pages.get_mut(p) {
                Some(Some(page)) => page,
                _ => blank.insert(Box::new([(0, T::default()); SLOTS])),
            };
            let mut wrote = false;
            while let Some((i, c)) = chunks.next_if(|&(_, c)| c / Self::PAGE_SLOTS == p) {
                let (stamp, value) = &mut page[c % Self::PAGE_SLOTS];
                match f(i, (*stamp == live).then_some(*value)) {
                    Some(v) => (*stamp, *value, wrote) = (live, v, true),
                    None => *stamp = 0,
                }
            }
            if let Some(page) = blank.filter(|_| wrote) {
                self.put_page(p, page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_allocation_clamps() {
        let a = StaticAllocation::new(100, 10);
        assert_eq!(a.gpu_resident(), 10);
        assert_eq!(a.gpu_fraction(), 1.0);
    }

    #[test]
    fn static_allocation_boundary() {
        let a = StaticAllocation::new(3, 8);
        assert_eq!(a.location(2), Location::Gpu(0));
        assert_eq!(a.location(3), Location::Host);
        assert_eq!(a.location(7), Location::Host);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn static_allocation_checks_range() {
        let a = StaticAllocation::new(3, 8);
        let _ = a.location(8);
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new(4);
        let gpus: Vec<usize> = (0..8).map(|_| rr.next_gpu()).collect();
        assert_eq!(gpus, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_balances() {
        let mut rr = RoundRobin::new(3);
        let mut counts = [0usize; 3];
        for i in 0..300 {
            let gpu = rr.next_gpu();
            assert_eq!(gpu, i % 3, "task {i}");
            counts[gpu] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn empty_allocation_fraction() {
        assert_eq!(StaticAllocation::new(0, 0).gpu_fraction(), 0.0);
    }

    #[test]
    fn chunk_table_clears_in_place_and_grows_only_on_insert() {
        let mut t: ChunkTable<usize> = ChunkTable::default();
        assert_eq!(t.get(1 << 40), None);
        t.insert(5, 7);
        t.insert(2, 9);
        assert_eq!((t.get(5), t.get(2), t.get(3)), (Some(7), Some(9), None));
        assert_eq!(t.pages(), 1);
        t.update_each([5, 1 << 40].into_iter(), |_, _| None);
        assert_eq!(t.get(5), None);
        assert_eq!(t.pages(), 1);
        // Chunks across a page boundary: one read, one write each.
        t.update_each([62, 63, 65, 66].into_iter(), |i, v| {
            Some(v.unwrap_or(0) + i)
        });
        let got = [62, 63, 64, 65, 66].map(|c| t.get(c));
        assert_eq!(got, [Some(0), Some(1), None, Some(2), Some(3)]);
        assert_eq!(t.pages(), 2);
        t.update_each(62..67, |_, _| None);
        t.clear();
        assert_eq!(t.get(2), None);
        t.insert(2, 1);
        assert_eq!(t.get(2), Some(1));
        assert_eq!(t.pages(), 2);
        // A far chunk costs its own page, not the index space up to it.
        t.insert(1 << 30, 4);
        assert_eq!((t.get(1 << 30), t.get((1 << 30) - 1)), (Some(4), None));
        assert_eq!(t.pages(), 3);
    }
}
