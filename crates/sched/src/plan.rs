//! Per-gate chunk plans: which chunks a gate touches, and how.
//!
//! A [`GatePlan`] resolves one gate against a chunked state layout:
//!
//! * diagonal gates and gates whose mixing qubits are all inside a chunk
//!   produce independent single-chunk tasks (the paper's Case 1);
//! * a mixing qubit at or above the chunk boundary produces tasks of
//!   `2^high_mixing` chunks that must be co-resident (Case 2);
//! * a *control* qubit above the boundary merely filters which chunks
//!   participate — those with the control bit clear are untouched and
//!   never moved.
//!
//! The plan is a closed form over three chunk-index masks, never a task
//! list: a task is named by its *representative* (its lowest member: the
//! high-control bits set, the high-mixing bits clear) and its members are
//! `rep | pattern`. With `H` the high-control mask and `G` the
//! high-mixing mask, the representatives are `H | s` for every `s` inside
//! the remaining index bits; pairing the plan with an
//! [`crate::InvolvementTracker`] restricts `s` to the involved bits, so
//! planning and pruning cost nothing per pruned chunk (Algorithm 1 never
//! scans what it prunes).

use qgpu_circuit::access::GateAction;

use crate::involvement::InvolvementTracker;

/// Task representatives `fixed | s` for every `s ⊆ free`, ascending
/// (the default is the empty enumeration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tasks {
    fixed: usize,
    free: usize,
    sub: usize,
    remaining: usize,
}

impl Tasks {
    /// Every `rep` with `fixed ⊆ rep ⊆ within`, ascending: none unless
    /// `fixed ⊆ within`.
    pub fn within(fixed: usize, within: usize) -> Self {
        if fixed & !within != 0 {
            return Tasks::default();
        }
        let free = within & !fixed;
        Tasks {
            fixed,
            free,
            sub: 0,
            remaining: 1usize << free.count_ones(),
        }
    }
}

impl Iterator for Tasks {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rep = self.fixed | self.sub;
        // Next subset of `free`: carry ripples through the non-free bits.
        self.sub = (self.sub | !self.free).wrapping_add(1) & self.free;
        Some(rep)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Tasks {}

/// The resolved chunk plan of one gate.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::{Gate, Operation, access::GateAction};
/// use qgpu_sched::GatePlan;
///
/// // H on qubit 5 with 3-qubit chunks over 8 qubits: a high mixing qubit
/// // forces pairs of chunks.
/// let action = GateAction::from_operation(&Operation::new(Gate::H, vec![5]));
/// let plan = GatePlan::new(&action, 3, 32);
/// assert_eq!(plan.tasks().len(), 16);
/// assert_eq!(plan.members(1).collect::<Vec<_>>(), [1, 5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GatePlan {
    /// `H`: chunk-index bits of the control qubits above the boundary.
    high_controls: usize,
    /// Member offsets by high-mixing bit pattern (pattern bit `b` ↔
    /// `high_mixing[b]`); `[0]` for Case 1, and the last entry is `G`.
    offsets: Vec<usize>,
    high_mixing: Vec<usize>,
    chunk_bits: u32,
    num_chunks: usize,
}

impl GatePlan {
    /// [`GatePlan::new`] under observation: records a
    /// [`qgpu_obs::Stage::Plan`] span covering plan resolution. With
    /// `rec == None` this is exactly `new`.
    ///
    /// # Panics
    ///
    /// Panics like [`GatePlan::new`].
    pub fn new_observed(
        action: &GateAction,
        chunk_bits: u32,
        num_chunks: usize,
        rec: Option<&qgpu_obs::Recorder>,
    ) -> Self {
        use qgpu_obs::{span_opt, Stage, Track};
        let _g = span_opt(rec, Track::Main, Stage::Plan, "sched.plan");
        GatePlan::new(action, chunk_bits, num_chunks)
    }

    /// Resolves an action against a chunk layout.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` is not a power of two or a high operand
    /// qubit lies outside the layout.
    pub fn new(action: &GateAction, chunk_bits: u32, num_chunks: usize) -> Self {
        assert!(num_chunks.is_power_of_two());
        let (high_controls, high_mixing) = match action {
            GateAction::Diagonal { .. } => (0usize, Vec::new()),
            GateAction::ControlledDense {
                controls, mixing, ..
            } => {
                let mask = controls
                    .iter()
                    .filter(|&&c| (c as u32) >= chunk_bits)
                    .map(|&c| 1usize << (c as u32 - chunk_bits))
                    .sum();
                let high: Vec<usize> = mixing
                    .iter()
                    .copied()
                    .filter(|&q| (q as u32) >= chunk_bits)
                    .collect();
                (mask, high)
            }
        };
        let offsets: Vec<usize> = (0..1usize << high_mixing.len())
            .map(|pattern| {
                high_mixing
                    .iter()
                    .enumerate()
                    .filter(|&(b, _)| (pattern >> b) & 1 == 1)
                    .map(|(_, &q)| 1usize << (q as u32 - chunk_bits))
                    .sum()
            })
            .collect();
        let plan = GatePlan {
            high_controls,
            offsets,
            high_mixing,
            chunk_bits,
            num_chunks,
        };
        assert!(
            (plan.high_controls | plan.group_mask()) < num_chunks,
            "operand qubit outside the chunk layout"
        );
        plan
    }

    /// `G`: chunk-index bits of the mixing qubits above the boundary.
    fn group_mask(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// Every planned task's representative, in chunk order:
    /// `num_chunks >> (|H| + |G|)` of them.
    pub fn tasks(&self) -> Tasks {
        self.tasks_within(self.num_chunks - 1)
    }

    /// The tasks whose representatives set only chunk-index bits of
    /// `scope`, in chunk order.
    fn tasks_within(&self, scope: usize) -> Tasks {
        Tasks::within(self.high_controls, scope & !self.group_mask())
    }

    /// `H`: the chunk-index bits a task's chunks must all have set.
    pub fn high_controls(&self) -> usize {
        self.high_controls
    }

    /// The chunks of the task represented by `rep`, ordered by
    /// high-mixing bit pattern (just `rep` for Case 1).
    pub fn members(&self, rep: usize) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        self.offsets.iter().map(move |&o| rep | o)
    }

    /// Chunks per task: `2^high_mixing` (1 for Case 1).
    pub fn group_len(&self) -> usize {
        self.offsets.len()
    }

    /// The mixing qubits above the chunk boundary (empty for Case 1).
    pub fn high_mixing(&self) -> &[usize] {
        &self.high_mixing
    }

    /// Representatives of the tasks surviving zero-amplitude pruning, in
    /// chunk order: a task is dropped when all of its chunks are provably
    /// zero under `tracker`. The representative is the task's minimal
    /// member, so that is exactly "the representative is provably zero",
    /// and with `M` the involved chunk-index bits the survivors are
    /// `H | s` for `s ⊆ M ∖ (H | G)` — none at all unless `H ⊆ M`.
    ///
    /// (Dropping such tasks is exact: a linear map keeps an all-zero
    /// subspace zero, per the paper's §IV-C correctness argument.)
    pub fn live_task_indices(&self, tracker: &InvolvementTracker) -> Tasks {
        self.tasks_within(self.scope(Some(tracker)))
    }

    /// The chunk-index bits a surviving task may set: those of the qubits
    /// involved under `tracker` when pruning, every bit otherwise.
    pub fn scope(&self, tracker: Option<&InvolvementTracker>) -> usize {
        let all = self.num_chunks - 1;
        tracker.map_or(all, |t| (t.mask() >> self.chunk_bits) as usize & all)
    }

    /// Number of tasks dropped by pruning under `tracker`.
    pub fn pruned_count(&self, tracker: &InvolvementTracker) -> usize {
        self.tasks().len() - self.live_task_indices(tracker).len()
    }

    /// Total chunks touched by the unpruned plan.
    pub fn total_chunks(&self) -> usize {
        self.tasks().len() * self.group_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qgpu_circuit::access::GateAction;
    use qgpu_circuit::{Gate, Operation};

    fn action(g: Gate, qs: &[usize]) -> GateAction {
        GateAction::from_operation(&Operation::new(g, qs.to_vec()))
    }

    fn tasks_of(plan: &GatePlan, reps: Tasks) -> Vec<Vec<usize>> {
        reps.map(|r| plan.members(r).collect()).collect()
    }

    /// The materializing enumeration the closed form replaced: scan every
    /// chunk, keep canonical representatives whose control bits are set,
    /// build each group member by member. Kept as the test reference.
    fn reference_tasks(action: &GateAction, chunk_bits: u32, num_chunks: usize) -> Vec<Vec<usize>> {
        let (high_controls_mask, high_mixing) = match action {
            GateAction::Diagonal { .. } => (0usize, Vec::new()),
            GateAction::ControlledDense {
                controls, mixing, ..
            } => {
                let mask = controls
                    .iter()
                    .filter(|&&c| (c as u32) >= chunk_bits)
                    .map(|&c| 1usize << (c as u32 - chunk_bits))
                    .sum();
                let high: Vec<usize> = mixing
                    .iter()
                    .copied()
                    .filter(|&q| (q as u32) >= chunk_bits)
                    .collect();
                (mask, high)
            }
        };
        let group_mask: usize = high_mixing
            .iter()
            .map(|&q| 1usize << (q as u32 - chunk_bits))
            .sum();
        let mut tasks = Vec::new();
        for c in 0..num_chunks {
            if c & group_mask != 0 || c & high_controls_mask != high_controls_mask {
                continue;
            }
            tasks.push(
                (0..1usize << high_mixing.len())
                    .map(|pattern| {
                        let mut idx = c;
                        for (b, &q) in high_mixing.iter().enumerate() {
                            if (pattern >> b) & 1 == 1 {
                                idx |= 1usize << (q as u32 - chunk_bits);
                            }
                        }
                        idx
                    })
                    .collect(),
            );
        }
        tasks
    }

    /// The reference pruning filter: a task survives when any member is
    /// not provably zero.
    fn reference_live(
        tasks: &[Vec<usize>],
        tracker: &InvolvementTracker,
        chunk_bits: u32,
    ) -> Vec<Vec<usize>> {
        tasks
            .iter()
            .filter(|t| t.iter().any(|&c| !tracker.chunk_is_zero(c, chunk_bits)))
            .cloned()
            .collect()
    }

    #[test]
    fn case1_low_target_touches_every_chunk() {
        let plan = GatePlan::new(&action(Gate::H, &[1]), 3, 16);
        assert_eq!(plan.group_len(), 1);
        assert_eq!(plan.tasks().len(), 16);
        assert_eq!(tasks_of(&plan, plan.tasks())[0], [0]);
    }

    #[test]
    fn case2_high_target_pairs_chunks() {
        // Qubit 4 with 3-qubit chunks: chunk-index bit 1.
        let plan = GatePlan::new(&action(Gate::H, &[4]), 3, 16);
        assert!(plan.group_len() > 1);
        let tasks = tasks_of(&plan, plan.tasks());
        assert_eq!(tasks.len(), 8);
        assert_eq!(tasks[0], [0, 2]);
        assert_eq!(tasks[1], [1, 3]);
        // The paper's Figure 1 example: (chunk0, chunk2), (chunk1, chunk3)…
    }

    #[test]
    fn diagonal_never_groups() {
        let plan = GatePlan::new(&action(Gate::Cp(0.5), &[1, 7]), 3, 32);
        assert_eq!(plan.group_len(), 1);
        assert_eq!(plan.tasks().len(), 32);
    }

    #[test]
    fn high_control_filters_chunks() {
        // CX control on qubit 4 (chunk bit 1), target on qubit 0.
        let plan = GatePlan::new(&action(Gate::Cx, &[4, 0]), 3, 16);
        assert_eq!(plan.group_len(), 1);
        // Only chunks with bit 1 set participate: 8 of 16.
        assert_eq!(plan.tasks().len(), 8);
        assert_eq!(plan.group_len(), 1);
        for c in plan.tasks() {
            assert_eq!(c & 0b10, 0b10);
        }
    }

    #[test]
    fn swap_across_boundary_groups_four() {
        // Both mixing qubits high: groups of 4.
        let plan = GatePlan::new(&action(Gate::Swap, &[4, 5]), 3, 32);
        assert!(plan.group_len() > 1);
        assert_eq!(plan.tasks().len(), 8);
        assert_eq!(plan.group_len(), 4);
    }

    #[test]
    fn high_control_with_high_mixing() {
        // CCX: controls 6,7 (high), target 4 (high) with 3-bit chunks.
        let plan = GatePlan::new(&action(Gate::Ccx, &[6, 7, 4]), 3, 32);
        assert!(plan.group_len() > 1);
        // Groups must have chunk bits 3 and 4 (qubits 6,7) set: canonical
        // representatives have bit 1 (qubit 4) clear → 4 groups... of the
        // 32 chunks, those with bits {3,4} set: 8; grouped in pairs → 4.
        assert_eq!(plan.tasks().len(), 4);
        for rep in plan.tasks() {
            for c in plan.members(rep) {
                assert_eq!(c & 0b11000, 0b11000);
            }
        }
    }

    #[test]
    fn pruning_drops_zero_tasks() {
        let plan = GatePlan::new(&action(Gate::H, &[0]), 2, 16);
        let mut tracker = InvolvementTracker::new(6);
        // Nothing involved: only chunk 0 can be non-zero.
        assert_eq!(plan.live_task_indices(&tracker).len(), 1);
        assert_eq!(plan.pruned_count(&tracker), 15);
        tracker.involve_mask(0b111111);
        assert_eq!(plan.pruned_count(&tracker), 0);
    }

    #[test]
    fn group_survives_if_any_member_nonzero() {
        // H on qubit 5 (high): group {0, 8}; chunk 0 non-zero initially.
        let plan = GatePlan::new(&action(Gate::H, &[5]), 2, 16);
        let tracker = InvolvementTracker::new(6);
        let survivors = tasks_of(&plan, plan.live_task_indices(&tracker));
        assert_eq!(survivors, [[0, 8]]);
    }

    #[test]
    fn live_task_indices_agree_with_pruned_tasks() {
        let act = action(Gate::H, &[0]);
        let plan = GatePlan::new(&act, 2, 16);
        let all = reference_tasks(&act, 2, 16);
        let mut tracker = InvolvementTracker::new(6);
        assert_eq!(
            tasks_of(&plan, plan.live_task_indices(&tracker)),
            reference_live(&all, &tracker, 2)
        );
        tracker.involve_mask(0b111111);
        assert_eq!(plan.live_task_indices(&tracker).len(), plan.tasks().len());
    }

    #[test]
    fn total_chunks_counts_members() {
        let plan = GatePlan::new(&action(Gate::Swap, &[4, 5]), 3, 32);
        assert_eq!(plan.total_chunks(), 32);
    }

    #[test]
    fn unsatisfied_high_control_leaves_no_live_task() {
        // CX control on qubit 5 never involved: H ⊄ M.
        let plan = GatePlan::new(&action(Gate::Cx, &[5, 0]), 2, 16);
        let mut tracker = InvolvementTracker::new(6);
        tracker.involve_mask(0b001111);
        assert_eq!(plan.live_task_indices(&tracker).len(), 0);
        assert_eq!(plan.live_task_indices(&tracker).next(), None);
    }

    #[test]
    fn plan_cost_follows_live_chunks_not_planned() {
        // 2^40 planned tasks: a plan that materializes (or scans) them
        // cannot finish; the closed form enumerates the 8 live ones.
        let plan = GatePlan::new(&action(Gate::H, &[0]), 1, 1 << 40);
        assert_eq!(plan.tasks().len(), 1 << 40);
        assert_eq!(plan.total_chunks(), 1 << 40);
        let mut tracker = InvolvementTracker::new(41);
        tracker.involve_mask((1 << 3) | (1 << 17) | (1 << 40));
        let live: Vec<usize> = plan.live_task_indices(&tracker).collect();
        let (a, b, c) = (1usize << 2, 1usize << 16, 1usize << 39);
        assert_eq!(live, [0, a, b, a | b, c, a | c, b | c, a | b | c]);
        assert_eq!(plan.pruned_count(&tracker), (1 << 40) - 8);
    }

    /// The gate shapes the engine plans: diagonal, dense, controlled
    /// dense, two mixing qubits, two controls — operands drawn in any
    /// order, so high controls and *unsorted* high mixing qubits (e.g.
    /// `Swap [5, 4]`, `Ccx [7, 6, 4]`) are covered.
    fn shaped_action(shape: usize, order: &[usize]) -> GateAction {
        match shape % 6 {
            0 => action(Gate::H, &order[..1]),
            1 => action(Gate::Cp(0.5), &order[..2]),
            2 => action(Gate::Cx, &order[..2]),
            3 => action(Gate::Swap, &order[..2]),
            4 => action(Gate::Rzz(0.25), &order[..2]),
            _ => action(Gate::Ccx, &order[..3]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn closed_form_matches_materializing_reference(
            n in 4usize..10,
            shape in 0usize..6,
            keys in proptest::collection::vec(any::<u32>(), 10),
            bits_seed in any::<u32>(),
            mask in any::<u64>(),
            // Half the cases involve everything but one qubit, so a high
            // control is often the missing one (`H ⊄ M`).
            drop_one in any::<u32>(),
        ) {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&q| keys[q]);
            let act = shaped_action(shape, &order);
            let chunk_bits = 1 + bits_seed % (n as u32 - 1);
            let num_chunks = 1usize << (n as u32 - chunk_bits);
            let full = (1u64 << n) - 1;
            let mut tracker = InvolvementTracker::new(n);
            tracker.involve_mask(if drop_one % 2 == 0 {
                mask & full
            } else {
                full & !(1u64 << (drop_one as usize / 2 % n))
            });

            let plan = GatePlan::new(&act, chunk_bits, num_chunks);
            let all = reference_tasks(&act, chunk_bits, num_chunks);
            prop_assert_eq!(plan.tasks().len(), all.len());
            prop_assert_eq!(plan.total_chunks(), all.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(&tasks_of(&plan, plan.tasks()), &all);

            let live = reference_live(&all, &tracker, chunk_bits);
            prop_assert_eq!(plan.live_task_indices(&tracker).len(), live.len());
            prop_assert_eq!(plan.pruned_count(&tracker), all.len() - live.len());
            prop_assert_eq!(&tasks_of(&plan, plan.live_task_indices(&tracker)), &live);
        }
    }
}
