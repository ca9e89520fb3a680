//! Gate fusion: collapse runs of compatible adjacent gates into one kernel.
//!
//! Chunked simulation pays one full pass over every dense chunk per gate
//! (paper §III-B), so the pass count — not the per-amplitude arithmetic —
//! dominates wall-clock time for phase-heavy circuits like `qft` and `iqp`.
//! This module shrinks the pass count by merging *adjacent* gates:
//!
//! * a run of single-qubit gates on the same qubit collapses into one
//!   2×2 matrix (the product of the run, in application order);
//! * a run of diagonal gates collapses into one diagonal kernel over the
//!   union of their qubits, capped at [`MAX_FUSED_DIAG_QUBITS`] so the
//!   merged phase table stays cache-resident.
//!
//! Fusion is **adjacency-only**: gates are never commuted past intervening
//! operations, so the flattened order of a fused program is exactly the
//! source order — trivially a valid topological order of the circuit's
//! [`GateDag`](crate::dag::GateDag). Scheduling passes that *do* reorder
//! (e.g. the forward-looking pass) therefore run before fusion; clustering
//! same-qubit gates first makes runs longer and fusion stronger.
//!
//! Each [`FusedOp`] carries two forms:
//!
//! * [`actions`](FusedOp::actions) — the member gates in source order, for
//!   *exact replay*: applying them one after another inside a single visit
//!   to each chunk performs bit-for-bit the same floating-point operations
//!   as the unfused circuit, so fusion cannot change the state at all;
//! * [`collapsed`](FusedOp::collapsed) — the single merged kernel, the
//!   device timing model's view of the run (one kernel launch per chunk
//!   visit). Nothing executes it: multiplying the members together first
//!   rounds differently from replaying them.

use qgpu_math::Complex64;

use crate::access::GateAction;
use crate::circuit::Circuit;
use crate::gate::{Gate, Matrix};

/// Cap on the qubit-union size of a fused diagonal run: the merged phase
/// table has `2^n` entries, and 64 × 16 B = 1 KiB stays comfortably in L1.
pub const MAX_FUSED_DIAG_QUBITS: usize = 6;

/// A maximal run of adjacent fusible gates: executed exactly (member by
/// member), modeled as one collapsed kernel.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::{fuse, Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.apply(Gate::H, &[0]);
/// c.apply(Gate::T, &[0]);
/// c.apply(Gate::Cp(0.5), &[0, 1]);
/// let program = fuse::fuse(&c);
/// assert_eq!(program.len(), 2); // [H·T on q0], [cp]
/// assert_eq!(program[0].source_gates(), 2);
/// assert!(program[0].is_fused());
/// ```
#[derive(Debug, Clone)]
pub struct FusedOp {
    /// Member actions in source order — the exact-replay form.
    actions: Vec<GateAction>,
    /// The single merged kernel equivalent to the whole run.
    collapsed: GateAction,
    /// OR of the member operations' qubit masks.
    qubit_mask: u64,
    /// Number of source gates merged into this op.
    source_gates: usize,
}

impl FusedOp {
    /// The member actions in source order; applying them sequentially is
    /// bit-identical to the unfused circuit.
    pub fn actions(&self) -> &[GateAction] {
        &self.actions
    }

    /// The single kernel equivalent to the run (2×2 matrix product or
    /// merged diagonal), which the timing model charges for the run; no
    /// execution path applies it. For unfused singletons this is the
    /// plain action.
    pub fn collapsed(&self) -> &GateAction {
        &self.collapsed
    }

    /// OR of the qubit masks of every member gate.
    pub fn qubit_mask(&self) -> u64 {
        self.qubit_mask
    }

    /// Number of source gates in this op (1 for an unfused singleton).
    pub fn source_gates(&self) -> usize {
        self.source_gates
    }

    /// `true` when more than one source gate was merged.
    pub fn is_fused(&self) -> bool {
        self.source_gates > 1
    }
}

/// How the open run can keep absorbing gates.
enum RunKind {
    /// Single-qubit gates (dense or diagonal) on one fixed qubit; the
    /// collapsed form is the accumulated 2×2 product.
    Dense1q { qubit: usize, acc: Matrix },
    /// Diagonal gates; the collapsed form is a merged phase table over the
    /// sorted union of the member qubits.
    Diag {
        qubits: Vec<usize>,
        dvec: Vec<Complex64>,
    },
    /// Anything else (multi-qubit dense, controlled dense): never absorbs.
    Opaque,
}

/// A run still open for absorption.
struct Pending {
    actions: Vec<GateAction>,
    mask: u64,
    kind: RunKind,
}

impl Pending {
    fn start(action: GateAction, mask: u64) -> Pending {
        let kind = match &action {
            GateAction::Diagonal { qubits, dvec } => {
                let (qubits, dvec) = merge_diagonals(&[], &[Complex64::ONE], qubits, dvec);
                RunKind::Diag { qubits, dvec }
            }
            GateAction::ControlledDense {
                controls,
                mixing,
                matrix,
            } if controls.is_empty() && mixing.len() == 1 => RunKind::Dense1q {
                qubit: mixing[0],
                acc: matrix.clone(),
            },
            GateAction::ControlledDense { .. } => RunKind::Opaque,
        };
        Pending {
            actions: vec![action],
            mask,
            kind,
        }
    }

    /// Tries to fold `action` into the open run; on success the action is
    /// recorded and the collapsed form updated.
    fn try_absorb(&mut self, action: &GateAction, mask: u64) -> bool {
        match (&mut self.kind, action) {
            (RunKind::Opaque, _) => false,
            (
                RunKind::Dense1q { qubit, acc },
                GateAction::ControlledDense {
                    controls,
                    mixing,
                    matrix,
                },
            ) if controls.is_empty() && mixing.as_slice() == [*qubit] => {
                // v ← M(acc·v), so the product grows on the left.
                *acc = matrix.matmul(acc);
                self.accept(action, mask)
            }
            (RunKind::Dense1q { qubit, acc }, GateAction::Diagonal { qubits, dvec })
                if qubits.as_slice() == [*qubit] =>
            {
                *acc = diagonal_as_matrix(dvec).matmul(acc);
                self.accept(action, mask)
            }
            (
                RunKind::Diag { qubits, dvec },
                GateAction::Diagonal {
                    qubits: q2,
                    dvec: d2,
                },
            ) => {
                let union = sorted_union(qubits, q2);
                if union.len() > MAX_FUSED_DIAG_QUBITS {
                    return false;
                }
                let (qubits_m, dvec_m) = merge_diagonals(qubits, dvec, q2, d2);
                (*qubits, *dvec) = (qubits_m, dvec_m);
                self.accept(action, mask)
            }
            (
                RunKind::Diag { qubits, dvec },
                GateAction::ControlledDense {
                    controls,
                    mixing,
                    matrix,
                },
            ) if controls.is_empty() && mixing.len() == 1 && qubits.as_slice() == [mixing[0]] => {
                // A pure-diagonal run confined to this one qubit upgrades to
                // a dense 1q run.
                let acc = matrix.matmul(&diagonal_as_matrix(dvec));
                self.kind = RunKind::Dense1q {
                    qubit: mixing[0],
                    acc,
                };
                self.accept(action, mask)
            }
            _ => false,
        }
    }

    fn accept(&mut self, action: &GateAction, mask: u64) -> bool {
        self.actions.push(action.clone());
        self.mask |= mask;
        true
    }

    fn finish(self) -> FusedOp {
        let source_gates = self.actions.len();
        let collapsed = if source_gates == 1 {
            // Keep the original action so a singleton plans and times
            // exactly like the unfused path.
            self.actions[0].clone()
        } else {
            match self.kind {
                RunKind::Dense1q { qubit, acc } => GateAction::ControlledDense {
                    controls: Vec::new(),
                    mixing: vec![qubit],
                    matrix: acc,
                },
                RunKind::Diag { qubits, dvec } => GateAction::Diagonal { qubits, dvec },
                RunKind::Opaque => unreachable!("opaque runs never absorb"),
            }
        };
        FusedOp {
            actions: self.actions,
            collapsed,
            qubit_mask: self.mask,
            source_gates,
        }
    }
}

/// One step of an executable program: either a fused unitary kernel or a
/// non-unitary stochastic operation that the engine must execute as a
/// synchronization point.
///
/// Measurements and resets are **fusion barriers**: no unitary run ever
/// absorbs across one, because collapse changes the state in a way that
/// depends on amplitudes at that exact point in the order.
#[derive(Debug, Clone)]
pub enum ProgramOp {
    /// A maximal run of fused unitary gates.
    Unitary(FusedOp),
    /// Mid-circuit measurement collapse of `qubit`.
    Measure {
        /// The measured qubit.
        qubit: usize,
    },
    /// Mid-circuit reset of `qubit` to |0⟩ (collapse, then flip on
    /// outcome 1).
    Reset {
        /// The reset qubit.
        qubit: usize,
    },
}

impl ProgramOp {
    /// OR of the qubit masks this step touches.
    pub fn qubit_mask(&self) -> u64 {
        match self {
            ProgramOp::Unitary(f) => f.qubit_mask(),
            ProgramOp::Measure { qubit } | ProgramOp::Reset { qubit } => 1u64 << qubit,
        }
    }

    /// The fused unitary kernel, if this step is one.
    pub fn unitary(&self) -> Option<&FusedOp> {
        match self {
            ProgramOp::Unitary(f) => Some(f),
            _ => None,
        }
    }
}

/// Fuses a circuit — which may contain measurements and resets — into a
/// program of maximal unitary runs separated by non-unitary barriers.
///
/// The flattened member order equals the source order — fusion never
/// reorders, only groups — and every [`Gate::Measure`] / [`Gate::Reset`]
/// becomes its own [`ProgramOp`], flushing any open run first.
pub fn fuse_program(circuit: &Circuit) -> Vec<ProgramOp> {
    let mut program: Vec<ProgramOp> = Vec::new();
    let mut open: Option<Pending> = None;
    for op in circuit.ops() {
        if !op.gate().is_unitary() {
            if let Some(run) = open.take() {
                program.push(ProgramOp::Unitary(run.finish()));
            }
            program.push(non_unitary_op(op.gate(), op.qubits()[0]));
            continue;
        }
        let action = GateAction::from_operation(op);
        let mask = op.qubit_mask();
        open = Some(match open.take() {
            None => Pending::start(action, mask),
            Some(mut run) => {
                if run.try_absorb(&action, mask) {
                    run
                } else {
                    program.push(ProgramOp::Unitary(run.finish()));
                    Pending::start(action, mask)
                }
            }
        });
    }
    if let Some(run) = open {
        program.push(ProgramOp::Unitary(run.finish()));
    }
    program
}

/// Lowers a circuit 1:1 into singleton [`ProgramOp`]s — the no-fusion
/// program, so engines can run a single representation either way.
pub fn lower_program(circuit: &Circuit) -> Vec<ProgramOp> {
    circuit
        .ops()
        .iter()
        .map(|op| {
            if op.gate().is_unitary() {
                ProgramOp::Unitary(
                    Pending::start(GateAction::from_operation(op), op.qubit_mask()).finish(),
                )
            } else {
                non_unitary_op(op.gate(), op.qubits()[0])
            }
        })
        .collect()
}

fn non_unitary_op(gate: Gate, qubit: usize) -> ProgramOp {
    match gate {
        Gate::Measure => ProgramOp::Measure { qubit },
        Gate::Reset => ProgramOp::Reset { qubit },
        other => unreachable!("{} is unitary", other.name()),
    }
}

/// Fuses a unitary-only circuit into maximal runs of adjacent compatible
/// gates. See [`fuse_program`] for circuits with measurements/resets.
///
/// # Panics
///
/// Panics if the circuit contains non-unitary operations.
pub fn fuse(circuit: &Circuit) -> Vec<FusedOp> {
    fuse_program(circuit)
        .into_iter()
        .map(|p| match p {
            ProgramOp::Unitary(f) => f,
            other => panic!("fuse() requires a unitary circuit, found {other:?}"),
        })
        .collect()
}

/// Lowers a unitary-only circuit 1:1 into singleton [`FusedOp`]s.
///
/// # Panics
///
/// Panics if the circuit contains non-unitary operations.
pub fn lower(circuit: &Circuit) -> Vec<FusedOp> {
    lower_program(circuit)
        .into_iter()
        .map(|p| match p {
            ProgramOp::Unitary(f) => f,
            other => panic!("lower() requires a unitary circuit, found {other:?}"),
        })
        .collect()
}

/// Total source gates saved as separate kernel passes by fusion.
pub fn gates_fused(program: &[FusedOp]) -> usize {
    program.iter().map(|f| f.source_gates() - 1).sum()
}

/// [`gates_fused`] over a mixed program: non-unitary steps fuse nothing.
pub fn program_gates_fused(program: &[ProgramOp]) -> usize {
    program
        .iter()
        .filter_map(ProgramOp::unitary)
        .map(|f| f.source_gates() - 1)
        .sum()
}

/// The 2×2 matrix form of a single-qubit diagonal.
fn diagonal_as_matrix(dvec: &[Complex64]) -> Matrix {
    debug_assert_eq!(dvec.len(), 2);
    Matrix::new(2, vec![dvec[0], Complex64::ZERO, Complex64::ZERO, dvec[1]])
}

fn sorted_union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut u: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
    u.sort_unstable();
    u.dedup();
    u
}

/// Pointwise product of two diagonals, re-indexed over the sorted union of
/// their qubits. `q1` must already be sorted (the accumulated run); `q2`
/// may be in any order (gate-argument order).
fn merge_diagonals(
    q1: &[usize],
    d1: &[Complex64],
    q2: &[usize],
    d2: &[Complex64],
) -> (Vec<usize>, Vec<Complex64>) {
    let union = sorted_union(q1, q2);
    let pos = |q: usize| union.binary_search(&q).expect("qubit in union");
    // Index of union-index `s` within the sub-diagonal over `qs`.
    let sub_index = |s: usize, qs: &[usize]| -> usize {
        qs.iter()
            .enumerate()
            .fold(0usize, |acc, (bit, &q)| acc | (((s >> pos(q)) & 1) << bit))
    };
    let dvec = (0..1usize << union.len())
        .map(|s| d1[sub_index(s, q1)] * d2[sub_index(s, q2)])
        .collect();
    (union, dvec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::GateDag;
    use crate::gate::Gate;
    use crate::generators::Benchmark;

    fn circuit(n: usize, gates: &[(Gate, &[usize])]) -> Circuit {
        let mut c = Circuit::new(n);
        for (g, qs) in gates {
            c.apply(*g, qs);
        }
        c
    }

    fn total_gates(program: &[FusedOp]) -> usize {
        program.iter().map(|f| f.source_gates()).sum()
    }

    #[test]
    fn empty_circuit_fuses_to_empty_program() {
        let c = Circuit::new(3);
        assert!(fuse(&c).is_empty());
        assert!(lower(&c).is_empty());
    }

    #[test]
    fn single_gate_is_a_singleton() {
        let c = circuit(2, &[(Gate::H, &[1])]);
        let p = fuse(&c);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].source_gates(), 1);
        assert!(!p[0].is_fused());
        assert_eq!(p[0].actions().len(), 1);
        assert_eq!(p[0].collapsed(), &p[0].actions()[0]);
        assert_eq!(p[0].qubit_mask(), 0b10);
    }

    #[test]
    fn lower_is_one_to_one() {
        let c = Benchmark::Qft.generate(6);
        let p = lower(&c);
        assert_eq!(p.len(), c.len());
        assert!(p.iter().all(|f| f.source_gates() == 1));
        assert_eq!(gates_fused(&p), 0);
    }

    #[test]
    fn same_qubit_dense_run_collapses_to_product() {
        // H then T on qubit 0: collapsed must be T·H (application order).
        let c = circuit(1, &[(Gate::H, &[0]), (Gate::T, &[0])]);
        let p = fuse(&c);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].source_gates(), 2);
        let expected = Gate::T.matrix().matmul(&Gate::H.matrix());
        match p[0].collapsed() {
            GateAction::ControlledDense {
                controls,
                mixing,
                matrix,
            } => {
                assert!(controls.is_empty());
                assert_eq!(mixing.as_slice(), &[0]);
                for r in 0..2 {
                    for c in 0..2 {
                        assert!(matrix.get(r, c).approx_eq(expected.get(r, c), 1e-14));
                    }
                }
            }
            other => panic!("expected dense collapse, got {other:?}"),
        }
    }

    #[test]
    fn h_h_collapses_to_identity() {
        let c = circuit(1, &[(Gate::H, &[0]), (Gate::H, &[0])]);
        let p = fuse(&c);
        assert_eq!(p.len(), 1);
        match p[0].collapsed() {
            GateAction::ControlledDense { matrix, .. } => {
                assert!(matrix.get(0, 0).approx_eq(Complex64::ONE, 1e-14));
                assert!(matrix.get(0, 1).approx_eq(Complex64::ZERO, 1e-14));
            }
            other => panic!("expected dense collapse, got {other:?}"),
        }
    }

    #[test]
    fn diag_then_dense_on_same_qubit_upgrades_to_dense_run() {
        // T then H on qubit 0: collapsed must be H·T.
        let c = circuit(1, &[(Gate::T, &[0]), (Gate::H, &[0])]);
        let p = fuse(&c);
        assert_eq!(p.len(), 1);
        let expected = Gate::H.matrix().matmul(&Gate::T.matrix());
        match p[0].collapsed() {
            GateAction::ControlledDense { matrix, .. } => {
                for r in 0..2 {
                    for c in 0..2 {
                        assert!(matrix.get(r, c).approx_eq(expected.get(r, c), 1e-14));
                    }
                }
            }
            other => panic!("expected dense collapse, got {other:?}"),
        }
    }

    #[test]
    fn adjacent_diagonals_merge_across_qubits() {
        let c = circuit(
            3,
            &[
                (Gate::Cp(0.3), &[0, 1]),
                (Gate::Cp(0.7), &[1, 2]),
                (Gate::Z, &[0]),
            ],
        );
        let p = fuse(&c);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].source_gates(), 3);
        match p[0].collapsed() {
            GateAction::Diagonal { qubits, dvec } => {
                assert_eq!(qubits.as_slice(), &[0, 1, 2]);
                // Spot-check every entry against the three factors.
                let d1 = Gate::Cp(0.3).matrix();
                let d2 = Gate::Cp(0.7).matrix();
                for (s, entry) in dvec.iter().enumerate() {
                    let (b0, b1, b2) = (s & 1, (s >> 1) & 1, (s >> 2) & 1);
                    let expect = d1.get(b0 | (b1 << 1), b0 | (b1 << 1))
                        * d2.get(b1 | (b2 << 1), b1 | (b2 << 1))
                        * if b0 == 1 {
                            -Complex64::ONE
                        } else {
                            Complex64::ONE
                        };
                    assert!(entry.approx_eq(expect, 1e-14), "entry {s}");
                }
            }
            other => panic!("expected diagonal collapse, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_union_is_capped() {
        // A chain of CPs touching 8 qubits must split once the union would
        // exceed MAX_FUSED_DIAG_QUBITS.
        let mut c = Circuit::new(8);
        for q in 0..7 {
            c.apply(Gate::Cp(0.1), &[q, q + 1]);
        }
        let p = fuse(&c);
        assert!(p.len() >= 2, "cap must split the run");
        for f in &p {
            if let GateAction::Diagonal { qubits, .. } = f.collapsed() {
                assert!(qubits.len() <= MAX_FUSED_DIAG_QUBITS);
            }
        }
        assert_eq!(total_gates(&p), c.len());
    }

    #[test]
    fn opaque_gates_never_fuse() {
        let c = circuit(
            3,
            &[
                (Gate::Cx, &[0, 1]),
                (Gate::Cx, &[0, 1]),
                (Gate::Swap, &[1, 2]),
            ],
        );
        let p = fuse(&c);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|f| !f.is_fused()));
    }

    #[test]
    fn intervening_gate_breaks_a_run() {
        // T(0), CX(0,1), T(0): the CX must split the two Ts — fusion is
        // adjacency-only and never commutes gates past each other.
        let c = circuit(2, &[(Gate::T, &[0]), (Gate::Cx, &[0, 1]), (Gate::T, &[0])]);
        let p = fuse(&c);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn fused_member_order_is_a_valid_dag_order() {
        // The flattened member order of the fused program must be a valid
        // topological order of the gate DAG (it is the source order, so
        // this pins the no-reordering invariant).
        for b in [
            Benchmark::Qft,
            Benchmark::Iqp,
            Benchmark::Rqc,
            Benchmark::Qaoa,
        ] {
            let c = b.generate(8);
            let p = fuse(&c);
            assert_eq!(total_gates(&p), c.len(), "{}", b.abbrev());
            let dag = GateDag::new(&c);
            let order: Vec<usize> = (0..c.len()).collect();
            assert!(dag.is_valid_order(&order), "{}", b.abbrev());
        }
    }

    #[test]
    fn qft_fuses_substantially() {
        let c = Benchmark::Qft.generate(16);
        let p = fuse(&c);
        assert!(
            p.len() * 2 <= c.len(),
            "qft should fuse at least 2:1 (got {} ops from {} gates)",
            p.len(),
            c.len()
        );
        assert_eq!(gates_fused(&p), c.len() - p.len());
    }

    #[test]
    fn qubit_mask_covers_all_members() {
        let c = circuit(4, &[(Gate::Cp(0.2), &[0, 3]), (Gate::Z, &[1])]);
        let p = fuse(&c);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].qubit_mask(), 0b1011);
    }

    #[test]
    fn collapsed_diagonal_matches_sequential_application() {
        // Apply the collapsed diagonal and the member diagonals to a basis
        // enumeration and compare.
        let c = circuit(
            3,
            &[
                (Gate::Cp(1.1), &[2, 0]),
                (Gate::Rz(0.4), &[1]),
                (Gate::T, &[2]),
            ],
        );
        let p = fuse(&c);
        assert_eq!(p.len(), 1);
        let GateAction::Diagonal { qubits, dvec } = p[0].collapsed() else {
            panic!("expected diagonal");
        };
        for idx in 0..8usize {
            let mut expect = Complex64::ONE;
            for op in c.ops() {
                let GateAction::Diagonal {
                    qubits: qs,
                    dvec: d,
                } = GateAction::from_operation(op)
                else {
                    panic!("all members diagonal");
                };
                let s = qs
                    .iter()
                    .enumerate()
                    .fold(0usize, |a, (bit, &q)| a | (((idx >> q) & 1) << bit));
                expect *= d[s];
            }
            let s = qubits
                .iter()
                .enumerate()
                .fold(0usize, |a, (bit, &q)| a | (((idx >> q) & 1) << bit));
            assert!(dvec[s].approx_eq(expect, 1e-13), "index {idx}");
        }
    }

    #[test]
    fn measurement_is_a_fusion_barrier() {
        // T(0), measure(0), T(0): without the barrier the two Ts would
        // fuse into one kernel, silently moving the second T before the
        // collapse. The program must keep three separate steps.
        let mut c = Circuit::new(1);
        c.t(0).measure(0).t(0);
        let p = fuse_program(&c);
        assert_eq!(p.len(), 3);
        assert!(matches!(p[1], ProgramOp::Measure { qubit: 0 }));
        assert!(p[0].unitary().is_some_and(|f| !f.is_fused()));
        assert!(p[2].unitary().is_some_and(|f| !f.is_fused()));
    }

    #[test]
    fn reset_is_a_fusion_barrier() {
        let mut c = Circuit::new(2);
        c.apply(Gate::Cp(0.2), &[0, 1]);
        c.reset(1);
        c.apply(Gate::Cp(0.4), &[0, 1]);
        let p = fuse_program(&c);
        assert_eq!(p.len(), 3);
        assert!(matches!(p[1], ProgramOp::Reset { qubit: 1 }));
        assert_eq!(p[1].qubit_mask(), 0b10);
    }

    #[test]
    fn fuse_program_matches_fuse_on_unitary_circuits() {
        for b in [Benchmark::Qft, Benchmark::Iqp, Benchmark::Rqc] {
            let c = b.generate(8);
            let via_program = fuse_program(&c);
            let direct = fuse(&c);
            assert_eq!(via_program.len(), direct.len(), "{}", b.abbrev());
            assert_eq!(
                program_gates_fused(&via_program),
                gates_fused(&direct),
                "{}",
                b.abbrev()
            );
        }
    }

    #[test]
    fn lower_program_is_one_to_one_with_barriers() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0).h(1).reset(0).t(1);
        let p = lower_program(&c);
        assert_eq!(p.len(), 5);
        assert_eq!(program_gates_fused(&p), 0);
        assert!(matches!(p[1], ProgramOp::Measure { qubit: 0 }));
        assert!(matches!(p[3], ProgramOp::Reset { qubit: 0 }));
    }

    #[test]
    #[should_panic(expected = "requires a unitary circuit")]
    fn fuse_rejects_measure_circuits() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        let _ = fuse(&c);
    }

    #[test]
    fn singleton_collapsed_preserves_original_action() {
        // Controlled gates keep their control structure (not absorbed into
        // a dense matrix) so chunk planning matches the unfused path.
        let c = circuit(2, &[(Gate::Cp(0.3), &[0, 1]), (Gate::Cx, &[1, 0])]);
        let p = fuse(&c);
        assert_eq!(p[1].collapsed(), &GateAction::from_operation(&c.ops()[1]));
    }
}
