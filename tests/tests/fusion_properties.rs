//! Property-based tests of the gate-fusion pass: fused execution must be
//! *bit-identical* to the unfused gate-by-gate run, and both must agree
//! with the dense-operator oracle ([`qgpu_statevec::reference`]) to
//! floating-point tolerance.
//!
//! Bit-equality is asserted against [`StateVector::run`] (the same kernel
//! arithmetic in a different visiting order); the dense oracle multiplies
//! full `2^n × 2^n` operators, which rounds differently, so it anchors
//! correctness at `1e-9` rather than bitwise.

use proptest::prelude::*;
use qgpu_circuit::fuse::{fuse, gates_fused, lower};
use qgpu_circuit::{Circuit, Gate};
use qgpu_statevec::{reference, ChunkExecutor, StateVector};

/// Strategy: a random operation on `n` qubits, mixing dense and diagonal
/// gates so runs of both kinds form.
fn arb_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        q.clone().prop_map(|a| (Gate::X, vec![a])),
        q.clone().prop_map(|a| (Gate::T, vec![a])),
        q.clone().prop_map(|a| (Gate::S, vec![a])),
        (q.clone(), -3.0f64..3.0).prop_map(|(a, t)| (Gate::Rx(t), vec![a])),
        (q.clone(), -3.0f64..3.0).prop_map(|(a, t)| (Gate::Rz(t), vec![a])),
        (q.clone(), -3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0)
            .prop_map(|(a, x, y, z)| (Gate::U(x, y, z), vec![a])),
        q2.clone().prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
        q2.clone().prop_map(|(a, b)| (Gate::Cz, vec![a, b])),
        q2.clone().prop_map(|(a, b)| (Gate::Swap, vec![a, b])),
        (q2, -3.0f64..3.0).prop_map(|((a, b), t)| (Gate::Cp(t), vec![a, b])),
    ]
}

/// Strategy: a *diagonal-heavy* operation, so long diagonal runs (and the
/// multi-qubit diagonal merge) are exercised hard.
fn arb_diagonal_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|a| (Gate::Z, vec![a])),
        q.clone().prop_map(|a| (Gate::S, vec![a])),
        q.clone().prop_map(|a| (Gate::T, vec![a])),
        (q.clone(), -3.0f64..3.0).prop_map(|(a, t)| (Gate::Rz(t), vec![a])),
        (q.clone(), -3.0f64..3.0).prop_map(|(a, t)| (Gate::Phase(t), vec![a])),
        q2.clone().prop_map(|(a, b)| (Gate::Cz, vec![a, b])),
        (q2.clone(), -3.0f64..3.0).prop_map(|((a, b), t)| (Gate::Cp(t), vec![a, b])),
        (q2, -3.0f64..3.0).prop_map(|((a, b), t)| (Gate::Rzz(t), vec![a, b])),
        // An occasional dense gate breaks runs and seeds amplitude.
        q.prop_map(|a| (Gate::H, vec![a])),
    ]
}

fn circuit_of(n: usize, gates: Vec<(Gate, Vec<usize>)>) -> Circuit {
    let mut c = Circuit::new(n);
    for (g, qs) in gates {
        c.apply(g, &qs);
    }
    c
}

fn arb_circuit(n: usize, max_ops: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 1..max_ops).prop_map(move |gates| circuit_of(n, gates))
}

fn arb_diagonal_circuit(n: usize, max_ops: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_diagonal_gate(n), 1..max_ops)
        .prop_map(move |gates| circuit_of(n, gates))
}

fn assert_bitwise_eq(a: &StateVector, b: &StateVector, ctx: &str) {
    for i in 0..a.len() {
        let (x, y) = (a.amp(i), b.amp(i));
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{ctx}: amplitude {i} differs ({x:?} vs {y:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_runs_match_unfused_bitwise_at_every_thread_count(c in arb_circuit(7, 40)) {
        let mut unfused = StateVector::new_zero(7);
        unfused.run(&c);
        let oracle = reference::run_dense(&c);
        prop_assert!(unfused.max_deviation(&oracle) < 1e-9);
        for threads in [1usize, 2, 4] {
            let mut fused = StateVector::new_zero(7);
            fused.run_fused(&c, threads);
            assert_bitwise_eq(&unfused, &fused, &format!("threads {threads}"));
        }
    }

    #[test]
    fn diagonal_runs_fuse_and_match_bitwise(c in arb_diagonal_circuit(7, 50)) {
        let mut unfused = StateVector::new_zero(7);
        unfused.run(&c);
        let oracle = reference::run_dense(&c);
        prop_assert!(unfused.max_deviation(&oracle) < 1e-9);
        for threads in [1usize, 2, 4] {
            let mut fused = StateVector::new_zero(7);
            fused.run_fused(&c, threads);
            assert_bitwise_eq(&unfused, &fused, &format!("threads {threads}"));
        }
    }

    #[test]
    fn fusion_never_reorders_across_incompatible_gates(c in arb_circuit(6, 30)) {
        // Structural invariants of the pass: every source gate lands in
        // exactly one fused op, in order, and the op count plus the fused
        // count always balance.
        let program = fuse(&c);
        let total: usize = program.iter().map(|f| f.source_gates()).sum();
        prop_assert_eq!(total, c.len());
        prop_assert_eq!(gates_fused(&program), c.len() - program.len());
        let lowered = lower(&c);
        prop_assert_eq!(lowered.len(), c.len());
    }
}

/// Replays `fuse(c)` through the flat fan-out with exactly `threads`
/// workers (no clamp to the host's cores).
fn run_fused_exact(c: &Circuit, threads: usize) -> StateVector {
    let ex = ChunkExecutor::with_exact_threads(threads);
    let mut s = StateVector::new_zero(c.num_qubits());
    for fop in fuse(c) {
        ex.apply_flat_run(s.amps_mut(), fop.actions());
    }
    s
}

proptest! {
    // 15 qubits clear the executor's 2^14-amplitude floor, so 2 and 4
    // workers really split the state (the 7-qubit sweeps above stay on
    // the calling thread).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fused_runs_match_unfused_bitwise_across_workers(c in arb_circuit(15, 40)) {
        let mut unfused = StateVector::new_zero(15);
        unfused.run(&c);
        for threads in [2usize, 4] {
            let fused = run_fused_exact(&c, threads);
            assert_bitwise_eq(&unfused, &fused, &format!("threads {threads}"));
        }
    }

    #[test]
    fn diagonal_runs_match_unfused_bitwise_across_workers(c in arb_diagonal_circuit(15, 50)) {
        let mut unfused = StateVector::new_zero(15);
        unfused.run(&c);
        for threads in [2usize, 4] {
            let fused = run_fused_exact(&c, threads);
            assert_bitwise_eq(&unfused, &fused, &format!("threads {threads}"));
        }
    }
}

#[test]
fn empty_circuit_fuses_to_empty_program() {
    let c = Circuit::new(3);
    assert!(fuse(&c).is_empty());
    let mut s = StateVector::new_zero(3);
    s.run_fused(&c, 4);
    assert_eq!(s.amp(0).re, 1.0);
    assert_eq!(s.zero_count(), 7);
}

#[test]
fn single_gate_circuit_is_a_singleton_program() {
    let mut c = Circuit::new(3);
    c.h(1);
    let program = fuse(&c);
    assert_eq!(program.len(), 1);
    assert!(!program[0].is_fused());
    let mut fused = StateVector::new_zero(3);
    fused.run_fused(&c, 2);
    let mut plain = StateVector::new_zero(3);
    plain.run(&c);
    assert_bitwise_eq(&plain, &fused, "single gate");
}

#[test]
fn pure_diagonal_circuit_collapses_to_few_ops() {
    // Adjacent diagonal gates merge regardless of qubit, so a diagonal
    // slab over few qubits becomes a single fused op.
    let mut c = Circuit::new(4);
    c.h(0).h(1).h(2).h(3);
    for q in 0..4 {
        c.t(q);
    }
    c.cz(0, 1).cp(0.7, 1, 2).rz(0.3, 3);
    let program = fuse(&c);
    // 4 H gates (one run per qubit would need same-qubit adjacency: they
    // are on distinct qubits, so 4 opaque-ish singles) + 1 merged
    // diagonal slab.
    assert_eq!(program.len(), 5, "program: {} ops", program.len());
    assert_eq!(program[4].source_gates(), 7);
    let mut fused = StateVector::new_zero(4);
    fused.run_fused(&c, 3);
    let mut plain = StateVector::new_zero(4);
    plain.run(&c);
    assert_bitwise_eq(&plain, &fused, "diagonal slab");
}
