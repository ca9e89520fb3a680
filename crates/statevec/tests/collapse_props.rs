//! The collapse passes of [`measure`] against the per-index loops they
//! replaced ([`qgpu_statevec::reference`]): on random chunked states with
//! `±0.0` sprinkled in — chunks of zeros that are not live, and chunks of
//! zeros that are — every qubit, both outcomes, measured and reset, must
//! give the same probability bits, the same amplitude bits and the same
//! live set.

use proptest::prelude::*;
use qgpu_math::Complex64;
use qgpu_statevec::reference::{collapse_per_index, prob_one_per_index, reset_per_index};
use qgpu_statevec::{measure, ChunkedState, StateVector};

/// A component: a finite value, or a zero of either sign.
fn component() -> impl Strategy<Value = f64> {
    (0u8..5, -1.0f64..1.0).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    })
}

/// What becomes of a chunk: kept as drawn, made zeros (not live), or made
/// zeros that are live.
#[derive(Clone, Copy, Debug)]
enum Fate {
    Drawn,
    Dead,
    LiveZeros,
}

fn fate() -> impl Strategy<Value = Fate> {
    (0u8..6).prop_map(|kind| match kind {
        0 => Fate::Dead,
        1 => Fate::LiveZeros,
        _ => Fate::Drawn,
    })
}

fn state_of(n: usize, bits: u32, parts: &[(f64, f64)], fates: &[Fate]) -> ChunkedState {
    let mut amps: Vec<Complex64> = parts
        .iter()
        .map(|&(re, im)| Complex64::new(re, im))
        .collect();
    let chunk = 1usize << bits;
    for (c, fate) in fates.iter().enumerate().take(amps.len() / chunk) {
        if !matches!(fate, Fate::Drawn) {
            for a in &mut amps[c * chunk..(c + 1) * chunk] {
                *a = Complex64::new(a.re.signum() * 0.0, a.im.signum() * 0.0);
            }
        }
    }
    let mut state = ChunkedState::from_flat(&StateVector::from_amplitudes(amps.clone()), bits);
    for (c, fate) in fates.iter().enumerate().take(state.num_chunks()) {
        if matches!(fate, Fate::LiveZeros) {
            state
                .chunk_mut_or_alloc(c)
                .copy_from_slice(&amps[c * chunk..(c + 1) * chunk]);
        }
    }
    assert_eq!(state.num_qubits(), n);
    state
}

/// Same amplitude bits and same live set.
fn assert_same(got: &ChunkedState, want: &ChunkedState, what: &str) {
    let bits = |s: &ChunkedState| -> Vec<(u64, u64)> {
        let flat = s.as_flat();
        flat.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    };
    assert!(bits(got) == bits(want), "{what}: amplitude bits differ");
    for c in 0..want.num_chunks() {
        assert_eq!(
            got.is_zero_chunk(c),
            want.is_zero_chunk(c),
            "{what}: chunk {c}"
        );
    }
}

/// Up to 9 qubits: the qubit count, the chunk bits (at most the qubit
/// count), and components and chunk fates for the largest state (a
/// smaller one uses a prefix).
fn case() -> impl Strategy<Value = (usize, u32, Vec<(f64, f64)>, Vec<Fate>)> {
    let parts = proptest::collection::vec((component(), component()), 1 << 9);
    let fates = proptest::collection::vec(fate(), 1 << 9);
    (2usize..=9, 1u32..=9, parts, fates).prop_map(|(n, bits, parts, fates)| {
        (n, bits.min(n as u32), parts[..1 << n].to_vec(), fates)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collapse_passes_match_the_per_index_loops((n, bits, parts, fates) in case()) {
        let state = state_of(n, bits, &parts, &fates);
        for qubit in 0..n {
            let p1 = measure::prob_one_chunked(&state, qubit);
            prop_assert_eq!(p1.to_bits(), prob_one_per_index(&state, qubit).to_bits());
            for outcome in [false, true] {
                let p = if outcome { p1 } else { 1.0 - p1 };
                let p = if p > 0.0 { p } else { 0.5 };
                let what = format!("n {n}, chunk bits {bits}, qubit {qubit}, outcome {outcome}");
                let (mut got, mut want) = (state.clone(), state.clone());
                measure::collapse_chunked(&mut got, qubit, outcome, p);
                collapse_per_index(&mut want, qubit, outcome, p);
                assert_same(&got, &want, &format!("collapse, {what}"));
                let (mut got, mut want) = (state.clone(), state.clone());
                measure::reset_chunked(&mut got, qubit, outcome, p);
                reset_per_index(&mut want, qubit, outcome, p);
                assert_same(&got, &want, &format!("reset, {what}"));
            }
        }
    }
}
