//! Dependency-aware gate reordering (paper §IV-C).
//!
//! Both passes traverse the circuit's dependency DAG and pick, among the
//! currently executable gates, the one that delays qubit involvement the
//! most:
//!
//! * **greedy** (Algorithm 2): minimize the number of *new* qubits the
//!   gate itself involves;
//! * **forward-looking** (Algorithm 3): add a one-step lookahead — the
//!   minimum new-qubit cost among the gates that would be executable
//!   next.
//!
//! Ties break on source order, so the output is deterministic. The passes
//! never violate dependencies; the result is a permutation of the input
//! that simulates to the identical final state (enforced by integration
//! tests).

use qgpu_circuit::dag::GateDag;
use qgpu_circuit::{Circuit, Operation};
use serde::{Deserialize, Serialize};

/// Which gate order to simulate — the x-axis families of the paper's
/// Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReorderStrategy {
    /// Keep the source order.
    #[default]
    Original,
    /// Algorithm 2.
    Greedy,
    /// Algorithm 3 — what the paper's `Reorder` version ships.
    ForwardLooking,
}

impl ReorderStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [ReorderStrategy; 3] = [
        ReorderStrategy::Original,
        ReorderStrategy::Greedy,
        ReorderStrategy::ForwardLooking,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ReorderStrategy::Original => "original",
            ReorderStrategy::Greedy => "greedy",
            ReorderStrategy::ForwardLooking => "forward-looking",
        }
    }

    /// Applies the strategy to a circuit.
    pub fn reorder(self, circuit: &Circuit) -> Circuit {
        match self {
            ReorderStrategy::Original => circuit.clone(),
            ReorderStrategy::Greedy => apply_order(circuit, &greedy_order(circuit)),
            ReorderStrategy::ForwardLooking => {
                apply_order(circuit, &forward_looking_order(circuit))
            }
        }
    }

    /// [`ReorderStrategy::reorder`] under observation: records a
    /// [`qgpu_obs::Stage::Plan`] span covering the DAG traversal. With
    /// `rec == None` this is exactly `reorder`.
    pub fn reorder_observed(self, circuit: &Circuit, rec: Option<&qgpu_obs::Recorder>) -> Circuit {
        use qgpu_obs::{span_opt, Stage, Track};
        let _g = span_opt(rec, Track::Main, Stage::Plan, "sched.reorder");
        self.reorder(circuit)
    }
}

impl std::fmt::Display for ReorderStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the reordered circuit from an operation permutation.
///
/// # Panics
///
/// Panics if `order` is not a valid topological order of the circuit's
/// DAG — reordering must never violate dependencies.
pub fn apply_order(circuit: &Circuit, order: &[usize]) -> Circuit {
    let dag = GateDag::new(circuit);
    assert!(
        dag.is_valid_order(order),
        "reordering produced a dependency-violating order"
    );
    let ops: Vec<Operation> = order.iter().map(|&i| circuit.ops()[i].clone()).collect();
    circuit.with_ops(ops)
}

/// New qubits an operation would involve given the current mask.
fn new_qubit_cost(op: &Operation, involved: u64) -> u32 {
    (op.qubit_mask() & !involved).count_ones()
}

/// Greedy reordering (Algorithm 2): repeatedly execute the ready gate with
/// the fewest newly involved qubits, with a seeded pseudo-random choice
/// among equal-cost candidates — exactly the paper's "we randomly select
/// one gate among them" (the randomness is what lets forward-looking beat
/// greedy in the paper's Figures 8 and 9).
///
/// (The paper's pseudocode initializes `minCost = 0` with a `<` compare,
/// which would never select a gate; the intended `∞` initialization is
/// used here.)
pub fn greedy_order(circuit: &Circuit) -> Vec<usize> {
    greedy_order_seeded(circuit, 0x9e37_79b9_7f4a_7c15)
}

/// [`greedy_order`] with an explicit tie-breaking seed (deterministic for
/// a fixed seed).
pub fn greedy_order_seeded(circuit: &Circuit, seed: u64) -> Vec<usize> {
    let dag = GateDag::new(circuit);
    let mut pred_counts = dag.predecessor_counts();
    let mut exe_list: Vec<usize> = dag.roots();
    let mut order = Vec::with_capacity(circuit.len());
    let mut involved = 0u64;
    let mut rng_state = seed | 1;
    let mut next_rand = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    while !exe_list.is_empty() {
        let min_cost = exe_list
            .iter()
            .map(|&g| new_qubit_cost(&circuit.ops()[g], involved))
            .min()
            .expect("exe_list is non-empty");
        let candidates: Vec<usize> = exe_list
            .iter()
            .copied()
            .filter(|&g| new_qubit_cost(&circuit.ops()[g], involved) == min_cost)
            .collect();
        let best = candidates[(next_rand() % candidates.len() as u64) as usize];
        exe_list.retain(|&g| g != best);
        involved |= circuit.ops()[best].qubit_mask();
        order.push(best);
        for &s in dag.successors(best) {
            pred_counts[s] -= 1;
            if pred_counts[s] == 0 {
                exe_list.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), circuit.len());
    order
}

/// Forward-looking reordering (Algorithm 3): the cost of a candidate is
/// its own new-qubit count plus the *minimum* new-qubit count among the
/// gates executable right after it.
pub fn forward_looking_order(circuit: &Circuit) -> Vec<usize> {
    let dag = GateDag::new(circuit);
    let mut pred_counts = dag.predecessor_counts();
    let mut exe_list: Vec<usize> = dag.roots();
    let mut order = Vec::with_capacity(circuit.len());
    let mut involved = 0u64;

    while !exe_list.is_empty() {
        // Key: (total cost, cost of the gate itself, source index). Among
        // equal totals, prefer the gate that adds fewer qubits *now* — it
        // keeps the involvement trajectory lower (better integrated
        // pruning) even when the two-step sums tie.
        let mut best: Option<(u32, u32, usize)> = None;
        for &g in &exe_list {
            let current = new_qubit_cost(&circuit.ops()[g], involved);
            let cost = forward_cost(circuit, &dag, &pred_counts, &exe_list, involved, g);
            let key = (cost, current, g);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, g) = best.expect("exe_list is non-empty");
        exe_list.retain(|&x| x != g);
        involved |= circuit.ops()[g].qubit_mask();
        order.push(g);
        for &s in dag.successors(g) {
            pred_counts[s] -= 1;
            if pred_counts[s] == 0 {
                exe_list.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), circuit.len());
    order
}

/// Algorithm 3's cost: `costCurrent + costLookAhead`, evaluated on copies
/// of the scheduler state.
fn forward_cost(
    circuit: &Circuit,
    dag: &GateDag,
    pred_counts: &[usize],
    exe_list: &[usize],
    involved: u64,
    g: usize,
) -> u32 {
    let op = &circuit.ops()[g];
    let cost_current = new_qubit_cost(op, involved);
    let involved_after = involved | op.qubit_mask();

    // Hypothetical exe_list after executing g.
    let mut lookahead_min: Option<u32> = None;
    let mut consider = |op: &Operation| {
        let c = new_qubit_cost(op, involved_after);
        lookahead_min = Some(lookahead_min.map_or(c, |m| m.min(c)));
    };
    for &other in exe_list {
        if other != g {
            consider(&circuit.ops()[other]);
        }
    }
    for &s in dag.successors(g) {
        if pred_counts[s] == 1 {
            consider(&circuit.ops()[s]);
        }
    }
    cost_current + lookahead_min.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::generators::Benchmark;
    use qgpu_circuit::involvement::{involvement_counts, ops_until_full_involvement};

    /// Operations before full involvement under `strategy` — the scalar
    /// the paper's Figure 9 visualizes.
    fn delay_to_full_involvement(circuit: &Circuit, strategy: ReorderStrategy) -> usize {
        ops_until_full_involvement(&strategy.reorder(circuit))
    }

    /// The paper's Figure 8 walk-through circuit (gs_5).
    fn gs5() -> Circuit {
        let mut c = Circuit::new(5);
        c.h(0).h(1).h(2).h(3).h(4); // g1..g5
        c.cx(0, 1); // g6
        c.cx(0, 2); // g7
        c.cx(1, 3); // g8
        c.cx(2, 4); // g9
        c
    }

    #[test]
    fn orders_are_valid_permutations() {
        for b in Benchmark::ALL {
            let c = b.generate(10);
            let dag = GateDag::new(&c);
            assert!(dag.is_valid_order(&greedy_order(&c)), "{b} greedy");
            assert!(
                dag.is_valid_order(&forward_looking_order(&c)),
                "{b} forward-looking"
            );
        }
    }

    #[test]
    fn figure8_forward_looking_delays_involvement() {
        // Paper Figure 8 walk-through on gs_5. Note: the paper reports
        // full involvement at step 9 for forward-looking, which cannot be
        // realized — every qubit's H precedes its CNOT, so the gate
        // executed at step 9 (a CNOT) cannot be the first to touch a
        // qubit. Step 8 is the true optimum, which both of our
        // deterministic passes reach (the paper's random tie-breaking
        // lands greedy at 7).
        let c = gs5();
        let orig = delay_to_full_involvement(&c, ReorderStrategy::Original);
        let greedy = delay_to_full_involvement(&c, ReorderStrategy::Greedy);
        let fl = delay_to_full_involvement(&c, ReorderStrategy::ForwardLooking);
        assert_eq!(orig, 5);
        assert!(greedy >= orig, "greedy {greedy} >= original {orig}");
        assert!(fl >= greedy, "forward-looking {fl} >= greedy {greedy}");
        assert_eq!(fl, 8, "forward-looking should delay to the last H");
    }

    #[test]
    fn figure8_involvement_trajectory() {
        // Expected optimal trajectory on gs_5: 1→2→2→3→3→4→4→5→5
        // (interleaving each CNOT right after its qubits' H gates).
        let c = ReorderStrategy::ForwardLooking.reorder(&gs5());
        let counts = involvement_counts(&c);
        assert_eq!(counts, vec![1, 2, 2, 3, 3, 4, 4, 5, 5]);
    }

    #[test]
    fn reorder_never_hurts_on_reorderable_circuits() {
        for b in [Benchmark::Gs, Benchmark::Hlf, Benchmark::Iqp] {
            let c = b.generate(12);
            let orig = delay_to_full_involvement(&c, ReorderStrategy::Original);
            let fl = delay_to_full_involvement(&c, ReorderStrategy::ForwardLooking);
            assert!(fl >= orig, "{b}: fl {fl} < original {orig}");
        }
    }

    #[test]
    fn qaoa_is_nearly_immune_to_reordering() {
        // Paper Figure 9: qaoa's dense dependencies leave reordering
        // almost nothing — full involvement stays in the first fraction of
        // the circuit even after the pass.
        let c = Benchmark::Qaoa.generate(12);
        let fl = delay_to_full_involvement(&c, ReorderStrategy::ForwardLooking);
        let total = c.len();
        assert!(
            (fl as f64) < 0.25 * total as f64,
            "qaoa still involves early after reordering: {fl} of {total}"
        );
    }

    #[test]
    fn reordered_gates_are_a_permutation() {
        let c = Benchmark::Hlf.generate(10);
        let r = ReorderStrategy::ForwardLooking.reorder(&c);
        let mut a: Vec<String> = c.iter().map(|op| op.to_string()).collect();
        let mut b: Vec<String> = r.iter().map(|op| op.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic() {
        let c = Benchmark::Gs.generate(14);
        assert_eq!(forward_looking_order(&c), forward_looking_order(&c));
        assert_eq!(greedy_order(&c), greedy_order(&c));
    }

    #[test]
    #[should_panic(expected = "dependency-violating")]
    fn apply_order_rejects_bad_permutations() {
        let c = gs5();
        let mut order: Vec<usize> = (0..c.len()).collect();
        order.swap(0, 5); // cx before its h
        let _ = apply_order(&c, &order);
    }

    #[test]
    fn empty_circuit_reorders_to_empty() {
        let c = Circuit::new(2);
        assert!(greedy_order(&c).is_empty());
        assert!(forward_looking_order(&c).is_empty());
    }
}
