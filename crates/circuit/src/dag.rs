//! Gate dependency DAG.
//!
//! Two gates depend on each other when they share a qubit; independent
//! gates may be reordered freely without changing the circuit's semantics
//! (paper §IV-C). [`GateDag`] captures exactly that relation: node `i` is
//! operation `i` of the source circuit, and there is an edge `i -> j` when
//! `j` is the *next* operation touching one of `i`'s qubits.

use crate::circuit::Circuit;

/// Dependency DAG over the operations of a [`Circuit`].
///
/// # Examples
///
/// ```
/// use qgpu_circuit::{Circuit, dag::GateDag};
///
/// let mut c = Circuit::new(2);
/// c.h(0).h(1).cx(0, 1);
/// let dag = GateDag::new(&c);
/// assert_eq!(dag.roots(), vec![0, 1]);           // both H gates are roots
/// assert_eq!(dag.predecessor_count(2), 2);       // cx waits on both
/// ```
#[derive(Debug, Clone)]
pub struct GateDag {
    successors: Vec<Vec<usize>>,
    predecessor_counts: Vec<usize>,
}

impl GateDag {
    /// Builds the dependency DAG of `circuit`.
    ///
    /// Edges connect each operation to the next operation on each of its
    /// qubits (duplicate edges between the same pair are collapsed).
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut predecessor_counts = vec![0usize; n];
        // Last operation index seen on each qubit.
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits()];

        for (i, op) in circuit.iter().enumerate() {
            for &q in op.qubits() {
                if let Some(prev) = last_on_qubit[q] {
                    if !successors[prev].contains(&i) {
                        successors[prev].push(i);
                        predecessor_counts[i] += 1;
                    }
                }
                last_on_qubit[q] = Some(i);
            }
        }
        GateDag {
            successors,
            predecessor_counts,
        }
    }

    /// Number of nodes (operations).
    pub fn len(&self) -> usize {
        self.successors.len()
    }

    /// Returns `true` if the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.successors.is_empty()
    }

    /// Direct successors of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.successors[i]
    }

    /// Number of direct predecessors of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn predecessor_count(&self, i: usize) -> usize {
        self.predecessor_counts[i]
    }

    /// A copy of all predecessor counts — the working state consumed by
    /// topological traversals (Algorithms 2 and 3 of the paper mutate
    /// these counts as gates are scheduled).
    pub fn predecessor_counts(&self) -> Vec<usize> {
        self.predecessor_counts.clone()
    }

    /// Nodes with no predecessors, in source order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.predecessor_counts[i] == 0)
            .collect()
    }

    /// Checks that `order` is a permutation of `0..len` respecting all
    /// dependency edges.
    ///
    /// Reordering passes use this to validate their output; the paper's
    /// correctness argument ("reordering does not affect the simulation
    /// results since we do not violate dependencies") is enforced here.
    pub fn is_valid_order(&self, order: &[usize]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut position = vec![usize::MAX; self.len()];
        for (pos, &node) in order.iter().enumerate() {
            if node >= self.len() || position[node] != usize::MAX {
                return false;
            }
            position[node] = pos;
        }
        for (i, succs) in self.successors.iter().enumerate() {
            for &s in succs {
                if position[i] >= position[s] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        // gs_5-like shape from the paper's Figure 8.
        let mut c = Circuit::new(5);
        c.h(0).h(1).h(2).h(3).h(4); // g1..g5
        c.cx(0, 1); // g6
        c.cx(0, 2); // g7
        c.cx(1, 3); // g8
        c.cx(2, 4); // g9
        c
    }

    #[test]
    fn roots_are_initial_h_layer() {
        let dag = GateDag::new(&sample());
        assert_eq!(dag.roots(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cnot_waits_on_both_h() {
        let dag = GateDag::new(&sample());
        assert_eq!(dag.predecessor_count(5), 2); // cx(0,1) after h(0), h(1)
    }

    #[test]
    fn chained_cnots_depend() {
        let dag = GateDag::new(&sample());
        // g7 = cx(0,2) comes after g6 = cx(0,1) via q0 and h(2) via q2.
        assert_eq!(dag.predecessor_count(6), 2);
        assert!(dag.successors(5).contains(&6));
    }

    #[test]
    fn source_order_is_topological() {
        let c = sample();
        let dag = GateDag::new(&c);
        let identity: Vec<usize> = (0..c.len()).collect();
        assert!(dag.is_valid_order(&identity));
    }

    #[test]
    fn invalid_orders_rejected() {
        let dag = GateDag::new(&sample());
        // Wrong length.
        assert!(!dag.is_valid_order(&[0, 1]));
        // Duplicate node.
        assert!(!dag.is_valid_order(&[0, 0, 1, 2, 3, 4, 5, 6, 7]));
        // Dependency violated: cx(0,1) before h(0).
        assert!(!dag.is_valid_order(&[5, 0, 1, 2, 3, 4, 6, 7, 8]));
    }

    #[test]
    fn duplicate_edges_collapse() {
        // Two consecutive 2-qubit gates on the same qubits share both
        // qubits; the edge must be counted once.
        let mut c = Circuit::new(2);
        c.cz(0, 1).cz(0, 1);
        let dag = GateDag::new(&c);
        assert_eq!(dag.predecessor_count(1), 1);
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn empty_dag() {
        let c = Circuit::new(1);
        let dag = GateDag::new(&c);
        assert!(dag.is_empty());
        assert!(dag.roots().is_empty());
    }
}
