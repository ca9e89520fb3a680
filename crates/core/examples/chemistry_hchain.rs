//! Quantum-chemistry workload: the paper's `hchain` benchmark (a linear
//! hydrogen chain) run under every execution version.
//!
//! Demonstrates the paper's finding that deep, dependency-heavy chemistry
//! circuits benefit from overlap and pruning but see little from
//! reordering — and that every version produces the identical state.
//!
//! ```text
//! cargo run --release -p qgpu --example chemistry_hchain
//! ```

use qgpu::{SimConfig, Simulator, Version};
use qgpu_circuit::generators::hydrogen_chain;
use qgpu_statevec::StateVector;

fn main() {
    let n = 14;
    let circuit = hydrogen_chain(n, 4);
    println!(
        "hchain_{n}: {} operations, depth {}",
        circuit.len(),
        circuit.depth()
    );

    // Reference state from the plain simulator.
    let mut reference = StateVector::new_zero(n);
    reference.run(&circuit);

    println!(
        "\n{:<10} {:>12} {:>12} {:>14}",
        "version", "time (ms)", "vs baseline", "state deviation"
    );
    let mut baseline_time = None;
    for v in Version::ALL {
        let result = Simulator::new(SimConfig::scaled_paper(n).with_version(v)).run(&circuit);
        let t = result.report.total_time * 1e3;
        let base = *baseline_time.get_or_insert(t);
        let dev = result
            .state
            .expect("state collected")
            .max_deviation(&reference);
        println!(
            "{:<10} {:>12.3} {:>11.2}x {:>14.2e}",
            v.label(),
            t,
            base / t,
            dev
        );
    }

    // Per-site occupation ⟨n_i⟩ of the final state.
    let mut occupations = Vec::new();
    for q in 0..n {
        occupations.push(qgpu_statevec::measure::prob_one(&reference, q));
    }
    println!("\nsite occupations ⟨n_i⟩:");
    for (site, occ) in occupations.iter().enumerate() {
        let bar = "#".repeat((occ * 40.0) as usize);
        println!("  site {site:2}: {occ:.3} {bar}");
    }
}
