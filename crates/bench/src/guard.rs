//! The one runner of the overhead guards (`benches/*_overhead.rs`).
//!
//! A guard holds a feature's contract "pay only for what you enable":
//! the feature armed at zero injected faults against the plain run. It
//! supplies only `run(size, armed) -> seconds`, which also asserts the
//! guard's fault-free invariants; [`Guard::main`] does the rest.
//!
//! - `cargo bench` (cargo passes `--bench`): one warm-up pair, so
//!   first-touch allocation and thread spawn land outside the samples,
//!   then [`ROUNDS`] paired rounds at [`Guard::size`]. Each round runs
//!   both sides back to back, alternating which goes first so monotone
//!   drift cancels instead of crediting one side, and yields one
//!   armed/plain ratio. The **median ratio** must stay under
//!   `1 + budget`. Wall clock on a shared host swings by more than 10 %
//!   between rounds, but the swing hits both sides of a pair alike:
//!   pairing is what makes a 3 % assert stable where per-side medians
//!   are not.
//! - anything else (`cargo test --benches`): one run of each side at
//!   [`Guard::smoke`], so the guard's assertions run without timing.
//!
//! A positional argument filters: the guard runs only if its label
//! contains it.

/// Paired A/B rounds under `cargo bench`.
pub const ROUNDS: usize = 5;

/// One overhead guard: its label, sizes and budget.
pub struct Guard {
    /// The bench target and its circuit, e.g. `fault_overhead/qft`.
    pub label: &'static str,
    /// Width of the smoke run.
    pub smoke: usize,
    /// Width of the measured rounds.
    pub size: usize,
    /// Largest tolerated armed/plain slowdown (fractional).
    pub budget: f64,
}

impl Guard {
    /// Runs the guard as the bench binary's `main`: smoke or measure per
    /// the command line, and asserts the budget when measuring.
    ///
    /// # Panics
    ///
    /// When the median armed/plain ratio exceeds the budget, or `run`
    /// panics.
    pub fn main(&self, mut run: impl FnMut(usize, bool) -> f64) {
        let mut measure = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if arg == "--bench" {
                measure = true;
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        let label = self.label;
        if filter.is_some_and(|f| !label.contains(&f)) {
            return;
        }
        if !measure {
            run(self.smoke, false);
            run(self.smoke, true);
            println!("{:<40} ok (smoke run)", format!("{label}_{}", self.smoke));
            return;
        }

        let size = self.size;
        run(size, false);
        run(size, true);
        let mut ratios: Vec<f64> = (0..ROUNDS)
            .map(|round| {
                if round % 2 == 0 {
                    let plain = run(size, false);
                    run(size, true) / plain
                } else {
                    let armed = run(size, true);
                    armed / run(size, false)
                }
            })
            .collect();
        let overhead = median(&mut ratios) - 1.0;
        println!(
            "{label}_{size}: median armed/plain ratio over {ROUNDS} paired rounds, \
             overhead {:.2}%",
            overhead * 100.0
        );
        assert!(
            overhead < self.budget,
            "{label}_{size}: arming costs {:.2}% (> {:.0}% budget)",
            overhead * 100.0,
            self.budget * 100.0
        );
    }
}

/// The median of `samples` (the upper one of an even count).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    samples[samples.len() / 2]
}
