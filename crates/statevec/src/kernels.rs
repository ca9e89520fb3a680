//! Low-level gate application kernels.
//!
//! Every kernel operates on a contiguous amplitude slice `amps` that
//! represents global indices `base .. base + amps.len()`. Passing the full
//! state vector with `base = 0` gives whole-vector semantics; passing a
//! chunk with its global base gives chunk-local semantics (diagonal gates
//! need the base to read qubit bits above the chunk boundary).
//!
//! Kernels for mixing gates require all referenced qubit positions to be
//! *local* (below `log2(amps.len())`); a mixing qubit above the chunk
//! boundary is served by the `*_halves` / `*_quarters` entry points, which
//! take the member chunks of a group as separate slices (the paper's
//! Case 2 handling, with no gather buffer).
//!
//! The loops are block-structured: qubit positions cut the slice into
//! aligned power-of-two blocks, index bits are resolved once per block,
//! and the innermost loop zips contiguous runs with fixed-size operands.
//! No kernel a gate can reach allocates. Per amplitude, every kernel
//! evaluates the same expressions in the same order as the per-index
//! loop in [`crate::reference`] — only the visit order differs — so
//! results agree with it bit for bit.
//!
//! Each body is compiled twice, portable and with AVX-512 F/VL, and the
//! entry points run the instantiation [`Kernels::detected`] picks once
//! per process. Rust never contracts `a * b + c` into a fused
//! multiply-add and never reassociates float arithmetic, so a wider
//! instruction set changes how many amplitudes one instruction covers,
//! not what is computed for any of them: the instantiations agree bit
//! for bit (up to the sign and payload of NaN results, which IEEE 754
//! leaves open).

use std::ops::Range;

use qgpu_circuit::access::GateAction;
use qgpu_circuit::Matrix;
use qgpu_math::Complex64;

/// Amplitudes per diagonal period: a qubit below it varies inside every
/// period, one at or above it is constant over a whole segment.
const PERIOD: usize = 16;

/// The kernel bodies compiled for one instruction set.
///
/// Every instantiation runs the same `#[inline(always)]` bodies, leaf
/// loops included, so they compute the same bits; the module's free
/// functions call [`Kernels::detected`]. Tests run each instantiation
/// against the per-index oracle.
pub struct Kernels {
    name: &'static str,
    diagonal: fn(&mut [Complex64], usize, &[usize], &[Complex64]),
    dense_1q: fn(&mut [Complex64], usize, usize, &M2),
    dense_2q: fn(&mut [Complex64], usize, usize, &M4),
    halves_1q: fn(&mut [Complex64], &mut [Complex64], usize, &M2),
    halves_2q: fn(&mut [Complex64], &mut [Complex64], usize, bool, &M4),
    quarters_2q: fn([&mut [Complex64]; 4], &M4),
}

/// Defines one function per kernel body in the enclosing module, each
/// carrying the given attributes (an instruction set's target features).
macro_rules! instantiate {
    ($(#[$isa:meta])*) => {
        use super::{Complex64, M2, M4};

        $(#[$isa])*
        pub(super) fn diagonal(amps: &mut [Complex64], base: usize, qubits: &[usize], dvec: &[Complex64]) {
            super::diagonal(amps, base, qubits, dvec)
        }

        $(#[$isa])*
        pub(super) fn dense_1q(amps: &mut [Complex64], cmask: usize, target: usize, m: &M2) {
            super::dense_1q(amps, cmask, target, m)
        }

        $(#[$isa])*
        pub(super) fn dense_2q(amps: &mut [Complex64], q0: usize, q1: usize, m: &M4) {
            super::dense_2q(amps, q0, q1, m)
        }

        $(#[$isa])*
        pub(super) fn halves_1q(lo: &mut [Complex64], hi: &mut [Complex64], cmask: usize, m: &M2) {
            super::halves_1q(lo, hi, cmask, m)
        }

        $(#[$isa])*
        pub(super) fn halves_2q(h0: &mut [Complex64], h1: &mut [Complex64], lbit: usize, low_first: bool, m: &M4) {
            super::halves_2q(h0, h1, lbit, low_first, m)
        }

        $(#[$isa])*
        pub(super) fn quarters_2q(quarters: [&mut [Complex64]; 4], m: &M4) {
            super::quarters_2q(quarters, m)
        }
    };
}

mod portable {
    instantiate!();
}

#[cfg(target_arch = "x86_64")]
mod wide {
    instantiate!(#[target_feature(enable = "avx512f,avx512vl")]);
}

static PORTABLE: Kernels = Kernels {
    name: "portable",
    diagonal: portable::diagonal,
    dense_1q: portable::dense_1q,
    dense_2q: portable::dense_2q,
    halves_1q: portable::halves_1q,
    halves_2q: portable::halves_2q,
    quarters_2q: portable::quarters_2q,
};

/// The dispatch table of the wide instantiation: every `unsafe` the
/// kernels have. [`Kernels::wide`] hands it out only after
/// [`qgpu_math::isa::wide`] detected AVX-512 F and VL — the features
/// every `wide::` function enables — on the running CPU.
#[cfg(target_arch = "x86_64")]
static WIDE: Kernels = Kernels {
    name: "avx512",
    // SAFETY: reached only through `Kernels::wide`, after detection.
    diagonal: |amps, base, qubits, dvec| unsafe { wide::diagonal(amps, base, qubits, dvec) },
    // SAFETY: reached only through `Kernels::wide`, after detection.
    dense_1q: |amps, cmask, target, m| unsafe { wide::dense_1q(amps, cmask, target, m) },
    // SAFETY: reached only through `Kernels::wide`, after detection.
    dense_2q: |amps, q0, q1, m| unsafe { wide::dense_2q(amps, q0, q1, m) },
    // SAFETY: reached only through `Kernels::wide`, after detection.
    halves_1q: |lo, hi, cmask, m| unsafe { wide::halves_1q(lo, hi, cmask, m) },
    // SAFETY: reached only through `Kernels::wide`, after detection.
    halves_2q: |h0, h1, lbit, first, m| unsafe { wide::halves_2q(h0, h1, lbit, first, m) },
    // SAFETY: reached only through `Kernels::wide`, after detection.
    quarters_2q: |quarters, m| unsafe { wide::quarters_2q(quarters, m) },
};

impl Kernels {
    /// The instantiation every CPU of the target runs.
    pub fn portable() -> &'static Kernels {
        &PORTABLE
    }

    /// The AVX-512 instantiation, when the running CPU has its features.
    pub fn wide() -> Option<&'static Kernels> {
        #[cfg(target_arch = "x86_64")]
        if qgpu_math::isa::wide() {
            return Some(&WIDE);
        }
        None
    }

    /// The widest instantiation the running CPU has.
    pub fn detected() -> &'static Kernels {
        Kernels::wide().unwrap_or(&PORTABLE)
    }

    /// `"portable"` or `"avx512"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// [`apply_diagonal`] through this instantiation.
    pub fn apply_diagonal(
        &self,
        amps: &mut [Complex64],
        base: usize,
        qubits: &[usize],
        dvec: &[Complex64],
    ) {
        assert_eq!(dvec.len(), 1 << qubits.len());
        (self.diagonal)(amps, base, qubits, dvec)
    }

    /// [`apply_1q_halves`] through this instantiation.
    pub fn apply_1q_halves(
        &self,
        lo: &mut [Complex64],
        hi: &mut [Complex64],
        cmask: usize,
        m: &Matrix,
    ) {
        check_halves(lo, hi, cmask);
        (self.halves_1q)(lo, hi, cmask, &m2(m))
    }

    /// [`apply_2q_quarters`] through this instantiation.
    pub fn apply_2q_quarters(&self, quarters: [&mut [Complex64]; 4], m: &Matrix) {
        assert!(
            quarters.iter().all(|q| q.len() == quarters[0].len()),
            "quarters must be equal slices"
        );
        (self.quarters_2q)(quarters, &m4(m))
    }

    /// [`apply_2q_halves`] through this instantiation.
    pub fn apply_2q_halves(
        &self,
        h0: &mut [Complex64],
        h1: &mut [Complex64],
        low: usize,
        low_first: bool,
        m: &Matrix,
    ) {
        check_halves(h0, h1, 1 << low);
        (self.halves_2q)(h0, h1, 1 << low, low_first, &m4(m))
    }

    /// [`apply_dense`] through this instantiation.
    pub fn apply_dense(&self, amps: &mut [Complex64], cmask: usize, mixing: &[usize], m: &Matrix) {
        assert_eq!(m.dim(), 1 << mixing.len(), "matrix dimension mismatch");
        assert!(amps.len().is_power_of_two());
        assert!(
            mixing.iter().all(|&q| 1usize << q < amps.len()),
            "every mixing target must be local"
        );
        assert!(cmask < amps.len(), "controls must be local");
        match *mixing {
            [target] => (self.dense_1q)(amps, cmask, target, &m2(m)),
            [q0, q1] if cmask == 0 => (self.dense_2q)(amps, q0, q1, &m4(m)),
            // Shapes no gate has (three or more mixing qubits, a controlled
            // two-qubit matrix) keep the per-index loop.
            _ => {
                let controls: Vec<usize> = (0..usize::BITS as usize)
                    .filter(|c| cmask >> c & 1 == 1)
                    .collect();
                crate::reference::apply_dense_per_index(amps, &controls, mixing, m);
            }
        }
    }

    /// [`apply_action`] through this instantiation.
    pub fn apply_action(&self, amps: &mut [Complex64], base: usize, action: &GateAction) {
        match action {
            GateAction::Diagonal { qubits, dvec } => self.apply_diagonal(amps, base, qubits, dvec),
            GateAction::ControlledDense {
                controls,
                mixing,
                matrix,
            } => {
                let local_bits = amps.len().trailing_zeros() as usize;
                let mut cmask = 0usize;
                for &c in controls {
                    if c < local_bits {
                        cmask |= 1 << c;
                    } else if (base >> c) & 1 == 0 {
                        return; // control bit is 0 for this whole slice
                    }
                }
                self.apply_dense(amps, cmask, mixing, matrix);
            }
        }
    }
}

/// The aligned runs of `0..len` whose indices have every `mask` bit set
/// (all of `0..len` for an empty mask), in ascending order. `len` must
/// be a power of two above `mask`.
#[inline(always)]
fn selected_runs(len: usize, mask: usize) -> impl Iterator<Item = Range<usize>> {
    let run = if mask == 0 {
        len
    } else {
        mask & mask.wrapping_neg()
    };
    // Counting with the fixed bits forced to 1 carries straight through
    // them: `x` visits exactly the indices that are 0 at every fixed bit.
    let fixed = mask | (run - 1);
    let mut x = 0;
    std::iter::from_fn(move || {
        (x < len).then(|| {
            let start = x | mask;
            x = ((x | fixed) + 1) & !fixed;
            start..start + run
        })
    })
}

/// Applies a diagonal action: `amps[off] *= dvec[s]` where `s` gathers the
/// bits of the *global* index `base + off` at `qubits`.
///
/// Works for any qubit positions, including those above the slice's local
/// range — that is exactly why diagonal gates never force chunk exchange —
/// and for any `base` and slice length. Indices that agree at every
/// listed qubit from 4 up share one run of factors that repeats every 16
/// amplitudes, so a slice whose base and length are multiples of 16 is
/// walked in segments as long as the lowest such qubit allows: one
/// factor per segment when no listed qubit lies below 4, else a table of
/// one period's 16 factors built once per segment. Other slices read the
/// index bits per amplitude.
///
/// # Panics
///
/// Panics if `dvec.len() != 2^qubits.len()`.
pub fn apply_diagonal(amps: &mut [Complex64], base: usize, qubits: &[usize], dvec: &[Complex64]) {
    Kernels::detected().apply_diagonal(amps, base, qubits, dvec)
}

#[inline(always)]
fn diagonal(amps: &mut [Complex64], base: usize, qubits: &[usize], dvec: &[Complex64]) {
    let index = |g: usize| {
        qubits
            .iter()
            .enumerate()
            .fold(0, |s, (bit, &q)| s | ((g >> q) & 1) << bit)
    };
    if !(base | amps.len()).is_multiple_of(PERIOD) {
        for (off, amp) in amps.iter_mut().enumerate() {
            *amp *= dvec[index(base + off)];
        }
        return;
    }
    let segment = qubits
        .iter()
        .filter(|&&q| 1 << q >= PERIOD)
        .min()
        .map_or(usize::MAX / 2 + 1, |&q| 1usize << q);
    // A segment starts at a multiple of the period, so its offsets' bits
    // are disjoint from its start's: `index(g + i) == index(g) | index(i)`.
    let within = qubits
        .iter()
        .any(|&q| 1 << q < PERIOD)
        .then(|| std::array::from_fn::<usize, PERIOD, _>(index));
    let (mut rest, mut g) = (amps, base);
    while !rest.is_empty() {
        let n = (segment - (g & (segment - 1))).min(rest.len());
        let (head, tail) = rest.split_at_mut(n);
        let s = index(g);
        match within {
            Some(within) => {
                // Whole `[Complex64; 4]` lines, so the wide instantiation
                // spends one vector per line: a loop over periods was
                // vectorized across periods, with gathers and scatters.
                let table: [[Complex64; 4]; PERIOD / 4] =
                    std::array::from_fn(|l| std::array::from_fn(|j| dvec[s | within[4 * l + j]]));
                for (i, line) in head.as_chunks_mut::<4>().0.iter_mut().enumerate() {
                    let factors = &table[i % (PERIOD / 4)];
                    *line = std::array::from_fn(|j| line[j] * factors[j]);
                }
            }
            None => {
                let d = dvec[s];
                for amp in head {
                    *amp *= d;
                }
            }
        }
        (rest, g) = (tail, g + n);
    }
}

/// A 2×2 operand, row-major.
type M2 = [Complex64; 4];
/// A 4×4 operand by rows, and — when every row is an exact `1+0i` among
/// exact `+0` entries, as in the `Swap` matrix — the column each row
/// selects.
struct M4 {
    rows: [[Complex64; 4]; 4],
    moves: Option<[usize; 4]>,
}

fn m2(m: &Matrix) -> M2 {
    let entries = m.as_slice().try_into();
    entries.expect("matrix dimension mismatch: a single-qubit kernel takes 2×2")
}

fn m4(m: &Matrix) -> M4 {
    assert_eq!(m.dim(), 4, "matrix dimension mismatch");
    let rows: [[Complex64; 4]; 4] =
        std::array::from_fn(|r| std::array::from_fn(|c| m.as_slice()[4 * r + c]));
    let is = |z: &Complex64, w: Complex64| {
        z.re.to_bits() == w.re.to_bits() && z.im.to_bits() == w.im.to_bits()
    };
    let selected = |row: &[Complex64; 4]| {
        let col = row.iter().position(|z| is(z, Complex64::ONE))?;
        let rest_zero = row
            .iter()
            .enumerate()
            .all(|(c, z)| c == col || is(z, Complex64::ZERO));
        rest_zero.then_some(col)
    };
    let moves = match rows.each_ref().map(selected) {
        [Some(c0), Some(c1), Some(c2), Some(c3)] => Some([c0, c1, c2, c3]),
        _ => None,
    };
    M4 { rows, moves }
}

#[inline(always)]
fn butterfly(m: &M2, a0: &mut Complex64, a1: &mut Complex64) {
    let (x, y) = (*a0, *a1);
    *a0 = m[0] * x + m[1] * y;
    *a1 = m[2] * x + m[3] * y;
}

/// Two half-slices must be a valid operand pair for in-slice `cmask`.
fn check_halves(lo: &[Complex64], hi: &[Complex64], cmask: usize) {
    assert!(
        lo.len() == hi.len() && lo.len().is_power_of_two(),
        "halves must be equal power-of-two slices"
    );
    assert!(cmask < lo.len(), "controls must be local");
}

/// Applies a single-qubit matrix whose target bit selects between two
/// equal slices — `lo` holds the amplitudes with the bit 0, `hi` those
/// with it 1, at the same in-slice offsets — restricted to offsets with
/// every `cmask` bit set. This is the whole single-qubit kernel: a local
/// target hands it the two halves of each block, a target above the
/// chunk boundary the two member chunks of a group.
///
/// # Panics
///
/// Panics if the matrix is not 2×2, the slices are not equal powers of
/// two, or `cmask` has a bit outside them.
pub fn apply_1q_halves(lo: &mut [Complex64], hi: &mut [Complex64], cmask: usize, m: &Matrix) {
    Kernels::detected().apply_1q_halves(lo, hi, cmask, m)
}

#[inline(always)]
fn zip_1q(lo: &mut [Complex64], hi: &mut [Complex64], m: &M2) {
    for (a0, a1) in lo.iter_mut().zip(hi) {
        butterfly(m, a0, a1);
    }
}

#[inline(always)]
fn halves_1q(lo: &mut [Complex64], hi: &mut [Complex64], cmask: usize, m: &M2) {
    for run in selected_runs(lo.len(), cmask) {
        zip_1q(&mut lo[run.clone()], &mut hi[run], m);
    }
}

#[inline(always)]
fn dense_1q(amps: &mut [Complex64], cmask: usize, target: usize, m: &M2) {
    let tbit = 1usize << target;
    let (below, above) = (cmask & (tbit - 1), cmask & !(2 * tbit - 1));
    for region in selected_runs(amps.len(), above) {
        let region = &mut amps[region];
        match tbit {
            // Blocks below a cache line: fixed-size scalar loops.
            1 => {
                for [a0, a1] in region.as_chunks_mut().0 {
                    butterfly(m, a0, a1);
                }
            }
            2 => {
                for [a0, b0, a1, b1] in region.as_chunks_mut().0 {
                    if below == 0 {
                        butterfly(m, a0, a1);
                    }
                    butterfly(m, b0, b1);
                }
            }
            _ => {
                for block in region.chunks_exact_mut(2 * tbit) {
                    let (lo, hi) = block.split_at_mut(tbit);
                    halves_1q(lo, hi, below, m);
                }
            }
        }
    }
}

/// Rewrites one amplitude group as `m · group`, each row a dot product
/// accumulated from zero in column order.
///
/// When `m` selects one column per row, that dot product is `+0·x` for
/// every column but one, and `1·x` there. With every component of the
/// group finite, each `+0·x` term adds a signed zero to an accumulator
/// that is never `-0.0` (it starts at `+0.0`), which leaves it as it
/// was; so the row is exactly the selected amplitude plus `+0.0` (which
/// turns `-0.0` into `0.0` and changes nothing else): a move. A
/// non-finite component makes `0·∞` a NaN, so such a group takes the
/// dot products.
#[inline(always)]
fn mix4(m: &M4, group: [&mut Complex64; 4]) {
    let g = [*group[0], *group[1], *group[2], *group[3]];
    if let Some(cols) = m.moves {
        if g.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            for (out, c) in group.into_iter().zip(cols) {
                *out = g[c] + Complex64::ZERO;
            }
            return;
        }
    }
    for (out, row) in group.into_iter().zip(&m.rows) {
        let mut acc = Complex64::ZERO;
        for (&w, &x) in row.iter().zip(&g) {
            acc = w.mul_add(x, acc);
        }
        *out = acc;
    }
}

/// Applies a two-qubit matrix whose mixing qubits *both* select the
/// slice: `quarters[s]` holds the amplitudes of matrix basis index `s`
/// (bit 0 ↔ the first mixing qubit) at the same offsets.
///
/// # Panics
///
/// Panics if the matrix is not 4×4 or the slices differ in length.
pub fn apply_2q_quarters(quarters: [&mut [Complex64]; 4], m: &Matrix) {
    Kernels::detected().apply_2q_quarters(quarters, m)
}

#[inline(always)]
fn quarters_2q(quarters: [&mut [Complex64]; 4], m: &M4) {
    let [s0, s1, s2, s3] = quarters;
    for (((a, b), c), d) in s0.iter_mut().zip(s1).zip(s2).zip(s3) {
        mix4(m, [a, b, c, d]);
    }
}

/// Applies a two-qubit matrix with one mixing qubit selecting between two
/// equal slices (`h0`: bit 0, `h1`: bit 1) and the other at in-slice
/// position `low`; `low_first` says the in-slice qubit is the matrix's
/// first (bit-0) qubit.
///
/// # Panics
///
/// Panics if the matrix is not 4×4, the slices are not equal powers of
/// two, or `low` is outside them.
pub fn apply_2q_halves(
    h0: &mut [Complex64],
    h1: &mut [Complex64],
    low: usize,
    low_first: bool,
    m: &Matrix,
) {
    Kernels::detected().apply_2q_halves(h0, h1, low, low_first, m)
}

/// A group's operands `[g(high, low)]` in matrix basis order (bit 0 ↔ the
/// matrix's first qubit).
fn basis_order<T>(low_first: bool, [g00, g01, g10, g11]: [T; 4]) -> [T; 4] {
    if low_first {
        [g00, g01, g10, g11]
    } else {
        [g00, g10, g01, g11]
    }
}

#[inline(always)]
fn halves_2q(h0: &mut [Complex64], h1: &mut [Complex64], lbit: usize, low_first: bool, m: &M4) {
    for (b0, b1) in h0
        .chunks_exact_mut(2 * lbit)
        .zip(h1.chunks_exact_mut(2 * lbit))
    {
        match (b0, b1) {
            // Blocks below a cache line: fixed-size scalar groups.
            ([a00, a01], [a10, a11]) => mix4(m, basis_order(low_first, [a00, a01, a10, a11])),
            ([a00, b00, a01, b01], [a10, b10, a11, b11]) => {
                mix4(m, basis_order(low_first, [a00, a01, a10, a11]));
                mix4(m, basis_order(low_first, [b00, b01, b10, b11]));
            }
            (b0, b1) => {
                let ((b00, b01), (b10, b11)) = (b0.split_at_mut(lbit), b1.split_at_mut(lbit));
                quarters_2q(basis_order(low_first, [b00, b01, b10, b11]), m);
            }
        }
    }
}

/// Applies a dense matrix over `mixing` local qubits (matrix bit order =
/// `mixing` order), restricted to indices where every bit of `cmask` —
/// the local control positions — is 1.
///
/// # Panics
///
/// Panics if the matrix dimension does not match `2^mixing.len()`, if
/// `amps.len()` is not a power of two, or if any qubit is not local to
/// the slice.
pub fn apply_dense(amps: &mut [Complex64], cmask: usize, mixing: &[usize], m: &Matrix) {
    Kernels::detected().apply_dense(amps, cmask, mixing, m)
}

#[inline(always)]
fn dense_2q(amps: &mut [Complex64], q0: usize, q1: usize, m: &M4) {
    let hbit = 1usize << q0.max(q1);
    for block in amps.chunks_exact_mut(2 * hbit) {
        let (h0, h1) = block.split_at_mut(hbit);
        halves_2q(h0, h1, 1 << q0.min(q1), q0 < q1, m);
    }
}

/// Applies a full [`GateAction`] to a slice with the given global base.
///
/// For mixing actions, every mixing qubit must be local to the slice
/// (the chunked layer guarantees this by grouping chunks); controls at
/// or above the slice's range are read off `base`.
///
/// # Panics
///
/// Panics if a mixing action references a non-local mixing qubit.
pub fn apply_action(amps: &mut [Complex64], base: usize, action: &GateAction) {
    Kernels::detected().apply_action(amps, base, action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::access::GateAction;
    use qgpu_circuit::{Gate, Operation};

    fn zero_state(n: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; 1 << n];
        v[0] = Complex64::ONE;
        v
    }

    fn action(g: Gate, qs: &[usize]) -> GateAction {
        GateAction::from_operation(&Operation::new(g, qs.to_vec()))
    }

    #[test]
    fn h_on_zero_gives_plus() {
        let mut amps = zero_state(1);
        apply_action(&mut amps, 0, &action(Gate::H, &[0]));
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!(amps[0].approx_eq(Complex64::from_real(h), 1e-12));
        assert!(amps[1].approx_eq(Complex64::from_real(h), 1e-12));
    }

    #[test]
    fn x_flips_basis_state() {
        let mut amps = zero_state(3);
        apply_action(&mut amps, 0, &action(Gate::X, &[1]));
        assert!(amps[0].is_zero());
        assert!(amps[2].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn cx_needs_control_set() {
        let mut amps = zero_state(2);
        apply_action(&mut amps, 0, &action(Gate::Cx, &[0, 1]));
        // |00> unchanged.
        assert!(amps[0].approx_eq(Complex64::ONE, 1e-12));
        // Now set control: X(0), then CX.
        apply_action(&mut amps, 0, &action(Gate::X, &[0]));
        apply_action(&mut amps, 0, &action(Gate::Cx, &[0, 1]));
        assert!(amps[3].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn diagonal_with_high_qubit_uses_base() {
        // A 2-qubit slice representing global indices 4..8 of a 3-qubit
        // state; Z on qubit 2 must negate everything (bit 2 of base is 1).
        let mut amps = vec![Complex64::ONE; 4];
        apply_action(&mut amps, 4, &action(Gate::Z, &[2]));
        for a in &amps {
            assert!(a.approx_eq(-Complex64::ONE, 1e-12));
        }
        // Base 0: bit 2 is 0 everywhere, so Z does nothing.
        let mut amps = vec![Complex64::ONE; 4];
        apply_action(&mut amps, 0, &action(Gate::Z, &[2]));
        for a in &amps {
            assert!(a.approx_eq(Complex64::ONE, 1e-12));
        }
    }

    #[test]
    fn high_control_selects_slice() {
        // CX with control qubit 2 on a slice with base 0 (control bit 0):
        // no-op. With base 4 (control bit 1): X on target.
        let act = action(Gate::Cx, &[2, 0]);
        let mut amps = zero_state(2);
        apply_action(&mut amps, 0, &act);
        assert!(amps[0].approx_eq(Complex64::ONE, 1e-12));
        let mut amps = zero_state(2);
        apply_action(&mut amps, 4, &act);
        assert!(amps[1].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut amps = zero_state(2);
        amps[1] = Complex64::new(0.6, 0.0); // |01>
        amps[0] = Complex64::new(0.8, 0.0);
        apply_action(&mut amps, 0, &action(Gate::Swap, &[0, 1]));
        assert!(amps[2].approx_eq(Complex64::new(0.6, 0.0), 1e-12)); // -> |10>
        assert!(amps[0].approx_eq(Complex64::new(0.8, 0.0), 1e-12));
    }

    #[test]
    fn dense_matches_composition_of_gates() {
        // swap = cx(a,b) cx(b,a) cx(a,b): verify the dense 2-qubit kernel
        // against three 1-qubit controlled kernels.
        let mut rng_state = 0x12345u64;
        let mut rnd = || {
            // xorshift
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) - 0.5
        };
        let mut a: Vec<Complex64> = (0..16).map(|_| Complex64::new(rnd(), rnd())).collect();
        let mut b = a.clone();
        apply_action(&mut a, 0, &action(Gate::Swap, &[1, 3]));
        apply_action(&mut b, 0, &action(Gate::Cx, &[1, 3]));
        apply_action(&mut b, 0, &action(Gate::Cx, &[3, 1]));
        apply_action(&mut b, 0, &action(Gate::Cx, &[1, 3]));
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
    }

    #[test]
    fn ccx_only_fires_with_both_controls() {
        let mut amps = zero_state(3);
        amps[0] = Complex64::ZERO;
        amps[0b011] = Complex64::ONE; // both controls set, target 0
        apply_action(&mut amps, 0, &action(Gate::Ccx, &[0, 1, 2]));
        assert!(amps[0b111].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn norm_preserved_by_unitaries() {
        let mut amps = zero_state(4);
        for (g, qs) in [
            (Gate::H, vec![0]),
            (Gate::Cx, vec![0, 1]),
            (Gate::Ry(0.77), vec![2]),
            (Gate::Cp(1.1), vec![1, 3]),
            (Gate::Ccx, vec![0, 1, 2]),
            (Gate::Swap, vec![2, 3]),
        ] {
            apply_action(&mut amps, 0, &action(g, &qs));
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target must be local")]
    fn mixing_high_qubit_panics() {
        let mut amps = zero_state(2);
        apply_action(&mut amps, 0, &action(Gate::H, &[5]));
    }
}
