//! Experiment drivers: one module per table/figure of the paper's
//! evaluation.
//!
//! Every module exposes a `run(...)` returning one or more [`Table`]s with
//! the same rows/series the paper plots. The `repro` binary
//! (`qgpu-bench`) invokes these and prints them; integration tests run
//! them at small sizes.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig2`] | Baseline execution time breakdown |
//! | [`fig3_4`] | Naive normalized time + breakdown |
//! | [`fig6`] | Timeline of each optimization |
//! | [`fig7`] | hchain_10 amplitude distribution |
//! | [`tab2`] | Ops before full involvement (34 qubits) |
//! | [`fig8`] | gs_5 reordering walk-through |
//! | [`fig9`] | Involvement under three gate orders |
//! | [`fig10`] | Residual distributions (compressibility) |
//! | [`fig12`] | Normalized execution time, all versions |
//! | [`fig13`] | Normalized data transfer time |
//! | [`fig14`] | Compression/decompression overheads |
//! | [`fig15`] | Roofline analysis |
//! | [`fig16`] | Comparison with Qsim-Cirq and QDK |
//! | [`fig17`] | V100 and A100 platforms |
//! | [`fig19`] | Multi-GPU platforms |
//! | [`tab3`] | Deep circuits |

pub mod ablations;
pub mod ext_batching;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig19;
pub mod fig2;
pub mod fig3_4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod tab2;
pub mod tab3;

use std::fmt;

use serde::{Deserialize, Serialize};

/// A rendered experiment result: a titled table of strings.
///
/// # Examples
///
/// ```
/// use qgpu::experiments::Table;
///
/// let mut t = Table::new("demo", ["a", "b"]);
/// t.row(["1", "2"]);
/// let s = t.to_string();
/// assert!(s.contains("demo"));
/// assert!(s.contains("| 1"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Table title (the paper artifact it reproduces).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(title: &str, headers: I) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Cell accessor (for tests).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Serializes the table as a JSON object
    /// `{"title": …, "headers": […], "rows": [[…]]}` — hand-rolled so the
    /// workspace needs no JSON dependency; cells are plain strings.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out
        }
        fn arr(items: &[String]) -> String {
            let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("[{}]", cells.join(","))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"title\":\"{}\",\"headers\":{},\"rows\":[{}]}}",
            esc(&self.title),
            arr(&self.headers),
            rows.join(",")
        )
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells.iter()) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        render_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

/// Runs `f` over `items` on one thread per item (experiments fan out over
/// the nine benchmark circuits; each simulation is single-threaded and
/// independent). Results keep the input order.
///
/// # Panics
///
/// Propagates panics from `f`.
pub(crate) fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("experiment worker panicked"))
            .collect()
    })
}

/// Formats a float with 2 decimals (experiment cell helper).
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with 1 decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Figure X", ["circuit", "time"]);
        t.row(["qft", "1.23"]);
        t.row(["iqp", "0.77"]);
        let s = t.to_string();
        assert!(s.starts_with("## Figure X"));
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("| qft"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", ["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn json_output_escapes_and_structures() {
        let mut t = Table::new("Figure \"X\"", ["a", "b"]);
        t.row(["1\n2", "back\\slash"]);
        let j = t.to_json();
        assert!(j.starts_with("{\"title\":\"Figure \\\"X\\\"\""));
        assert!(j.contains("\"headers\":[\"a\",\"b\"]"));
        assert!(j.contains("1\\n2"));
        assert!(j.contains("back\\\\slash"));
        assert!(j.ends_with("}"));
    }

    #[test]
    fn helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50.0%");
    }
}
