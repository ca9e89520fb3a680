//! The surface-census guard, shared by the test modules of `qgpu-sim`,
//! `qgpu-load` and `repro` (each includes this file with `#[path]`).
//!
//! DESIGN.md §15 has one row per option. A binary's entries are the
//! `` `<binary> <entry>` `` spans in the first column of its rows: a flag
//! (`qgpu-sim --threads`) or a `repro` experiment (`repro fig12`).

use std::collections::BTreeSet;

const DESIGN: &str = include_str!("../DESIGN.md");

/// The census entries DESIGN.md §15 lists for `bin`.
fn rows(bin: &str) -> BTreeSet<String> {
    let census = DESIGN
        .split("\n## ")
        .find(|s| s.starts_with("15. Surface census"))
        .expect("DESIGN.md has no '## 15. Surface census' section");
    let prefix = format!("{bin} ");
    census
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---"))
        .filter_map(|l| l.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .filter_map(|span| span.strip_prefix(&prefix))
        .map(str::to_string)
        .collect()
}

/// Panics unless `bin`'s census rows name exactly `entries`.
pub fn check<'a>(bin: &str, entries: impl IntoIterator<Item = &'a str>) {
    let live: BTreeSet<String> = entries.into_iter().map(str::to_string).collect();
    let listed = rows(bin);
    let missing: Vec<&String> = live.difference(&listed).collect();
    let stale: Vec<&String> = listed.difference(&live).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN.md §15 census for {bin}: no row for {missing:?}; rows for entries that do not exist: {stale:?}"
    );
}
