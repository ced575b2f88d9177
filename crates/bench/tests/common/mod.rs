//! The frozen golden oracle shared by the sweep suites: the `RunMetrics`
//! digest of every Table-2 design × program cell at `Scale::Test`, for
//! the out-of-order baseline (`ooo`) and for in-order issue (`inorder`),
//! in `tests/data/golden_cells.tsv`.
//!
//! The digest is `fnv1a_hex(format!("{metrics:?}{windows:?}"))`, the
//! formula the benchmark driver in `perfbench/` pins its golden files
//! with. Re-bless only for an intended metrics change that EXPERIMENTS.md
//! explains: `HBAT_BLESS_GOLDEN=1 cargo test --release -p hbat-bench --test golden`.

#![allow(dead_code)] // each test crate uses a different subset

use std::collections::BTreeMap;

use hbat_bench::experiment::{ExperimentConfig, FtSweepResult};
use hbat_bench::journal::fnv1a_hex;
use hbat_workloads::Scale;

/// `(mode, program, design mnemonic)` → the row's remaining fields.
pub type Table = BTreeMap<(String, String, String), Vec<String>>;

/// The golden configurations, by the mode name their rows carry.
pub const MODES: [&str; 2] = ["ooo", "inorder"];

/// The experiment a mode's rows were taken at (design seed 1996).
pub fn config(mode: &str) -> ExperimentConfig {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    if mode == "inorder" {
        cfg.with_inorder()
    } else {
        cfg
    }
}

/// One row per completed cell of `r`, a sweep in `mode`: its digest.
pub fn cell_rows(r: &FtSweepResult, mode: &str) -> Table {
    r.cells
        .iter()
        .flatten()
        .filter_map(|o| o.ok())
        .map(|c| {
            let key = (
                mode.to_owned(),
                c.bench.name().to_owned(),
                c.design.mnemonic().to_owned(),
            );
            (
                key,
                vec![fnv1a_hex(&format!("{:?}{:?}", c.metrics, c.windows))],
            )
        })
        .collect()
}

/// Parses a golden table: tab-separated rows keyed by their first three
/// fields; `#` lines are comments.
pub fn parse(text: &str) -> Table {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<String> = l.split('\t').map(str::to_owned).collect();
            assert!(f.len() >= 4, "malformed golden row: {l:?}");
            ((f[0].clone(), f[1].clone(), f[2].clone()), f[3..].to_vec())
        })
        .collect()
}

/// The golden cell digests.
pub fn golden_cells() -> Table {
    parse(include_str!("../data/golden_cells.tsv"))
}

/// Checks every completed cell of `r` (a sweep in `mode`) against its
/// golden digest; returns how many cells were checked.
pub fn assert_matches_golden(r: &FtSweepResult, mode: &str, tag: &str) -> usize {
    let golden = golden_cells();
    let rows = cell_rows(r, mode);
    for (key, digest) in &rows {
        assert_eq!(
            Some(digest),
            golden.get(key),
            "{tag}: {key:?} diverged from its golden digest"
        );
    }
    rows.len()
}
