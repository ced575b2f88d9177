//! The golden oracle: every Table-2 cell at `Scale::Test`, out-of-order
//! and in-order, must reproduce its frozen `RunMetrics` digest — an
//! oracle that shares no code path with the engine, unlike checks that
//! compare one engine input against another.
//!
//! The observed sweep arm is pinned too, for a design spread (ideal TLB
//! I4, multi-level M8, pretranslation P8): its metrics keep their golden
//! digests, and its `TraceRecorder` reports the frozen issue-cycle
//! count, issued-op count and stall attribution for every program
//! (`tests/data/golden_obs.tsv`). See `common/mod.rs` for re-blessing.

mod common;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::{assert_matches_golden, cell_rows, config, parse, Table, MODES};
use hbat_bench::executor::TraceCache;
use hbat_bench::experiment::{obs_sidecar_path, sweep_ft_on, FtSweepResult, SweepOptions};
use hbat_core::designs::spec::DesignSpec;

fn blessing() -> bool {
    std::env::var_os("HBAT_BLESS_GOLDEN").is_some()
}

/// A complete 2-thread sweep in `mode`, observed when given a journal.
fn sweep(designs: &[DesignSpec], mode: &str, journal: Option<PathBuf>) -> FtSweepResult {
    let opts = SweepOptions {
        threads: 2,
        observe: journal.is_some(),
        journal,
        ..SweepOptions::default()
    };
    let r = sweep_ft_on(designs, &config(mode), &opts, &TraceCache::new()).expect("journal I/O");
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    r
}

/// Checks `got` row for row against the golden table `golden` (the
/// contents of `tests/data/{file}`), or rewrites that file when blessing.
fn check_or_bless(file: &str, golden: &str, header: &str, got: &Table) {
    if blessing() {
        let mut out = format!("{header}\n");
        for ((mode, program, design), v) in got {
            let _ = writeln!(out, "{mode}\t{program}\t{design}\t{}", v.join("\t"));
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/data")
            .join(file);
        std::fs::write(path, out).expect("write golden table");
        return;
    }
    let golden = parse(golden);
    for (key, want) in &golden {
        assert_eq!(got.get(key), Some(want), "{file}: {key:?} diverged");
    }
    assert_eq!(got.len(), golden.len(), "{file}: row count");
}

/// The raw JSON value of `"key":` in one flat-ish sidecar line: a
/// string without its quotes, a number, or a one-level object.
fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).expect("key present") + pat.len()..];
    match rest.as_bytes()[0] {
        b'"' => &rest[1..=rest[1..].find('"').expect("closed string")],
        b'{' => &rest[..=rest.find('}').expect("closed object")],
        _ => &rest[..rest.find([',', '}']).expect("terminated number")],
    }
}

#[test]
fn every_table2_cell_matches_its_golden_digest() {
    let mut got = Table::new();
    for mode in MODES {
        got.extend(cell_rows(&sweep(&DesignSpec::TABLE2, mode, None), mode));
    }
    assert_eq!(got.len(), 2 * 130);
    check_or_bless(
        "golden_cells.tsv",
        include_str!("data/golden_cells.tsv"),
        "# mode\tprogram\tdesign\tdigest",
        &got,
    );
}

/// The out-of-order rows are the benchmark driver's `fig5-full` golden
/// file, row for row: the two oracles cannot drift apart silently.
#[test]
fn out_of_order_rows_equal_the_benchmark_golden() {
    let ours: Vec<String> = parse(include_str!("data/golden_cells.tsv"))
        .into_iter()
        .filter(|((mode, _, _), _)| mode == "ooo")
        .map(|((_, program, design), d)| format!("{program}\t{design}\t{}", d[0]))
        .collect();
    let mut bench: Vec<String> = include_str!("../../../perfbench/data/golden/fig5-full.tsv")
        .lines()
        .map(str::to_owned)
        .collect();
    bench.sort();
    assert_eq!(bench.len(), 130);
    assert_eq!(ours, bench);
}

/// The observed arm (`TraceRecorder`, sleep/wake off) leaves the metrics
/// on their golden digests and attributes cycles exactly as frozen.
#[test]
fn observed_cells_match_golden_metrics_and_stall_attribution() {
    let designs = ["I4", "M8", "P8"].map(|m| DesignSpec::parse(m).unwrap());
    let mut got = Table::new();
    for mode in MODES {
        let dir = std::env::temp_dir().join(format!("hbat-golden-{mode}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal = dir.join("observed.journal");
        let r = sweep(&designs, mode, Some(journal.clone()));
        if !blessing() {
            assert_eq!(assert_matches_golden(&r, mode, "observed"), 30);
        }
        let sidecar = std::fs::read_to_string(obs_sidecar_path(&journal)).expect("obs sidecar");
        for line in sidecar.lines() {
            let design = DesignSpec::TABLE2
                .into_iter()
                .find(|d| format!("{d:?}") == json_field(line, "design"))
                .expect("a Table-2 design");
            let key = (
                mode.to_owned(),
                json_field(line, "bench").to_owned(),
                design.mnemonic().to_owned(),
            );
            let value = ["issue_cycles", "issued_ops", "stalls"]
                .map(|k| json_field(line, k).to_owned())
                .to_vec();
            assert!(got.insert(key, value).is_none(), "duplicate sidecar row");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(got.len(), 2 * 30);
    check_or_bless(
        "golden_obs.tsv",
        include_str!("data/golden_obs.tsv"),
        "# mode\tprogram\tdesign\tissue_cycles\tissued_ops\tstalls",
        &got,
    );
}
