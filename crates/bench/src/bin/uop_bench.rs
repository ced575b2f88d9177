//! Times the predecoded micro-op engine — the simulator's one engine
//! input — on every Table-2 design, checks its metrics against the
//! frozen golden digests, and records the measurement in
//! `results/BENCH_uop.json`.
//!
//! The correctness gate replays Compress at `Scale::Test` on all 13
//! designs and compares each cell's digest with its row in
//! `crates/bench/tests/data/golden_cells.tsv` (the oracle the `golden`
//! test suite checks); the timing runs at the requested scale.
//!
//! Run: `cargo run --release -p hbat-bench --bin uop_bench [scale]`

use std::path::Path;

use hbat_bench::executor::{timed, JsonReport};
use hbat_bench::experiment::{run_cell, scale_from_args, uops_for, ExperimentConfig};
use hbat_bench::journal::fnv1a_hex;
use hbat_bench::perfdb::read_report;
use hbat_core::designs::spec::DesignSpec;
use hbat_isa::uop::PredecodedTrace;
use hbat_obs::{IntervalRecord, NullRecorder};
use hbat_workloads::{Benchmark, Scale};

/// The frozen pre-predecode engine time for this cell (M8, Compress,
/// small scale), read back from `results/BENCH_obs.json` so the report
/// can state the speedup against the recorded baseline rather than a
/// number re-measured on whatever the current host happens to be.
/// (`null_ms` itself became a uop-path measurement when obs_bench moved
/// to the predecoded engine; the pre-rewrite figure is carried forward
/// under `prepredecode_null_ms`.)
fn frozen_baseline_ms() -> Option<f64> {
    let report = read_report(Path::new("results/BENCH_obs.json")).ok()?;
    report.get("prepredecode_null_ms")?.as_f64()
}

/// The golden out-of-order digest of `bench` on `design` at test scale.
fn golden_digest(bench: Benchmark, design: DesignSpec) -> Option<&'static str> {
    include_str!("../../tests/data/golden_cells.tsv")
        .lines()
        .find_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let hit =
                f.len() == 4 && f[0] == "ooo" && f[1] == bench.name() && f[2] == design.mnemonic();
            hit.then_some(f[3])
        })
}

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let bench = Benchmark::Compress;
    let designs = DesignSpec::TABLE2;
    let trace = bench.build(&cfg.workload).trace();
    let (uops, predecode) = timed(|| PredecodedTrace::predecode(&trace));
    let reps = 5u32;

    // Correctness first: the engine must reproduce the frozen digests.
    let test_cfg = ExperimentConfig::baseline(Scale::Test);
    let test_uops = uops_for(bench, &test_cfg);
    for design in designs {
        let m = run_cell(&test_uops, None, design, &test_cfg, NullRecorder);
        // A full detailed run has no sampled windows.
        let windows: &[IntervalRecord] = &[];
        let got = fnv1a_hex(&format!("{m:?}{windows:?}"));
        assert_eq!(
            Some(got.as_str()),
            golden_digest(bench, design),
            "{bench}/{} diverged from its golden digest",
            design.mnemonic()
        );
    }

    let mut report = JsonReport::new();
    report
        .str("benchmark", "uop_engine")
        .str("scale", &format!("{scale:?}").to_lowercase())
        .str("workload", bench.name())
        .int("designs", designs.len() as u64)
        .int("instructions", trace.len() as u64)
        .int("reps", u64::from(reps))
        .num("predecode_ms", predecode.as_secs_f64() * 1e3);

    let mut uop_total = 0.0f64;
    for design in designs {
        // One warm-up run, then `reps` timed ones.
        run_cell(&uops, None, design, &cfg, NullRecorder);
        let mut uop_s = 0.0f64;
        for _ in 0..reps {
            let (_, d) = timed(|| run_cell(&uops, None, design, &cfg, NullRecorder));
            uop_s += d.as_secs_f64();
        }
        let uop_ms = uop_s * 1e3 / f64::from(reps);
        uop_total += uop_ms;
        println!("{:>4}: {uop_ms:8.3} ms", design.mnemonic());
        report.num(&format!("uop_ms_{}", design.mnemonic()), uop_ms);
        // The frozen BENCH_obs.json baseline timed exactly this cell
        // (M8 / Compress / small) on the pre-predecode engine; record
        // the like-for-like speedup against it.
        if design.mnemonic() == "M8" && scale == Scale::Small {
            if let Some(base) = frozen_baseline_ms() {
                report
                    .num("baseline_obs_ms", base)
                    .num("speedup_vs_obs_baseline", base / uop_ms.max(1e-9));
                println!(
                    "  M8 vs frozen BENCH_obs.json engine baseline: \
                     {base:.1} ms -> {uop_ms:.1} ms ({:.2}x)",
                    base / uop_ms.max(1e-9)
                );
            }
        }
    }

    println!(
        "uop engine, {scale:?} scale, {bench} x {} designs: {uop_total:.1} ms, \
         test-scale metrics match the golden digests",
        designs.len()
    );

    report
        .num("uop_ms", uop_total)
        .bool("identical_metrics", true);
    let path = Path::new("results/BENCH_uop.json");
    report.write(path).expect("write results/BENCH_uop.json");
    println!("wrote {}", path.display());
}
