//! Measures SMARTS-style sampled simulation against the full detailed
//! run on the reference cell (Compress × M8), verifies the sampled
//! estimate lands within tolerance of the full-run IPC, checks
//! determinism, and records the measurement in
//! `results/BENCH_sample.json`.
//!
//! Run: `cargo run --release -p hbat-bench --bin sample_bench [scale]`
//!
//! The perf gate (`hbat perfdb check`) bounds the noise-robust ratio
//! metrics of this report: `speedup` (full wall-clock over sampled
//! wall-clock — dominated by the detailed-work fraction, not the host),
//! `rel_ipc_error`, and the `deterministic` verdict.

use std::path::Path;

use hbat_bench::executor::{timed, JsonReport};
use hbat_bench::experiment::{run_cell, scale_from_args, ExperimentConfig};
use hbat_bench::sample::{ipc_interval, run_sampled_uops, SamplePlan};
use hbat_core::designs::spec::DesignSpec;
use hbat_isa::uop::PredecodedTrace;
use hbat_obs::NullRecorder;
use hbat_stats::ConfLevel;
use hbat_workloads::Benchmark;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let bench = Benchmark::Compress;
    let design = DesignSpec::parse("M8").unwrap();
    // ~5% of the trace measured at small scale: 25 windows of 1000
    // committed micro-ops each, 250 warm micro-ops ahead of every
    // window. Functional warming covers the gaps.
    let plan = SamplePlan::parse("25:1000:250", 1996).unwrap();
    let reps = 5u32;

    let trace = bench.build(&cfg.workload).trace();
    let uops = PredecodedTrace::predecode(&trace);

    // Warm both paths once (page in the trace, JIT the branch history),
    // then time alternating pairs so drift hits both sides equally.
    let full_warm = run_cell(uops.ops(), None, design, &cfg, NullRecorder);
    let sampled_warm = run_sampled_uops(uops.ops(), design, &cfg, None, &plan);

    let mut full_s = 0.0f64;
    let mut sampled_s = 0.0f64;
    for _ in 0..reps {
        let (_, d) = timed(|| run_cell(uops.ops(), None, design, &cfg, NullRecorder));
        full_s += d.as_secs_f64();
        let (_, d) = timed(|| run_sampled_uops(uops.ops(), design, &cfg, None, &plan));
        sampled_s += d.as_secs_f64();
    }
    let full_ms = full_s * 1e3 / f64::from(reps);
    let sampled_ms = sampled_s * 1e3 / f64::from(reps);
    let speedup = full_ms / sampled_ms.max(1e-9);

    let full_ipc = full_warm.ipc();
    let ci = ipc_interval(&sampled_warm.windows, ConfLevel::P95);
    let rel_ipc_error = (ci.mean - full_ipc).abs() / full_ipc.max(1e-9);
    let measured: u64 = sampled_warm.windows.iter().map(|w| w.committed).sum();
    let measured_frac = measured as f64 / uops.ops().len() as f64;

    // Determinism: a second sampled run must reproduce every window and
    // counter bit-for-bit.
    let again = run_sampled_uops(uops.ops(), design, &cfg, None, &plan);
    let deterministic =
        again.windows == sampled_warm.windows && again.metrics == sampled_warm.metrics;
    assert!(deterministic, "sampled run is not deterministic");

    println!(
        "sample engine, {scale:?} scale, {bench} x {}: full {full_ms:.1} ms, \
         sampled {sampled_ms:.1} ms ({speedup:.2}x), plan {}",
        design.mnemonic(),
        plan.render()
    );
    println!(
        "  IPC: full {full_ipc:.4}, sampled {} ({:.2}% error, CI {}cover), \
         {:.1}% of {} micro-ops measured",
        ci.render(4),
        rel_ipc_error * 100.0,
        if ci.covers(full_ipc) { "" } else { "no " },
        measured_frac * 100.0,
        uops.ops().len()
    );

    let mut report = JsonReport::new();
    report
        .str("benchmark", "sample_engine")
        .str("scale", &format!("{scale:?}").to_lowercase())
        .str("workload", bench.name())
        .str("design", design.mnemonic())
        .str("plan", &plan.render())
        .int("instructions", trace.len() as u64)
        .int("micro_ops", uops.ops().len() as u64)
        .int("windows", sampled_warm.windows.len() as u64)
        .int("reps", u64::from(reps))
        .num("full_ms", full_ms)
        .num("sampled_ms", sampled_ms)
        .num("speedup", speedup)
        .num("full_ipc", full_ipc)
        .num("sampled_ipc", ci.mean)
        .num("sampled_ci_half_width", ci.half_width)
        .num("rel_ipc_error", rel_ipc_error)
        .num("measured_frac", measured_frac)
        .bool("ci_covers_full", ci.covers(full_ipc))
        .bool("deterministic", deterministic);
    let path = Path::new("results/BENCH_sample.json");
    report.write(path).expect("write results/BENCH_sample.json");
    println!("wrote {}", path.display());
}
