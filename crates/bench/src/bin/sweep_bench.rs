//! Measures the sweep executor's thread scaling on the Figure-5
//! configuration: the same fault-tolerant sweep (`sweep_ft_on`, the
//! path `hbat sweep` and the figure binaries use) on 1 worker and on N,
//! each on a fresh trace cache so both pay the same trace builds.
//! Verifies the two results are bit-identical and records the
//! measurement in `results/BENCH_sweep.json`, with the trace bytes the
//! sweep keeps resident per simulated op.
//!
//! Run: `cargo run --release -p hbat-bench --bin sweep_bench [scale]`
//! (`HBAT_THREADS` overrides N).

use std::path::Path;

use hbat_bench::executor::{timed, worker_threads, JsonReport, TraceCache};
use hbat_bench::experiment::{
    scale_from_args, sweep_ft_on, ExperimentConfig, FtSweepResult, SweepOptions,
};
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::RunMetrics;
use hbat_workloads::Benchmark;

fn sweep_on(
    cfg: &ExperimentConfig,
    designs: &[DesignSpec],
    threads: usize,
    cache: &TraceCache,
) -> FtSweepResult {
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let r = sweep_ft_on(designs, cfg, &opts, cache).expect("a sweep without a journal does no I/O");
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    r
}

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let designs = DesignSpec::TABLE2;
    let threads = worker_threads();

    // An untimed warm-up sweep first: whichever timed run came first
    // would otherwise also pay the process's first-touch costs
    // (allocator growth, page faults), skewing the ratio by ~8%.
    eprintln!("warm-up sweep on {threads} threads...");
    sweep_on(&cfg, &designs, threads, &TraceCache::new());

    eprintln!(
        "1-thread sweep ({scale:?} scale, {} designs)...",
        designs.len()
    );
    let (serial, serial_wall) = timed(|| sweep_on(&cfg, &designs, 1, &TraceCache::new()));

    eprintln!("sweep on {threads} threads...");
    let cache = TraceCache::new();
    let (parallel, parallel_wall) = timed(|| sweep_on(&cfg, &designs, threads, &cache));

    // What the sweep keeps resident per simulated op: host-independent,
    // so it is the gated trace-memory figure.
    let ops: usize = Benchmark::ALL
        .iter()
        .map(|&b| cache.get_uops(b, &cfg.workload).len())
        .sum();
    let trace_bytes_per_op = cache.resident_bytes() as f64 / ops.max(1) as f64;

    // Both sweeps are complete, so cells line up index for index.
    let metrics = |r: &FtSweepResult| -> Vec<RunMetrics> {
        r.cells
            .iter()
            .flatten()
            .filter_map(|o| o.ok())
            .map(|c| c.metrics.clone())
            .collect()
    };
    assert!(
        metrics(&serial) == metrics(&parallel),
        "the {threads}-thread sweep diverged from the 1-thread sweep"
    );

    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    let t = &parallel.telemetry;
    println!(
        "fig5 sweep, {scale:?} scale: 1 thread {serial_wall:.2?}, {threads} threads \
         {parallel_wall:.2?} ({speedup:.2}x), results bit-identical"
    );
    println!("parallel breakdown: {}", t.summary());

    // A parallel sweep cannot beat the 1-thread one on a single hardware
    // core (or with a single worker) — a sub-1 "speedup" there measures
    // the host, not a regression. Record the core count, neutralise the
    // gated ratio, and say so, rather than freezing a 1-core artifact
    // into the perf baseline.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate = if host_cores <= 1 {
        "skipped-1-core"
    } else if threads <= 1 {
        "skipped-1-thread"
    } else {
        "active"
    };
    let gate_active = gate == "active";
    if !gate_active {
        eprintln!(
            "warning: {gate} - speedup {speedup:.2}x reflects the host, not the \
             executor; the frozen speedup gate is skipped"
        );
    }

    let mut report = JsonReport::new();
    report
        .str("benchmark", "fig5_sweep")
        .str("scale", &format!("{scale:?}").to_lowercase())
        .int("designs", designs.len() as u64)
        .int("cells", t.cells as u64)
        .int("threads", threads as u64)
        .int("host_cores", host_cores as u64)
        .str("speedup_gate", gate)
        .num("serial_ms", serial_wall.as_secs_f64() * 1e3)
        .num("parallel_ms", parallel_wall.as_secs_f64() * 1e3)
        .num("speedup", speedup)
        .num("gated_speedup", if gate_active { speedup } else { 1.0 })
        .num("trace_build_ms", t.trace_build.as_secs_f64() * 1e3)
        .num("trace_bytes_per_op", trace_bytes_per_op)
        .num("cell_exec_ms", t.cell_exec.as_secs_f64() * 1e3)
        .int("traces_built", t.traces_built)
        .int("trace_cache_hits", t.trace_cache_hits)
        .str("identical_to_serial", "true");
    let path = Path::new("results/BENCH_sweep.json");
    report.write(path).expect("write results/BENCH_sweep.json");
    println!("wrote {}", path.display());
}
