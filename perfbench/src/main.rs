//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <fig5-full|fig5-sampled|fig7-campaign> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the Table-2 sweep in fresh child processes, one sweep each,
//! until `--seconds` have passed, checks every cell, and prints one JSON
//! object as the last line of standard output. With `--trace 0` it
//! reports the end-to-end metrics (medians over the children); with
//! `--trace 1` it alternates untraced children with traced ones and
//! reports the per-layer metrics. README.md in this directory lists
//! every metric.
//!
//! Internal modes, used by the parent process (and to refresh the
//! golden digests):
//!
//! ```text
//! perfbench child <untraced|traced|reference> --workload <w> --seed <n> --dir <d>
//! perfbench golden --workload <w> --dir <d>
//! ```

mod span;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use workload::{CellReport, Workload, CELLS};

/// End-to-end metrics (untraced run), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ns_per_op", "ns"),
    ("peak_rss_mb", "MiB"),
    ("paper_ipc_err_pct", "%"),
];

/// Per-layer metrics (traced run), with units.
const PER_LAYER: [(&str, &str); 50] = [
    ("workloads.build_s", "s"),
    ("isa.exec_s", "s"),
    ("isa.exec_ns_per_inst", "ns"),
    ("isa.insts", "count"),
    ("isa.predecode_s", "s"),
    ("isa.predecode_ns_per_op", "ns"),
    ("isa.trace_mb", "MB"),
    ("cpu.engine_s", "s"),
    ("cpu.engine_ns_per_op", "ns"),
    ("cpu.engine_ns_per_cycle", "ns"),
    ("cpu.sim_cycles", "count"),
    ("cpu.committed", "count"),
    ("cpu.issued_per_committed", "ratio"),
    ("cpu.warm_gap_s", "s"),
    ("cpu.warm_gap_ns_per_op", "ns"),
    ("cpu.warm_state_s", "s"),
    ("cpu.window_s", "s"),
    ("cpu.windows", "count"),
    ("cpu.detail_frac", "fraction"),
    ("core.design_build_s", "s"),
    ("core.design_builds", "count"),
    ("core.translate_ns", "ns"),
    ("core.tlb_accesses", "count"),
    ("core.tlb_misses", "count"),
    ("core.translation_retries", "count"),
    ("mem.access_ns", "ns"),
    ("mem.dcache_accesses", "count"),
    ("mem.dcache_misses", "count"),
    ("mem.icache_misses", "count"),
    ("obs.cell_s", "s"),
    ("obs.overhead_frac", "fraction"),
    ("obs.render_s", "s"),
    ("ckpt.ff_s", "s"),
    ("ckpt.save_s", "s"),
    ("ckpt.snapshots", "count"),
    ("ckpt.mb_written", "MB"),
    ("bench.journal_append_s", "s"),
    ("bench.sidecar_mb", "MB"),
    ("bench.worker_busy_frac", "fraction"),
    ("bench.harness_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("trace_overhead_frac", "fraction"),
    ("disk_mb", "MB"),
    ("sample_ipc_err_pct", "%"),
    ("sample_ci_cover_frac", "fraction"),
    ("failed_frac", "fraction"),
    ("bench.children", "count"),
    ("bench.traced_children", "count"),
    ("bench.threads", "count"),
];

/// Fewest untraced / traced children per run, whatever `--seconds` says.
const MIN_UNTRACED: usize = 3;
const MIN_TRACED: usize = 2;
/// Stop starting children after this long, to finish well inside the
/// 180 s a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);
/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);
/// Scratch space for journals, snapshots and span files, relative to the
/// directory the benchmark runs in.
const RUN_DIR: &str = ".perfbench_run";

/// Worker threads: at most two, so results compare across hosts.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

struct Args {
    /// Positional words: empty for the parent process, `child <mode>` or
    /// `golden`.
    mode: Vec<String>,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode: Vec::new(),
        workload: Workload::Fig5Full,
        seed: workload::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        dir: PathBuf::from(RUN_DIR),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--dir" => out.dir = PathBuf::from(value()?),
            m if !m.starts_with("--") => out.mode.push(m.to_owned()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

/// One child's parsed report.
#[derive(Default)]
struct ChildOut {
    metrics: BTreeMap<String, f64>,
    cells: Vec<CellReport>,
    refs: Vec<f64>,
    error: Option<String>,
}

fn parse_child(stdout: &str) -> ChildOut {
    let mut out = ChildOut::default();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        match f.as_slice() {
            ["metric" | "layer", k, v] => {
                if let Ok(v) = v.parse() {
                    out.metrics.insert((*k).to_owned(), v);
                }
            }
            ["cell", rest @ ..] => match CellReport::parse(rest) {
                Some(c) => out.cells.push(c),
                None => out.error = Some(format!("bad cell line {line:?}")),
            },
            ["ref", v] => out.refs.push(v.parse().unwrap_or(f64::NAN)),
            _ => {}
        }
    }
    out
}

/// Runs one child process in a fresh, empty directory and parses its
/// report. The directory is removed afterwards.
fn run_child(mode: &str, w: Workload, seed: u64, dir: &Path) -> ChildOut {
    let fail = |e: String| ChildOut {
        error: Some(e),
        ..ChildOut::default()
    };
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        return fail(format!("cannot create {}: {e}", dir.display()));
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(e.to_string()),
    };
    let spawned = Command::new(exe)
        .args(["child", mode, "--workload", w.name(), "--seed"])
        .arg(seed.to_string())
        .arg("--dir")
        .arg(dir)
        .env("HBAT_THREADS", threads().to_string())
        .env("HBAT_HEARTBEAT", "0")
        .env_remove("HBAT_FAULT_PLAN")
        .env_remove("HBAT_PROF")
        .env_remove("HBAT_CELL_TIMEOUT")
        .env_remove("HBAT_CELL_RETRIES")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => return fail(format!("cannot start child: {e}")),
    };
    let mut pipe = child.stdout.take();
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        if let Some(p) = pipe.as_mut() {
            let _ = p.read_to_string(&mut s);
        }
        s
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("child timed out".to_owned());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(e.to_string()),
        }
    };
    let stdout = reader.join().unwrap_or_default();
    let _ = std::fs::remove_dir_all(dir);
    match status {
        Ok(s) if s.success() => parse_child(&stdout),
        Ok(s) => fail(format!("child {mode} exited with {s}")),
        Err(e) => fail(e),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn values(children: &[ChildOut], key: &str) -> Vec<f64> {
    children
        .iter()
        .filter_map(|c| c.metrics.get(key).copied())
        .collect()
}

fn median_of(children: &[ChildOut], key: &str) -> f64 {
    median(values(children, key))
}

fn max_of(children: &[ChildOut], key: &str) -> f64 {
    values(children, key).into_iter().fold(0.0, f64::max)
}

/// Counts failed cells over every child: a cell fails if its child
/// failed, if it failed a check, or if its digest differs from the first
/// complete child's (every run of the same seed must agree bit for bit,
/// traced or not).
fn failed_cells(children: &[&ChildOut]) -> (u64, Vec<String>) {
    let reference = children
        .iter()
        .find(|c| c.error.is_none() && c.cells.len() == CELLS)
        .map(|c| c.cells.iter().map(|r| r.digest.clone()).collect::<Vec<_>>());
    let mut failed = 0u64;
    let mut why = Vec::new();
    for c in children {
        if let Some(e) = &c.error {
            failed += CELLS as u64;
            why.push(e.clone());
            continue;
        }
        if c.cells.len() != CELLS {
            failed += CELLS as u64;
            why.push(format!("child reported {} cells", c.cells.len()));
            continue;
        }
        for (i, r) in c.cells.iter().enumerate() {
            let mismatch = reference
                .as_ref()
                .is_some_and(|d| d.get(i) != Some(&r.digest));
            if let Some(f) = &r.failure {
                failed += 1;
                why.push(format!("cell {i}: {f}"));
            } else if mismatch {
                failed += 1;
                why.push(format!("cell {i}: digest differs between runs"));
            }
        }
    }
    (failed, why)
}

/// The parent process: runs children for `seconds`, aggregates, checks
/// and prints the result line.
fn orchestrate(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let run_dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let dir = run_dir.join(format!("{}-{}", w.name(), std::process::id()));
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        untraced.push(run_child("untraced", w, a.seed, &dir));
        if a.trace {
            traced.push(run_child("traced", w, a.seed, &dir));
        }
        let enough = if a.trace {
            traced.len() >= MIN_TRACED
        } else {
            untraced.len() >= MIN_UNTRACED
        };
        if (start.elapsed() >= budget && enough) || start.elapsed() >= HARD_STOP {
            break;
        }
    }
    let reference =
        (a.trace && w.sample().is_some()).then(|| run_child("reference", w, a.seed, &dir));

    let all: Vec<&ChildOut> = untraced.iter().chain(&traced).collect();
    let attempted = ((all.len() + usize::from(reference.is_some())) * CELLS) as u64;
    let (mut failed, mut why) = failed_cells(&all);

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if a.trace {
        let untraced_wall = median_of(&untraced, "wall_s");
        let traced_wall = median_of(&traced, "bench.traced_wall_s");
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (k, _) in PER_LAYER {
            layer.insert(k, median_of(&traced, k));
        }
        layer.insert("bench.untraced_wall_s", untraced_wall);
        layer.insert(
            "trace_overhead_frac",
            traced_wall / untraced_wall.max(1e-12) - 1.0,
        );
        layer.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
        layer.insert("bench.children", untraced.len() as f64);
        layer.insert("bench.traced_children", traced.len() as f64);
        layer.insert("bench.threads", threads() as f64);
        let (mut err, mut cover) = (0.0, 0.0);
        if let Some(r) = &reference {
            let sampled = untraced.iter().find(|c| c.cells.len() == CELLS);
            match (sampled, &r.error) {
                (Some(s), None) if r.refs.len() == CELLS => {
                    for (c, &full) in s.cells.iter().zip(&r.refs) {
                        err += (c.ipc - full).abs() / full * 100.0 / CELLS as f64;
                        cover += f64::from(u8::from(c.lo <= full && full <= c.hi)) / CELLS as f64;
                    }
                }
                _ => {
                    failed += CELLS as u64;
                    why.push(format!(
                        "reference run failed: {}",
                        r.error.as_deref().unwrap_or("incomplete")
                    ));
                }
            }
        }
        layer.insert("sample_ipc_err_pct", err);
        layer.insert("sample_ci_cover_frac", cover);
        for (k, unit) in PER_LAYER {
            metrics.push((k, unit, layer.get(k).copied().unwrap_or(0.0)));
        }
    } else {
        for (k, unit) in END_TO_END {
            // The highest peak any child reached: a sweep's peak RSS is
            // bimodal (it depends on which worker's allocations the
            // allocator keeps), so a median flips between the two modes
            // from run to run.
            let v = if k == "peak_rss_mb" {
                max_of(&untraced, k)
            } else {
                median_of(&untraced, k)
            };
            metrics.push((k, unit, v));
        }
    }
    if let Some(bad) = metrics.iter().find(|m| !m.2.is_finite()) {
        failed += 1;
        why.push(format!("metric {} is not finite", bad.0));
    }
    for line in why.iter().take(20) {
        eprintln!("perfbench: {line}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    eprintln!(
        "perfbench: {} seed {}: {} untraced + {} traced children in {:.1} s",
        w.name(),
        a.seed,
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

fn child(mode: &str, a: &Args, t0: Instant) -> Result<String, String> {
    let w = a.workload;
    match mode {
        "untraced" => workload::run_untraced(w, a.seed, &a.dir, threads(), t0),
        "traced" => {
            let spans = PathBuf::from(RUN_DIR).join(format!("spans-{}.jsonl", w.name()));
            traced::run_traced(w, a.seed, &a.dir, threads(), &spans)
        }
        "reference" => workload::run_reference(w, a.seed, threads()),
        other => Err(format!("unknown child mode {other}")),
    }
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|a| match a.mode.as_slice() {
        [] => orchestrate(&a),
        [c, m] if c == "child" => child(m, &a, t0),
        [g] if g == "golden" => {
            let dir = a.dir.join(format!("golden-{}", a.workload.name()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let out = workload::golden_lines(a.workload, &dir, threads());
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        other => Err(format!("unknown mode {}", other.join(" "))),
    });
    match result {
        Ok(out) => {
            println!("{}", out.trim_end());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn children(vals: &[f64]) -> Vec<ChildOut> {
        vals.iter()
            .map(|&v| ChildOut {
                metrics: BTreeMap::from([("x".to_owned(), v)]),
                ..ChildOut::default()
            })
            .collect()
    }

    #[test]
    fn medians_and_maxima() {
        assert_eq!(median_of(&children(&[3.0, 1.0, 2.0]), "x"), 2.0);
        assert_eq!(median_of(&children(&[4.0, 1.0, 2.0, 3.0]), "x"), 2.5);
        let bimodal = children(&[31.0, 36.0, 31.2, 36.1, 31.1, 35.9, 31.3]);
        assert_eq!(max_of(&bimodal, "x"), 36.1);
        assert_eq!(max_of(&children(&[]), "x"), 0.0);
    }

    #[test]
    fn digests_that_differ_between_children_count_as_failed() {
        let child = |digest: &str| ChildOut {
            cells: (0..CELLS)
                .map(|_| CellReport {
                    digest: digest.to_owned(),
                    ipc: 1.0,
                    lo: 1.0,
                    hi: 1.0,
                    failure: None,
                })
                .collect(),
            ..ChildOut::default()
        };
        let (a, b) = (child("aa"), child("bb"));
        assert_eq!(failed_cells(&[&a, &a]).0, 0);
        assert_eq!(failed_cells(&[&a, &b]).0, CELLS as u64);
        let broken = ChildOut {
            error: Some("exited with 1".to_owned()),
            ..ChildOut::default()
        };
        assert_eq!(failed_cells(&[&a, &broken]).0, CELLS as u64);
    }
}
