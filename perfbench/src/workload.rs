//! The three benchmark workloads, the untraced run that measures the
//! end-to-end metrics, and the correctness checks every run applies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hbat_bench::ckpt::CheckpointOptions;
use hbat_bench::executor::{RunPolicy, TraceCache};
use hbat_bench::experiment::{
    iv_sidecar_path, obs_sidecar_path, sweep_ft, CellResult, ExperimentConfig, FtSweepResult,
    SweepOptions,
};
use hbat_bench::faults::FaultPlan;
use hbat_bench::journal::fnv1a_hex;
use hbat_bench::outcome::CellOutcome;
use hbat_bench::sample::{ipc_interval, plan_windows, SamplePlan};
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::RunMetrics;
use hbat_obs::IntervalRecord;
use hbat_stats::ci::ConfLevel;
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

/// The workload seed the golden digests were taken at
/// (`WorkloadConfig::new`'s default).
pub const DEFAULT_SEED: u64 = 0x5EED_1996;

/// Design replacement seed, fixed: the benchmark seed only varies the
/// programs' input data.
const DESIGN_SEED: u64 = 1996;

/// `fig7-campaign`: fast-forward boundary and snapshot interval
/// (instructions), and the interval-telemetry window (cycles).
const FF_BOUNDARY: u64 = 2000;
const FF_INTERVAL: u64 = 500;
const IV_WIDTH: u64 = 4096;

/// `fig5-sampled`: 25 windows of 1000 measured ops, 250 warmup ops each.
const SAMPLE_PLAN: SamplePlan = SamplePlan {
    n_windows: 25,
    window_len: 1000,
    warmup_len: 250,
    seed: DESIGN_SEED,
};

/// Cells per run: the 13 Table-2 designs × the 10 programs.
pub const CELLS: usize = 130;

/// One benchmark workload: a full Table-2 sweep in one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Full,
    Fig5Sampled,
    Fig7Campaign,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Full,
        Workload::Fig5Sampled,
        Workload::Fig7Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Full => "fig5-full",
            Workload::Fig5Sampled => "fig5-sampled",
            Workload::Fig7Campaign => "fig7-campaign",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                format!("unknown workload `{s}` (fig5-full, fig5-sampled, fig7-campaign)")
            })
    }

    fn scale(self) -> Scale {
        match self {
            Workload::Fig5Sampled => Scale::Small,
            Workload::Fig5Full | Workload::Fig7Campaign => Scale::Test,
        }
    }

    /// The experiment configuration; `seed` goes only into the workload
    /// build (`WorkloadConfig::seed`).
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::baseline(self.scale());
        if self == Workload::Fig7Campaign {
            cfg = cfg.with_inorder();
        }
        cfg.workload = WorkloadConfig {
            seed,
            ..WorkloadConfig::new(self.scale())
        };
        cfg.design_seed = DESIGN_SEED;
        cfg
    }

    pub fn sample(self) -> Option<SamplePlan> {
        (self == Workload::Fig5Sampled).then_some(SAMPLE_PLAN)
    }

    pub fn campaign(self) -> bool {
        self == Workload::Fig7Campaign
    }

    /// `(boundary, interval)` of the checkpointed fast-forward.
    pub fn ff(self) -> Option<(u64, u64)> {
        self.campaign().then_some((FF_BOUNDARY, FF_INTERVAL))
    }

    pub fn iv_width(self) -> Option<u64> {
        self.campaign().then_some(IV_WIDTH)
    }

    /// The sweep options `hbat sweep` would build for this workload:
    /// journal, sidecars and snapshots (if any) all live under `dir`,
    /// which must be fresh and empty.
    pub fn sweep_options(self, dir: &Path, threads: usize) -> SweepOptions {
        SweepOptions {
            threads,
            policy: quiet_policy(),
            faults: FaultPlan::none(),
            journal: self.campaign().then(|| journal_path(dir)),
            resume: false,
            observe: self.campaign(),
            intervals: self.iv_width(),
            checkpoint: self.ff().map(|(boundary, interval)| CheckpointOptions {
                dir: ckpt_dir(dir),
                interval,
                boundary,
            }),
            sample: self.sample(),
        }
    }

    fn golden(self) -> &'static str {
        match self {
            Workload::Fig5Full => include_str!("../data/golden/fig5-full.tsv"),
            Workload::Fig5Sampled => include_str!("../data/golden/fig5-sampled.tsv"),
            Workload::Fig7Campaign => include_str!("../data/golden/fig7-campaign.tsv"),
        }
    }
}

/// No retries, no deadline, no heartbeat: a failed cell stays failed.
pub fn quiet_policy() -> RunPolicy {
    RunPolicy {
        retries: 0,
        timeout: None,
        heartbeat: Some(Duration::ZERO),
    }
}

pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("sweep.journal")
}

pub fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join("ckpt")
}

/// Bytes under `path` (a file or a directory tree); 0 if absent.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|rd| rd.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Sidecar bytes (obs + interval) next to the journal in `dir`.
pub fn sidecar_bytes(dir: &Path) -> u64 {
    let j = journal_path(dir);
    disk_bytes(&obs_sidecar_path(&j)) + disk_bytes(&iv_sidecar_path(&j))
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bit-exact identity of one cell's result.
fn digest(metrics: &RunMetrics, windows: &[IntervalRecord]) -> String {
    fnv1a_hex(&format!("{metrics:?}{windows:?}"))
}

/// Committed instructions of one program run to completion, counted by
/// streaming the functional executor (nothing is materialised).
fn program_len(bench: Benchmark, cfg: &ExperimentConfig) -> u64 {
    let w = bench.build(&cfg.workload);
    let mut m = w.instantiate();
    m.run(w.max_steps, |_| {})
}

/// What each cell's timed input holds: the whole program, or its tail
/// past the fast-forward boundary.
fn timed_len(w: Workload, total: u64) -> u64 {
    match w.ff() {
        Some((boundary, _)) => total - total.min(boundary),
        None => total,
    }
}

/// One checked cell, as a child process reports it.
#[derive(Debug, Clone)]
pub struct CellReport {
    pub digest: String,
    /// IPC as the sweep reports it: the window-mean estimate for sampled
    /// cells, committed / cycles otherwise.
    pub ipc: f64,
    /// 95% CI bounds (sampled cells; equal to `ipc` otherwise).
    pub lo: f64,
    pub hi: f64,
    /// Why the cell failed, if it did.
    pub failure: Option<String>,
}

impl CellReport {
    pub fn render(&self) -> String {
        format!(
            "{} {} {} {} {}",
            self.digest,
            self.ipc,
            self.lo,
            self.hi,
            self.failure.as_deref().unwrap_or("-").replace(' ', "_")
        )
    }

    pub fn parse(fields: &[&str]) -> Option<CellReport> {
        let [digest, ipc, lo, hi, failure] = fields else {
            return None;
        };
        Some(CellReport {
            digest: (*digest).to_owned(),
            ipc: ipc.parse().ok()?,
            lo: lo.parse().ok()?,
            hi: hi.parse().ok()?,
            failure: (*failure != "-").then(|| (*failure).to_owned()),
        })
    }
}

/// Golden digests for the default seed, keyed by (program, design).
fn golden(w: Workload) -> BTreeMap<(String, String), String> {
    w.golden()
        .lines()
        .filter_map(|l| {
            let mut it = l.split('\t');
            Some((
                (it.next()?.to_owned(), it.next()?.to_owned()),
                it.next()?.to_owned(),
            ))
        })
        .collect()
}

/// Checks one cell for any seed (outcome, committed count, window plan,
/// IPC range) and, at the default seed, against its golden digest.
fn check_cell(
    w: Workload,
    seed: u64,
    golden: &BTreeMap<(String, String), String>,
    outcome: Option<&CellResult>,
    timed_len: u64,
    width: usize,
) -> CellReport {
    let Some(cell) = outcome else {
        return CellReport {
            digest: "none".to_owned(),
            ipc: 0.0,
            lo: 0.0,
            hi: 0.0,
            failure: Some("cell did not complete".to_owned()),
        };
    };
    let d = digest(&cell.metrics, &cell.windows);
    let (ipc, lo, hi) = match w.sample() {
        Some(_) => {
            let ci = ipc_interval(&cell.windows, ConfLevel::P95);
            (ci.mean, ci.lo(), ci.hi())
        }
        None => {
            let ipc = cell.metrics.ipc();
            (ipc, ipc, ipc)
        }
    };
    let mut failure = None;
    match w.sample() {
        Some(plan) => {
            let planned = plan_windows(&plan, timed_len);
            if planned.len() != cell.windows.len() {
                failure = Some(format!(
                    "{} windows, plan has {}",
                    cell.windows.len(),
                    planned.len()
                ));
            } else if let Some((p, got)) = planned
                .iter()
                .zip(&cell.windows)
                .find(|(p, got)| got.committed != p.end - p.meas_start)
            {
                failure = Some(format!(
                    "window at {} committed {}, planned {}",
                    p.meas_start,
                    got.committed,
                    p.end - p.meas_start
                ));
            }
        }
        None => {
            if cell.metrics.committed != timed_len {
                failure = Some(format!(
                    "committed {} of a {timed_len}-op trace",
                    cell.metrics.committed
                ));
            }
        }
    }
    if failure.is_none() && !(ipc > 0.0 && ipc <= width as f64) {
        failure = Some(format!("IPC {ipc} outside (0, {width}]"));
    }
    if failure.is_none() && seed == DEFAULT_SEED {
        let key = (
            cell.bench.name().to_owned(),
            cell.design.mnemonic().to_owned(),
        );
        match golden.get(&key) {
            Some(g) if *g == d => {}
            Some(g) => failure = Some(format!("digest {d} differs from golden {g}")),
            None => failure = Some("no golden digest".to_owned()),
        }
    }
    CellReport {
        digest: d,
        ipc,
        lo,
        hi,
        failure,
    }
}

/// Timed input length per program for `w` (after the sweep has built
/// the traces, so the cache lookups are hits).
fn timed_lens(w: Workload, cfg: &ExperimentConfig) -> Vec<u64> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            if w.campaign() {
                timed_len(w, program_len(b, cfg))
            } else {
                TraceCache::global()
                    .get_or_build_uops(b, &cfg.workload)
                    .1
                    .len() as u64
            }
        })
        .collect()
}

/// Checks every cell of a sweep result; returns the reports in
/// row-major (program, design) order.
pub fn check_sweep(
    w: Workload,
    seed: u64,
    cfg: &ExperimentConfig,
    r: &FtSweepResult,
    lens: &[u64],
) -> Vec<CellReport> {
    let golden = golden(w);
    let mut out = Vec::with_capacity(CELLS);
    for (bi, &len) in lens.iter().enumerate() {
        for di in 0..r.designs.len() {
            let cell = r.cells.get(bi).and_then(|row| row.get(di));
            let cell = cell.and_then(CellOutcome::ok);
            out.push(check_cell(w, seed, &golden, cell, len, cfg.sim.width));
        }
    }
    out
}

/// The paper's Table-3 IPC column (T4, out-of-order baseline), in
/// `Benchmark::ALL` order.
fn paper_ipc() -> Vec<f64> {
    include_str!("../data/paper_ipc.tsv")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split('\t').nth(1)?.parse().ok())
        .collect()
}

/// Mean relative error (%) of each program's T4 IPC against the paper.
fn paper_ipc_err_pct(reports: &[CellReport]) -> f64 {
    let designs = DesignSpec::TABLE2.len();
    let t4 = DesignSpec::TABLE2
        .iter()
        .position(|d| *d == DesignSpec::MultiPorted { ports: 4 })
        .unwrap_or(0);
    let paper = paper_ipc();
    let errs: Vec<f64> = paper
        .iter()
        .enumerate()
        .filter_map(|(bi, &p)| {
            let ours = reports.get(bi * designs + t4)?.ipc;
            Some((ours - p).abs() / p * 100.0)
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// The tables `hbat sweep` prints for this result.
pub fn render(w: Workload, r: &FtSweepResult) -> String {
    if w.sample().is_some() {
        r.render_sample_figure("design sweep (sampled)") + &r.render_sample_details()
    } else {
        r.render_figure("design sweep") + &r.render_details()
    }
}

/// The untraced run: one sweep through `sweep_ft`, exactly as
/// `hbat sweep` drives it, timed from process start to rendered result.
/// Returns the report lines for the parent process.
pub fn run_untraced(
    w: Workload,
    seed: u64,
    dir: &Path,
    threads: usize,
    t0: Instant,
) -> Result<String, String> {
    let cfg = w.config(seed);
    let opts = w.sweep_options(dir, threads);
    let sweep_start = t0.elapsed();
    let r = sweep_ft(&DesignSpec::TABLE2, &cfg, &opts).map_err(|e| e.to_string())?;
    std::hint::black_box(render(w, &r));
    let wall = t0.elapsed();
    let peak = peak_rss_mb();

    let lens = timed_lens(w, &cfg);
    let reports = check_sweep(w, seed, &cfg, &r, &lens);
    let ops_cells: u64 = lens.iter().sum::<u64>() * r.designs.len() as u64;
    let disk = disk_bytes(&journal_path(dir)) + sidecar_bytes(dir) + disk_bytes(&ckpt_dir(dir));

    let mut out = String::new();
    let setup = sweep_start + r.telemetry.trace_build;
    let metric = |out: &mut String, k: &str, v: f64| {
        let _ = writeln!(out, "metric {k} {v}");
    };
    metric(&mut out, "wall_s", wall.as_secs_f64());
    metric(&mut out, "setup_s", setup.as_secs_f64());
    metric(
        &mut out,
        "ns_per_op",
        r.telemetry.cell_exec.as_secs_f64() * 1e9 / ops_cells.max(1) as f64,
    );
    metric(&mut out, "peak_rss_mb", peak);
    metric(&mut out, "paper_ipc_err_pct", paper_ipc_err_pct(&reports));
    metric(&mut out, "disk_mb", disk as f64 / 1e6);
    for rep in &reports {
        let _ = writeln!(out, "cell {}", rep.render());
    }
    Ok(out)
}

/// Full detailed IPC of every cell at `w`'s configuration, without
/// sampling: the reference the sampled estimates are judged against.
pub fn run_reference(w: Workload, seed: u64, threads: usize) -> Result<String, String> {
    let cfg = w.config(seed);
    let opts = SweepOptions {
        threads,
        policy: quiet_policy(),
        ..SweepOptions::default()
    };
    let r = sweep_ft(&DesignSpec::TABLE2, &cfg, &opts).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for row in &r.cells {
        for c in row {
            let ipc = c.ok().map_or(f64::NAN, |c| c.metrics.ipc());
            let _ = writeln!(out, "ref {ipc}");
        }
    }
    Ok(out)
}

/// Golden digest lines for the default seed: `program<TAB>design<TAB>digest`.
pub fn golden_lines(w: Workload, dir: &Path, threads: usize) -> Result<String, String> {
    let cfg = w.config(DEFAULT_SEED);
    let r = sweep_ft(&DesignSpec::TABLE2, &cfg, &w.sweep_options(dir, threads))
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (bench, row) in Benchmark::ALL.iter().zip(&r.cells) {
        for (design, c) in r.designs.iter().zip(row) {
            let c = c.ok().ok_or("a cell failed while taking golden digests")?;
            let _ = writeln!(
                out,
                "{}\t{}\t{}",
                bench.name(),
                design.mnemonic(),
                digest(&c.metrics, &c.windows)
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(w: Workload, cfg: &ExperimentConfig) -> FtSweepResult {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", w.name()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let r = sweep_ft(&DesignSpec::TABLE2, cfg, &w.sweep_options(&dir, 2)).expect("sweep");
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    fn failures(reports: &[CellReport]) -> usize {
        reports.iter().filter(|r| r.failure.is_some()).count()
    }

    #[test]
    fn default_seed_matches_golden_and_a_perturbed_machine_fails() {
        let w = Workload::Fig5Full;
        let cfg = w.config(DEFAULT_SEED);
        let lens = timed_lens(w, &cfg);
        let good = check_sweep(w, DEFAULT_SEED, &cfg, &sweep(w, &cfg), &lens);
        assert_eq!(good.len(), CELLS);
        assert_eq!(failures(&good), 0, "{good:?}");

        // Test-scale footprints fit the TLBs, so a different replacement
        // seed changes nothing; a smaller ROB changes every cell's timing.
        let mut perturbed = cfg.clone();
        perturbed.sim.rob_entries /= 2;
        let bad = check_sweep(w, DEFAULT_SEED, &perturbed, &sweep(w, &perturbed), &lens);
        let failed = failures(&bad);
        assert!(failed > 0, "a perturbed machine must fail cells");
        assert!(bad
            .iter()
            .filter_map(|r| r.failure.as_deref())
            .all(|f| f.contains("golden")));
    }

    #[test]
    fn invariants_catch_short_runs_and_window_mismatches() {
        let golden = BTreeMap::new();
        let mut cell = CellResult {
            bench: Benchmark::Compress,
            design: DesignSpec::TABLE2[0],
            metrics: RunMetrics {
                cycles: 100,
                committed: 99,
                ..RunMetrics::default()
            },
            windows: Vec::new(),
        };
        // Any seed but the default: only the invariants apply.
        let full = check_cell(Workload::Fig5Full, 7, &golden, Some(&cell), 100, 8);
        assert!(full.failure.unwrap().contains("committed 99"));
        cell.metrics.committed = 100;
        let ok = check_cell(Workload::Fig5Full, 7, &golden, Some(&cell), 100, 8);
        assert!(ok.failure.is_none());
        let missing = check_cell(Workload::Fig5Full, 7, &golden, None, 100, 8);
        assert!(missing.failure.is_some());
        // A sampled cell with no windows does not match its plan.
        let sampled = check_cell(Workload::Fig5Sampled, 7, &golden, Some(&cell), 100_000, 8);
        assert!(sampled.failure.unwrap().contains("windows"));
    }

    #[test]
    fn cell_reports_round_trip() {
        let r = CellReport {
            digest: "00ff".to_owned(),
            ipc: 1.25,
            lo: 1.0,
            hi: 1.5,
            failure: Some("a b".to_owned()),
        };
        let line = r.render();
        let back = CellReport::parse(&line.split(' ').collect::<Vec<_>>()).expect("parses");
        assert_eq!(
            (back.digest, back.ipc, back.lo, back.hi),
            ("00ff".to_owned(), 1.25, 1.0, 1.5)
        );
        assert_eq!(back.failure.as_deref(), Some("a_b"));
    }
}
