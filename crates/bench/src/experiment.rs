//! The experiment runner: sweeps translation designs over the benchmark
//! suite, exactly as Section 4 of the paper does.
//!
//! Traces are generated once per benchmark (functional execution),
//! published through the process-wide [`TraceCache`], and replayed
//! against every design. The benchmark × design cells are scheduled
//! individually across a worker pool (see [`crate::executor`]), so a
//! full Table-2 sweep keeps every core busy until the last cell drains;
//! results are bit-identical to a serial sweep regardless of worker
//! count because each cell's replacement RNG is seeded independently
//! from the experiment's `design_seed`.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use hbat_core::addr::PageGeometry;
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::engine::Engine;
use hbat_cpu::{RunMetrics, SimConfig, WarmState};
use hbat_isa::trace::TraceInst;
use hbat_isa::tracefile::{read_trace, write_trace};
use hbat_isa::uop::{MicroOp, PredecodedTrace};
use hbat_obs::{
    prof, IntervalRecord, IntervalRecorder, NullRecorder, Recorder, Tee, TraceRecorder,
};
use hbat_stats::agg::runtime_weighted_ipc;
use hbat_stats::chart::BarChart;
use hbat_stats::ci::{ConfLevel, ConfidenceInterval};
use hbat_stats::table::{fnum, fnum_opt, percent_opt, TextTable};
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

use crate::ckpt::{build_warm_trace, ckpt_fingerprint, CheckpointOptions, WarmTrace};
use crate::executor::{
    parallel_map_outcomes, timed, worker_threads, RunPolicy, SweepTelemetry, TraceCache,
};
use crate::faults::{FaultKind, FaultPlan};
use crate::journal::{
    fnv1a_hex, read_interval_sidecar, read_journal, CellKey, JournalRecord, JournalWriter,
};
use crate::outcome::{CellFailure, CellOutcome, FailureManifest};
use crate::sample::{
    ckpt_sample_fingerprint, ipc_interval, sample_fingerprint, SamplePlan, WarmSchedule,
};

pub use crate::journal::{render_interval_record, render_obs_record};

/// Everything one experiment (one figure) varies.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Problem size for the workload generators.
    pub scale: Scale,
    /// Machine model (issue discipline etc.).
    pub sim: SimConfig,
    /// Page size.
    pub geometry: PageGeometry,
    /// Workload build configuration (register budget, seed).
    pub workload: WorkloadConfig,
    /// Seed for the designs' random replacement.
    pub design_seed: u64,
}

impl ExperimentConfig {
    /// The Figure-5 baseline: out-of-order, 4 KB pages, 32 registers.
    pub fn baseline(scale: Scale) -> Self {
        ExperimentConfig {
            scale,
            sim: SimConfig::baseline(),
            geometry: PageGeometry::KB4,
            workload: WorkloadConfig::new(scale),
            design_seed: 1996,
        }
    }

    /// Figure 7: in-order issue.
    #[must_use]
    pub fn with_inorder(mut self) -> Self {
        self.sim = SimConfig {
            issue_model: hbat_cpu::IssueModel::InOrder,
            ..self.sim
        };
        self
    }

    /// Figure 8: 8 KB pages.
    #[must_use]
    pub fn with_8k_pages(mut self) -> Self {
        self.geometry = PageGeometry::KB8;
        self
    }

    /// Figure 9: 8 int / 8 fp architected registers.
    #[must_use]
    pub fn with_small_regs(mut self) -> Self {
        self.workload = self.workload.with_small_regs();
        self
    }
}

/// One (benchmark, design) timing result.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The benchmark.
    pub bench: Benchmark,
    /// The design.
    pub design: DesignSpec,
    /// Full run metrics. In a sampled sweep these are the measured
    /// windows' sums (see [`crate::sample::SampledCell`]), so rates are
    /// sample estimates, not exact counts.
    pub metrics: RunMetrics,
    /// A sampled sweep's per-window measurements (empty for full
    /// detailed runs) — what the interval estimators consume.
    pub windows: Vec<IntervalRecord>,
}

/// The raw `TraceInst` trace of one benchmark under `cfg`, for the
/// analysis passes: decoded once from the micro-ops [`uops_for`]
/// shares, so the workload still runs only once per process.
pub fn trace_for(bench: Benchmark, cfg: &ExperimentConfig) -> Arc<[TraceInst]> {
    TraceCache::global().get_or_build(bench, &cfg.workload)
}

/// The predecoded micro-ops of one benchmark under `cfg` through the
/// process-wide cache: the first request runs the workload, later
/// requests for the same workload share the stored copy.
pub fn uops_for(bench: Benchmark, cfg: &ExperimentConfig) -> Arc<PredecodedTrace> {
    TraceCache::global().get_uops(bench, &cfg.workload)
}

/// Runs one (micro-ops, design) timing cell — the one detailed runner
/// behind every sweep arm, figure binary and CLI command. `warm` (a
/// checkpointed sweep's boundary state, see [`crate::ckpt`]) is
/// installed before the replay; `rec` observes the run.
///
/// Metrics are bit-identical whatever `R` is — the recorder only reads.
/// Unobserved runs pass [`NullRecorder`]: any enabled recorder turns
/// off the engine's sleep/wake fast path.
pub fn run_cell<R: Recorder>(
    ops: &[MicroOp],
    warm: Option<&WarmState>,
    design: DesignSpec,
    cfg: &ExperimentConfig,
    rec: R,
) -> RunMetrics {
    let mut translator = design.build(cfg.geometry, cfg.design_seed);
    let mut engine = Engine::with_recorder(&cfg.sim, ops, translator.as_mut(), rec);
    if let Some(warm) = warm {
        engine.install_warm(warm);
    }
    engine.run()
}

// ---- fault-tolerant sweeps -----------------------------------------------

/// Fingerprint of everything that affects a cell's metrics, for the
/// journal's cell identity: scale, machine model, page geometry,
/// workload configuration, and design seed. Two runs share journal
/// records only when their fingerprints match.
pub fn config_fingerprint(cfg: &ExperimentConfig) -> String {
    fnv1a_hex(&format!("{cfg:?}"))
}

/// How a fault-tolerant sweep runs: worker count, retry/deadline
/// policy, an optional fault-injection plan, and the journal used for
/// restartable campaigns.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 = [`worker_threads`]).
    pub threads: usize,
    /// Retry and deadline policy (see [`RunPolicy::from_env`]).
    pub policy: RunPolicy,
    /// Injected faults; [`FaultPlan::none`] for production runs.
    pub faults: FaultPlan,
    /// Append completed cells to this JSONL journal.
    pub journal: Option<PathBuf>,
    /// Replay the journal first and re-execute only missing cells.
    pub resume: bool,
    /// Run every cell under a [`TraceRecorder`] and append one
    /// observability summary per executed cell to the journal's
    /// `.obs.jsonl` sidecar (requires `journal`; the main journal stays
    /// byte-identical to an unobserved sweep).
    pub observe: bool,
    /// Bucket every executed cell into fixed-width cycle windows of
    /// this many cycles (≥ 2) and append one record per window to the
    /// journal's `.iv.jsonl` sidecar (requires `journal`; composes
    /// with `observe` through a [`hbat_obs::Tee`]; the main journal
    /// stays byte-identical).
    pub intervals: Option<u64>,
    /// Checkpointed mode: fast-forward each benchmark functionally to
    /// the boundary, publishing crash-safe snapshots, then run detailed
    /// timing on the tail with warm state installed. A killed or
    /// faulted run restores from the newest valid snapshot (see
    /// [`crate::ckpt`]). Changes the cells' metrics — and therefore the
    /// journal fingerprint — because timing starts at the boundary.
    pub checkpoint: Option<CheckpointOptions>,
    /// Sampled mode (SMARTS-style): run detailed timing only in the
    /// plan's windows, fast-forward functionally between them, and
    /// report metrics as interval estimates. Composes with `checkpoint`
    /// (windows are placed in the tail past the boundary, chained from
    /// the snapshot's warm state); mutually exclusive with `observe`
    /// and `intervals` — sampled windows own the `.iv.jsonl` sidecar.
    /// The plan is folded into the journal fingerprint.
    pub sample: Option<SamplePlan>,
}

/// The sidecar path that an observed sweep writes its per-cell
/// observability summaries to: `<journal>.obs.jsonl` next to the
/// journal itself, so the main journal stays byte-identical whether or
/// not observation is on.
pub fn obs_sidecar_path(journal: &std::path::Path) -> PathBuf {
    let mut os = journal.as_os_str().to_owned();
    os.push(".obs.jsonl");
    PathBuf::from(os)
}

/// The sidecar path an interval sweep writes its per-window records
/// to: `<journal>.iv.jsonl`, same convention as [`obs_sidecar_path`].
pub fn iv_sidecar_path(journal: &std::path::Path) -> PathBuf {
    let mut os = journal.as_os_str().to_owned();
    os.push(".iv.jsonl");
    PathBuf::from(os)
}

/// The result of a fault-tolerant sweep: per-cell outcomes (partial
/// results survive individual failures), a manifest of the failed
/// cells, and how many cells were restored from the journal.
#[derive(Debug)]
pub struct FtSweepResult {
    /// Designs in presentation order.
    pub designs: Vec<DesignSpec>,
    /// Row-major: `cells[bench][design]`, one outcome per cell.
    pub cells: Vec<Vec<CellOutcome<CellResult>>>,
    /// The failed cells, in schedule order.
    pub manifest: FailureManifest,
    /// Cells restored from the journal instead of re-executed.
    pub resumed: usize,
    /// Where the sweep's wall time went.
    pub telemetry: SweepTelemetry,
    /// The sample plan when this was a sampled sweep (`None` for full
    /// detailed runs); drives the interval-aware renderers.
    pub sample: Option<SamplePlan>,
}

impl FtSweepResult {
    /// Cells that completed (executed or restored).
    pub fn completed(&self) -> usize {
        self.cells.iter().flatten().filter(|o| o.is_ok()).count()
    }

    /// `(cell, weight cell)` for every benchmark where both `design`'s
    /// cell and the weight cell completed. The weight is T4's run time
    /// (per the paper), or the first design's when T4 is not part of the
    /// sweep. `None` when `design` is absent from the sweep.
    fn completed_pairs(&self, design: DesignSpec) -> Option<Vec<(&CellResult, &CellResult)>> {
        let weight_col = self
            .designs
            .iter()
            .position(|d| *d == DesignSpec::MultiPorted { ports: 4 })
            .unwrap_or(0);
        let col = self.designs.iter().position(|d| *d == design)?;
        Some(
            self.cells
                .iter()
                .filter_map(|row| Some((row.get(col)?.ok()?, row.get(weight_col)?.ok()?)))
                .collect(),
        )
    }

    /// Partial run-time weighted IPC: averages over the benchmarks
    /// where both this design's cell and the weight (T4) cell
    /// completed. `None` when the design is absent from the sweep or no
    /// benchmark has both cells.
    pub fn weighted_ipc(&self, design: DesignSpec) -> Option<f64> {
        let pairs = self.completed_pairs(design)?;
        if pairs.is_empty() {
            return None;
        }
        let ipcs: Vec<f64> = pairs.iter().map(|(c, _)| c.metrics.ipc()).collect();
        let weights: Vec<u64> = pairs.iter().map(|(_, w)| w.metrics.cycles).collect();
        Some(runtime_weighted_ipc(&ipcs, &weights))
    }

    /// Partial relative IPC (normalised to T4 over the same benchmark
    /// subset); `None` when either side is unavailable.
    pub fn relative_ipc(&self, design: DesignSpec) -> Option<f64> {
        let t4 = self.weighted_ipc(DesignSpec::MultiPorted { ports: 4 })?;
        if t4 == 0.0 {
            return Some(0.0);
        }
        Some(self.weighted_ipc(design)? / t4)
    }

    /// Run-time weighted IPC as a 95% confidence interval, for sampled
    /// sweeps: the weighted mean of the per-benchmark window-estimate
    /// means, with a *conservatively* weighted half-width
    /// (`Σw·hw / Σw` — at least as wide as a pooled-variance interval,
    /// never narrower). Weights are the T4 cell's sampled cycles,
    /// mirroring [`Self::weighted_ipc`]. `None` when the sweep was not
    /// sampled, the design is absent, or no benchmark completed both
    /// this design's cell and the weight cell. A completed cell with
    /// no windows (lost sidecar) degrades the whole interval to an
    /// infinite half-width rather than quietly narrowing it.
    pub fn weighted_ipc_interval(&self, design: DesignSpec) -> Option<ConfidenceInterval> {
        self.sample?;
        let mut w_sum = 0.0f64;
        let mut mean_sum = 0.0f64;
        let mut hw_sum = 0.0f64;
        let mut n_min = u64::MAX;
        for (c, w) in self.completed_pairs(design)? {
            let ci = ipc_interval(&c.windows, ConfLevel::P95);
            #[allow(clippy::cast_precision_loss)]
            let weight = w.metrics.cycles as f64;
            let weight = if weight > 0.0 { weight } else { 1.0 };
            w_sum += weight;
            mean_sum += weight * ci.mean;
            hw_sum += weight * ci.half_width;
            n_min = n_min.min(ci.n);
        }
        if w_sum <= 0.0 {
            return None;
        }
        Some(ConfidenceInterval {
            mean: mean_sum / w_sum,
            half_width: hw_sum / w_sum,
            level: ConfLevel::P95.value(),
            n: if n_min == u64::MAX { 0 } else { n_min },
        })
    }

    /// Renders the figure as a text table plus the paper-style bar chart:
    /// one row/bar per design, relative to T4. Failed cells are marked
    /// explicitly: designs with no usable measurements show `n/a` bars,
    /// and the failure manifest is appended below the chart.
    pub fn render_figure(&self, title: &str) -> String {
        self.figure(title, "weighted IPC", |d| fnum_opt(self.weighted_ipc(d), 4))
    }

    /// Renders the sampled-sweep figure: the usual weighted-IPC table
    /// with the IPC column as a 95% confidence interval, under a line
    /// naming the plan. Falls back to [`Self::render_figure`] when the
    /// sweep was not sampled.
    pub fn render_sample_figure(&self, title: &str) -> String {
        let Some(plan) = self.sample else {
            return self.render_figure(title);
        };
        let title = format!(
            "{title}\nsampled: {} (windows:len:warmup), relative IPC from window means",
            plan.render()
        );
        self.figure(&title, "weighted IPC (95% CI)", |d| {
            self.weighted_ipc_interval(d)
                .map_or_else(|| "n/a".to_owned(), |ci| ci.render(4))
        })
    }

    /// Renders the per-benchmark detail (the paper's FTP results file),
    /// with failed cells marked `n/a` instead of aborting the render.
    pub fn render_details(&self) -> String {
        self.details(|c| fnum(c.metrics.ipc(), 3))
    }

    /// Renders the per-benchmark detail table for a sampled sweep, one
    /// `mean ± hw` entry per cell. Falls back to
    /// [`Self::render_details`] when the sweep was not sampled.
    pub fn render_sample_details(&self) -> String {
        if self.sample.is_none() {
            return self.render_details();
        }
        self.details(|c| ipc_interval(&c.windows, ConfLevel::P95).render(3))
    }

    /// The figure layout shared by both renderers; `ipc` formats a
    /// design's weighted-IPC column.
    fn figure(&self, title: &str, ipc_header: &str, ipc: impl Fn(DesignSpec) -> String) -> String {
        let mut t = TextTable::new(vec!["design", ipc_header, "vs T4"]);
        t.numeric();
        let mut chart = BarChart::new("relative IPC (normalised to T4)", 50)
            .with_max(1.0)
            .percent();
        for &d in &self.designs {
            let rel = self.relative_ipc(d);
            t.row(vec![d.mnemonic().to_owned(), ipc(d), percent_opt(rel)]);
            match rel {
                Some(rel) => chart.bar(d.mnemonic(), rel),
                None => chart.bar_missing(d.mnemonic()),
            };
        }
        let mut out = format!("{title}\n{}\n{}", t.render(), chart.render());
        if !self.manifest.is_empty() {
            out.push('\n');
            out.push_str(&self.manifest.render());
        }
        out
    }

    /// The per-benchmark table shared by both detail renderers: one row
    /// per program, `cell` formatting each completed cell.
    fn details(&self, cell: impl Fn(&CellResult) -> String) -> String {
        let mut headers = vec!["program".to_owned()];
        headers.extend(self.designs.iter().map(|d| d.mnemonic().to_owned()));
        let mut t = TextTable::new(headers);
        t.numeric();
        for (bench, row) in Benchmark::ALL.iter().zip(&self.cells) {
            let mut cells = vec![bench.name().to_owned()];
            cells.extend(
                row.iter()
                    .map(|o| o.ok().map_or_else(|| "n/a".to_owned(), &cell)),
            );
            t.row(cells);
        }
        t.render()
    }
}

/// What phase 1 built for one benchmark: the full trace (normal sweeps)
/// or a checkpointed warm trace (timing tail + warm state).
enum BenchInput {
    /// Full predecoded trace from program start; timing covers every
    /// instruction.
    Full(Arc<PredecodedTrace>),
    /// Fast-forwarded through the checkpoint layer; timing covers the
    /// tail past the boundary with warm state installed.
    Warm(Box<WarmTrace>),
}

impl BenchInput {
    /// The micro-ops to time, and the warm trace they continue (if any).
    fn timing(&self) -> (&[MicroOp], Option<&WarmTrace>) {
        match self {
            BenchInput::Full(uops) => (uops.ops(), None),
            BenchInput::Warm(wt) => (wt.tail.ops(), Some(wt)),
        }
    }
}

/// What one phase-2 cell job produced (before outcome classification).
/// The window vector is empty for full detailed runs; sampled runs
/// carry one [`IntervalRecord`] per measurement window.
enum CellJob {
    /// Executed this run (journalled if a journal is configured).
    Ran(RunMetrics, Vec<IntervalRecord>),
    /// Restored from the resume journal without re-executing.
    Restored(RunMetrics, Vec<IntervalRecord>),
    /// Not runnable: its benchmark's trace failed to build.
    NoTrace(String),
}

/// Exercises the corrupt-input recovery path for a `CorruptTrace`
/// fault: the cell's trace is serialised, truncated at the plan's
/// deterministic offset, and fed back through [`read_trace`], which
/// must reject it. Diverges either way: the rejection (the expected
/// path) fails the cell cleanly into the manifest, and an accepted
/// corrupt image is a hardening bug surfaced loudly.
///
/// # Panics
///
/// Always — both branches diverge by design; the surrounding cell
/// isolation turns the panic into a manifest entry.
fn run_with_corrupt_trace(index: usize, trace: &[TraceInst], plan: &FaultPlan) -> ! {
    let mut buf = Vec::new();
    if let Err(e) = write_trace(&mut buf, trace) {
        panic!("injected fault: trace serialisation failed: {e}");
    }
    buf.truncate(plan.corruption_offset(index, buf.len()));
    match read_trace(&mut &buf[..]) {
        Err(e) => panic!("injected fault: corrupt trace rejected: {e}"),
        Ok(_) => panic!("corrupt trace image was accepted by read_trace"),
    }
}

/// Fault-tolerant sweep over all ten benchmarks: per-cell isolation,
/// retries/deadlines per `opts.policy`, journalled completion, and
/// partial results (see [`FtSweepResult`]). Uses the process-wide trace
/// cache.
///
/// # Errors
///
/// Only journal I/O errors propagate (opening the journal for append,
/// or reading it under `opts.resume`); cell failures are reported
/// through the result's manifest instead.
pub fn sweep_ft(
    designs: &[DesignSpec],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> io::Result<FtSweepResult> {
    sweep_ft_on(designs, cfg, opts, TraceCache::global())
}

/// [`sweep_ft`] with an explicit trace cache — the form the
/// fault-injection tests drive with private caches.
///
/// # Errors
///
/// Journal I/O errors only; see [`sweep_ft`].
pub fn sweep_ft_on(
    designs: &[DesignSpec],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
    cache: &TraceCache,
) -> io::Result<FtSweepResult> {
    let benches = Benchmark::ALL;
    let threads = if opts.threads == 0 {
        worker_threads()
    } else {
        opts.threads
    };
    // Reject bad interval widths here, with an error, rather than
    // letting the recorder's constructor panic inside every isolated
    // cell job.
    if let Some(w) = opts.intervals {
        if w < 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("interval width must be >= 2 cycles, got {w}"),
            ));
        }
    }
    // Sampled runs emit one interval record per *measurement window*
    // through the same `.iv.jsonl` sidecar the cycle-interval recorder
    // uses; letting both write would interleave two different window
    // semantics in one file.
    if opts.sample.is_some() && (opts.observe || opts.intervals.is_some()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "--sample is mutually exclusive with --observe / --intervals \
             (sampled windows own the interval sidecar)",
        ));
    }
    let n_cells = benches.len() * designs.len();
    // Checkpointed sweeps fold the fast-forward boundary into the cell
    // identity: their metrics start timing at the boundary, so they must
    // never share journal records (or snapshots) with full sweeps or
    // with a different boundary. Sampled sweeps likewise fold the
    // sample plan in: their metrics are window estimates, not full-run
    // totals.
    let fingerprint = match (&opts.checkpoint, &opts.sample) {
        (Some(ck), Some(p)) => ckpt_sample_fingerprint(cfg, ck.boundary, p),
        (Some(ck), None) => ckpt_fingerprint(cfg, ck.boundary),
        (None, Some(p)) => sample_fingerprint(cfg, p),
        (None, None) => config_fingerprint(cfg),
    };
    let (hits0, misses0) = (cache.hits(), cache.misses());

    // Resume: restore completed cells from the journal. Records keyed
    // for a different configuration simply never match.
    let mut restored: HashMap<CellKey, RunMetrics> = HashMap::new();
    // Sampled resume also restores the per-window measurements from
    // the interval sidecar so a restored cell still renders its
    // confidence interval. If a crashed cell re-ran and re-appended
    // its block, window starts go non-monotonic at the seam — reset
    // and keep the latest complete block.
    let mut restored_windows: HashMap<CellKey, Vec<IntervalRecord>> = HashMap::new();
    if opts.resume {
        if let Some(path) = &opts.journal {
            for rec in read_journal(path)? {
                restored.insert(rec.key, rec.metrics);
            }
            if opts.sample.is_some() {
                for rec in read_interval_sidecar(&iv_sidecar_path(path))? {
                    let wins = restored_windows.entry(rec.key).or_default();
                    if wins.last().is_some_and(|w| rec.window.start <= w.start) {
                        wins.clear();
                    }
                    wins.push(rec.window);
                }
            }
        }
    }
    let writer = match &opts.journal {
        Some(path) => Some(JournalWriter::append_to(path)?),
        None => None,
    };
    let obs_writer = match (&opts.journal, opts.observe) {
        (Some(path), true) => Some(JournalWriter::append_to(&obs_sidecar_path(path))?),
        _ => None,
    };
    let iv_writer = match &opts.journal {
        Some(path) if opts.intervals.is_some() || opts.sample.is_some() => {
            Some(JournalWriter::append_to(&iv_sidecar_path(path))?)
        }
        _ => None,
    };

    // Phase 1: every distinct trace, built in parallel, isolated per
    // benchmark — a failed build skips that benchmark's cells instead
    // of aborting the sweep.
    let phase_trace_build = prof::scope("trace-build");
    // hbat-lint: allow(panic) bi < benches.len() by parallel_map_outcomes' contract; an escaped panic here is caught per-cell anyway
    let (trace_outcomes, trace_build) = timed(|| {
        parallel_map_outcomes(benches.len(), threads, &opts.policy, |bi, ctx| {
            assert!(
                !opts.faults.trace_fault_for(bi),
                "injected fault: trace build for {} panicked",
                benches[bi].name()
            );
            match &opts.checkpoint {
                // Checkpointed: restore from the newest valid snapshot
                // (retries resume from whatever the crashed attempt
                // published), fast-forward the remainder, snapshot as we
                // go. A checkpoint-layer error fails this benchmark's
                // cells cleanly via the isolation layer.
                Some(ck) => {
                    let wt = build_warm_trace(
                        benches[bi],
                        bi,
                        cfg,
                        ck,
                        &opts.faults,
                        ctx.attempt,
                        Some(ctx.cancel_flag()),
                    )
                    .unwrap_or_else(|e| {
                        panic!("checkpointed build for {}: {e}", benches[bi].name())
                    });
                    BenchInput::Warm(Box::new(wt))
                }
                None => BenchInput::Full(cache.get_uops(benches[bi], &cfg.workload)),
            }
        })
    });
    drop(phase_trace_build);
    let mut traces: Vec<Option<BenchInput>> = Vec::with_capacity(benches.len());
    let mut trace_errs: Vec<String> = Vec::with_capacity(benches.len());
    for outcome in trace_outcomes {
        trace_errs.push(match &outcome {
            CellOutcome::Ok(_) => String::new(),
            other => format!("trace build {}: {}", other.kind(), other.detail()),
        });
        traces.push(outcome.into_ok());
    }

    // Phase 2: one queue of benchmark × design cells. Restored cells
    // return without executing (and without re-journalling); fresh
    // completions journal themselves before returning. A sampled
    // benchmark's warm schedule is design-independent, so its first
    // running cell builds it and the rest share it; a benchmark whose
    // cells all restore never builds one.
    let schedules: Vec<OnceLock<WarmSchedule>> = benches.iter().map(|_| OnceLock::new()).collect();
    let phase_detailed = prof::scope("detailed-run");
    // hbat-lint: allow(panic) bi/di derive from i < n_cells, and a panic inside a cell job is exactly what the isolation layer catches
    let (flat, cell_exec) = timed(|| {
        parallel_map_outcomes(n_cells, threads, &opts.policy, |i, ctx| {
            let (bi, di) = (i / designs.len(), i % designs.len());
            let key = CellKey {
                bench: benches[bi].name().to_owned(),
                design: format!("{:?}", designs[di]),
                config: fingerprint.clone(),
                seed: cfg.design_seed,
            };
            if let Some(metrics) = restored.get(&key) {
                // A sampled cell restored from the journal gets its
                // windows back from the sidecar too; an incomplete or
                // lost sidecar yields an empty vector, which renders as
                // a degenerate full-width interval instead of lying.
                let wins = restored_windows.get(&key).cloned().unwrap_or_default();
                return CellJob::Restored(metrics.clone(), wins);
            }
            let Some(input) = &traces[bi] else {
                return CellJob::NoTrace(trace_errs[bi].clone());
            };
            opts.faults.arm(i, ctx.attempt, ctx.cancel_flag());
            assert!(
                !ctx.cancelled(),
                "injected fault: cell {i} stalled past its deadline"
            );
            let (ops, wt) = input.timing();
            if opts.faults.fault_for(i) == Some(FaultKind::CorruptTrace) {
                let trace: Vec<TraceInst> = ops.iter().map(MicroOp::decode).collect();
                run_with_corrupt_trace(i, &trace, &opts.faults);
            }
            let warm = wt.map(|wt| &wt.warm);
            let design = designs[di];
            // `windows` unifies the two interval sources: cycle-width
            // intervals from the recorder (which can drop on buffer
            // overflow) and sampled measurement windows (which never
            // drop — the plan bounds them up front).
            type Windows = Option<(Vec<IntervalRecord>, u64)>;
            let (metrics, rec, windows): (RunMetrics, Option<TraceRecorder>, Windows) = {
                let _cell = prof::scope("cell-run");
                if let Some(plan) = &opts.sample {
                    let export = wt.map(|wt| &wt.export);
                    let cell = schedules[bi]
                        .get_or_init(|| WarmSchedule::build(ops, cfg, export, plan))
                        .run(design);
                    (cell.metrics, None, Some((cell.windows, 0)))
                } else {
                    // The recorder combination (none / trace / interval /
                    // both via Tee) is picked with static dispatch, so the
                    // unobserved arm stays the NullRecorder hot loop.
                    match (opts.observe, opts.intervals) {
                        (false, None) => {
                            (run_cell(ops, warm, design, cfg, NullRecorder), None, None)
                        }
                        (true, None) => {
                            let mut rec = TraceRecorder::new();
                            let metrics = run_cell(ops, warm, design, cfg, &mut rec);
                            (metrics, Some(rec), None)
                        }
                        (false, Some(width)) => {
                            let mut iv = IntervalRecorder::new(width);
                            let metrics = run_cell(ops, warm, design, cfg, &mut iv);
                            iv.finish();
                            (
                                metrics,
                                None,
                                Some((iv.windows().to_vec(), iv.dropped_windows())),
                            )
                        }
                        (true, Some(width)) => {
                            let mut tee =
                                Tee::new(TraceRecorder::new(), IntervalRecorder::new(width));
                            let metrics = run_cell(ops, warm, design, cfg, &mut tee);
                            tee.b.finish();
                            let wins = (tee.b.windows().to_vec(), tee.b.dropped_windows());
                            (metrics, Some(tee.a), Some(wins))
                        }
                    }
                }
            };
            if let Some(w) = &writer {
                let _journal = prof::scope("journal-append");
                if let Err(e) = w.append(&JournalRecord {
                    key: key.clone(),
                    metrics: metrics.clone(),
                }) {
                    eprintln!("warning: journal append failed: {e}");
                }
            }
            if let (Some(w), Some(rec)) = (&obs_writer, &rec) {
                if let Err(e) = w.append_line(&render_obs_record(&key, rec)) {
                    eprintln!("warning: obs sidecar append failed: {e}");
                }
            }
            if let (Some(w), Some((wins, dropped))) = (&iv_writer, &windows) {
                let mut block = String::new();
                for win in wins {
                    block.push_str(&render_interval_record(&key, win));
                    block.push('\n');
                }
                if *dropped > 0 {
                    eprintln!(
                        "warning: {}/{}: {dropped} interval windows dropped (buffer full); widen --intervals",
                        key.bench, key.design,
                    );
                }
                if let Err(e) = w.append_block(&block) {
                    eprintln!("warning: interval sidecar append failed: {e}");
                }
            }
            // Sampled windows ride on the cell result (the interval
            // estimators consume them); cycle-width interval windows
            // stay sidecar-only, as before.
            let cell_windows = match (&opts.sample, windows) {
                (Some(_), Some((wins, _))) => wins,
                _ => Vec::new(),
            };
            CellJob::Ran(metrics, cell_windows)
        })
    });
    drop(phase_detailed);

    // Classify the flat outcomes into rows, the manifest, and the
    // resumed count.
    let mut cells: Vec<Vec<CellOutcome<CellResult>>> = Vec::with_capacity(benches.len());
    let mut manifest = FailureManifest::default();
    let mut resumed = 0usize;
    // hbat-lint: allow(panic) bi/di derive from i < n_cells = benches.len() * designs.len()
    for (i, outcome) in flat.into_iter().enumerate() {
        let (bi, di) = (i / designs.len(), i % designs.len());
        let done = |metrics: RunMetrics, windows: Vec<IntervalRecord>| CellResult {
            bench: benches[bi],
            design: designs[di],
            metrics,
            windows,
        };
        let outcome: CellOutcome<CellResult> = match outcome {
            CellOutcome::Ok(CellJob::Ran(m, w)) => CellOutcome::Ok(done(m, w)),
            CellOutcome::Ok(CellJob::Restored(m, w)) => {
                resumed += 1;
                CellOutcome::Ok(done(m, w))
            }
            CellOutcome::Ok(CellJob::NoTrace(reason)) => CellOutcome::Skipped { reason },
            CellOutcome::Panicked {
                msg,
                attempts,
                payload,
            } => CellOutcome::Panicked {
                msg,
                attempts,
                payload,
            },
            CellOutcome::TimedOut { attempts } => CellOutcome::TimedOut { attempts },
            CellOutcome::Skipped { reason } => CellOutcome::Skipped { reason },
        };
        if !outcome.is_ok() {
            manifest.failures.push(CellFailure {
                index: i,
                bench: benches[bi].name().to_owned(),
                design: designs[di].mnemonic().to_owned(),
                kind: outcome.kind().to_owned(),
                detail: outcome.detail(),
                attempts: outcome.attempts(),
            });
        }
        if di == 0 {
            cells.push(Vec::with_capacity(designs.len()));
        }
        if let Some(row) = cells.last_mut() {
            row.push(outcome);
        }
    }

    Ok(FtSweepResult {
        designs: designs.to_vec(),
        cells,
        manifest,
        resumed,
        sample: opts.sample,
        telemetry: SweepTelemetry {
            threads,
            cells: n_cells,
            traces_built: cache.misses() - misses0,
            trace_cache_hits: cache.hits() - hits0,
            trace_build,
            cell_exec,
        },
    })
}

/// Parses the scale from a CLI argument / env (`test`, `small`,
/// `reference`); used by the figure binaries.
pub fn scale_from_args() -> Scale {
    let arg = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("HBAT_SCALE").ok())
        .unwrap_or_else(|| "small".to_owned());
    match arg.to_ascii_lowercase().as_str() {
        "test" => Scale::Test,
        "reference" | "ref" | "full" => Scale::Reference,
        "small" => Scale::Small,
        other => {
            eprintln!(
                "warning: unrecognized scale {other:?} (expected test, small, or reference); \
                 defaulting to small"
            );
            Scale::Small
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_sane_relative_ipcs() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let designs = [
            DesignSpec::MultiPorted { ports: 4 },
            DesignSpec::MultiPorted { ports: 1 },
        ];
        let r = sweep_ft(&designs, &cfg, &SweepOptions::default()).unwrap();
        assert_eq!(r.cells.len(), 10);
        assert_eq!(r.completed(), 20);
        let rel_t4 = r.relative_ipc(designs[0]).unwrap();
        let rel_t1 = r.relative_ipc(designs[1]).unwrap();
        assert!((rel_t4 - 1.0).abs() < 1e-12, "T4 is its own baseline");
        assert!(rel_t1 < 1.0, "T1 must trail T4: {rel_t1}");
        assert!(rel_t1 > 0.3, "T1 cannot be catastrophically slow: {rel_t1}");
        let fig = r.render_figure("test figure");
        assert!(fig.contains("T4") && fig.contains("T1"));
        let details = r.render_details();
        assert!(details.contains("Compress") && details.contains("Xlisp"));
    }

    #[test]
    fn experiment_config_builders() {
        let c = ExperimentConfig::baseline(Scale::Test);
        assert_eq!(c.geometry, PageGeometry::KB4);
        assert_eq!(c.clone().with_8k_pages().geometry, PageGeometry::KB8);
        assert_eq!(
            c.clone().with_inorder().sim.issue_model,
            hbat_cpu::IssueModel::InOrder
        );
        assert_eq!(c.with_small_regs().workload.regs.int, 8);
    }
}
