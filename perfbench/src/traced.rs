//! The traced run: the same sweep as the untraced run, replayed from
//! each layer's public functions so that every call into a layer gets a
//! span. Per-cell results must match the untraced run bit for bit (the
//! parent process compares the digests).
//!
//! After the traced wall clock stops, two probes replay each program's
//! data-reference stream through the translators and a Table-1 D-cache:
//! the engine calls those internally, so only a replay can time them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hbat_bench::ckpt::{ckpt_fingerprint, WarmTrace};
use hbat_bench::executor::{parallel_map_outcomes, SweepTelemetry};
use hbat_bench::experiment::{
    iv_sidecar_path, obs_sidecar_path, render_interval_record, render_obs_record, CellResult,
    ExperimentConfig, FtSweepResult,
};
use hbat_bench::journal::{CellKey, JournalRecord, JournalWriter};
use hbat_bench::outcome::{CellOutcome, FailureManifest};
use hbat_bench::sample::{plan_windows, SampledCell, WindowGate};
use hbat_ckpt::{fast_forward, CheckpointStore, Snapshot};
use hbat_core::addr::VirtAddr;
use hbat_core::cycle::Cycle;
use hbat_core::designs::spec::DesignSpec;
use hbat_core::request::{AccessKind, Outcome, TranslateRequest};
use hbat_core::translator::AddressTranslator;
use hbat_cpu::{
    simulate_uops, simulate_uops_warm, simulate_uops_warm_with_recorder, RunMetrics,
    WarmAccumulator,
};
use hbat_isa::trace::TraceInst;
use hbat_isa::uop::{MicroOp, PredecodedTrace};
use hbat_mem::cache::{Cache, CacheAccess, CacheConfig};
use hbat_obs::{IntervalRecord, IntervalRecorder, Tee, TraceRecorder};
use hbat_workloads::Benchmark;

use crate::span::{SpanId, Tracer};
use crate::workload::{
    check_sweep, ckpt_dir, disk_bytes, journal_path, quiet_policy, render, sidecar_bytes, Workload,
};

/// One program's timed input.
enum Input {
    /// The whole program: raw trace (kept, as the sweep's trace cache
    /// keeps it) and its micro-ops.
    Full(#[allow(dead_code)] Arc<[TraceInst]>, PredecodedTrace),
    /// The tail past the fast-forward boundary, with warm state.
    Warm(Box<WarmTrace>),
}

impl Input {
    fn ops(&self) -> &[MicroOp] {
        match self {
            Input::Full(_, uops) => uops.ops(),
            Input::Warm(wt) => wt.tail.ops(),
        }
    }
}

/// What phase 1 built for one program, with its counters.
struct Built {
    input: Input,
    /// Instructions executed inside `isa.exec` spans.
    insts: u64,
    snapshots: u64,
    snapshot_bytes: u64,
}

/// What one traced cell produced.
#[derive(Default)]
struct CellOut {
    metrics: RunMetrics,
    windows: Vec<IntervalRecord>,
    /// Sum of what the `cpu.engine` spans simulated.
    engine: RunMetrics,
    gap_ops: u64,
    detail_ops: u64,
    n_windows: u64,
    failure: Option<String>,
}

fn add(into: &mut RunMetrics, m: &RunMetrics) {
    into.cycles += m.cycles;
    into.committed += m.committed;
    into.issued += m.issued;
    into.translation_retries += m.translation_retries;
    into.tlb.accesses += m.tlb.accesses;
    into.tlb.misses += m.tlb.misses;
    into.dcache.accesses += m.dcache.accesses;
    into.dcache.misses += m.dcache.misses;
    into.icache.misses += m.icache.misses;
}

/// Journal and sidecar writers of the campaign.
struct Writers {
    journal: JournalWriter,
    obs: JournalWriter,
    iv: JournalWriter,
}

/// Everything the replay of one workload shares across its jobs.
struct Replay<'a> {
    w: Workload,
    cfg: ExperimentConfig,
    dir: &'a Path,
    tr: &'a Tracer,
    /// The campaign's checkpoint fingerprint (journal and snapshot key).
    fingerprint: String,
    writers: Option<Writers>,
}

impl Replay<'_> {
    /// Phase 1 for one program: build, execute functionally (through the
    /// checkpointed fast-forward on the campaign), predecode.
    fn build(&self, bench: Benchmark, parent: SpanId) -> Result<Built, String> {
        let (cfg, tr) = (&self.cfg, self.tr);
        let Some((boundary, interval)) = self.w.ff() else {
            let wl = tr.time("workloads.build", parent, || bench.build(&cfg.workload));
            let trace = tr.time("isa.exec", parent, || wl.trace());
            let uops = tr.time("isa.predecode", parent, || {
                PredecodedTrace::predecode(&trace)
            });
            return Ok(Built {
                insts: trace.len() as u64,
                input: Input::Full(trace.into(), uops),
                snapshots: 0,
                snapshot_bytes: 0,
            });
        };
        // The steps of `build_warm_trace` on a fresh checkpoint directory.
        let store = CheckpointStore::new(&ckpt_dir(self.dir), bench.name(), &self.fingerprint);
        let ff = tr.open("ckpt.ff", Some(parent));
        let scan = store.latest_valid(boundary).map_err(|e| e.to_string())?;
        if scan.snapshot.is_some() {
            return Err("checkpoint directory was not empty".to_owned());
        }
        let wl = tr.time("workloads.build", ff.id(), || bench.build(&cfg.workload));
        let mut machine = wl.instantiate();
        let mut acc = WarmAccumulator::new(&cfg.sim, cfg.geometry);
        let (mut snapshots, mut snapshot_bytes) = (0u64, 0u64);
        let out = fast_forward(
            &mut machine,
            &mut acc,
            0,
            boundary,
            interval,
            None,
            |m, a, i| {
                let _save = tr.open("ckpt.save", Some(ff.id()));
                let snap = Snapshot {
                    bench: bench.name().to_owned(),
                    fingerprint: self.fingerprint.clone(),
                    index: i,
                    arch: m.arch_state(),
                    mem_chunks: m
                        .memory()
                        .export_chunks()
                        .into_iter()
                        .map(|(base, bytes)| (base, bytes.to_vec()))
                        .collect(),
                    warm: a.export(),
                };
                let path = store.save(&snap)?;
                snapshots += 1;
                snapshot_bytes += disk_bytes(&path);
                Ok(())
            },
        )
        .map_err(|e| e.to_string())?;
        drop(ff);
        let tail = tr.time("isa.exec", parent, || machine.run_to_vec(wl.max_steps));
        if !machine.is_halted() {
            return Err(format!("{} did not halt", wl.name));
        }
        let uops = tr.time("isa.predecode", parent, || {
            PredecodedTrace::predecode(&tail)
        });
        let (warm, export) = tr.time("cpu.warm_state", parent, || {
            (acc.warm_state(), acc.export())
        });
        Ok(Built {
            insts: tail.len() as u64,
            input: Input::Warm(Box::new(WarmTrace {
                tail: uops,
                warm,
                export,
                start: out.index,
                restored_from: None,
                rejected: Vec::new(),
            })),
            snapshots,
            snapshot_bytes,
        })
    }

    /// Phase 2 for one cell, in the form the sweep would run it.
    fn cell(&self, input: &Input, bench: Benchmark, design: DesignSpec, cell: SpanId) -> CellOut {
        match (input, &self.writers) {
            (Input::Warm(wt), Some(writers)) => {
                self.campaign_cell(wt, bench, design, writers, cell)
            }
            _ if self.w.sample().is_some() => self.sampled_cell(input.ops(), design, cell),
            _ => self.full_cell(input.ops(), design, cell),
        }
    }

    fn design_build(&self, design: DesignSpec, parent: SpanId) -> Box<dyn AddressTranslator> {
        self.tr.time("core.design_build", parent, || {
            design.build(self.cfg.geometry, self.cfg.design_seed)
        })
    }

    /// A full detailed cell: what `run_cell_uops` does.
    fn full_cell(&self, ops: &[MicroOp], design: DesignSpec, cell: SpanId) -> CellOut {
        let mut t = self.design_build(design, cell);
        let m = self.tr.time("cpu.engine", cell, || {
            simulate_uops(&self.cfg.sim, ops, t.as_mut())
        });
        CellOut {
            engine: m.clone(),
            metrics: m,
            ..CellOut::default()
        }
    }

    /// A sampled cell: the `run_sampled_uops` loop, one span per call.
    fn sampled_cell(&self, ops: &[MicroOp], design: DesignSpec, cell: SpanId) -> CellOut {
        let (cfg, tr) = (&self.cfg, self.tr);
        let Some(plan) = self.w.sample() else {
            return CellOut::default();
        };
        let mut out = CellOut::default();
        let mut acc = WarmAccumulator::new(&cfg.sim, cfg.geometry);
        let windows = plan_windows(&plan, ops.len() as u64);
        let mut records = Vec::with_capacity(windows.len());
        let mut pos = 0usize;
        let drain = 4 * cfg.sim.rob_entries;
        for w in &windows {
            let (warm_start, end) = (w.warm_start as usize, w.end as usize);
            let detail_end = end.saturating_add(drain).min(ops.len());
            let gap = ops.get(pos..warm_start).unwrap_or_default();
            let win_ops = ops.get(warm_start..end).unwrap_or_default();
            let detail_ops = ops.get(warm_start..detail_end).unwrap_or_default();
            tr.time("cpu.warm_gap", cell, || acc.warm_gap(gap));
            let window = tr.open("cpu.window", Some(cell));
            let warm = tr.time("cpu.warm_state", window.id(), || acc.warm_state());
            let mut translator = self.design_build(design, window.id());
            let mut gate = WindowGate::new(w.meas_start - w.warm_start, w.end - w.meas_start);
            let m = tr.time("cpu.engine", window.id(), || {
                simulate_uops_warm_with_recorder(
                    &cfg.sim,
                    detail_ops,
                    translator.as_mut(),
                    &warm,
                    &mut gate,
                )
            });
            let mut rec = gate.record();
            rec.start = w.meas_start;
            records.push(rec);
            drop(window);
            tr.time("cpu.warm_gap", cell, || acc.warm_gap(win_ops));
            pos = end;
            add(&mut out.engine, &m);
            out.gap_ops += (gap.len() + win_ops.len()) as u64;
            out.detail_ops += detail_ops.len() as u64;
            out.n_windows += 1;
        }
        let sc = SampledCell::from_windows(records);
        out.metrics = sc.metrics;
        out.windows = sc.windows;
        out
    }

    /// A campaign cell: the observed run the sweep makes (trace +
    /// interval recorders) with its journal and sidecar records, then a
    /// null-recorder twin that only the traced run makes, to price the
    /// recorders.
    fn campaign_cell(
        &self,
        wt: &WarmTrace,
        bench: Benchmark,
        design: DesignSpec,
        writers: &Writers,
        cell: SpanId,
    ) -> CellOut {
        let (cfg, tr) = (&self.cfg, self.tr);
        let width = self.w.iv_width().unwrap_or(2);
        let mut t = self.design_build(design, cell);
        let mut tee = Tee::new(TraceRecorder::new(), IntervalRecorder::new(width));
        let m = tr.time("obs.cell", cell, || {
            let m = simulate_uops_warm_with_recorder(
                &cfg.sim,
                wt.tail.ops(),
                t.as_mut(),
                &wt.warm,
                &mut tee,
            );
            tee.b.finish();
            m
        });
        let mut twin_t = self.design_build(design, cell);
        let twin = tr.time("cpu.engine", cell, || {
            simulate_uops_warm(&cfg.sim, wt.tail.ops(), twin_t.as_mut(), &wt.warm)
        });
        let key = CellKey {
            bench: bench.name().to_owned(),
            design: format!("{design:?}"),
            config: self.fingerprint.clone(),
            seed: cfg.design_seed,
        };
        let rec = JournalRecord {
            key: key.clone(),
            metrics: m.clone(),
        };
        let mut written = tr.time("bench.journal_append", cell, || {
            writers.journal.append(&rec)
        });
        let line = tr.time("obs.render", cell, || render_obs_record(&key, &tee.a));
        written = written.and(tr.time("bench.journal_append", cell, || {
            writers.obs.append_line(&line)
        }));
        let block = tr.time("obs.render", cell, || {
            let mut block = String::new();
            for win in tee.b.windows() {
                block.push_str(&render_interval_record(&key, win));
                block.push('\n');
            }
            block
        });
        written = written.and(tr.time("bench.journal_append", cell, || {
            writers.iv.append_block(&block)
        }));
        let failure = if twin != m {
            Some("observed run differs from its null-recorder twin".to_owned())
        } else {
            written.err().map(|e| format!("journal write failed: {e}"))
        };
        CellOut {
            engine: twin,
            metrics: m,
            failure,
            ..CellOut::default()
        }
    }
}

/// Nanoseconds per call of `begin_cycle` + `translate` (one reference per
/// cycle, retried on later cycles when refused) over every Table-2
/// design, and per `begin_cycle` + `access` on a Table-1 D-cache.
fn probe(
    inputs: &[Option<Built>],
    cfg: &ExperimentConfig,
    threads: usize,
    tr: &Tracer,
) -> (f64, f64) {
    let root = tr.open("bench.probe", None);
    let rid = root.id();
    let designs = DesignSpec::TABLE2;
    let counts = hbat_bench::executor::parallel_map(inputs.len(), threads, |bi| {
        let Some(built) = &inputs[bi] else {
            return (0u64, 0u64);
        };
        let reqs: Vec<TranslateRequest> = built
            .input
            .ops()
            .iter()
            .filter(|op| op.flags & MicroOp::F_MEM != 0)
            .map(|op| TranslateRequest {
                vaddr: VirtAddr(op.vaddr),
                kind: if op.flags & MicroOp::F_STORE != 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                base_reg: (op.base_reg != 0).then_some(op.base_reg),
                offset: op.offset,
                serial: op.serial,
            })
            .collect();
        let mut phys = Vec::with_capacity(reqs.len());
        let mut translations = 0u64;
        for (di, design) in designs.iter().enumerate() {
            let mut t = design.build(cfg.geometry, cfg.design_seed);
            let _s = tr.open("core.translate", Some(rid));
            let mut now = 0u64;
            for req in &reqs {
                loop {
                    t.begin_cycle(Cycle(now));
                    now += 1;
                    translations += 1;
                    match t.translate(req) {
                        Outcome::Retry => continue,
                        Outcome::Hit { ppn, .. } | Outcome::Miss { ppn, .. } => {
                            if di == 0 {
                                phys.push(t.geometry().splice(ppn, req.vaddr));
                            }
                            break;
                        }
                    }
                }
            }
        }
        let mut cache = Cache::new(CacheConfig::table1_dcache());
        let _s = tr.open("mem.access", Some(rid));
        let mut accesses = 0u64;
        let mut now = 0u64;
        for (pa, req) in phys.iter().zip(&reqs) {
            loop {
                cache.begin_cycle(Cycle(now));
                now += 1;
                accesses += 1;
                if let CacheAccess::Served { .. } = cache.access(*pa, req.kind.is_store()) {
                    break;
                }
            }
        }
        (translations, accesses)
    });
    drop(root);
    let (translations, accesses) = counts
        .iter()
        .fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
    (
        tr.busy("core.translate") * 1e9 / translations.max(1) as f64,
        tr.busy("mem.access") * 1e9 / accesses.max(1) as f64,
    )
}

/// Runs the traced pipeline and returns the report lines for the parent
/// process: `layer <name> <value>` per per-layer metric, then one
/// `cell` line per cell, as the untraced run reports them.
pub fn run_traced(
    w: Workload,
    seed: u64,
    dir: &Path,
    threads: usize,
    spans_out: &Path,
) -> Result<String, String> {
    let cfg = w.config(seed);
    let designs = DesignSpec::TABLE2;
    let benches = Benchmark::ALL;
    let policy = quiet_policy();
    let tr = Tracer::new();

    let root = tr.open("bench.run", None);
    let rid = root.id();
    let writers = if w.campaign() {
        let j = journal_path(dir);
        let open = |p: &Path| JournalWriter::append_to(p).map_err(|e| e.to_string());
        Some(Writers {
            journal: open(&j)?,
            obs: open(&obs_sidecar_path(&j))?,
            iv: open(&iv_sidecar_path(&j))?,
        })
    } else {
        None
    };
    let replay = Replay {
        w,
        fingerprint: w
            .ff()
            .map(|(boundary, _)| ckpt_fingerprint(&cfg, boundary))
            .unwrap_or_default(),
        cfg: cfg.clone(),
        dir,
        tr: &tr,
        writers,
    };

    let setup = tr.open("bench.setup", Some(rid));
    let setup_t = Instant::now();
    let built = parallel_map_outcomes(benches.len(), threads, &policy, |bi, _| {
        replay.build(benches[bi], setup.id())
    });
    let trace_build = setup_t.elapsed();
    drop(setup);
    let inputs: Vec<Option<Built>> = built
        .into_iter()
        .zip(benches)
        .map(|(o, bench)| match o.into_ok() {
            Some(Ok(b)) => Some(b),
            Some(Err(e)) => {
                eprintln!("perfbench: traced build of {bench}: {e}");
                None
            }
            None => None,
        })
        .collect();

    let cells_span = tr.open("bench.cells", Some(rid));
    let cells_t = Instant::now();
    let n_cells = benches.len() * designs.len();
    let outs = parallel_map_outcomes(n_cells, threads, &policy, |i, _| {
        let (bi, di) = (i / designs.len(), i % designs.len());
        let cell = tr.open("bench.cell", Some(cells_span.id()));
        let input = &inputs[bi].as_ref()?.input;
        Some(replay.cell(input, benches[bi], designs[di], cell.id()))
    });
    let cell_exec = cells_t.elapsed();
    drop(cells_span);

    // Render the result as the sweep does.
    let outs: Vec<Option<CellOut>> = outs.into_iter().map(|o| o.into_ok().flatten()).collect();
    let result_cells: Vec<Vec<CellOutcome<CellResult>>> = benches
        .iter()
        .enumerate()
        .map(|(bi, &bench)| {
            designs
                .iter()
                .enumerate()
                .map(|(di, &design)| match &outs[bi * designs.len() + di] {
                    Some(o) => CellOutcome::Ok(CellResult {
                        bench,
                        design,
                        metrics: o.metrics.clone(),
                        windows: o.windows.clone(),
                    }),
                    None => CellOutcome::Skipped {
                        reason: "traced cell failed".to_owned(),
                    },
                })
                .collect()
        })
        .collect();
    let result = FtSweepResult {
        designs: designs.to_vec(),
        cells: result_cells,
        manifest: FailureManifest::default(),
        resumed: 0,
        telemetry: SweepTelemetry {
            threads,
            cells: n_cells,
            traces_built: benches.len() as u64,
            trace_cache_hits: 0,
            trace_build,
            cell_exec,
        },
        sample: w.sample(),
    };
    std::hint::black_box(render(w, &result));
    drop(root);
    let wall = tr.seconds(rid);

    // Checks, then the probes (outside the traced wall clock).
    let lens: Vec<u64> = inputs
        .iter()
        .map(|b| b.as_ref().map_or(0, |b| b.input.ops().len() as u64))
        .collect();
    let mut reports = check_sweep(w, seed, &cfg, &result, &lens);
    for (rep, out) in reports.iter_mut().zip(&outs) {
        if let Some(f) = out.as_ref().and_then(|o| o.failure.clone()) {
            rep.failure.get_or_insert(f);
        }
    }
    let (translate_ns, access_ns) = probe(&inputs, &cfg, threads, &tr);
    tr.write_jsonl(spans_out).map_err(|e| e.to_string())?;

    // Per-layer metrics.
    let ws = tr.wall_self(rid);
    let self_s = |k: &str| ws.get(k).copied().unwrap_or(0.0);
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let mut engine = RunMetrics::default();
    let (mut gap_ops, mut detail_ops, mut n_windows) = (0u64, 0u64, 0u64);
    for o in outs.iter().flatten() {
        add(&mut engine, &o.engine);
        gap_ops += o.gap_ops;
        detail_ops += o.detail_ops;
        n_windows += o.n_windows;
    }
    let built: Vec<&Built> = inputs.iter().flatten().collect();
    let insts: u64 = built.iter().map(|b| b.insts).sum();
    let timed_ops: u64 = built
        .iter()
        .map(|b| b.input.ops().len() as u64)
        .sum::<u64>()
        * designs.len() as u64;
    let trace_bytes =
        insts * (std::mem::size_of::<TraceInst>() + std::mem::size_of::<MicroOp>()) as u64;
    let obs_overhead = if w.campaign() {
        tr.busy("obs.cell") / tr.busy("cpu.engine").max(1e-12) - 1.0
    } else {
        0.0
    };
    let disk = disk_bytes(&journal_path(dir)) + sidecar_bytes(dir) + disk_bytes(&ckpt_dir(dir));
    let mb = |b: u64| b as f64 / 1e6;

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("workloads.build_s", self_s("workloads.build"));
    m.insert("isa.exec_s", self_s("isa.exec"));
    m.insert("isa.exec_ns_per_inst", per(tr.busy("isa.exec"), insts));
    m.insert("isa.insts", insts as f64);
    m.insert("isa.predecode_s", self_s("isa.predecode"));
    m.insert(
        "isa.predecode_ns_per_op",
        per(tr.busy("isa.predecode"), insts),
    );
    m.insert("isa.trace_mb", mb(trace_bytes));
    m.insert("cpu.engine_s", self_s("cpu.engine"));
    m.insert(
        "cpu.engine_ns_per_op",
        per(tr.busy("cpu.engine"), engine.committed),
    );
    m.insert(
        "cpu.engine_ns_per_cycle",
        per(tr.busy("cpu.engine"), engine.cycles),
    );
    m.insert("cpu.sim_cycles", engine.cycles as f64);
    m.insert("cpu.committed", engine.committed as f64);
    m.insert(
        "cpu.issued_per_committed",
        engine.issued as f64 / engine.committed.max(1) as f64,
    );
    m.insert("cpu.warm_gap_s", self_s("cpu.warm_gap"));
    m.insert(
        "cpu.warm_gap_ns_per_op",
        per(tr.busy("cpu.warm_gap"), gap_ops),
    );
    m.insert("cpu.warm_state_s", self_s("cpu.warm_state"));
    m.insert("cpu.window_s", self_s("cpu.window"));
    m.insert("cpu.windows", n_windows as f64);
    m.insert(
        "cpu.detail_frac",
        if w.sample().is_some() {
            detail_ops as f64 / timed_ops.max(1) as f64
        } else {
            1.0
        },
    );
    m.insert("core.design_build_s", self_s("core.design_build"));
    m.insert("core.design_builds", tr.count("core.design_build") as f64);
    m.insert("core.translate_ns", translate_ns);
    m.insert("core.tlb_accesses", engine.tlb.accesses as f64);
    m.insert("core.tlb_misses", engine.tlb.misses as f64);
    m.insert(
        "core.translation_retries",
        engine.translation_retries as f64,
    );
    m.insert("mem.access_ns", access_ns);
    m.insert("mem.dcache_accesses", engine.dcache.accesses as f64);
    m.insert("mem.dcache_misses", engine.dcache.misses as f64);
    m.insert("mem.icache_misses", engine.icache.misses as f64);
    m.insert("obs.cell_s", self_s("obs.cell"));
    m.insert("obs.overhead_frac", obs_overhead);
    m.insert("obs.render_s", self_s("obs.render"));
    m.insert("ckpt.ff_s", self_s("ckpt.ff"));
    m.insert("ckpt.save_s", self_s("ckpt.save"));
    m.insert(
        "ckpt.snapshots",
        built.iter().map(|b| b.snapshots).sum::<u64>() as f64,
    );
    m.insert(
        "ckpt.mb_written",
        mb(built.iter().map(|b| b.snapshot_bytes).sum()),
    );
    m.insert("bench.journal_append_s", self_s("bench.journal_append"));
    m.insert("bench.sidecar_mb", mb(sidecar_bytes(dir)));
    m.insert(
        "bench.worker_busy_frac",
        tr.busy("bench.cell") / (threads as f64 * cell_exec.as_secs_f64()).max(1e-12),
    );
    m.insert(
        "bench.harness_s",
        ["bench.run", "bench.setup", "bench.cells", "bench.cell"]
            .iter()
            .map(|k| self_s(k))
            .sum(),
    );
    m.insert("bench.traced_wall_s", wall);
    m.insert("disk_mb", mb(disk));

    // Every wall-clock second of the traced run is attributed to a layer.
    let attributed: f64 = ws.values().sum();
    if (attributed - wall).abs() > 1e-6 * wall.max(1.0) {
        return Err(format!(
            "span self times sum to {attributed} s, traced wall is {wall} s"
        ));
    }

    let mut out = String::new();
    for (k, v) in &m {
        let _ = writeln!(out, "layer {k} {v}");
    }
    for rep in &reports {
        let _ = writeln!(out, "cell {}", rep.render());
    }
    Ok(out)
}
