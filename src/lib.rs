//! # hbat-suite — High-Bandwidth Address Translation for Multiple-Issue Processors
//!
//! A full reproduction of Austin & Sohi's ISCA 1996 paper, as a Rust
//! workspace. This facade crate re-exports the whole stack:
//!
//! * `core` — the paper's contribution: multi-ported,
//!   interleaved, multi-level, piggybacked, and pretranslation TLB designs
//!   behind one cycle-level [`AddressTranslator`](hbat_core::AddressTranslator)
//!   trait, plus the page table and replacement policies;
//! * `isa` — the simulated MIPS-like instruction set and the
//!   functional executor that produces dynamic traces;
//! * `workloads` — ten synthetic analogues of the
//!   paper's benchmarks, built by a spilling register assigner;
//! * `mem` — the 32 KB split caches;
//! * `cpu` — the 8-way in-order/out-of-order timing engine
//!   with speculative wrong-path execution;
//! * `obs` — zero-cost observability: the statically-dispatched
//!   [`Recorder`](hbat_obs::Recorder) probes, stall attribution, and
//!   occupancy histograms;
//! * `stats` — aggregation and table rendering;
//! * `ckpt` — crash-safe checkpointing: versioned, checksummed
//!   warm-state snapshots with verified restore (DESIGN.md § 13);
//! * `bench` — the harness that regenerates every table and
//!   figure;
//! * `analysis` — trace anatomy: reuse distance,
//!   same-page adjacency, pointer-register reuse.
//!
//! ## Quick start
//!
//! ```
//! use hbat_suite::prelude::*;
//!
//! // Build the paper's M8 design and one benchmark, run it once into
//! // predecoded micro-ops, then measure IPC.
//! let workload = Benchmark::Espresso.build(&WorkloadConfig::new(Scale::Test));
//! let uops = workload.uops();
//! let mut tlb = DesignSpec::parse("M8")?.build(PageGeometry::KB4, 1996);
//! let metrics = simulate_uops(&SimConfig::baseline(), &uops, tlb.as_mut());
//! assert!(metrics.ipc() > 0.5);
//! # Ok::<(), hbat_core::designs::spec::ParseDesignError>(())
//! ```
//!
//! The experiment harness wraps that in the simulator's two entry
//! points: [`run_cell`](hbat_bench::experiment::run_cell) times one
//! (workload, design) cell under any recorder, and
//! [`sweep_ft`](hbat_bench::experiment::sweep_ft) runs a design sweep
//! over all ten programs on every core, cell by cell in isolation.
//!
//! ```
//! use hbat_suite::prelude::*;
//!
//! let cfg = ExperimentConfig::baseline(Scale::Test);
//! let uops = Benchmark::Compress.build(&cfg.workload).uops();
//!
//! // One cell, observed: the recorder attributes every cycle.
//! let m8 = DesignSpec::parse("M8")?;
//! let mut rec = TraceRecorder::new();
//! let metrics = run_cell(&uops, None, m8, &cfg, &mut rec);
//! assert_eq!(rec.cycles(), metrics.cycles);
//!
//! // A two-design sweep, unobserved, relative to T4.
//! let designs = [DesignSpec::parse("T4")?, DesignSpec::parse("T1")?];
//! let r = sweep_ft(&designs, &cfg, &SweepOptions::default())?;
//! assert!(r.manifest.is_empty());
//! assert!(r.relative_ipc(designs[1]).unwrap() < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use hbat_analysis as analysis;
pub use hbat_bench as bench;
pub use hbat_ckpt as ckpt;
pub use hbat_core as core;
pub use hbat_cpu as cpu;
pub use hbat_isa as isa;
pub use hbat_mem as mem;
pub use hbat_obs as obs;
pub use hbat_stats as stats;
pub use hbat_workloads as workloads;

/// The names most users need, in one import.
pub mod prelude {
    pub use hbat_analysis::{AdjacencyProfile, PointerProfile, ReuseProfile};
    pub use hbat_bench::experiment::{run_cell, sweep_ft, ExperimentConfig, SweepOptions};
    pub use hbat_core::designs::spec::DesignSpec;
    pub use hbat_core::{
        AddressTranslator, Cycle, Outcome, PageGeometry, PageTable, TranslateRequest,
    };
    pub use hbat_cpu::{simulate_uops, IssueModel, RunMetrics, SimConfig};
    pub use hbat_isa::{Machine, PredecodedTrace, Program};
    pub use hbat_obs::{NullRecorder, Recorder, StallCause, TraceRecorder};
    pub use hbat_workloads::{Benchmark, RegBudget, Scale, Workload, WorkloadConfig};
}
