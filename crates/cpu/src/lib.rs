//! # hbat-cpu — cycle-timing processor models
//!
//! The paper's baseline simulator (Table 1) rebuilt in Rust: an 8-way
//! superscalar with a GAp branch predictor, 32 KB split caches, Table-1
//! functional units, and either out-of-order issue (64-entry ROB,
//! 32-entry load/store queue) or in-order issue with stall-on-hazard.
//!
//! The simulator is trace-driven: the functional executor in `hbat-isa`
//! produces the committed-path dynamic trace, `PredecodedTrace`
//! flattens it into fixed-size micro-ops once per workload, and
//! [`simulate_uops`] replays them against any address-translation design
//! from `hbat-core`, measuring how translation bandwidth and latency
//! shape IPC.
//!
//! ```
//! use hbat_core::designs::spec::DesignSpec;
//! use hbat_core::PageGeometry;
//! use hbat_cpu::{simulate_uops, SimConfig};
//! use hbat_isa::uop::PredecodedTrace;
//! use hbat_isa::{Inst, Machine, Program, Reg};
//! use hbat_isa::inst::{AddrMode, Width};
//!
//! let program = Program::new(vec![
//!     Inst::Li { d: Reg::int(1), imm: 0x1000 },
//!     Inst::Load {
//!         d: Reg::int(2),
//!         addr: AddrMode::BaseOffset { base: Reg::int(1), offset: 0 },
//!         width: Width::B8,
//!     },
//!     Inst::Halt,
//! ])?;
//! let trace = Machine::new(program).run_to_vec(100);
//! let uops = PredecodedTrace::predecode(&trace);
//! let mut tlb = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
//! let metrics = simulate_uops(&SimConfig::baseline(), &uops, tlb.as_mut());
//! assert_eq!(metrics.committed, 2);
//! # Ok::<(), hbat_isa::ProgramError>(())
//! ```
//!
//! Observed runs construct an [`engine::Engine`] with a recorder (or
//! call [`simulate_uops_warm_with_recorder`] when warm state is
//! installed); with the default `NullRecorder` every probe compiles out.

pub mod bpred;
pub mod config;
pub mod engine;
pub mod fu;
pub mod metrics;
pub mod warm;

pub use bpred::BranchPredictor;
pub use config::{IssueModel, SimConfig};
pub use metrics::RunMetrics;
pub use warm::{WarmAccumulator, WarmExport, WarmState};

use hbat_core::translator::AddressTranslator;
use hbat_isa::uop::MicroOp;

/// Replays the predecoded trace `uops` (see
/// `hbat_isa::uop::PredecodedTrace`) on the machine described by `cfg`,
/// translating data addresses through `translator`, and returns the run
/// metrics. The predecode cost is paid once per workload, not once per
/// design cell.
pub fn simulate_uops(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
) -> RunMetrics {
    engine::Engine::new(cfg, uops, translator).run()
}

/// Like [`simulate_uops`], but installing checkpointed warm state (TLB
/// entries, cache blocks, branch-predictor tables — see [`warm`]) before
/// the detailed run starts. `warm` comes from a [`WarmAccumulator`]
/// (restored or accumulated), whose branch-predictor tables match the
/// Table-1 predictor's size.
pub fn simulate_uops_warm(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
    warm: &WarmState,
) -> RunMetrics {
    simulate_uops_warm_with_recorder(cfg, uops, translator, warm, hbat_obs::NullRecorder)
}

/// Like [`simulate_uops_warm`], but reporting cycle-level observations to
/// `rec` (see `hbat-obs`). Pass the recorder by `&mut` to inspect it
/// after the run; enabling one never changes the returned metrics.
pub fn simulate_uops_warm_with_recorder<R: hbat_obs::Recorder>(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
    warm: &WarmState,
    rec: R,
) -> RunMetrics {
    let mut e = engine::Engine::with_recorder(cfg, uops, translator, rec);
    e.install_warm(warm);
    e.run()
}
