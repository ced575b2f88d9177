//! Regenerates every IPC figure (5, 7, 8, 9) in a single process.
//!
//! Running them together exercises the process-wide trace cache: Figures
//! 5, 7 and 8 sweep the same workloads (only the machine model or page
//! size changes), so their traces are generated once and replayed three
//! times; only Figure 9's reduced-register workloads need a second
//! generation pass. The cache and scheduling statistics are printed at
//! the end.
//!
//! Run: `cargo run --release -p hbat-bench --bin figs [scale]`

use hbat_bench::experiment::{scale_from_args, sweep_ft, ExperimentConfig, SweepOptions};
use hbat_bench::TraceCache;
use hbat_core::designs::spec::DesignSpec;

fn main() {
    let scale = scale_from_args();
    let figures = [
        (
            "Figure 5: Relative Performance on Baseline Simulator",
            ExperimentConfig::baseline(scale),
        ),
        (
            "Figure 7: Relative Performance with In-order Issue",
            ExperimentConfig::baseline(scale).with_inorder(),
        ),
        (
            "Figure 8: Relative Performance with 8 KB Pages",
            ExperimentConfig::baseline(scale).with_8k_pages(),
        ),
        (
            "Figure 9: Relative Performance with 8 Int / 8 FP Registers",
            ExperimentConfig::baseline(scale).with_small_regs(),
        ),
    ];
    let mut failed = false;
    for (title, cfg) in figures {
        let r = sweep_ft(&DesignSpec::TABLE2, &cfg, &SweepOptions::default())
            .expect("a sweep without a journal does no I/O");
        failed |= !r.manifest.is_empty();
        println!(
            "{}\n",
            r.render_figure(&format!("{title} ({scale:?} scale)"))
        );
        eprintln!("[{}] {}", &title[..8], r.telemetry.summary());
    }
    let cache = TraceCache::global();
    eprintln!(
        "trace cache: {} built, {} served from cache",
        cache.misses(),
        cache.hits()
    );
    if failed {
        std::process::exit(1);
    }
}
