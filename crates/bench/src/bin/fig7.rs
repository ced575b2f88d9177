//! Regenerates Figure 7: relative performance with in-order issue.

use hbat_bench::experiment::{scale_from_args, sweep_ft, ExperimentConfig, SweepOptions};
use hbat_core::designs::spec::DesignSpec;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale).with_inorder();
    let r = sweep_ft(&DesignSpec::TABLE2, &cfg, &SweepOptions::default())
        .expect("a sweep without a journal does no I/O");
    println!(
        "{}",
        r.render_figure(&format!(
            "Figure 7: Relative Performance with In-order Issue ({scale:?} scale)"
        ))
    );
    println!("Per-benchmark IPC detail:\n\n{}", r.render_details());
    if !r.manifest.is_empty() {
        std::process::exit(1);
    }
}
