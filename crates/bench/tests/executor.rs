//! The parallel sweep executor is a pure optimisation: whatever the
//! worker count, claim order, or trace sharing, every cell's metrics
//! must equal its frozen golden digest (see `golden.rs`).

mod common;

use proptest::prelude::*;

use common::{assert_matches_golden, cell_rows, config, golden_cells};
use hbat_bench::executor::TraceCache;
use hbat_bench::experiment::{sweep_ft_on, FtSweepResult, SweepOptions};
use hbat_core::designs::spec::DesignSpec;

fn sweep_on(designs: &[DesignSpec], threads: usize, cache: &TraceCache) -> FtSweepResult {
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let r = sweep_ft_on(designs, &config("ooo"), &opts, cache)
        .expect("a sweep without a journal does no I/O");
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    r
}

#[test]
fn parallel_sweep_matches_golden_digests() {
    let designs = [
        DesignSpec::MultiPorted { ports: 4 },
        DesignSpec::MultiPorted { ports: 1 },
        DesignSpec::MultiLevel { l1_entries: 8 },
    ];
    for threads in [1, 3, 8] {
        let parallel = sweep_on(&designs, threads, &TraceCache::new());
        let checked = assert_matches_golden(&parallel, "ooo", "parallel");
        assert_eq!(checked, 10 * designs.len());
        assert_eq!(parallel.telemetry.threads, threads);
        assert_eq!(parallel.telemetry.cells, 10 * designs.len());
    }
}

#[test]
fn cached_traces_do_not_change_results() {
    let designs = [DesignSpec::MultiPorted { ports: 2 }];
    let cache = TraceCache::new();
    let cold = sweep_on(&designs, 2, &cache);
    assert_eq!(cold.telemetry.traces_built, 10, "cold cache builds all");
    let warm = sweep_on(&designs, 2, &cache);
    assert_eq!(warm.telemetry.traces_built, 0, "warm cache builds none");
    assert_eq!(warm.telemetry.trace_cache_hits, 10);
    assert_matches_golden(&cold, "ooo", "cold");
    assert_matches_golden(&warm, "ooo", "warm");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any design pair at any worker count reproduces the golden digests.
    #[test]
    fn scheduling_never_leaks_into_metrics(
        first in 0usize..DesignSpec::TABLE2.len(),
        second in 0usize..DesignSpec::TABLE2.len(),
        threads in 1usize..6,
    ) {
        let designs = [DesignSpec::TABLE2[first], DesignSpec::TABLE2[second]];
        let parallel = sweep_on(&designs, threads, &TraceCache::new());
        let golden = golden_cells();
        for (key, digest) in cell_rows(&parallel, "ooo") {
            prop_assert_eq!(Some(&digest), golden.get(&key));
        }
    }
}
