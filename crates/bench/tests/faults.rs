//! Fault-injection acceptance tests: every recovery path of the
//! fault-tolerant sweep executor, driven by deterministic seeded plans
//! (the same suite CI runs with `HBAT_THREADS=4`).
//!
//! The headline acceptance criterion: inject panics into k cells of an
//! n-cell sweep → the sweep completes the remaining n−k cells and
//! reports exactly k manifest entries, and a `--resume` run re-executes
//! only the failed cells, bit-identical to the frozen golden digests.

mod common;

use std::path::PathBuf;
use std::time::Duration;

use common::assert_matches_golden;
use hbat_bench::executor::RunPolicy;
use hbat_bench::experiment::{sweep_ft_on, ExperimentConfig, SweepOptions};
use hbat_bench::faults::{FaultKind, FaultPlan};
use hbat_bench::journal::read_journal;
use hbat_bench::outcome::CellOutcome;
use hbat_bench::TraceCache;
use hbat_core::designs::spec::DesignSpec;
use hbat_workloads::Scale;

const THREADS: usize = 4;

fn designs() -> &'static [DesignSpec] {
    &DesignSpec::TABLE2[..3]
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbat-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.journal"));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn injected_panics_leave_partial_results_and_resume_is_bit_identical() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let n = hbat_workloads::Benchmark::ALL.len() * designs().len();
    let k = 3;
    let plan = FaultPlan::seeded(7, n, k, 0, 0);
    assert_eq!(plan.len(), k);
    let journal = temp_journal("panics");

    // Faulted sweep: n − k cells complete, exactly k manifest entries.
    let faulted = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: plan.clone(),
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert_eq!(faulted.completed(), n - k);
    assert_eq!(faulted.manifest.len(), k, "{}", faulted.manifest.render());
    let mut failed: Vec<usize> = faulted.manifest.failures.iter().map(|f| f.index).collect();
    failed.sort_unstable();
    assert_eq!(failed, plan.cells(), "exactly the armed cells failed");
    for f in &faulted.manifest.failures {
        assert_eq!(f.kind, "panicked");
        assert!(f.detail.contains("injected fault"), "{}", f.detail);
    }
    assert_matches_golden(&faulted, "ooo", "faulted");
    assert_eq!(
        read_journal(&journal).expect("parseable journal").len(),
        n - k,
        "only completed cells are journalled"
    );

    // Resume without faults: only the k failed cells re-execute, and the
    // merged result is bit-identical to an unfaulted serial sweep.
    let resumed = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            journal: Some(journal.clone()),
            resume: true,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert!(resumed.manifest.is_empty(), "{}", resumed.manifest.render());
    assert_eq!(resumed.resumed, n - k, "restored cells are not re-executed");
    assert_eq!(resumed.completed(), n);
    assert_eq!(assert_matches_golden(&resumed, "ooo", "resumed"), n);
    assert_eq!(
        read_journal(&journal).expect("parseable journal").len(),
        n,
        "the resume run journals the re-executed cells"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn transient_panics_recover_through_retries() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let plan = FaultPlan::none()
        .with(5, FaultKind::Panic { failures: 1 })
        .with(11, FaultKind::Panic { failures: 2 });
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            policy: RunPolicy::default().with_retries(2),
            faults: plan,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    assert_matches_golden(&r, "ooo", "retried");
}

#[test]
fn stall_fault_times_out_and_journal_stays_consistent() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let stalled = 4usize;
    let journal = temp_journal("stall");
    let n = hbat_workloads::Benchmark::ALL.len() * designs().len();
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            policy: RunPolicy::default().with_timeout(Duration::from_secs(2)),
            faults: FaultPlan::none().with(stalled, FaultKind::Stall),
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert_eq!(r.manifest.len(), 1, "{}", r.manifest.render());
    assert_eq!(r.manifest.failures[0].kind, "timed_out");
    assert_eq!(r.manifest.failures[0].index, stalled);
    assert_eq!(r.completed(), n - 1);
    assert_matches_golden(&r, "ooo", "stalled");

    // The journal is parseable and holds exactly the completed cells —
    // the timed-out cell never journalled a record.
    let records = read_journal(&journal).expect("parseable journal");
    assert_eq!(records.len(), n - 1);

    // Resuming (no faults, no timeout) finishes the one missing cell.
    let resumed = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            journal: Some(journal.clone()),
            resume: true,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert!(resumed.manifest.is_empty());
    assert_eq!(resumed.resumed, n - 1);
    assert_matches_golden(&resumed, "ooo", "stall-resumed");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn corrupt_trace_fault_is_rejected_by_the_reader() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: FaultPlan::none().with(7, FaultKind::CorruptTrace),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert_eq!(r.manifest.len(), 1, "{}", r.manifest.render());
    let f = &r.manifest.failures[0];
    assert_eq!(f.index, 7);
    assert!(
        f.detail.contains("corrupt trace rejected"),
        "the reader must reject the corrupt image, got: {}",
        f.detail
    );
    assert_matches_golden(&r, "ooo", "corrupt");
}

#[test]
fn trace_build_failure_skips_only_that_benchmarks_cells() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let bad_bench = 2usize;
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: FaultPlan::none().with_trace_fault(bad_bench),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert_eq!(r.manifest.len(), designs().len());
    for f in &r.manifest.failures {
        assert_eq!(f.kind, "skipped");
        assert!(f.detail.contains("trace build"), "{}", f.detail);
        assert_eq!(f.bench, hbat_workloads::Benchmark::ALL[bad_bench].name());
    }
    for (bi, row) in r.cells.iter().enumerate() {
        for outcome in row {
            if bi == bad_bench {
                assert!(matches!(outcome, CellOutcome::Skipped { .. }));
            } else {
                assert!(outcome.is_ok(), "unrelated benchmarks complete");
            }
        }
    }
    assert_matches_golden(&r, "ooo", "trace-fault");
}

#[test]
fn partial_results_render_with_explicit_missing_markers() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    // Fail design column 1 for every benchmark: its aggregate becomes
    // unavailable and must render as n/a, not vanish or abort.
    let mut plan = FaultPlan::none();
    for bi in 0..hbat_workloads::Benchmark::ALL.len() {
        plan = plan.with(
            bi * designs().len() + 1,
            FaultKind::Panic { failures: u32::MAX },
        );
    }
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: plan,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert_eq!(r.weighted_ipc(designs()[1]), None);
    assert!(r.weighted_ipc(designs()[0]).is_some());
    let fig = r.render_figure("partial figure");
    assert!(
        fig.contains("n/a"),
        "missing design marked in figure:\n{fig}"
    );
    assert!(
        fig.contains("cell(s) failed"),
        "manifest appended to figure:\n{fig}"
    );
    let details = r.render_details();
    assert!(details.contains("n/a"), "missing cells marked:\n{details}");
    for line in details.lines().skip(2) {
        assert!(
            line.split_whitespace().count() == designs().len() + 1,
            "rows keep full width: {line:?}"
        );
    }
}
