//! The byte-exact oracle for every record stream the repo writes.
//!
//! Each stream is rendered from fixed inputs with a distinct value in
//! every field and compared with its frozen bytes: a journal line, an
//! `.obs.jsonl` line, an `.iv.jsonl` line, the `hbat trace --out`
//! event stream, a pretty `BENCH_*.json` report (non-finite floats and
//! control-character escapes included) and a `perf.jsonl` line. Old
//! journals must keep resuming, so any change here is a format change
//! and needs a version bump, not a re-bless. The journal and interval
//! parsers must read the frozen lines back into the inputs.

use std::collections::BTreeMap;

use hbat_bench::executor::JsonReport;
use hbat_bench::experiment::{render_interval_record, render_obs_record};
use hbat_bench::journal::{
    parse_interval_record, parse_record, parse_scalars, render_record, CellKey, JournalRecord,
    Scalar,
};
use hbat_bench::perfdb::render_perf_record;
use hbat_core::stats::TranslatorStats;
use hbat_cpu::RunMetrics;
use hbat_mem::cache::CacheStats;
use hbat_obs::{
    IntervalRecord, OccupancySample, PortResource, Recorder, StallCause, TraceRecorder,
};

/// A key whose design string needs every kind of escape.
fn key() -> CellKey {
    CellKey {
        bench: "Compress".into(),
        design: "MultiPorted { \"q\" \\ \n\t\u{1}\r é }".into(),
        config: "a1b2c3d4e5f60718".into(),
        seed: 1996,
    }
}

fn metrics() -> RunMetrics {
    RunMetrics {
        cycles: 101,
        committed: 102,
        issued: 103,
        squashed: 104,
        wrong_path_translations: 105,
        issued_mem: 106,
        loads: 107,
        stores: 108,
        cond_branches: 109,
        bpred_correct: 110,
        tlb_dispatch_stall_cycles: 111,
        translation_retries: 112,
        tlb: TranslatorStats {
            accesses: 201,
            shielded: 202,
            base_hits: 203,
            misses: 204,
            retries: 205,
            internal_queueing_cycles: 206,
            status_writes: 207,
            inclusion_invalidations: 208,
            shield_flushes: 209,
        },
        dcache: CacheStats {
            accesses: 301,
            hits: 302,
            misses: 303,
            merged: 304,
            writebacks: 305,
            port_rejects: 306,
        },
        icache: CacheStats {
            accesses: 401,
            hits: 402,
            misses: 403,
            merged: 404,
            writebacks: 405,
            port_rejects: 406,
        },
    }
}

fn window() -> IntervalRecord {
    IntervalRecord {
        start: 501,
        cycles: 502,
        issue_cycles: 503,
        issued: 504,
        committed: 505,
        stalls: [511, 512, 513, 514, 515, 516, 517, 518],
        tlb_lookups: 521,
        tlb_misses: 522,
        dcache_accesses: 523,
        dcache_misses: 524,
        walks: 525,
        walk_cycles: 526,
        rob_sum: 527,
        lsq_sum: 528,
        samples: 529,
    }
}

/// A recorder with a distinct count per stall cause and port, two
/// walks and three occupancy samples.
fn recorder() -> TraceRecorder {
    let mut r = TraceRecorder::new();
    let mut now = 0;
    for _ in 0..4 {
        r.issue_cycle(now, 3);
        now += 1;
    }
    for (i, cause) in StallCause::ALL.into_iter().enumerate() {
        for _ in 0..=i {
            r.stall_cycle(now, cause);
            now += 1;
        }
    }
    for (i, res) in PortResource::ALL.into_iter().enumerate() {
        for _ in 0..i + 2 {
            r.port_conflict(now, res);
        }
    }
    r.walk(now, 0xbeef, 30);
    r.walk(now + 1, 0xcafe, 45);
    for (rob, lsq, mshrs, tlb_queue) in [(7, 3, 2, 1), (9, 5, 4, 6), (1, 0, 0, 0)] {
        r.sample(
            now,
            &OccupancySample {
                rob,
                lsq,
                mshrs,
                tlb_queue,
            },
        );
        now += 64;
    }
    r
}

const KEY_JSON: &str = "\"bench\":\"Compress\",\
     \"design\":\"MultiPorted { \\\"q\\\" \\\\ \\n\\t\\u0001\\u000d é }\",\
     \"config\":\"a1b2c3d4e5f60718\",\"seed\":1996";

#[test]
fn journal_line_bytes_are_frozen_and_round_trip() {
    let rec = JournalRecord {
        key: key(),
        metrics: metrics(),
    };
    let line = render_record(&rec);
    let want = format!(
        "{{\"v\":1,{KEY_JSON},\"metrics\":{{\"cycles\":101,\"committed\":102,\"issued\":103,\
         \"squashed\":104,\"wrong_path_translations\":105,\"issued_mem\":106,\"loads\":107,\
         \"stores\":108,\"cond_branches\":109,\"bpred_correct\":110,\
         \"tlb_dispatch_stall_cycles\":111,\"translation_retries\":112,\
         \"tlb\":{{\"accesses\":201,\"shielded\":202,\"base_hits\":203,\"misses\":204,\
         \"retries\":205,\"internal_queueing_cycles\":206,\"status_writes\":207,\
         \"inclusion_invalidations\":208,\"shield_flushes\":209}},\
         \"dcache\":{{\"accesses\":301,\"hits\":302,\"misses\":303,\"merged\":304,\
         \"writebacks\":305,\"port_rejects\":306}},\
         \"icache\":{{\"accesses\":401,\"hits\":402,\"misses\":403,\"merged\":404,\
         \"writebacks\":405,\"port_rejects\":406}}}}}}"
    );
    assert_eq!(line, want);
    assert_eq!(parse_record(&want).unwrap(), rec);
}

#[test]
fn obs_sidecar_line_bytes_are_frozen() {
    let line = render_obs_record(&key(), &recorder());
    let want = format!(
        "{{\"v\":1,{KEY_JSON},\"obs\":{{\"cycles\":40,\"issue_cycles\":4,\"issued_ops\":12,\
         \"stalls\":{{\"tlb-port\":1,\"tlb-walk\":2,\"dcache-port\":3,\"dcache-miss\":4,\
         \"rob-full\":5,\"lsq-full\":6,\"fetch-starved\":7,\"no-ready-op\":8}},\
         \"port_conflicts\":{{\"tlb\":2,\"dcache\":3,\"icache\":4}},\
         \"walks\":2,\"walk_cycles\":75,\
         \"occupancy\":{{\"rob\":{{\"samples\":3,\"max\":9}},\"lsq\":{{\"samples\":3,\"max\":5}},\
         \"mshrs\":{{\"samples\":3,\"max\":4}},\"tlb_queue\":{{\"samples\":3,\"max\":6}}}}}}}}"
    );
    assert_eq!(line, want);
}

#[test]
fn interval_sidecar_line_bytes_are_frozen_and_round_trip() {
    let line = render_interval_record(&key(), &window());
    let want = format!(
        "{{\"v\":1,{KEY_JSON},\"window\":{{\"start\":501,\"cycles\":502,\"issue\":503,\
         \"issued\":504,\"committed\":505,\
         \"stalls\":{{\"tlb-port\":511,\"tlb-walk\":512,\"dcache-port\":513,\"dcache-miss\":514,\
         \"rob-full\":515,\"lsq-full\":516,\"fetch-starved\":517,\"no-ready-op\":518}},\
         \"tlb\":{{\"lookups\":521,\"misses\":522}},\"dcache\":{{\"accesses\":523,\"misses\":524}},\
         \"walks\":{{\"count\":525,\"cycles\":526}},\
         \"occupancy\":{{\"rob_sum\":527,\"lsq_sum\":528,\"samples\":529}}}}}}"
    );
    assert_eq!(line, want);
    let back = parse_interval_record(&want).unwrap();
    assert_eq!(back.key, key());
    assert_eq!(back.window, window());
}

#[test]
fn event_stream_bytes_are_frozen() {
    assert_eq!(
        recorder().render_jsonl(),
        concat!(
            "{\"v\":1,\"cycle\":4,\"event\":\"stall\",\"cause\":\"tlb-port\"}\n",
            "{\"v\":1,\"cycle\":5,\"event\":\"stall\",\"cause\":\"tlb-walk\"}\n",
            "{\"v\":1,\"cycle\":6,\"event\":\"stall\",\"cause\":\"tlb-walk\"}\n",
            "{\"v\":1,\"cycle\":7,\"event\":\"stall\",\"cause\":\"dcache-port\"}\n",
            "{\"v\":1,\"cycle\":8,\"event\":\"stall\",\"cause\":\"dcache-port\"}\n",
            "{\"v\":1,\"cycle\":9,\"event\":\"stall\",\"cause\":\"dcache-port\"}\n",
            "{\"v\":1,\"cycle\":10,\"event\":\"stall\",\"cause\":\"dcache-miss\"}\n",
            "{\"v\":1,\"cycle\":11,\"event\":\"stall\",\"cause\":\"dcache-miss\"}\n",
            "{\"v\":1,\"cycle\":12,\"event\":\"stall\",\"cause\":\"dcache-miss\"}\n",
            "{\"v\":1,\"cycle\":13,\"event\":\"stall\",\"cause\":\"dcache-miss\"}\n",
            "{\"v\":1,\"cycle\":14,\"event\":\"stall\",\"cause\":\"rob-full\"}\n",
            "{\"v\":1,\"cycle\":15,\"event\":\"stall\",\"cause\":\"rob-full\"}\n",
            "{\"v\":1,\"cycle\":16,\"event\":\"stall\",\"cause\":\"rob-full\"}\n",
            "{\"v\":1,\"cycle\":17,\"event\":\"stall\",\"cause\":\"rob-full\"}\n",
            "{\"v\":1,\"cycle\":18,\"event\":\"stall\",\"cause\":\"rob-full\"}\n",
            "{\"v\":1,\"cycle\":19,\"event\":\"stall\",\"cause\":\"lsq-full\"}\n",
            "{\"v\":1,\"cycle\":20,\"event\":\"stall\",\"cause\":\"lsq-full\"}\n",
            "{\"v\":1,\"cycle\":21,\"event\":\"stall\",\"cause\":\"lsq-full\"}\n",
            "{\"v\":1,\"cycle\":22,\"event\":\"stall\",\"cause\":\"lsq-full\"}\n",
            "{\"v\":1,\"cycle\":23,\"event\":\"stall\",\"cause\":\"lsq-full\"}\n",
            "{\"v\":1,\"cycle\":24,\"event\":\"stall\",\"cause\":\"lsq-full\"}\n",
            "{\"v\":1,\"cycle\":25,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
            "{\"v\":1,\"cycle\":26,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
            "{\"v\":1,\"cycle\":27,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
            "{\"v\":1,\"cycle\":28,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
            "{\"v\":1,\"cycle\":29,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
            "{\"v\":1,\"cycle\":30,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
            "{\"v\":1,\"cycle\":31,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
            "{\"v\":1,\"cycle\":32,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":33,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":34,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":35,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":36,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":37,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":38,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":39,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"tlb\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"tlb\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"dcache\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"dcache\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"dcache\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"icache\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"icache\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"icache\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"port-conflict\",\"resource\":\"icache\"}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"walk\",\"vpn\":48879,\"latency\":30}\n",
            "{\"v\":1,\"cycle\":41,\"event\":\"walk\",\"vpn\":51966,\"latency\":45}\n",
            "{\"v\":1,\"cycle\":40,\"event\":\"sample\",\"rob\":7,\"lsq\":3,\"mshrs\":2,\"tlb_queue\":1}\n",
            "{\"v\":1,\"cycle\":104,\"event\":\"sample\",\"rob\":9,\"lsq\":5,\"mshrs\":4,\"tlb_queue\":6}\n",
            "{\"v\":1,\"cycle\":168,\"event\":\"sample\",\"rob\":1,\"lsq\":0,\"mshrs\":0,\"tlb_queue\":0}\n",
        )
    );
}

#[test]
fn pretty_report_bytes_are_frozen() {
    let mut r = JsonReport::new();
    r.str("benchmark", "records")
        .int("cells", 130)
        .num("ratio", 0.125)
        .num("whole", 3.0)
        .num("tiny", 2.5e-7)
        .num("nan", f64::NAN)
        .num("inf", f64::INFINITY)
        .num("ninf", f64::NEG_INFINITY)
        .bool("ok", true)
        .bool("bad", false)
        .str("ctl\"key\\", "tab\tnl\ncr\rbell\u{7}nul\u{0} é");
    assert_eq!(
        r.render(),
        "{\n  \"benchmark\": \"records\",\n  \"cells\": 130,\n  \"ratio\": 0.125,\n  \
         \"whole\": 3,\n  \"tiny\": 0.00000025,\n  \"nan\": null,\n  \"inf\": null,\n  \
         \"ninf\": null,\n  \"ok\": true,\n  \"bad\": false,\n  \
         \"ctl\\\"key\\\\\": \"tab\\tnl\\ncr\\u000dbell\\u0007nul\\u0000 é\"\n}"
    );
    assert_eq!(JsonReport::new().render(), "{\n}");
}

#[test]
fn perf_record_bytes_are_frozen() {
    let report: BTreeMap<String, Scalar> = [
        ("benchmark", Scalar::Str("obs_overhead".into())),
        ("scale", Scalar::Str("small \"q\"".into())),
        ("instructions", Scalar::Int(451_618)),
        ("null_ms", Scalar::Num(93.5)),
        ("whole_ms", Scalar::Num(80.0)),
        ("identical_metrics", Scalar::Bool(true)),
        ("gap", Scalar::Null),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    let line = render_perf_record(&report, "ci\tubuntu").unwrap();
    assert_eq!(
        line,
        "{\"v\":1,\"bench\":\"obs_overhead\",\"config\":\"93ef1c45a57a9acd\",\
         \"host\":\"ci\\tubuntu\",\"gap\":null,\"identical_metrics\":true,\
         \"instructions\":451618,\"null_ms\":93.5,\"scale\":\"small \\\"q\\\"\",\
         \"whole_ms\":80}"
    );
    assert_eq!(parse_scalars(&line).unwrap().len(), 10);
}
