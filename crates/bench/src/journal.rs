//! The append-only sweep journal: restartable campaigns.
//!
//! Workers append one JSONL record per completed cell, keyed by the
//! cell's full identity `(benchmark, design, config fingerprint, seed)`
//! and carrying the complete integer [`RunMetrics`], so a killed sweep
//! can be resumed with `--resume`: journalled cells are replayed from
//! disk (bit-identical — every metric is an integer) and only the
//! missing cells re-execute.
//!
//! ```text
//! {"v":1,"bench":"Compress","design":"MultiPorted { ports: 4 }","config":"a1b2…","seed":1996,"metrics":{…}}
//! ```
//!
//! Each record is written and flushed as a single line, so a kill can
//! tear at most the final line; [`read_journal`] tolerates exactly that
//! (a torn tail is dropped, a corrupt interior line is an error).
//!
//! The observability (`.obs.jsonl`) and interval (`.iv.jsonl`)
//! sidecars share the journal line's shape: a version, the cell key,
//! then one payload object. Every line is rendered and parsed through
//! [`hbat_obs::record`], from one field table per record type.
//!
//! The module also provides [`write_atomic`]: temp-file + rename in the
//! target directory, used by every report writer so readers never see a
//! half-written `BENCH_*.json` or figure file.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use hbat_core::stats::TranslatorStats;
use hbat_cpu::RunMetrics;
use hbat_mem::cache::CacheStats;
use hbat_obs::record::{self, write_object, Reader, Visit, Writer};
use hbat_obs::{IntervalRecord, TraceRecorder, INTERVAL_SCHEMA_VERSION};

pub use hbat_obs::record::{parse_json_object, parse_scalars, Scalar};

/// Journal format version; bump on incompatible record changes.
pub const JOURNAL_VERSION: u64 = 1;

/// Format version of the `<journal>.obs.jsonl` observability sidecar.
/// The `<journal>.iv.jsonl` interval sidecar carries
/// [`INTERVAL_SCHEMA_VERSION`].
pub const OBS_VERSION: u64 = 1;

/// The durable identity of one sweep cell.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Benchmark name (`Benchmark::name`).
    pub bench: String,
    /// Unambiguous design identity (the `DesignSpec` debug form, which
    /// carries parameters, unlike the display mnemonic).
    pub design: String,
    /// Fingerprint of the experiment configuration (scale, machine
    /// model, geometry, workload, design seed).
    pub config: String,
    /// The design replacement seed.
    pub seed: u64,
}

/// One journalled cell: identity plus its full metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The cell's identity.
    pub key: CellKey,
    /// The cell's complete run metrics.
    pub metrics: RunMetrics,
}

/// FNV-1a over a string, hex-rendered — the config fingerprint hash.
pub fn fnv1a_hex(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Writes `contents` to `path` atomically *and durably*, via
/// [`hbat_ckpt::write_atomic_bytes`]: the bytes are fsynced into a
/// unique temp file in the target directory, a `rename` publishes them,
/// and the parent directory is fsynced so the rename itself survives a
/// power cut. Concurrent readers (and a kill at any instant) observe
/// either the old complete file or the new complete file, never a torn
/// prefix. An earlier version of this function synced only the temp
/// file, leaving the rename in the directory's page cache — the
/// checkpoint layer closed that gap and everything now shares its
/// writer.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    hbat_ckpt::write_atomic_bytes(path, contents.as_bytes())
}

// ---- record tables ---------------------------------------------------------
//
// Each function below is its record's one wire table (see
// `hbat_obs::record`): it renders the record it is given under a
// `Writer` and returns the parsed record under a `Reader`.

impl CellKey {
    /// The cell identity every per-cell line carries after its version.
    fn fields<V: Visit>(v: &mut V, k: &CellKey) -> CellKey {
        CellKey {
            bench: v.str("bench", &k.bench),
            design: v.str("design", &k.design),
            config: v.str("config", &k.config),
            seed: v.u64("seed", k.seed),
        }
    }
}

fn translator_fields<V: Visit>(v: &mut V, t: &TranslatorStats) -> TranslatorStats {
    TranslatorStats {
        accesses: v.u64("accesses", t.accesses),
        shielded: v.u64("shielded", t.shielded),
        base_hits: v.u64("base_hits", t.base_hits),
        misses: v.u64("misses", t.misses),
        retries: v.u64("retries", t.retries),
        internal_queueing_cycles: v.u64("internal_queueing_cycles", t.internal_queueing_cycles),
        status_writes: v.u64("status_writes", t.status_writes),
        inclusion_invalidations: v.u64("inclusion_invalidations", t.inclusion_invalidations),
        shield_flushes: v.u64("shield_flushes", t.shield_flushes),
    }
}

fn cache_fields<V: Visit>(v: &mut V, c: &CacheStats) -> CacheStats {
    CacheStats {
        accesses: v.u64("accesses", c.accesses),
        hits: v.u64("hits", c.hits),
        misses: v.u64("misses", c.misses),
        merged: v.u64("merged", c.merged),
        writebacks: v.u64("writebacks", c.writebacks),
        port_rejects: v.u64("port_rejects", c.port_rejects),
    }
}

fn metrics_fields<V: Visit>(v: &mut V, m: &RunMetrics) -> RunMetrics {
    RunMetrics {
        cycles: v.u64("cycles", m.cycles),
        committed: v.u64("committed", m.committed),
        issued: v.u64("issued", m.issued),
        squashed: v.u64("squashed", m.squashed),
        wrong_path_translations: v.u64("wrong_path_translations", m.wrong_path_translations),
        issued_mem: v.u64("issued_mem", m.issued_mem),
        loads: v.u64("loads", m.loads),
        stores: v.u64("stores", m.stores),
        cond_branches: v.u64("cond_branches", m.cond_branches),
        bpred_correct: v.u64("bpred_correct", m.bpred_correct),
        tlb_dispatch_stall_cycles: v.u64("tlb_dispatch_stall_cycles", m.tlb_dispatch_stall_cycles),
        translation_retries: v.u64("translation_retries", m.translation_retries),
        tlb: v.obj("tlb", |v| translator_fields(v, &m.tlb)),
        dcache: v.obj("dcache", |v| cache_fields(v, &m.dcache)),
        icache: v.obj("icache", |v| cache_fields(v, &m.icache)),
    }
}

/// The shape every per-cell stream shares: the stream's version, the
/// cell's identity, then one payload object under `payload`. Returns
/// the key read (or written) along with `body`'s result, or, before any
/// other member is read, the version found when it is not `version`.
fn cell_line<V: Visit, P>(
    v: &mut V,
    version: u64,
    key: &CellKey,
    payload: &str,
    body: impl FnOnce(&mut V) -> P,
) -> Result<(CellKey, P), u64> {
    let got = v.u64("v", version);
    if got != version {
        return Err(got);
    }
    let key = CellKey::fields(v, key);
    Ok((key, v.obj(payload, body)))
}

fn render_cell_line(
    version: u64,
    key: &CellKey,
    payload: &str,
    body: impl FnOnce(&mut Writer),
) -> String {
    // Every per-cell line fits, so rendering one is one allocation.
    let mut out = String::with_capacity(1024);
    let _ = write_object(&mut out, |v| cell_line(v, version, key, payload, body));
    out
}

/// Parses one per-cell line of the stream called `stream` in errors.
fn parse_cell_line<P>(
    line: &str,
    stream: &str,
    version: u64,
    payload: &str,
    body: impl FnOnce(&mut Reader) -> P,
) -> Result<(CellKey, P), String> {
    record::read(line, |v| {
        cell_line(v, version, &CellKey::default(), payload, body)
    })?
    .map_err(|got| format!("{stream} version {got} (this build reads {version})"))
}

/// Renders one journal record as a single JSON line (no newline).
pub fn render_record(rec: &JournalRecord) -> String {
    render_cell_line(JOURNAL_VERSION, &rec.key, "metrics", |v| {
        metrics_fields(v, &rec.metrics);
    })
}

/// Parses one journal line back into a record.
///
/// # Errors
///
/// A human-readable message for any malformed line, including a
/// journal version mismatch.
pub fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let (key, metrics) = parse_cell_line(line, "journal", JOURNAL_VERSION, "metrics", |v| {
        metrics_fields(v, &RunMetrics::default())
    })?;
    Ok(JournalRecord { key, metrics })
}

/// Renders one observability sidecar record: the cell's identity plus
/// the recorder's summary counters (stall taxonomy, port conflicts,
/// walks, occupancy histogram summaries) as a single JSON line.
pub fn render_obs_record(key: &CellKey, rec: &TraceRecorder) -> String {
    render_cell_line(OBS_VERSION, key, "obs", |v| rec.write_summary(v))
}

/// Renders one interval sidecar record: the cell's identity plus one
/// window's counters, as a single JSON line.
pub fn render_interval_record(key: &CellKey, window: &IntervalRecord) -> String {
    render_cell_line(u64::from(INTERVAL_SCHEMA_VERSION), key, "window", |v| {
        IntervalRecord::fields(v, window);
    })
}

/// One parsed interval-sidecar line: the cell it belongs to plus one
/// measured window. Sampled sweeps read these back for `--resume`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSidecarRecord {
    /// The cell's identity.
    pub key: CellKey,
    /// The window's counters.
    pub window: IntervalRecord,
}

/// Parses one `<journal>.iv.jsonl` line (the shape
/// [`render_interval_record`] writes) back into a record.
///
/// # Errors
///
/// A human-readable message for any malformed line, including a
/// sidecar schema-version mismatch.
pub fn parse_interval_record(line: &str) -> Result<IntervalSidecarRecord, String> {
    let version = u64::from(INTERVAL_SCHEMA_VERSION);
    let (key, window) = parse_cell_line(line, "interval schema", version, "window", |v| {
        IntervalRecord::fields(v, &IntervalRecord::default())
    })?;
    Ok(IntervalSidecarRecord { key, window })
}

/// Reads every complete record from an interval sidecar, with the same
/// torn-tail tolerance as [`read_journal`].
///
/// # Errors
///
/// I/O errors, or corruption anywhere but the final line.
pub fn read_interval_sidecar(path: &Path) -> io::Result<Vec<IntervalSidecarRecord>> {
    record::read_jsonl(path, parse_interval_record)
}

// ---- file I/O ------------------------------------------------------------

/// A shared append-only journal writer. Workers append concurrently;
/// each record is one `write` + `flush`, so a kill tears at most the
/// final line.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it (and parent directories)
    /// if needed.
    pub fn append_to(path: &Path) -> io::Result<JournalWriter> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter {
            file: Mutex::new(file),
        })
    }

    /// Appends one record as a flushed JSONL line.
    pub fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        self.append_line(&render_record(rec))
    }

    /// Appends one pre-rendered line (no trailing newline) and flushes.
    /// Sidecar streams (the observability summaries) share the writer's
    /// torn-tail guarantee through this.
    pub fn append_line(&self, line: &str) -> io::Result<()> {
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(f, "{line}")?;
        f.flush()
    }

    /// Appends a pre-rendered block of `\n`-terminated lines under one
    /// lock, flushed once — so a multi-line group (one cell's interval
    /// windows, say) stays contiguous even when writers race.
    pub fn append_block(&self, block: &str) -> io::Result<()> {
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.write_all(block.as_bytes())?;
        f.flush()
    }
}

/// Reads every complete record from a journal file. A torn *final* line
/// (the signature of a killed run) is silently dropped; an unparseable
/// interior line is real corruption and errors. A missing file reads as
/// an empty journal.
///
/// # Errors
///
/// I/O errors, or corruption anywhere but the final line.
pub fn read_journal(path: &Path) -> io::Result<Vec<JournalRecord>> {
    record::read_jsonl(path, parse_record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> JournalRecord {
        JournalRecord {
            key: CellKey {
                bench: "Compress".into(),
                design: "MultiPorted { ports: 4 }".into(),
                config: "a1b2c3d4e5f60718".into(),
                seed: 1996,
            },
            metrics: RunMetrics {
                cycles: 123_456,
                committed: 100_000,
                issued: 140_000,
                squashed: 9_999,
                wrong_path_translations: 321,
                issued_mem: 44_000,
                loads: 30_000,
                stores: 10_000,
                cond_branches: 12_000,
                bpred_correct: 11_000,
                tlb_dispatch_stall_cycles: 777,
                translation_retries: 55,
                tlb: TranslatorStats {
                    accesses: 40_000,
                    shielded: 20_000,
                    base_hits: 19_000,
                    misses: 1_000,
                    retries: 55,
                    internal_queueing_cycles: 12,
                    status_writes: 3,
                    inclusion_invalidations: 2,
                    shield_flushes: 1,
                },
                dcache: CacheStats {
                    accesses: 40_000,
                    hits: 39_000,
                    misses: 1_000,
                    merged: 10,
                    writebacks: 200,
                    port_rejects: 5,
                },
                icache: CacheStats {
                    accesses: 100_000,
                    hits: 99_500,
                    misses: 500,
                    merged: 7,
                    writebacks: 0,
                    port_rejects: 0,
                },
            },
        }
    }

    #[test]
    fn record_round_trips_bit_identically() {
        let rec = sample_record();
        let line = render_record(&rec);
        assert!(!line.contains('\n'), "one record, one line");
        let back = parse_record(&line).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_record("").is_err());
        assert!(parse_record("{").is_err());
        assert!(parse_record("{\"v\":1}").is_err());
        assert!(parse_record("not json at all").is_err());
        let line = render_record(&sample_record());
        assert!(parse_record(&line[..line.len() - 2]).is_err(), "torn line");
        assert!(parse_record(&format!("{line}x")).is_err(), "trailing bytes");
        // Wrong version is rejected, and named before any other field.
        let wrong_v = line.replacen("\"v\":1", "\"v\":9", 1);
        assert_eq!(
            parse_record(&wrong_v),
            Err("journal version 9 (this build reads 1)".to_owned())
        );
        let renamed = wrong_v.replacen("\"cycles\"", "\"ticks\"", 1);
        assert!(parse_record(&renamed).unwrap_err().contains("version 9"));
    }

    #[test]
    fn journal_file_round_trip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("hbat-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        std::fs::remove_file(&path).ok();

        let w = JournalWriter::append_to(&path).unwrap();
        let mut a = sample_record();
        let mut b = sample_record();
        b.key.bench = "Xlisp".into();
        b.metrics.cycles = 1;
        w.append(&a).unwrap();
        w.append(&b).unwrap();
        drop(w);

        let back = read_journal(&path).unwrap();
        assert_eq!(back, vec![a.clone(), b.clone()]);

        // Simulate a kill mid-append: torn final line is dropped.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"v\":1,\"bench\":\"Gcc");
        std::fs::write(&path, &contents).unwrap();
        let tolerant = read_journal(&path).unwrap();
        assert_eq!(tolerant.len(), 2);

        // But a corrupt interior line is an error.
        let corrupt = format!("garbage\n{}\n", render_record(&a));
        std::fs::write(&path, corrupt).unwrap();
        assert!(read_journal(&path).is_err());

        // A missing journal reads as empty.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_journal(&path).unwrap(), Vec::new());
        a.key.seed = 7;
        drop(a);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_sidecar_round_trips_and_tolerates_torn_tail() {
        let key = sample_record().key;
        let window = IntervalRecord {
            start: 5,
            cycles: 100,
            issue_cycles: 60,
            issued: 150,
            committed: 90,
            stalls: [1, 2, 3, 4, 5, 6, 7, 12],
            tlb_lookups: 40,
            tlb_misses: 3,
            dcache_accesses: 38,
            dcache_misses: 2,
            walks: 3,
            walk_cycles: 90,
            rob_sum: 500,
            lsq_sum: 200,
            samples: 10,
        };
        let line = render_interval_record(&key, &window);
        let back = parse_interval_record(&line).unwrap();
        assert_eq!(back.key, key);
        assert_eq!(back.window, window);
        assert!(parse_interval_record(&line[..line.len() - 3]).is_err());
        let wrong_v = line.replacen("\"v\":1", "\"v\":9", 1);
        assert_eq!(
            parse_interval_record(&wrong_v),
            Err("interval schema version 9 (this build reads 1)".to_owned())
        );

        let dir = std::env::temp_dir().join(format!("hbat-ivjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal.iv.jsonl");
        std::fs::remove_file(&path).ok();
        let w = JournalWriter::append_to(&path).unwrap();
        w.append_line(&line).unwrap();
        let mut second = window;
        second.start = 1005;
        w.append_line(&render_interval_record(&key, &second))
            .unwrap();
        drop(w);
        let back = read_interval_sidecar(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].window.start, 1005);

        // Torn tail: dropped. Missing file: empty.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"v\":1,\"bench\":\"Gcc");
        std::fs::write(&path, &contents).unwrap();
        assert_eq!(read_interval_sidecar(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_interval_sidecar(&path).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut rec = sample_record();
        rec.key.design = "weird \"name\"\\with\nescapes\tand unicode é".into();
        let back = parse_record(&render_record(&rec)).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishes() {
        let a = fnv1a_hex("config-a");
        assert_eq!(a, fnv1a_hex("config-a"));
        assert_ne!(a, fnv1a_hex("config-b"));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn write_atomic_is_durable() {
        // The durability seam: one write_atomic must fsync both the temp
        // file (contents) and the parent directory (the rename). The
        // counters are process-wide, so assert deltas, not absolutes.
        let dir = std::env::temp_dir().join(format!("hbat-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (f0, d0) = (
            hbat_ckpt::atomic::file_syncs(),
            hbat_ckpt::atomic::dir_syncs(),
        );
        write_atomic(&dir.join("r.json"), "{}\n").unwrap();
        assert!(hbat_ckpt::atomic::file_syncs() > f0, "contents fsynced");
        assert!(hbat_ckpt::atomic::dir_syncs() > d0, "rename fsynced");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("hbat-atomic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("report.json");
        write_atomic(&path, "{\"first\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"first\": 1}\n");
        write_atomic(&path, "{\"second\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"second\": 2}\n");
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
