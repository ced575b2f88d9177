//! The observability layer's sweep-level contract:
//!
//! * an observed sweep (`SweepOptions::observe`) writes a *byte*-identical
//!   main journal — recording is invisible to the results;
//! * the `.obs.jsonl` sidecar is valid JSONL with a stable schema and
//!   one record per executed cell;
//! * `RunMetrics` round-trips through its derived serde `Serialize`
//!   impl and the journal's strict JSON parser.

use std::path::{Path, PathBuf};

use hbat_bench::executor::TraceCache;
use hbat_bench::experiment::{obs_sidecar_path, sweep_ft_on, ExperimentConfig, SweepOptions};
use hbat_bench::journal::{parse_json_object, parse_record};
use hbat_core::designs::spec::DesignSpec;
use hbat_core::stats::TranslatorStats;
use hbat_cpu::RunMetrics;
use hbat_mem::cache::CacheStats;
use hbat_workloads::Scale;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbat-obs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn designs() -> [DesignSpec; 3] {
    [
        DesignSpec::parse("I4").unwrap(),
        DesignSpec::parse("M8").unwrap(),
        DesignSpec::parse("P8").unwrap(),
    ]
}

fn run_sweep(journal: &Path, observe: bool) -> hbat_bench::FtSweepResult {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let opts = SweepOptions {
        threads: 1, // deterministic journal line order for byte comparison
        journal: Some(journal.to_path_buf()),
        observe,
        ..SweepOptions::default()
    };
    sweep_ft_on(&designs(), &cfg, &opts, &TraceCache::new()).unwrap()
}

#[test]
fn observed_sweep_journal_is_byte_identical() {
    let dir = tmp_dir("identity");
    let plain_path = dir.join("plain.journal");
    let observed_path = dir.join("observed.journal");

    let plain = run_sweep(&plain_path, false);
    let observed = run_sweep(&observed_path, true);

    // The RunMetrics of every cell are bit-identical.
    assert_eq!(plain.completed(), 30);
    assert_eq!(observed.completed(), 30);
    for (prow, orow) in plain.cells.iter().zip(&observed.cells) {
        for (p, o) in prow.iter().zip(orow) {
            let (p, o) = (p.ok().unwrap(), o.ok().unwrap());
            assert_eq!(
                p.metrics,
                o.metrics,
                "{}/{}: recording changed the metrics",
                p.bench,
                p.design.mnemonic()
            );
        }
    }

    // And so is the journal, byte for byte.
    let plain_bytes = std::fs::read(&plain_path).unwrap();
    let observed_bytes = std::fs::read(&observed_path).unwrap();
    assert!(!plain_bytes.is_empty());
    assert_eq!(
        plain_bytes, observed_bytes,
        "observation must not perturb the journal"
    );

    // The unobserved sweep writes no sidecar; the observed one does.
    assert!(!obs_sidecar_path(&plain_path).exists());
    assert!(obs_sidecar_path(&observed_path).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_sidecar_is_valid_jsonl_with_stable_schema() {
    let dir = tmp_dir("schema");
    let journal = dir.join("sweep.journal");
    let result = run_sweep(&journal, true);
    assert_eq!(result.completed(), 30);

    let sidecar = std::fs::read_to_string(obs_sidecar_path(&journal)).unwrap();
    let lines: Vec<&str> = sidecar.lines().collect();
    assert_eq!(lines.len(), 30, "one obs record per executed cell");
    for line in &lines {
        let keys = parse_json_object(line).expect("sidecar line is strict JSON");
        assert_eq!(keys, ["bench", "config", "design", "obs", "seed", "v"]);
        // The stall taxonomy and resources are spelled out by name.
        for name in [
            "\"tlb-port\":",
            "\"tlb-walk\":",
            "\"dcache-port\":",
            "\"dcache-miss\":",
            "\"rob-full\":",
            "\"lsq-full\":",
            "\"fetch-starved\":",
            "\"no-ready-op\":",
            "\"tlb\":",
            "\"dcache\":",
            "\"icache\":",
            "\"walks\":",
            "\"occupancy\":",
        ] {
            assert!(line.contains(name), "missing {name} in {line}");
        }
    }

    // Observation is deterministic: a second observed sweep writes a
    // byte-identical sidecar.
    let dir2 = tmp_dir("schema2");
    let journal2 = dir2.join("sweep.journal");
    run_sweep(&journal2, true);
    let sidecar2 = std::fs::read_to_string(obs_sidecar_path(&journal2)).unwrap();
    assert_eq!(sidecar, sidecar2, "obs output must be deterministic");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

// ---- serde round-trip ----------------------------------------------------
//
// The shim's derived `Serialize` is fully functional; its derived
// `Deserialize` intentionally errors (nothing in-tree deserializes via
// serde). So the round-trip goes: derived Serialize -> hand-written
// JSON sink below -> the journal's strict parser -> `RunMetrics`.

struct JsonOut {
    out: String,
}

struct JsonBlock<'a> {
    j: &'a mut JsonOut,
    first: bool,
    close: char,
}

impl<'a> serde::Serializer for &'a mut JsonOut {
    type Ok = ();
    type Error = std::fmt::Error;
    type SerializeSeq = JsonBlock<'a>;
    type SerializeTuple = JsonBlock<'a>;
    type SerializeTupleStruct = JsonBlock<'a>;
    type SerializeTupleVariant = JsonBlock<'a>;
    type SerializeMap = JsonBlock<'a>;
    type SerializeStruct = JsonBlock<'a>;
    type SerializeStructVariant = JsonBlock<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Self::Error> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), Self::Error> {
        self.serialize_i64(v.into())
    }
    fn serialize_i16(self, v: i16) -> Result<(), Self::Error> {
        self.serialize_i64(v.into())
    }
    fn serialize_i32(self, v: i32) -> Result<(), Self::Error> {
        self.serialize_i64(v.into())
    }
    fn serialize_i64(self, v: i64) -> Result<(), Self::Error> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), Self::Error> {
        self.serialize_u64(v.into())
    }
    fn serialize_u16(self, v: u16) -> Result<(), Self::Error> {
        self.serialize_u64(v.into())
    }
    fn serialize_u32(self, v: u32) -> Result<(), Self::Error> {
        self.serialize_u64(v.into())
    }
    fn serialize_u64(self, v: u64) -> Result<(), Self::Error> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), Self::Error> {
        self.serialize_f64(v.into())
    }
    fn serialize_f64(self, v: f64) -> Result<(), Self::Error> {
        if v.is_finite() {
            self.out.push_str(&v.to_string());
        } else {
            self.out.push_str("null");
        }
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), Self::Error> {
        self.serialize_str(&v.to_string())
    }
    fn serialize_str(self, v: &str) -> Result<(), Self::Error> {
        hbat_obs::record::escape_into(&mut self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, _v: &[u8]) -> Result<(), Self::Error> {
        Err(std::fmt::Error)
    }
    fn serialize_none(self) -> Result<(), Self::Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: ?Sized + serde::Serialize>(self, value: &T) -> Result<(), Self::Error> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), Self::Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Self::Error> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), Self::Error> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: ?Sized + serde::Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Self::Error> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: ?Sized + serde::Serialize>(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), Self::Error> {
        value.serialize(self)
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<JsonBlock<'a>, Self::Error> {
        self.out.push('[');
        Ok(JsonBlock {
            j: self,
            first: true,
            close: ']',
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<JsonBlock<'a>, Self::Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<JsonBlock<'a>, Self::Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        len: usize,
    ) -> Result<JsonBlock<'a>, Self::Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<JsonBlock<'a>, Self::Error> {
        self.out.push('{');
        Ok(JsonBlock {
            j: self,
            first: true,
            close: '}',
        })
    }
    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<JsonBlock<'a>, Self::Error> {
        self.serialize_map(Some(len))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        len: usize,
    ) -> Result<JsonBlock<'a>, Self::Error> {
        self.serialize_map(Some(len))
    }
}

impl JsonBlock<'_> {
    fn sep(&mut self) {
        if !self.first {
            self.j.out.push(',');
        }
        self.first = false;
    }
}

impl serde::ser::SerializeSeq for JsonBlock<'_> {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_element<T: ?Sized + serde::Serialize>(
        &mut self,
        value: &T,
    ) -> Result<(), Self::Error> {
        self.sep();
        value.serialize(&mut *self.j)
    }
    fn end(self) -> Result<(), Self::Error> {
        self.j.out.push(self.close);
        Ok(())
    }
}

impl serde::ser::SerializeTuple for JsonBlock<'_> {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_element<T: ?Sized + serde::Serialize>(
        &mut self,
        value: &T,
    ) -> Result<(), Self::Error> {
        serde::ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Self::Error> {
        serde::ser::SerializeSeq::end(self)
    }
}

impl serde::ser::SerializeTupleStruct for JsonBlock<'_> {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_field<T: ?Sized + serde::Serialize>(
        &mut self,
        value: &T,
    ) -> Result<(), Self::Error> {
        serde::ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Self::Error> {
        serde::ser::SerializeSeq::end(self)
    }
}

impl serde::ser::SerializeTupleVariant for JsonBlock<'_> {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_field<T: ?Sized + serde::Serialize>(
        &mut self,
        value: &T,
    ) -> Result<(), Self::Error> {
        serde::ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Self::Error> {
        serde::ser::SerializeSeq::end(self)
    }
}

impl serde::ser::SerializeMap for JsonBlock<'_> {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_key<T: ?Sized + serde::Serialize>(&mut self, key: &T) -> Result<(), Self::Error> {
        self.sep();
        key.serialize(&mut *self.j)?;
        self.j.out.push(':');
        Ok(())
    }
    fn serialize_value<T: ?Sized + serde::Serialize>(
        &mut self,
        value: &T,
    ) -> Result<(), Self::Error> {
        value.serialize(&mut *self.j)
    }
    fn end(self) -> Result<(), Self::Error> {
        self.j.out.push(self.close);
        Ok(())
    }
}

impl serde::ser::SerializeStruct for JsonBlock<'_> {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_field<T: ?Sized + serde::Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error> {
        self.sep();
        hbat_obs::record::escape_into(&mut self.j.out, key);
        self.j.out.push(':');
        value.serialize(&mut *self.j)
    }
    fn end(self) -> Result<(), Self::Error> {
        self.j.out.push(self.close);
        Ok(())
    }
}

impl serde::ser::SerializeStructVariant for JsonBlock<'_> {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_field<T: ?Sized + serde::Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error> {
        serde::ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result<(), Self::Error> {
        serde::ser::SerializeStruct::end(self)
    }
}

fn serialize_to_json<T: serde::Serialize>(value: &T) -> String {
    let mut j = JsonOut { out: String::new() };
    value.serialize(&mut j).expect("serialization cannot fail");
    j.out
}

#[test]
fn run_metrics_serde_round_trips_through_the_journal_parser() {
    let m = RunMetrics {
        cycles: 43_005,
        committed: 30_000,
        issued: 61_234,
        squashed: 12_345,
        wrong_path_translations: 2_222,
        issued_mem: 18_000,
        loads: 11_000,
        stores: 4_000,
        cond_branches: 5_000,
        bpred_correct: 4_600,
        tlb_dispatch_stall_cycles: 58,
        translation_retries: 46_409,
        tlb: TranslatorStats {
            accesses: 20_222,
            shielded: 10_000,
            base_hits: 9_000,
            misses: 120,
            retries: 46_409,
            internal_queueing_cycles: 77,
            status_writes: 5,
            inclusion_invalidations: 4,
            shield_flushes: 3,
        },
        dcache: CacheStats {
            accesses: 18_000,
            hits: 17_500,
            misses: 500,
            merged: 42,
            writebacks: 100,
            port_rejects: 9,
        },
        icache: CacheStats {
            accesses: 61_000,
            hits: 60_900,
            misses: 100,
            merged: 0,
            writebacks: 0,
            port_rejects: 2,
        },
    };

    // Derived serde Serialize -> JSON text. It must be strict JSON …
    let json = serialize_to_json(&m);
    let keys = parse_json_object(&json).expect("serde output is strict JSON");
    assert!(keys.contains(&"squashed".to_owned()), "{keys:?}");
    assert!(keys.contains(&"wrong_path_translations".to_owned()));
    assert!(keys.contains(&"translation_retries".to_owned()));

    // … and the journal parser must read the identical struct back.
    let line = format!(
        "{{\"v\":1,\"bench\":\"Xlisp\",\"design\":\"d\",\"config\":\"c\",\"seed\":7,\"metrics\":{json}}}"
    );
    let rec = parse_record(&line).expect("journal parser accepts serde output");
    assert_eq!(rec.metrics, m, "serde round-trip must be lossless");
    assert!((rec.metrics.squash_rate() - m.squash_rate()).abs() < 1e-12);
    assert!(
        (rec.metrics.retries_per_access() - m.retries_per_access()).abs() < 1e-12,
        "derived rates survive the round trip"
    );
}
