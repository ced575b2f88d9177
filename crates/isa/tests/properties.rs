//! Property-based tests for the ISA and functional executor.

use proptest::prelude::*;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hbat_core::addr::VirtAddr;
use hbat_isa::executor::Machine;
use hbat_isa::inst::{AddrMode, AluOp, Cond, Inst, Operand, Width};
use hbat_isa::mem::Memory;
use hbat_isa::program::Program;
use hbat_isa::reg::Reg;
use hbat_isa::tracefile::{read_trace, write_trace};

/// Strategy: a random straight-line ALU/memory program over registers
/// r1..r7 that is always valid (targets in range, halt at end).
fn straightline() -> impl Strategy<Value = Vec<Inst>> {
    let reg = (1u8..8).prop_map(Reg::int);
    let op = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Slt),
    ];
    let inst = prop_oneof![
        (reg.clone(), -1000i64..1000).prop_map(|(d, imm)| Inst::Li { d, imm }),
        (op, reg.clone(), reg.clone(), reg.clone()).prop_map(|(op, d, a, b)| Inst::Alu {
            op,
            d,
            a,
            b: Operand::Reg(b)
        }),
        (reg.clone(), reg.clone(), 0i32..256).prop_map(|(d, base, off)| Inst::Load {
            d,
            addr: AddrMode::BaseOffset {
                base,
                offset: off & !7
            },
            width: Width::B8,
        }),
        (reg.clone(), reg.clone(), 0i32..256).prop_map(|(s, base, off)| Inst::Store {
            s,
            addr: AddrMode::BaseOffset {
                base,
                offset: off & !7
            },
            width: Width::B8,
        }),
    ];
    prop::collection::vec(inst, 1..60).prop_map(|mut v| {
        // Anchor the base registers in a sane address region first.
        let mut prog = vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x10_0000,
            },
            Inst::Li {
                d: Reg::int(2),
                imm: 0x10_1000,
            },
        ];
        prog.append(&mut v);
        prog.push(Inst::Halt);
        prog
    })
}

proptest! {
    /// Execution is deterministic: identical programs produce identical
    /// traces and final register files.
    #[test]
    fn executor_is_deterministic(insts in straightline()) {
        let p = Program::new(insts).expect("generated programs are valid");
        let mut m1 = Machine::new(p.clone());
        let mut m2 = Machine::new(p);
        let t1 = m1.run_to_vec(10_000);
        let t2 = m2.run_to_vec(10_000);
        prop_assert_eq!(t1, t2);
        for r in 0..32 {
            prop_assert_eq!(
                m1.read_reg(Reg::int(r)),
                m2.read_reg(Reg::int(r))
            );
        }
    }

    /// The zero register reads zero whatever the program does, and every
    /// trace record's serial matches its position.
    #[test]
    fn zero_register_and_serials_hold(insts in straightline()) {
        let p = Program::new(insts).expect("valid");
        let mut m = Machine::new(p);
        let trace = m.run_to_vec(10_000);
        prop_assert_eq!(m.read_reg(Reg::ZERO), 0);
        for (i, t) in trace.iter().enumerate() {
            prop_assert_eq!(t.serial, i as u64);
            // No record ever lists r0 as a dependence.
            prop_assert!(t.src_regs().all(|r| !r.is_zero()));
            prop_assert!(t.dest_regs().all(|r| !r.is_zero()));
        }
    }

    /// Differential test: the executor agrees with an independent
    /// reference interpreter on final registers and every effective
    /// address, for any straight-line program.
    #[test]
    fn executor_matches_reference_interpreter(insts in straightline()) {
        // Reference interpreter for the straight-line subset, with
        // byte-granular memory (accesses may overlap arbitrarily).
        let mut regs = [0i64; 32];
        let mut mem: std::collections::HashMap<u64, u8> =
            std::collections::HashMap::new();
        let read8 = |mem: &std::collections::HashMap<u64, u8>, ea: u64| -> u64 {
            (0..8u64)
                .map(|i| (*mem.get(&ea.wrapping_add(i)).unwrap_or(&0) as u64) << (8 * i))
                .sum()
        };
        let mut ref_addrs = Vec::new();
        for inst in &insts {
            match *inst {
                Inst::Li { d, imm } => {
                    if !d.is_zero() {
                        regs[d.index()] = imm;
                    }
                }
                Inst::Alu { op, d, a, b } => {
                    let bv = match b {
                        Operand::Reg(r) => regs[r.index()],
                        Operand::Imm(i) => i as i64,
                    };
                    let v = op.apply(regs[a.index()], bv);
                    if !d.is_zero() {
                        regs[d.index()] = v;
                    }
                }
                Inst::Load { d, addr: AddrMode::BaseOffset { base, offset }, .. } => {
                    let ea = (regs[base.index()] as u64)
                        .wrapping_add(offset as i64 as u64);
                    ref_addrs.push(ea);
                    let v = read8(&mem, ea);
                    if !d.is_zero() {
                        regs[d.index()] = v as i64;
                    }
                }
                Inst::Store { s, addr: AddrMode::BaseOffset { base, offset }, .. } => {
                    let ea = (regs[base.index()] as u64)
                        .wrapping_add(offset as i64 as u64);
                    ref_addrs.push(ea);
                    let v = regs[s.index()] as u64;
                    for i in 0..8u64 {
                        mem.insert(ea.wrapping_add(i), (v >> (8 * i)) as u8);
                    }
                }
                Inst::Halt => break,
                ref other => prop_assert!(false, "unexpected inst {other:?}"),
            }
        }

        let p = Program::new(insts).expect("valid");
        let mut m = Machine::new(p);
        let trace = m.run_to_vec(10_000);
        prop_assert!(m.is_halted());
        for r in 0..32 {
            prop_assert_eq!(
                m.read_reg(Reg::int(r)),
                regs[r as usize],
                "register r{} diverged",
                r
            );
        }
        let exec_addrs: Vec<u64> = trace
            .iter()
            .filter_map(|t| t.mem.map(|mm| mm.vaddr.0))
            .collect();
        prop_assert_eq!(exec_addrs, ref_addrs);
        // Stored memory agrees too.
        for (&ea, &v) in &mem {
            prop_assert_eq!(m.memory().read_u8(VirtAddr(ea)), v);
        }
    }

    /// ALU algebraic identities hold for all inputs.
    #[test]
    fn alu_identities(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(AluOp::Add.apply(a, b), AluOp::Add.apply(b, a));
        prop_assert_eq!(AluOp::Xor.apply(AluOp::Xor.apply(a, b), b), a);
        prop_assert_eq!(AluOp::Sub.apply(a, a), 0);
        prop_assert_eq!(AluOp::And.apply(a, a), a);
        prop_assert_eq!(AluOp::Or.apply(a, 0), a);
        prop_assert_eq!(
            i64::from(AluOp::Slt.apply(a, b) == 1),
            i64::from(a < b)
        );
    }

    /// Branch conditions partition: exactly one of (lt, eq, gt) holds, and
    /// compound conditions agree with their parts.
    #[test]
    fn condition_trichotomy(a in any::<i64>(), b in any::<i64>()) {
        let lt = Cond::Lt.holds(a, b);
        let eq = Cond::Eq.holds(a, b);
        let gt = Cond::Gt.holds(a, b);
        prop_assert_eq!(u8::from(lt) + u8::from(eq) + u8::from(gt), 1);
        prop_assert_eq!(Cond::Le.holds(a, b), lt || eq);
        prop_assert_eq!(Cond::Ge.holds(a, b), gt || eq);
        prop_assert_eq!(Cond::Ne.holds(a, b), !eq);
    }

    /// Truncating a serialised trace at *every* byte offset yields a
    /// clean `Err` — never a panic and never an OOM-sized allocation
    /// (the declared record count only bounds a capped pre-allocation).
    #[test]
    fn truncated_traces_always_error(insts in straightline()) {
        let p = Program::new(insts).expect("valid");
        let trace = Machine::new(p).run_to_vec(10_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("serialise");
        for cut in 0..buf.len() {
            match catch_unwind(AssertUnwindSafe(|| read_trace(&mut &buf[..cut]))) {
                Ok(parsed) => prop_assert!(
                    parsed.is_err(),
                    "truncation at byte {} of {} was accepted",
                    cut,
                    buf.len()
                ),
                Err(_) => prop_assert!(false, "read_trace panicked at cut {}", cut),
            }
        }
        // The intact buffer still round-trips.
        prop_assert_eq!(read_trace(&mut buf.as_slice()).expect("intact"), trace);
    }

    /// Flipping any bit of the 16-byte header (magic + record count)
    /// yields a clean `Err`: a corrupted magic is rejected outright, a
    /// grown count hits end-of-stream, and a shrunk count leaves
    /// trailing bytes — all detected, none panicking or pre-allocating
    /// by the corrupt count.
    #[test]
    fn header_bit_flips_always_error(insts in straightline()) {
        let p = Program::new(insts).expect("valid");
        let trace = Machine::new(p).run_to_vec(10_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("serialise");
        for byte in 0..16 {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                match catch_unwind(AssertUnwindSafe(|| read_trace(&mut corrupt.as_slice()))) {
                    Ok(parsed) => prop_assert!(
                        parsed.is_err(),
                        "flip of header byte {} bit {} was accepted",
                        byte,
                        bit
                    ),
                    Err(_) => prop_assert!(
                        false,
                        "read_trace panicked on header byte {} bit {}",
                        byte,
                        bit
                    ),
                }
            }
        }
    }

    /// `read_trace` never panics on arbitrary input bytes.
    #[test]
    fn read_trace_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _ = read_trace(&mut bytes.as_slice());
        }));
        prop_assert!(r.is_ok(), "read_trace panicked on arbitrary bytes");
    }

    /// Memory round-trips arbitrary values at arbitrary (possibly
    /// chunk-straddling) addresses and widths.
    #[test]
    fn memory_round_trip(addr in 0u64..1_000_000, val in any::<u64>(), w in 0usize..4) {
        let widths = [Width::B1, Width::B2, Width::B4, Width::B8];
        let width = widths[w];
        let mut m = Memory::new();
        m.write_le(VirtAddr(addr), val, width.bytes());
        let mask = if width.bytes() == 8 { u64::MAX } else { (1 << (8 * width.bytes())) - 1 };
        prop_assert_eq!(m.read_le(VirtAddr(addr), width.bytes()), val & mask);
    }
}

// ---- functional memory against a byte-at-a-time reference model ----

/// The reference model: one map entry per written byte, every other
/// byte zero — the semantics `Memory` must keep whatever its storage
/// granule.
#[derive(Default)]
struct ByteModel(std::collections::BTreeMap<u64, u8>);

impl ByteModel {
    fn read_le(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |v, i| {
            let b = self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | u64::from(b) << (8 * i)
        })
    }

    fn write_le(&mut self, addr: u64, val: u64, n: u64) {
        for i in 0..n {
            self.0.insert(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }
}

/// Chunk boundaries worth probing: the first, an interior one, and the
/// top of the address space (where an access wraps to address 0).
const BOUNDARIES: [u64; 3] = [0x1000, 0x10_0000, 0];

/// Every access that starts within 8 bytes of a chunk boundary.
fn boundary_accesses() -> impl Iterator<Item = (u64, u64)> {
    BOUNDARIES.into_iter().flat_map(|b| {
        (-8i64..8).flat_map(move |d| [1u64, 2, 4, 8].map(|n| (b.wrapping_add(d as u64), n)))
    })
}

/// A distinct, all-bytes-nonzero value per access.
fn pattern(i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 0x0101_0101_0101_0101
}

#[test]
fn memory_matches_byte_model_around_chunk_boundaries() {
    let mut m = Memory::new();
    let mut model = ByteModel::default();
    for (i, (addr, n)) in boundary_accesses().enumerate() {
        // Every read near the boundary agrees before and after each write.
        m.write_le(VirtAddr(addr), pattern(i), n);
        model.write_le(addr, pattern(i), n);
        for (a, w) in boundary_accesses() {
            assert_eq!(
                m.read_le(VirtAddr(a), w),
                model.read_le(a, w),
                "read {w} bytes at {a:#x} after writing {n} bytes at {addr:#x}"
            );
        }
    }
    // Only the chunks the model touched were materialised.
    let mut chunks: Vec<u64> = model.0.keys().map(|a| a >> 12).collect();
    chunks.dedup();
    assert_eq!(m.chunk_count(), chunks.len());
}

#[test]
fn reading_unmaterialised_memory_creates_no_chunk() {
    let mut m = Memory::new();
    m.write_u8(VirtAddr(0x1000), 1);
    for (addr, n) in boundary_accesses() {
        let expect = if (addr..addr.wrapping_add(n)).contains(&0x1000) {
            None
        } else {
            Some(0)
        };
        let v = m.read_le(VirtAddr(addr), n);
        if let Some(e) = expect {
            assert_eq!(v, e, "{n} bytes at {addr:#x}");
        }
        assert_eq!(
            m.chunk_count(),
            1,
            "a {n}-byte read at {addr:#x} materialised a chunk"
        );
    }
}

/// FNV-1a 64 over every exported chunk (base address, then bytes).
fn export_digest(m: &Memory) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (base, bytes) in m.export_chunks() {
        for &b in base.to_le_bytes().iter().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Snapshot bytes depend only on memory contents: every workload's
/// seeded image and its final memory export exactly the chunks they
/// did when memory was byte-granular (digests frozen from that code).
#[test]
fn workload_memory_exports_are_unchanged() {
    use hbat_workloads::{Benchmark, Scale, WorkloadConfig};
    let cfg = WorkloadConfig::new(Scale::Test);
    let mut seeded = Vec::new();
    let mut finished = Vec::new();
    for bench in Benchmark::ALL {
        let w = bench.build(&cfg);
        let mut m = w.instantiate();
        seeded.push((m.memory().chunk_count(), export_digest(m.memory())));
        m.run(w.max_steps, |_| {});
        assert!(m.is_halted(), "{bench} did not halt");
        finished.push((m.memory().chunk_count(), export_digest(m.memory())));
    }
    let render = |v: &[(usize, u64)]| {
        v.iter()
            .map(|(c, d)| format!("{c}:{d:016x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    assert_eq!(render(&seeded), SEEDED_EXPORTS);
    assert_eq!(render(&finished), FINISHED_EXPORTS);
}

const SEEDED_EXPORTS: &str = "1:387b5b9356ba73e1 16:e359bc44d4c65026 2:a74765ca72d830c5 \
    3:8b53955af80434a0 1:90f4c4a770b3ad79 5:12b60919572df7e0 1:8adbc31f9f6c632b \
    3:01d078801d5d4f3b 1:5abc428acb26bf6e 0:cbf29ce484222325";
const FINISHED_EXPORTS: &str = "12:f6964817f025dcd3 18:15dd7e7e6a83e6b3 3:2fe30f1ae64b68c2 \
    4:db867cff0b6d1cb7 25:cab521bf9ff64c76 9:be1501abdd9f7194 5:8d6d2fc4269764f3 \
    6:174d8e4ccd11a91f 4:a0818957cda4adfb 8:2f1559cb1f020f34";
