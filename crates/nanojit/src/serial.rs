//! Binary serialization of compiled fragments (the persistent trace
//! cache's `tm-nanojit` layer; format spec in `docs/PERSISTENCE.md` §4).
//!
//! ## Design rules
//!
//! * **Exhaustive by construction.** The [`machinst_codec!`] table below
//!   names every [`MachInst`] variant with an explicit opcode byte; the
//!   generated encoder is an exhaustive `match`, so adding a variant
//!   without extending the table is a compile error — the codec cannot
//!   silently drop instructions.
//! * **Bit-exact round trips.** `decode(encode(f)) == f` for every
//!   well-formed fragment, and `encode(decode(bytes)) == bytes` for every
//!   accepted byte string (there are no redundant encodings). The
//!   round-trip property tests in `tests/persistence.rs` pin this over
//!   fuzzer-recorded trees.
//! * **Hostile input is rejected, never trusted.** Decoding validates
//!   opcode bytes, enum discriminants, and length prefixes; everything
//!   *semantic* (register ranges, exit-table coverage, terminator
//!   placement, stitch consistency) is deliberately left to
//!   `tm-verifier`, which every loaded fragment must pass before
//!   installation. The codec's job is only to guarantee that arbitrary
//!   bytes produce either `Err` or a structurally well-typed `Fragment`.
//!
//! Opcode bytes are part of the on-disk format: renumbering them is a
//! format-version bump (see `docs/PERSISTENCE.md` §7).

use crate::machinst::{
    ExitTarget, Fragment, FuseStats, Guard, MachInst, Opd, Reg, EXIT_UNSTITCHED,
};
use tm_lir::{AluOp, ChkOp, CmpOp};
use tm_runtime::{Helper, NativeId};
use tm_support::binio::{BinError, ByteReader, ByteWriter};

/// A field type that knows how to write itself to / read itself from the
/// cache byte stream. Implemented for exactly the types that occur as
/// [`MachInst`] fields.
pub trait Codec: Sized {
    /// Appends the encoded form to `w`.
    fn enc(&self, w: &mut ByteWriter);
    /// Decodes one value, validating discriminants and lengths.
    fn dec(r: &mut ByteReader) -> Result<Self, BinError>;
}

impl Codec for u8 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u8(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u8, BinError> {
        r.u8()
    }
}

impl Codec for u16 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u16(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u16, BinError> {
        r.u16()
    }
}

impl Codec for u32 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u32(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u32, BinError> {
        r.u32()
    }
}

impl Codec for u64 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u64(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u64, BinError> {
        r.u64()
    }
}

impl Codec for i32 {
    fn enc(&self, w: &mut ByteWriter) {
        w.i32(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<i32, BinError> {
        r.i32()
    }
}

impl Codec for bool {
    fn enc(&self, w: &mut ByteWriter) {
        w.bool(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<bool, BinError> {
        r.bool()
    }
}

impl Codec for Box<[Reg]> {
    fn enc(&self, w: &mut ByteWriter) {
        w.bytes_u32(self);
    }
    fn dec(r: &mut ByteReader) -> Result<Box<[Reg]>, BinError> {
        Ok(r.bytes_u32()?.into())
    }
}

/// `None` is a `0` byte; `Some(v)` is a `1` byte followed by `v`.
impl<T: Codec> Codec for Option<T> {
    fn enc(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.enc(w);
        }
    }
    fn dec(r: &mut ByteReader) -> Result<Option<T>, BinError> {
        Ok(if r.bool()? { Some(T::dec(r)?) } else { None })
    }
}

/// A kind byte (`0` register, `1` immediate, `2` AR slot), then the
/// payload.
impl Codec for Opd {
    fn enc(&self, w: &mut ByteWriter) {
        match *self {
            Opd::Reg(x) => {
                w.u8(0);
                w.u8(x);
            }
            Opd::Imm(imm) => {
                w.u8(1);
                w.i32(imm);
            }
            Opd::Ar(slot) => {
                w.u8(2);
                w.u16(slot);
            }
        }
    }
    fn dec(r: &mut ByteReader) -> Result<Opd, BinError> {
        let at = r.pos();
        match r.u8()? {
            0 => Ok(Opd::Reg(r.u8()?)),
            1 => Ok(Opd::Imm(r.i32()?)),
            2 => Ok(Opd::Ar(r.u16()?)),
            t => Err(BinError::BadTag { at, tag: u64::from(t), what: "Opd" }),
        }
    }
}

impl Codec for Guard {
    fn enc(&self, w: &mut ByteWriter) {
        w.bool(self.want);
        w.u16(self.exit);
    }
    fn dec(r: &mut ByteReader) -> Result<Guard, BinError> {
        Ok(Guard { want: r.bool()?, exit: r.u16()? })
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn enc(&self, w: &mut ByteWriter) {
        self.iter().for_each(|v| v.enc(w));
    }
    fn dec(r: &mut ByteReader) -> Result<[T; N], BinError> {
        let items: Vec<T> = (0..N).map(|_| T::dec(r)).collect::<Result<_, _>>()?;
        Ok(items.try_into().ok().expect("decoded exactly N items"))
    }
}

/// Generates a `Codec` impl for a fieldless enum from an explicit
/// `discriminant => Variant` table (exhaustive encode match; decode
/// rejects unknown discriminants with [`BinError::BadTag`]).
macro_rules! enum_codec {
    ($ty:ident, $what:literal, { $($idx:literal => $name:ident),* $(,)? }) => {
        impl Codec for $ty {
            fn enc(&self, w: &mut ByteWriter) {
                w.u8(match self { $( $ty::$name => $idx, )* });
            }
            fn dec(r: &mut ByteReader) -> Result<$ty, BinError> {
                let at = r.pos();
                match r.u8()? {
                    $( $idx => Ok($ty::$name), )*
                    t => Err(BinError::BadTag { at, tag: u64::from(t), what: $what }),
                }
            }
        }
    };
}

enum_codec!(AluOp, "AluOp", {
    0 => Add, 1 => Sub, 2 => Mul, 3 => And, 4 => Or, 5 => Xor,
    6 => Shl, 7 => Shr, 8 => UShr,
});

enum_codec!(CmpOp, "CmpOp", {
    0 => Eq, 1 => Lt, 2 => Le, 3 => Gt, 4 => Ge,
});

enum_codec!(ChkOp, "ChkOp", {
    0 => Add, 1 => Sub, 2 => Mul, 3 => Shl, 4 => UShr,
});

/// [`Helper`] codec: fieldless variants get a one-byte index from the
/// table; `CallNative(id)` is `0xff` followed by the id. Exhaustive
/// encode match — a new helper variant fails to compile until it gets a
/// table entry (and a format-version bump).
macro_rules! helper_codec {
    ($( $idx:literal => $name:ident ),* $(,)?) => {
        impl Codec for Helper {
            fn enc(&self, w: &mut ByteWriter) {
                match self {
                    $( Helper::$name => w.u8($idx), )*
                    Helper::CallNative(id) => {
                        w.u8(0xff);
                        w.u32(id.0);
                    }
                }
            }
            fn dec(r: &mut ByteReader) -> Result<Helper, BinError> {
                let at = r.pos();
                match r.u8()? {
                    $( $idx => Ok(Helper::$name), )*
                    0xff => Ok(Helper::CallNative(NativeId(r.u32()?))),
                    t => Err(BinError::BadTag { at, tag: u64::from(t), what: "Helper" }),
                }
            }
        }
    };
}

helper_codec!(
    0 => Sin, 1 => Cos, 2 => Tan, 3 => Asin, 4 => Acos, 5 => Atan,
    6 => Exp, 7 => Log, 8 => Sqrt, 9 => Floor, 10 => Ceil, 11 => Round,
    12 => AbsD, 13 => Atan2, 14 => Pow, 15 => MinD, 16 => MaxD, 17 => ModD,
    18 => SoftAdd, 19 => SoftSub, 20 => SoftMul, 21 => SoftDiv, 22 => Random,
    23 => NumberToString, 24 => IntToString, 25 => ConcatStrings,
    26 => StrEq, 27 => StrCmp, 28 => CharCodeAt, 29 => CharAt,
    30 => StrLength, 31 => StrIndexOf, 32 => Substring, 33 => FromCharCode,
    34 => StrToNum, 35 => ToLowerCase, 36 => ToUpperCase,
    37 => ArraySetElem, 38 => ArrayGetElem, 39 => ArrayLength,
    40 => ArrayPush, 41 => ArrayPop, 42 => NewArray, 43 => NewObject,
    44 => LoadSlot, 45 => StoreSlot, 46 => SetPropSlow,
    47 => BoxDouble, 48 => BoxInt,
    49 => AddAny, 50 => SubAny, 51 => MulAny, 52 => DivAny, 53 => ModAny,
    54 => NegAny, 55 => BitAndAny, 56 => BitOrAny, 57 => BitXorAny,
    58 => ShlAny, 59 => ShrAny, 60 => UShrAny, 61 => BitNotAny,
    62 => LtAny, 63 => LeAny, 64 => GtAny, 65 => GeAny,
    66 => EqAny, 67 => NeAny, 68 => StrictEqAny, 69 => StrictNeAny,
    70 => NotAny, 71 => TruthyAny, 72 => TypeofAny,
    73 => GetPropAny, 74 => SetPropAny, 75 => GetElemAny, 76 => SetElemAny,
);

/// Generates [`encode_inst`]/[`decode_inst`] from the opcode table. Each
/// entry is `opcode Variant { field: Type, ... }`; the encoder is an
/// exhaustive match over [`MachInst`], the decoder dispatches on the
/// opcode byte and rejects unknown opcodes.
macro_rules! machinst_codec {
    ($( $op:literal $name:ident { $( $f:ident : $t:ty ),* $(,)? } )*) => {
        /// Appends the one-byte opcode and the fields of `inst` to `w`.
        pub fn encode_inst(inst: &MachInst, w: &mut ByteWriter) {
            match inst {
                $( MachInst::$name { $( $f ),* } => {
                    w.u8($op);
                    $( Codec::enc($f, w); )*
                } )*
            }
        }

        /// Decodes one instruction's opcode and fields.
        fn decode_fields(r: &mut ByteReader, at: usize) -> Result<(u8, MachInst), BinError> {
            let op = r.u8()?;
            match op {
                $( $op => Ok((op, MachInst::$name { $( $f: <$t as Codec>::dec(r)? ),* })), )*
                t => Err(BinError::BadTag { at, tag: u64::from(t), what: "MachInst opcode" }),
            }
        }
    };
}

machinst_codec! {
    0x00 ConstW { d: Reg, w: u64 }
    0x01 Mov { d: Reg, s: Reg }
    0x02 LoadSpill { d: Reg, slot: u16 }
    0x03 StoreSpill { slot: u16, s: Reg }
    0x04 ReadAr { d: Reg, slot: u16 }
    0x05 WriteAr { slot: u16, s: Reg }
    0x06 AddI { d: Reg, a: Reg, b: Reg }
    0x07 SubI { d: Reg, a: Reg, b: Reg }
    0x08 MulI { d: Reg, a: Reg, b: Reg }
    0x09 AndI { d: Reg, a: Reg, b: Reg }
    0x0a OrI { d: Reg, a: Reg, b: Reg }
    0x0b XorI { d: Reg, a: Reg, b: Reg }
    0x0c ShlI { d: Reg, a: Reg, b: Reg }
    0x0d ShrI { d: Reg, a: Reg, b: Reg }
    0x0e UShrI { d: Reg, a: Reg, b: Reg }
    0x0f NotI { d: Reg, a: Reg }
    0x10 NegI { d: Reg, a: Reg }
    0x11 AddIChk { d: Reg, a: Reg, b: Reg, exit: u16 }
    0x12 SubIChk { d: Reg, a: Reg, b: Reg, exit: u16 }
    0x13 MulIChk { d: Reg, a: Reg, b: Reg, exit: u16 }
    0x14 NegIChk { d: Reg, a: Reg, exit: u16 }
    0x15 ModIChk { d: Reg, a: Reg, b: Reg, exit: u16 }
    0x16 ShlIChk { d: Reg, a: Reg, b: Reg, exit: u16 }
    0x17 UShrIChk { d: Reg, a: Reg, b: Reg, exit: u16 }
    0x18 AddD { d: Reg, a: Reg, b: Reg }
    0x19 SubD { d: Reg, a: Reg, b: Reg }
    0x1a MulD { d: Reg, a: Reg, b: Reg }
    0x1b DivD { d: Reg, a: Reg, b: Reg }
    0x1c ModD { d: Reg, a: Reg, b: Reg }
    0x1d NegD { d: Reg, a: Reg }
    0x1e EqI { d: Reg, a: Reg, b: Reg }
    0x1f LtI { d: Reg, a: Reg, b: Reg }
    0x20 LeI { d: Reg, a: Reg, b: Reg }
    0x21 GtI { d: Reg, a: Reg, b: Reg }
    0x22 GeI { d: Reg, a: Reg, b: Reg }
    0x23 EqD { d: Reg, a: Reg, b: Reg }
    0x24 LtD { d: Reg, a: Reg, b: Reg }
    0x25 LeD { d: Reg, a: Reg, b: Reg }
    0x26 GtD { d: Reg, a: Reg, b: Reg }
    0x27 GeD { d: Reg, a: Reg, b: Reg }
    0x28 NotB { d: Reg, a: Reg }
    0x29 I2D { d: Reg, a: Reg }
    0x2a U2D { d: Reg, a: Reg }
    0x2b D2IChk { d: Reg, a: Reg, exit: u16 }
    0x2c D2I32 { d: Reg, a: Reg }
    0x2d ChkRangeI { d: Reg, a: Reg, exit: u16 }
    0x2e BoxI { d: Reg, a: Reg }
    0x2f BoxD { d: Reg, a: Reg }
    0x30 BoxB { d: Reg, a: Reg }
    0x31 BoxObj { d: Reg, a: Reg }
    0x32 BoxStr { d: Reg, a: Reg }
    0x33 UnboxI { d: Reg, a: Reg, exit: u16 }
    0x34 UnboxD { d: Reg, a: Reg, exit: u16 }
    0x35 UnboxNumD { d: Reg, a: Reg, exit: u16 }
    0x36 UnboxObj { d: Reg, a: Reg, exit: u16 }
    0x37 UnboxStr { d: Reg, a: Reg, exit: u16 }
    0x38 UnboxBool { d: Reg, a: Reg, exit: u16 }
    0x39 GuardTrue { s: Reg, exit: u16 }
    0x3a GuardFalse { s: Reg, exit: u16 }
    0x3b GuardShape { obj: Reg, shape: u32, exit: u16 }
    0x3c GuardClass { obj: Reg, class: u8, exit: u16 }
    0x3d GuardBoxedEq { s: Reg, w: u64, exit: u16 }
    0x3e GuardBound { arr: Reg, idx: Reg, exit: u16 }
    0x3f LoadSlot { d: Reg, o: Reg, slot: u32 }
    0x40 StoreSlot { o: Reg, slot: u32, s: Reg }
    0x41 LoadProto { d: Reg, o: Reg }
    0x42 LoadElem { d: Reg, a: Reg, i: Reg }
    0x43 StoreElem { a: Reg, i: Reg, s: Reg }
    0x44 ArrayLen { d: Reg, a: Reg }
    0x45 StrLen { d: Reg, a: Reg }
    0x46 CallHelper { d: Reg, helper: Helper, args: Box<[Reg]>, exit: u16 }
    0x47 CallTree { tree: u32, exit: u16 }
    0x48 LoopBack { exit: u16 }
    0x49 End { exit: u16 }
    0x56 ConstWrAr { d: Reg, w: u64, slot: u16 }
    0x57 MovAr { d: Reg, src: u16, dst: u16 }
    0x63 Alu { op: AluOp, d: Reg, a: Opd, b: Opd, wr: Option<u16> }
    0x64 Chk {
        op: ChkOp, d: Reg, a: Reg, b: Opd, exit: u16, wr: Option<u16>, loop_exit: Option<u16>,
    }
    0x65 Cmp {
        op: CmpOp, double: bool, d: Option<Reg>, a: Reg, b: Opd,
        wr: Option<u16>, guard: Option<Guard>, loop_exit: Option<u16>,
    }
    0x66 WriteArN { n: u8, slots: [u16; 3], srcs: [Reg; 3] }
}

/// Decodes one instruction. Unknown opcodes and invalid enum
/// discriminants are [`BinError::BadTag`], and so is a fused form without
/// one meaning: an `Alu`/`Chk`/`Cmp` that folds nothing (a second
/// spelling of a raw instruction), a `WriteArN` of fewer than two or more
/// than three stores, or a double compare against a folded operand.
pub fn decode_inst(r: &mut ByteReader) -> Result<MachInst, BinError> {
    let at = r.pos();
    let (op, inst) = decode_fields(r, at)?;
    let well_formed = match inst {
        MachInst::Alu { .. } | MachInst::Chk { .. } => inst.is_fused(),
        MachInst::Cmp { double, b, .. } => inst.is_fused() && !(double && b.is_folded()),
        MachInst::WriteArN { n, .. } => (2..=3).contains(&n),
        _ => true,
    };
    if !well_formed {
        return Err(BinError::BadTag { at, tag: u64::from(op), what: "fused MachInst form" });
    }
    Ok(inst)
}

/// Appends the encoded form of `frag` to `w` (PERSISTENCE.md §4:
/// instruction stream, spill count, exit-target table, fuse stats).
///
/// The `stitch` mirror is *not* written — it is redundant with
/// `exit_targets` and is rebuilt on decode, so a cache file cannot carry
/// an inconsistent pair.
pub fn encode_fragment(frag: &Fragment, w: &mut ByteWriter) {
    w.u32(frag.code.len() as u32);
    for inst in &frag.code {
        encode_inst(inst, w);
    }
    w.u16(frag.num_spills);
    w.u32(frag.exit_targets.len() as u32);
    for t in &frag.exit_targets {
        w.u32(match *t {
            ExitTarget::Return => EXIT_UNSTITCHED,
            ExitTarget::Fragment(idx) => idx,
        });
    }
    let fs = frag.fuse_stats;
    w.u32(fs.raw_insts);
    w.u32(fs.fused_insts);
    w.u32(fs.superinsts);
    w.u32(fs.dce_removed);
}

/// Decodes one fragment, rebuilding the `stitch` mirror from the
/// exit-target table. Structural validation only — callers must run
/// `tm-verifier` on the result before installing it.
pub fn decode_fragment(r: &mut ByteReader) -> Result<Fragment, BinError> {
    let n_code = r.seq_len(1)?;
    let mut code = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        code.push(decode_inst(r)?);
    }
    let num_spills = r.u16()?;
    let n_exits = r.seq_len(4)?;
    let mut exit_targets = Vec::with_capacity(n_exits);
    let mut stitch = Vec::with_capacity(n_exits);
    for _ in 0..n_exits {
        let v = r.u32()?;
        exit_targets.push(if v == EXIT_UNSTITCHED {
            ExitTarget::Return
        } else {
            ExitTarget::Fragment(v)
        });
        stitch.push(v);
    }
    let fuse_stats = FuseStats {
        raw_insts: r.u32()?,
        fused_insts: r.u32()?,
        superinsts: r.u32()?,
        dce_removed: r.u32()?,
    };
    Ok(Fragment { code, num_spills, exit_targets, stitch, fuse_stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_insts() -> Vec<MachInst> {
        use MachInst::*;
        vec![
            ConstW { d: 0, w: u64::MAX },
            Mov { d: 1, s: 0 },
            LoadSpill { d: 2, slot: 7 },
            StoreSpill { slot: 7, s: 2 },
            ReadAr { d: 3, slot: 1 },
            WriteAr { slot: 2, s: 3 },
            AddI { d: 0, a: 1, b: 2 },
            MulIChk { d: 0, a: 1, b: 2, exit: 4 },
            NegIChk { d: 5, a: 5, exit: 0 },
            DivD { d: 6, a: 7, b: 8 },
            GeD { d: 0, a: 1, b: 2 },
            D2IChk { d: 1, a: 2, exit: 9 },
            GuardShape { obj: 3, shape: 0xdead_beef, exit: 2 },
            GuardClass { obj: 3, class: 5, exit: 2 },
            GuardBoxedEq { s: 4, w: 0x8000_0000_0000_0001, exit: 3 },
            GuardBound { arr: 1, idx: 2, exit: 6 },
            LoadSlot { d: 0, o: 1, slot: 123_456 },
            StoreSlot { o: 1, slot: 3, s: 2 },
            CallHelper {
                d: 0,
                helper: Helper::StrToNum,
                args: vec![1, 2, 3].into(),
                exit: 1,
            },
            CallHelper {
                d: 1,
                helper: Helper::CallNative(NativeId(42)),
                args: Box::from([] as [Reg; 0]),
                exit: 0,
            },
            CallTree { tree: 17, exit: 5 },
            Cmp {
                op: CmpOp::Lt,
                double: true,
                d: None,
                a: 0,
                b: Opd::Reg(1),
                wr: None,
                guard: Some(Guard { want: true, exit: 2 }),
                loop_exit: Some(3),
            },
            Alu { op: AluOp::Xor, d: 0, a: Opd::Reg(1), b: Opd::Imm(-123), wr: None },
            Chk {
                op: ChkOp::Add,
                d: 0,
                a: 0,
                b: Opd::Imm(1),
                exit: 1,
                wr: Some(4),
                loop_exit: Some(2),
            },
            ConstWrAr { d: 2, w: 0x3ff0_0000_0000_0000, slot: 9 },
            MovAr { d: 1, src: 3, dst: 4 },
            WriteArN { n: 3, slots: [0, 2, 4], srcs: [1, 3, 5] },
            Alu { op: AluOp::UShr, d: 1, a: Opd::Ar(2), b: Opd::Reg(3), wr: Some(4) },
            Cmp {
                op: CmpOp::Ge,
                double: false,
                d: Some(0),
                a: 1,
                b: Opd::Imm(100),
                wr: Some(2),
                guard: Some(Guard { want: false, exit: 3 }),
                loop_exit: None,
            },
            End { exit: 0 },
        ]
    }

    fn sample_fragment() -> Fragment {
        let mut f = Fragment::new(sample_insts(), 3, 10);
        f.set_exit_target(4, ExitTarget::Fragment(2));
        f.set_exit_target(9, ExitTarget::Fragment(0));
        f.fuse_stats = FuseStats { raw_insts: 40, fused_insts: 30, superinsts: 6, dce_removed: 4 };
        f
    }

    #[test]
    fn inst_round_trip() {
        for inst in sample_insts() {
            let mut w = ByteWriter::new();
            encode_inst(&inst, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_inst(&mut r).unwrap(), inst);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn fragment_round_trip_is_bit_exact() {
        let frag = sample_fragment();
        let mut w = ByteWriter::new();
        encode_fragment(&frag, &mut w);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let back = decode_fragment(&mut r).unwrap();
        assert!(r.is_at_end());
        assert_eq!(back.code, frag.code);
        assert_eq!(back.num_spills, frag.num_spills);
        assert_eq!(back.exit_targets, frag.exit_targets);
        assert_eq!(back.stitch, frag.stitch);
        assert_eq!(back.fuse_stats, frag.fuse_stats);

        // Re-encoding the decoded fragment reproduces the bytes exactly.
        let mut w2 = ByteWriter::new();
        encode_fragment(&back, &mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut r = ByteReader::new(&[0xf0]);
        assert!(matches!(
            decode_inst(&mut r),
            Err(BinError::BadTag { what: "MachInst opcode", .. })
        ));
    }

    #[test]
    fn bad_enum_discriminants_rejected() {
        // Cmp with an out-of-range CmpOp.
        let mut r = ByteReader::new(&[0x65, 0x09]);
        assert!(matches!(decode_inst(&mut r), Err(BinError::BadTag { what: "CmpOp", .. })));
        // CallHelper with an unknown helper index (77 is past the table,
        // not the CallNative escape).
        let mut w = ByteWriter::new();
        w.u8(0x46); // CallHelper opcode
        w.u8(0); // d
        w.u8(77); // invalid helper
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(decode_inst(&mut r), Err(BinError::BadTag { what: "Helper", .. })));
    }

    /// Fused forms without one meaning are rejected: no second spelling
    /// of a raw instruction, no grouped store of fewer than two or more
    /// than three stores, and no double compare against a folded operand.
    #[test]
    fn fused_forms_without_one_meaning_rejected() {
        use MachInst::*;
        let cmp = |double, d, b, guard| Cmp {
            op: CmpOp::Lt,
            double,
            d,
            a: 0,
            b,
            wr: None,
            guard,
            loop_exit: None,
        };
        let guard = Some(Guard { want: true, exit: 0 });
        for inst in [
            Alu { op: AluOp::Add, d: 0, a: Opd::Reg(1), b: Opd::Reg(2), wr: None },
            Chk { op: ChkOp::Add, d: 0, a: 1, b: Opd::Reg(2), exit: 0, wr: None, loop_exit: None },
            cmp(false, Some(2), Opd::Reg(1), None),
            cmp(true, None, Opd::Imm(1), guard),
            cmp(true, Some(2), Opd::Ar(1), None),
            WriteArN { n: 1, slots: [0; 3], srcs: [0; 3] },
            WriteArN { n: 4, slots: [0; 3], srcs: [0; 3] },
        ] {
            let mut w = ByteWriter::new();
            encode_inst(&inst, &mut w);
            let bytes = w.into_bytes();
            assert!(
                matches!(
                    decode_inst(&mut ByteReader::new(&bytes)),
                    Err(BinError::BadTag { at: 0, what: "fused MachInst form", .. })
                ),
                "{inst:?} decoded"
            );
        }
    }

    #[test]
    fn every_truncation_of_a_fragment_fails_cleanly() {
        let frag = sample_fragment();
        let mut w = ByteWriter::new();
        encode_fragment(&frag, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                decode_fragment(&mut r).is_err(),
                "truncation at {cut}/{} decoded successfully",
                bytes.len()
            );
        }
    }

    #[test]
    fn stitch_mirror_rebuilt_from_exit_targets() {
        let frag = sample_fragment();
        let mut w = ByteWriter::new();
        encode_fragment(&frag, &mut w);
        let bytes = w.into_bytes();
        let back = decode_fragment(&mut ByteReader::new(&bytes)).unwrap();
        for (t, &s) in back.exit_targets.iter().zip(&back.stitch) {
            match t {
                ExitTarget::Return => assert_eq!(s, EXIT_UNSTITCHED),
                ExitTarget::Fragment(idx) => assert_eq!(s, *idx),
            }
        }
    }
}
