//! Peephole superinstruction fusion over assembled fragments.
//!
//! Runs between register allocation ([`crate::assembler::assemble`]) and
//! fragment installation. Three rewrites iterate to a fixpoint:
//!
//! 1. **Immediate folding** — an int ALU, checked-ALU or compare whose
//!    operand register provably holds a 32-bit constant (tracked forward
//!    from `ConstW`) gets an [`Opd::Imm`] operand; the `ConstW` dies and is
//!    collected by pass 3.
//! 2. **Adjacent-pair fusion** — each rule folds the next raw instruction
//!    into one field of the fused form before it:
//!    - `ReadAr` + raw ALU → `Alu` with an [`Opd::Ar`] operand;
//!    - `WriteAr` of the result → `wr` on a raw or fused ALU, checked ALU
//!      or compare that has none yet (and `ConstWrAr`, `MovAr`, grouped
//!      `WriteArN` stores);
//!    - `GuardTrue`/`GuardFalse` on a compare result → `guard` (the
//!      register write is dropped when nothing else reads it; a stored
//!      result keeps it);
//!    - `LoopBack` → `loop_exit`, only after a register-operand
//!      compare-branch or an immediate checked ALU with a write-back
//!      (the canonical loop tail).
//! 3. **Dead-code removal** — pure instructions whose destination register
//!    is never read again are deleted.
//!
//! Both the deadness scans and DCE rely on an invariant of assembled
//! fragments: **no register is live across the back edge or across a
//! stitched-fragment transfer** — all loop-carried and cross-fragment
//! state flows through the trace activation record, and every register
//! read is preceded by a write earlier in the same fragment. A
//! straight-line scan to the end of the fragment is therefore a complete
//! liveness analysis.
//!
//! The pass is semantics-preserving by construction: every fused form
//! performs exactly the reads, writes, checks and exits of the raw
//! sequence it replaces, in the same order ([`crate::machinst`] documents
//! each). `tm-verifier::verify_fragment` re-checks the structural
//! invariants after fusion.

use tm_lir::{AluOp, ChkOp, CmpOp};

use crate::machinst::{
    Fragment, FuseStats, Guard, MachInst, Opd, Reg, REG_FILE_WORDS, REG_MASK,
};

/// Fuses a fragment in place and fills in its [`FuseStats`].
pub fn fuse(mut frag: Fragment) -> Fragment {
    let raw_insts = frag.code.len() as u32;
    let mut dce_removed = 0;
    loop {
        let folded = fold_immediates(&mut frag.code);
        let paired = fuse_pairs(&mut frag.code);
        let removed = remove_dead(&mut frag.code);
        dce_removed += removed;
        if !folded && !paired && removed == 0 {
            break;
        }
    }
    frag.fuse_stats = FuseStats {
        raw_insts,
        fused_insts: frag.code.len() as u32,
        superinsts: frag.code.iter().filter(|i| i.is_fused()).count() as u32,
        dce_removed,
    };
    frag
}

fn reg_idx(r: Reg) -> usize {
    (r & REG_MASK) as usize
}

/// Whether `w` (a `ConstW` payload) is a sign-extended 32-bit integer,
/// i.e. usable verbatim as an `i32` immediate.
fn as_imm(w: u64) -> Option<i32> {
    let v = w as i32;
    if i64::from(v) as u64 == w {
        Some(v)
    } else {
        None
    }
}

/// True when register `r`'s current value is never read in `tail` (which
/// must be the rest of the fragment). Sound because no register is live
/// across the back edge or a stitched transfer.
fn reg_dead(tail: &[MachInst], r: Reg) -> bool {
    for inst in tail {
        let mut read = false;
        inst.for_each_src(|s| read |= s == r);
        if read {
            return false;
        }
        if inst.dest() == Some(r) {
            return true;
        }
    }
    true
}

fn alu_parts(inst: &MachInst) -> Option<(AluOp, Reg, Reg, Reg)> {
    use MachInst::*;
    match *inst {
        AddI { d, a, b } => Some((AluOp::Add, d, a, b)),
        SubI { d, a, b } => Some((AluOp::Sub, d, a, b)),
        MulI { d, a, b } => Some((AluOp::Mul, d, a, b)),
        AndI { d, a, b } => Some((AluOp::And, d, a, b)),
        OrI { d, a, b } => Some((AluOp::Or, d, a, b)),
        XorI { d, a, b } => Some((AluOp::Xor, d, a, b)),
        ShlI { d, a, b } => Some((AluOp::Shl, d, a, b)),
        ShrI { d, a, b } => Some((AluOp::Shr, d, a, b)),
        UShrI { d, a, b } => Some((AluOp::UShr, d, a, b)),
        _ => None,
    }
}

fn chk_parts(inst: &MachInst) -> Option<(ChkOp, Reg, Reg, Reg, u16)> {
    use MachInst::*;
    match *inst {
        AddIChk { d, a, b, exit } => Some((ChkOp::Add, d, a, b, exit)),
        SubIChk { d, a, b, exit } => Some((ChkOp::Sub, d, a, b, exit)),
        MulIChk { d, a, b, exit } => Some((ChkOp::Mul, d, a, b, exit)),
        ShlIChk { d, a, b, exit } => Some((ChkOp::Shl, d, a, b, exit)),
        UShrIChk { d, a, b, exit } => Some((ChkOp::UShr, d, a, b, exit)),
        _ => None,
    }
}

/// A raw compare as `(op, double, d, a, b)`.
fn cmp_parts(inst: &MachInst) -> Option<(CmpOp, bool, Reg, Reg, Reg)> {
    use MachInst::*;
    match *inst {
        EqI { d, a, b } => Some((CmpOp::Eq, false, d, a, b)),
        LtI { d, a, b } => Some((CmpOp::Lt, false, d, a, b)),
        LeI { d, a, b } => Some((CmpOp::Le, false, d, a, b)),
        GtI { d, a, b } => Some((CmpOp::Gt, false, d, a, b)),
        GeI { d, a, b } => Some((CmpOp::Ge, false, d, a, b)),
        EqD { d, a, b } => Some((CmpOp::Eq, true, d, a, b)),
        LtD { d, a, b } => Some((CmpOp::Lt, true, d, a, b)),
        LeD { d, a, b } => Some((CmpOp::Le, true, d, a, b)),
        GtD { d, a, b } => Some((CmpOp::Gt, true, d, a, b)),
        GeD { d, a, b } => Some((CmpOp::Ge, true, d, a, b)),
        _ => None,
    }
}

/// Pass 1: rewrite register operands that provably hold constants into
/// immediate operands. The defining `ConstW` is left for DCE to collect.
fn fold_immediates(code: &mut [MachInst]) -> bool {
    use MachInst::*;
    let mut known: [Option<i32>; REG_FILE_WORDS] = [None; REG_FILE_WORDS];
    let mut changed = false;
    for inst in code.iter_mut() {
        // `(register operand, immediate, swapped)` when `b` — or, if the
        // op may swap its operands, `a` — holds a known constant. Both
        // constant is left to the b-side fold (a stays a reg read;
        // LIR-level folding already handles const⊕const).
        let imm_operand = |a: Reg, b: Reg, swappable: bool| {
            match (known[reg_idx(a)], known[reg_idx(b)]) {
                (_, Some(imm)) => Some((a, imm, false)),
                (Some(imm), None) if swappable => Some((b, imm, true)),
                _ => None,
            }
        };
        let replacement = if let Some((op, d, a, b)) = alu_parts(inst) {
            imm_operand(a, b, op.commutative())
                .map(|(a, imm, _)| Alu { op, d, a: Opd::Reg(a), b: Opd::Imm(imm), wr: None })
        } else if let Some((op, d, a, b, exit)) = chk_parts(inst) {
            imm_operand(a, b, op.commutative()).map(|(a, imm, _)| Chk {
                op,
                d,
                a,
                b: Opd::Imm(imm),
                exit,
                wr: None,
                loop_exit: None,
            })
        } else if let Some((op, false, d, a, b)) = cmp_parts(inst) {
            // Compares are not commutative, but every CmpOp has a swapped
            // twin, so a constant on either side folds.
            imm_operand(a, b, true).map(|(a, imm, swapped)| Cmp {
                op: if swapped { op.swapped() } else { op },
                double: false,
                d: Some(d),
                a,
                b: Opd::Imm(imm),
                wr: None,
                guard: None,
                loop_exit: None,
            })
        } else {
            None
        };
        if let Some(new) = replacement {
            *inst = new;
            changed = true;
        }
        match inst {
            ConstW { d, w } | ConstWrAr { d, w, .. } => known[reg_idx(*d)] = as_imm(*w),
            _ => {
                if let Some(d) = inst.dest() {
                    known[reg_idx(d)] = None;
                }
            }
        }
    }
    changed
}

/// Pass 2: left fold over the instruction stream, fusing each instruction
/// with the previously emitted one where a superinstruction exists.
/// Chains compose in a single scan (`LtI`,`GuardTrue`,`LoopBack` →
/// `Cmp` + guard,`LoopBack` → `Cmp` + guard + loop edge).
fn fuse_pairs(code: &mut Vec<MachInst>) -> bool {
    let old = std::mem::take(code);
    let mut out: Vec<MachInst> = Vec::with_capacity(old.len());
    let mut changed = false;
    for (j, inst) in old.iter().enumerate() {
        if let Some(prev) = out.last() {
            if let Some(fused) = try_fuse(prev, inst, &old[j + 1..]) {
                out.pop();
                out.push(fused);
                changed = true;
                continue;
            }
        }
        out.push(inst.clone());
    }
    *code = out;
    changed
}

/// Attempts to fuse adjacent `prev`,`next` into one superinstruction.
/// `tail` is the rest of the fragment after `next` (for deadness checks).
fn try_fuse(prev: &MachInst, next: &MachInst, tail: &[MachInst]) -> Option<MachInst> {
    use MachInst::*;
    match *next {
        GuardTrue { s, exit } | GuardFalse { s, exit } => {
            let guard = Some(Guard { want: matches!(next, GuardTrue { .. }), exit });
            // compare + guard → compare-branch. The 0/1 register write is
            // dropped when nothing else reads it; with a write-back the
            // register and the AR slot are still written (before the exit
            // check, exactly the raw order), so no deadness requirement.
            if let Some((op, double, d, a, b)) = cmp_parts(prev) {
                if s == d && reg_dead(tail, d) {
                    let (b, wr, loop_exit) = (Opd::Reg(b), None, None);
                    return Some(Cmp { op, double, d: None, a, b, wr, guard, loop_exit });
                }
            }
            if let Cmp { op, double, d: Some(d), a, b, wr, guard: None, loop_exit: None } = *prev {
                if s == d && (wr.is_some() || reg_dead(tail, d)) {
                    let d = wr.map(|_| d);
                    return Some(Cmp { op, double, d, a, b, wr, guard, loop_exit: None });
                }
            }
            // boolean-not + guard → the opposite guard on the un-negated
            // value. `NotB` is exactly `d = (a == 0)`, so guarding `d` true
            // is guarding `a` false (and vice versa) for every u64 payload;
            // the `NotB` write is elided, hence the deadness requirement.
            if let NotB { d, a } = *prev {
                if s == d && reg_dead(tail, d) {
                    return Some(match next {
                        GuardTrue { .. } => GuardFalse { s: a, exit },
                        _ => GuardTrue { s: a, exit },
                    });
                }
            }
            None
        }

        // compare-branch + loop edge → the loop-edge triple, and the
        // checked-increment write-through + loop edge → the whole
        // canonical loop tail (`i = i ⊕ imm (checked); store i; jump
        // back`) in one dispatch. The overflow check happens before the
        // writes, exactly as in the raw sequence.
        LoopBack { exit } => {
            let loop_exit = Some(exit);
            match *prev {
                Cmp { op, double, d, a, b: b @ Opd::Reg(_), wr: None, guard, loop_exit: None }
                    if guard.is_some() =>
                {
                    Some(Cmp { op, double, d, a, b, wr: None, guard, loop_exit })
                }
                Chk { op, d, a, b: b @ Opd::Imm(_), exit, wr, loop_exit: None } if wr.is_some() => {
                    Some(Chk { op, d, a, b, exit, wr, loop_exit })
                }
                _ => None,
            }
        }

        WriteAr { slot, s } => {
            let wr = Some(slot);
            // ALU / checked ALU / compare + store of its result: the
            // destination register is still written, so later uses are
            // unaffected. (The recorder stores every branch condition to
            // the AR before guarding on it.)
            if let Some((op, d, a, b)) = alu_parts(prev).filter(|p| p.1 == s) {
                return Some(Alu { op, d, a: Opd::Reg(a), b: Opd::Reg(b), wr });
            }
            if let Some((op, d, a, b, exit)) = chk_parts(prev).filter(|p| p.1 == s) {
                return Some(Chk { op, d, a, b: Opd::Reg(b), exit, wr, loop_exit: None });
            }
            if let Some((op, double, d, a, b)) = cmp_parts(prev).filter(|p| p.2 == s) {
                let (d, b) = (Some(d), Opd::Reg(b));
                return Some(Cmp { op, double, d, a, b, wr, guard: None, loop_exit: None });
            }
            match *prev {
                Alu { op, d, a, b, wr: None } if d == s => Some(Alu { op, d, a, b, wr }),
                Chk { op, d, a, b, exit, wr: None, loop_exit: None } if d == s => {
                    Some(Chk { op, d, a, b, exit, wr, loop_exit: None })
                }
                Cmp { op, double, d: Some(d), a, b, wr: None, guard: None, loop_exit: None }
                    if d == s =>
                {
                    Some(Cmp { op, double, d: Some(d), a, b, wr, guard: None, loop_exit: None })
                }
                // Constant materialization + store (constants re-written to
                // the AR every iteration by the recorder).
                ConstW { d, w } if d == s => Some(ConstWrAr { d, w, slot }),
                // AR-to-AR shuffle through a register; the register copy
                // survives for later readers.
                ReadAr { d, slot: src } if d == s => Some(MovAr { d, src, dst: slot }),
                // Adjacent AR stores → one grouped store (order preserved;
                // a repeated slot keeps only the last store, which is all
                // the raw pair made visible anyway).
                WriteAr { slot: slot_a, .. } if slot_a == slot => Some(WriteAr { slot, s }),
                WriteAr { slot: slot_a, s: s_a } => {
                    Some(WriteArN { n: 2, slots: [slot_a, slot, 0], srcs: [s_a, s, 0] })
                }
                WriteArN { n: 2, slots: [slot_a, slot_b, _], srcs: [s_a, s_b, _] } => {
                    Some(WriteArN { n: 3, slots: [slot_a, slot_b, slot], srcs: [s_a, s_b, s] })
                }
                _ => None,
            }
        }

        // ReadAr + ALU → AR-operand ALU. The loaded register must die at
        // the ALU (it is either overwritten by it or never read again),
        // and must not feed the ALU's *other* operand, which would still
        // read it.
        _ => {
            let ReadAr { d: r, slot } = *prev else { return None };
            let (op, d, a, b) = alu_parts(next)?;
            let dead = d == r || reg_dead(tail, r);
            let other = if a == r && b != r {
                b
            } else if b == r && a != r && op.commutative() {
                a
            } else {
                return None;
            };
            dead.then_some(Alu { op, d, a: Opd::Ar(slot), b: Opd::Reg(other), wr: None })
        }
    }
}

/// Pass 3: backward liveness; deletes pure instructions whose destination
/// is dead. The live set starts empty at the end of the fragment (the
/// back-edge/stitch invariant again).
fn remove_dead(code: &mut Vec<MachInst>) -> u32 {
    let mut live = [false; REG_FILE_WORDS];
    let mut keep = vec![true; code.len()];
    let mut removed = 0;
    for (i, inst) in code.iter().enumerate().rev() {
        if let Some(d) = inst.dest() {
            if !live[reg_idx(d)] && inst.is_pure() {
                keep[i] = false;
                removed += 1;
                continue;
            }
            live[reg_idx(d)] = false;
        }
        inst.for_each_src(|s| live[reg_idx(s)] = true);
    }
    if removed > 0 {
        let mut it = keep.iter();
        code.retain(|_| *it.next().unwrap());
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machinst::MachInst::*;

    fn frag(code: Vec<MachInst>, num_exits: usize) -> Fragment {
        Fragment::new(code, 0, num_exits)
    }

    /// The counting-loop body: 8 raw instructions fuse to 4.
    #[test]
    fn counting_loop_halves() {
        let f = frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                ConstW { d: 2, w: 1 },
                AddIChk { d: 3, a: 0, b: 2, exit: 0 },
                WriteAr { slot: 0, s: 3 },
                LtI { d: 4, a: 3, b: 1 },
                GuardTrue { s: 4, exit: 1 },
                LoopBack { exit: 2 },
            ],
            3,
        );
        let f = fuse(f);
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                Chk {
                    op: ChkOp::Add,
                    d: 3,
                    a: 0,
                    b: Opd::Imm(1),
                    exit: 0,
                    wr: Some(0),
                    loop_exit: None,
                },
                Cmp {
                    op: CmpOp::Lt,
                    double: false,
                    d: None,
                    a: 3,
                    b: Opd::Reg(1),
                    wr: None,
                    guard: Some(Guard { want: true, exit: 1 }),
                    loop_exit: Some(2),
                },
            ]
        );
        assert_eq!(f.fuse_stats.raw_insts, 8);
        assert_eq!(f.fuse_stats.fused_insts, 4);
        assert_eq!(f.fuse_stats.superinsts, 2);
        assert_eq!(f.fuse_stats.dce_removed, 1);
    }

    #[test]
    fn cmp_guard_false_fuses_with_want_false() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                EqI { d: 2, a: 0, b: 1 },
                GuardFalse { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        let want_false = Some(Guard { want: false, exit: 0 });
        assert!(f
            .code
            .iter()
            .any(|i| matches!(i, Cmp { op: CmpOp::Eq, guard, .. } if *guard == want_false)));
    }

    #[test]
    fn cmp_result_still_used_blocks_fusion() {
        // The compare's 0/1 result is written to the AR after the guard,
        // so it stays a separate instruction.
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                LtI { d: 2, a: 0, b: 1 },
                GuardTrue { s: 2, exit: 0 },
                WriteAr { slot: 2, s: 2 },
                End { exit: 1 },
            ],
            2,
        ));
        assert!(f.code.iter().any(|i| matches!(i, LtI { .. })));
        assert!(f.code.iter().any(|i| matches!(i, GuardTrue { .. })));
    }

    #[test]
    fn readar_alu_fuses_unless_other_operand_aliases() {
        // r0 feeds both operands: must not fuse (the fused form would
        // read a stale register for the second operand).
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                SubI { d: 1, a: 0, b: 0 },
                WriteAr { slot: 1, s: 1 },
                End { exit: 0 },
            ],
            1,
        ));
        assert!(f.code.iter().any(|i| matches!(i, ReadAr { .. })));
        assert!(!f.code.iter().any(|i| matches!(i, Alu { a: Opd::Ar(_), .. })));

        // Distinct operand: fuses, and the trailing WriteAr collapses
        // into the AR-to-AR write-through form.
        let f = fuse(frag(
            vec![
                ReadAr { d: 1, slot: 1 },
                ReadAr { d: 0, slot: 0 },
                SubI { d: 2, a: 0, b: 1 },
                WriteAr { slot: 1, s: 2 },
                End { exit: 0 },
            ],
            1,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 1, slot: 1 },
                Alu { op: AluOp::Sub, d: 2, a: Opd::Ar(0), b: Opd::Reg(1), wr: Some(1) },
                End { exit: 0 },
            ]
        );
    }

    #[test]
    fn commutative_swap_folds_a_side_constant() {
        let f = fuse(frag(
            vec![
                ConstW { d: 0, w: 7 },
                ReadAr { d: 1, slot: 0 },
                MulI { d: 2, a: 0, b: 1 },
                WriteAr { slot: 0, s: 2 },
                End { exit: 0 },
            ],
            1,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 1, slot: 0 },
                Alu { op: AluOp::Mul, d: 2, a: Opd::Reg(1), b: Opd::Imm(7), wr: Some(0) },
                End { exit: 0 },
            ]
        );
    }

    #[test]
    fn non_i32_constw_is_not_an_immediate() {
        // A double bit-pattern constant must not fold into an int ALU imm.
        let bits = 1.5f64.to_bits();
        let f = fuse(frag(
            vec![
                ConstW { d: 0, w: bits },
                ReadAr { d: 1, slot: 0 },
                AddI { d: 2, a: 1, b: 0 },
                WriteAr { slot: 0, s: 2 },
                End { exit: 0 },
            ],
            1,
        ));
        assert!(f.code.iter().any(|i| matches!(i, ConstW { .. })));
        assert!(!f.code.iter().any(|i| matches!(i, Alu { b: Opd::Imm(_), .. })));
    }

    #[test]
    fn shared_constant_keeps_constw_for_other_reader() {
        // The constant register also feeds a non-foldable consumer
        // (a guard), so ConstW must survive DCE.
        let f = fuse(frag(
            vec![
                ConstW { d: 0, w: 1 },
                ReadAr { d: 1, slot: 0 },
                AddI { d: 2, a: 1, b: 0 },
                WriteAr { slot: 0, s: 2 },
                GuardTrue { s: 0, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert!(f.code.iter().any(|i| matches!(i, ConstW { .. })));
    }

    /// The recorder's canonical branch shape — compare, store the 0/1
    /// result to the AR, then guard on it — collapses to one
    /// compare-write-branch superinstruction.
    #[test]
    fn cmp_store_guard_triple_fuses() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                LtI { d: 2, a: 0, b: 1 },
                WriteAr { slot: 2, s: 2 },
                GuardTrue { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                Cmp {
                    op: CmpOp::Lt,
                    double: false,
                    d: Some(2),
                    a: 0,
                    b: Opd::Reg(1),
                    wr: Some(2),
                    guard: Some(Guard { want: true, exit: 0 }),
                    loop_exit: None,
                },
                End { exit: 1 },
            ]
        );
    }

    /// A constant compare operand folds through `swapped()` even though
    /// compares are not commutative, and the folded form still fuses
    /// with the store and the guard.
    #[test]
    fn compare_immediate_folds_on_either_side() {
        // Constant on the right: `x < 100`.
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 100 },
                LtI { d: 2, a: 0, b: 1 },
                GuardTrue { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                Cmp {
                    op: CmpOp::Lt,
                    double: false,
                    d: None,
                    a: 0,
                    b: Opd::Imm(100),
                    wr: None,
                    guard: Some(Guard { want: true, exit: 0 }),
                    loop_exit: None,
                },
                End { exit: 1 },
            ]
        );

        // Constant on the left: `100 < x` becomes `x > 100`.
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 100 },
                LtI { d: 2, a: 1, b: 0 },
                WriteAr { slot: 1, s: 2 },
                GuardTrue { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                Cmp {
                    op: CmpOp::Gt,
                    double: false,
                    d: Some(2),
                    a: 0,
                    b: Opd::Imm(100),
                    wr: Some(1),
                    guard: Some(Guard { want: true, exit: 0 }),
                    loop_exit: None,
                },
                End { exit: 1 },
            ]
        );
    }

    /// `EqI; NotB; Guard` — the boolean negation flips the guard's sense
    /// and the compare then fuses into the flipped guard.
    #[test]
    fn notb_guard_flips_and_fuses_into_compare() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                EqI { d: 2, a: 0, b: 1 },
                NotB { d: 3, a: 2 },
                GuardTrue { s: 3, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                Cmp {
                    op: CmpOp::Eq,
                    double: false,
                    d: None,
                    a: 0,
                    b: Opd::Reg(1),
                    wr: None,
                    guard: Some(Guard { want: false, exit: 0 }),
                    loop_exit: None,
                },
                End { exit: 1 },
            ]
        );
    }

    /// AR-to-AR shuffles and constant rematerializations collapse.
    #[test]
    fn ar_shuffle_and_const_store_fuse() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 3 },
                WriteAr { slot: 5, s: 0 },
                ConstW { d: 1, w: 7 },
                WriteAr { slot: 6, s: 1 },
                End { exit: 0 },
            ],
            1,
        ));
        assert_eq!(
            f.code,
            vec![
                MovAr { d: 0, src: 3, dst: 5 },
                ConstWrAr { d: 1, w: 7, slot: 6 },
                End { exit: 0 },
            ]
        );
    }

    /// Clusters of adjacent AR stores group into `WriteArN`s.
    #[test]
    fn adjacent_writear_cluster_groups() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                ReadAr { d: 2, slot: 2 },
                AddI { d: 3, a: 0, b: 1 },
                WriteAr { slot: 3, s: 0 },
                WriteAr { slot: 4, s: 1 },
                WriteAr { slot: 5, s: 2 },
                WriteAr { slot: 6, s: 3 },
                End { exit: 0 },
            ],
            1,
        ));
        // The first three stores group into one WriteArN; the fourth
        // stays a lone WriteAr (grouping caps at three).
        assert!(f.code.iter().any(|i| matches!(i, WriteArN { n: 3, .. })));
        assert_eq!(f.code.iter().filter(|i| matches!(i, WriteAr { .. })).count(), 1);
        assert_eq!(f.code.len(), 7, "9 raw -> 7 fused: {:?}", f.code);
    }

    /// Two stores to the *same* slot keep only the last one.
    #[test]
    fn same_slot_double_store_keeps_last() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                WriteAr { slot: 4, s: 0 },
                WriteAr { slot: 4, s: 1 },
                End { exit: 0 },
            ],
            1,
        ));
        // Only the second store survives, and it folds all the way down
        // to a single AR-to-AR move (both ReadArs die: slot 1 is re-read
        // by the MovAr itself).
        assert_eq!(f.code, vec![MovAr { d: 1, src: 1, dst: 4 }, End { exit: 0 }]);
    }

    /// The canonical loop tail — checked increment, write-through, loop
    /// edge — becomes a single terminator superinstruction.
    #[test]
    fn checked_increment_loop_tail_fuses_to_one_terminator() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 1 },
                AddIChk { d: 2, a: 0, b: 1, exit: 0 },
                WriteAr { slot: 0, s: 2 },
                LoopBack { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                Chk {
                    op: ChkOp::Add,
                    d: 2,
                    a: 0,
                    b: Opd::Imm(1),
                    exit: 0,
                    wr: Some(0),
                    loop_exit: Some(1),
                },
            ]
        );
        assert!(f.code.last().unwrap().is_terminator());
    }

    /// Checked shifts fold immediates like the other checked ops.
    #[test]
    fn checked_shift_folds_immediate() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 2 },
                ShlIChk { d: 2, a: 0, b: 1, exit: 0 },
                WriteAr { slot: 0, s: 2 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                Chk {
                    op: ChkOp::Shl,
                    d: 2,
                    a: 0,
                    b: Opd::Imm(2),
                    exit: 0,
                    wr: Some(0),
                    loop_exit: None,
                },
                End { exit: 1 },
            ]
        );
    }

    #[test]
    fn fusion_is_stable_at_fixpoint() {
        let f = frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                ConstW { d: 2, w: 1 },
                AddIChk { d: 3, a: 0, b: 2, exit: 0 },
                WriteAr { slot: 0, s: 3 },
                LtI { d: 4, a: 3, b: 1 },
                GuardTrue { s: 4, exit: 1 },
                LoopBack { exit: 2 },
            ],
            3,
        );
        let once = fuse(f);
        let twice = fuse(once.clone());
        assert_eq!(once.code, twice.code);
    }
}
