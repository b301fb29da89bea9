//! Structural verification of assembled (and peephole-fused) fragments.
//!
//! [`crate::verify::verify_trace`] checks the LIR before the backend runs;
//! this module re-checks the *output* of the backend — after register
//! allocation and after the superinstruction pass — so a fusion bug is
//! caught as a structured error instead of executed as garbage:
//!
//! * every register operand is in `0..NREGS` (the executor masks indexes,
//!   so an out-of-range register would silently alias another);
//! * every spill-slot reference is below `num_spills`, and every reload
//!   reads a slot some earlier instruction stored;
//! * every exit id (including the fused forms' second, loop-edge exit) has
//!   an entry in the exit-target table;
//! * the fragment ends with exactly one terminator (`LoopBack`, `End`, or
//!   a fused form with a folded loop edge), and none appears earlier;
//! * the decoded `stitch` table mirrors `exit_targets` entry for entry.

use tm_nanojit::machinst::{ExitTarget, Fragment, MachInst, EXIT_UNSTITCHED, NREGS};

/// A structural violation in a compiled fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// A register operand is outside `0..NREGS`.
    RegOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending register.
        reg: u8,
    },
    /// A spill-slot index is `>= num_spills`.
    SpillOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending slot.
        slot: u16,
    },
    /// A `LoadSpill` reads a slot no earlier `StoreSpill` wrote.
    SpillReadBeforeWrite {
        /// Instruction index.
        pc: usize,
        /// The offending slot.
        slot: u16,
    },
    /// An exit id has no entry in the exit-target table.
    ExitOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending exit id.
        exit: u16,
    },
    /// A terminator instruction appears before the last position.
    TerminatorNotLast {
        /// Instruction index.
        pc: usize,
    },
    /// The fragment does not end with a terminator (or is empty).
    MissingTerminator,
    /// `stitch[exit]` disagrees with `exit_targets[exit]`.
    StitchTableMismatch {
        /// The inconsistent exit id.
        exit: u16,
    },
    /// `stitch` and `exit_targets` have different lengths.
    StitchTableLength {
        /// `exit_targets.len()`.
        targets: usize,
        /// `stitch.len()`.
        stitch: usize,
    },
    /// A stitched exit targets a fragment index outside the tree (only
    /// reachable through [`verify_loaded_fragments`]; in-process stitching
    /// always targets an installed fragment).
    StitchTargetOutOfRange {
        /// Fragment the exit belongs to.
        fragment: usize,
        /// The offending exit id.
        exit: u16,
        /// The out-of-range target fragment index.
        target: u32,
    },
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragmentError::RegOutOfRange { pc, reg } => {
                write!(f, "pc {pc}: register r{reg} out of range (NREGS = {NREGS})")
            }
            FragmentError::SpillOutOfRange { pc, slot } => {
                write!(f, "pc {pc}: spill slot {slot} >= num_spills")
            }
            FragmentError::SpillReadBeforeWrite { pc, slot } => {
                write!(f, "pc {pc}: reload of spill slot {slot} before any store")
            }
            FragmentError::ExitOutOfRange { pc, exit } => {
                write!(f, "pc {pc}: exit {exit} has no exit-target entry")
            }
            FragmentError::TerminatorNotLast { pc } => {
                write!(f, "pc {pc}: terminator before the end of the fragment")
            }
            FragmentError::MissingTerminator => {
                write!(f, "fragment does not end with a terminator")
            }
            FragmentError::StitchTableMismatch { exit } => {
                write!(f, "stitch table disagrees with exit_targets at exit {exit}")
            }
            FragmentError::StitchTableLength { targets, stitch } => {
                write!(f, "stitch table length {stitch} != exit_targets length {targets}")
            }
            FragmentError::StitchTargetOutOfRange { fragment, exit, target } => {
                write!(
                    f,
                    "fragment {fragment} exit {exit}: stitch target {target} outside the tree"
                )
            }
        }
    }
}

/// Verifies the structural invariants of a compiled fragment.
///
/// # Errors
///
/// Returns the first [`FragmentError`] found, scanning in program order.
pub fn verify_fragment(frag: &Fragment) -> Result<(), FragmentError> {
    if frag.stitch.len() != frag.exit_targets.len() {
        return Err(FragmentError::StitchTableLength {
            targets: frag.exit_targets.len(),
            stitch: frag.stitch.len(),
        });
    }
    for (e, target) in frag.exit_targets.iter().enumerate() {
        let want = match target {
            ExitTarget::Return => EXIT_UNSTITCHED,
            ExitTarget::Fragment(idx) => *idx,
        };
        if frag.stitch[e] != want {
            return Err(FragmentError::StitchTableMismatch { exit: e as u16 });
        }
    }

    let mut stored_spills = vec![false; frag.num_spills as usize];
    let last = frag.code.len().checked_sub(1);
    for (pc, inst) in frag.code.iter().enumerate() {
        let mut bad_reg = None;
        inst.for_each_src(|s| {
            if (s as usize) >= NREGS {
                bad_reg.get_or_insert(s);
            }
        });
        if let Some(d) = inst.dest() {
            if (d as usize) >= NREGS {
                bad_reg.get_or_insert(d);
            }
        }
        if let Some(reg) = bad_reg {
            return Err(FragmentError::RegOutOfRange { pc, reg });
        }

        match *inst {
            MachInst::StoreSpill { slot, .. } => {
                if slot >= frag.num_spills {
                    return Err(FragmentError::SpillOutOfRange { pc, slot });
                }
                stored_spills[slot as usize] = true;
            }
            MachInst::LoadSpill { slot, .. } => {
                if slot >= frag.num_spills {
                    return Err(FragmentError::SpillOutOfRange { pc, slot });
                }
                if !stored_spills[slot as usize] {
                    return Err(FragmentError::SpillReadBeforeWrite { pc, slot });
                }
            }
            _ => {}
        }

        let mut bad_exit = None;
        inst.for_each_exit(|e| {
            if (e as usize) >= frag.exit_targets.len() {
                bad_exit.get_or_insert(e);
            }
        });
        if let Some(exit) = bad_exit {
            return Err(FragmentError::ExitOutOfRange { pc, exit });
        }

        if inst.is_terminator() && Some(pc) != last {
            return Err(FragmentError::TerminatorNotLast { pc });
        }
    }
    match frag.code.last() {
        Some(inst) if inst.is_terminator() => Ok(()),
        _ => Err(FragmentError::MissingTerminator),
    }
}

/// Verifies a whole tree of fragments loaded from the persistent trace
/// cache: every fragment passes [`verify_fragment`], and every stitched
/// exit targets a fragment inside the tree. This is the **mandatory**
/// gate between deserialization and installation (`docs/PERSISTENCE.md`
/// §5) — in-process compilation establishes these invariants by
/// construction, but bytes from disk prove nothing until checked.
///
/// # Errors
///
/// Returns the offending fragment's index and the first [`FragmentError`]
/// found in it.
pub fn verify_loaded_fragments(fragments: &[Fragment]) -> Result<(), (usize, FragmentError)> {
    for (i, frag) in fragments.iter().enumerate() {
        verify_fragment(frag).map_err(|e| (i, e))?;
        for (e, target) in frag.exit_targets.iter().enumerate() {
            if let ExitTarget::Fragment(idx) = *target {
                if idx as usize >= fragments.len() {
                    return Err((
                        i,
                        FragmentError::StitchTargetOutOfRange {
                            fragment: i,
                            exit: e as u16,
                            target: idx,
                        },
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_nanojit::machinst::MachInst::*;
    use tm_nanojit::machinst::{Guard, MachInst, Opd};

    /// The fused loop tail: checked `r0 += 1`, stored to slot 0, then the
    /// loop edge.
    fn loop_tail(exit: u16, loop_exit: u16) -> MachInst {
        Chk {
            op: tm_lir::ChkOp::Add,
            d: 0,
            a: 0,
            b: Opd::Imm(1),
            exit,
            wr: Some(0),
            loop_exit: Some(loop_exit),
        }
    }

    fn ok_frag() -> Fragment {
        Fragment::new(
            vec![
                ReadAr { d: 0, slot: 0 },
                StoreSpill { slot: 0, s: 0 },
                LoadSpill { d: 1, slot: 0 },
                WriteAr { slot: 1, s: 1 },
                End { exit: 0 },
            ],
            1,
            1,
        )
    }

    #[test]
    fn accepts_well_formed_fragment() {
        assert_eq!(verify_fragment(&ok_frag()), Ok(()));
    }

    #[test]
    fn accepts_fused_terminator() {
        let frag = Fragment::new(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                Cmp {
                    op: tm_lir::CmpOp::Lt,
                    double: false,
                    d: None,
                    a: 0,
                    b: Opd::Reg(1),
                    wr: None,
                    guard: Some(Guard { want: true, exit: 0 }),
                    loop_exit: Some(1),
                },
            ],
            0,
            2,
        );
        assert_eq!(verify_fragment(&frag), Ok(()));
    }

    #[test]
    fn accepts_extended_superinstruction_forms() {
        // One of each fused form, ending in the fused loop tail; all
        // registers, slots, and exits in range.
        let frag = Fragment::new(
            vec![
                MovAr { d: 0, src: 0, dst: 1 },
                ConstWrAr { d: 1, w: 7, slot: 2 },
                Cmp {
                    op: tm_lir::CmpOp::Lt,
                    double: false,
                    d: Some(2),
                    a: 0,
                    b: Opd::Imm(500),
                    wr: Some(3),
                    guard: Some(Guard { want: true, exit: 0 }),
                    loop_exit: None,
                },
                Alu { op: tm_lir::AluOp::Xor, d: 2, a: Opd::Ar(1), b: Opd::Reg(1), wr: Some(4) },
                WriteArN { n: 3, slots: [5, 6, 7], srcs: [0, 1, 2] },
                loop_tail(1, 2),
            ],
            0,
            3,
        );
        assert_eq!(verify_fragment(&frag), Ok(()));
    }

    #[test]
    fn rejects_fused_loop_tail_with_bad_loop_exit() {
        // The fused loop tail's *second* exit must be range-checked, and
        // it is a terminator: nothing may follow it.
        let frag = Fragment::new(
            vec![loop_tail(0, 9)],
            0,
            2,
        );
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::ExitOutOfRange { exit: 9, .. })
        ));

        let frag = Fragment::new(
            vec![loop_tail(0, 1), End { exit: 0 }],
            0,
            2,
        );
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::TerminatorNotLast { pc: 0 })
        ));
    }

    #[test]
    fn rejects_out_of_range_register_in_grouped_store() {
        let frag = Fragment::new(
            vec![
                WriteArN { n: 2, slots: [0, 1, 0], srcs: [0, NREGS as u8, 0] },
                End { exit: 0 },
            ],
            0,
            1,
        );
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::RegOutOfRange { pc: 0, .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut frag = ok_frag();
        frag.code[0] = ReadAr { d: NREGS as u8, slot: 0 };
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::RegOutOfRange { pc: 0, .. })
        ));
    }

    #[test]
    fn rejects_unstored_spill_reload() {
        let mut frag = ok_frag();
        frag.code.remove(1);
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::SpillReadBeforeWrite { slot: 0, .. })
        ));
    }

    #[test]
    fn rejects_exit_without_target_entry() {
        let mut frag = ok_frag();
        frag.code[4] = End { exit: 3 };
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::ExitOutOfRange { exit: 3, .. })
        ));
    }

    #[test]
    fn rejects_loop_edge_exit_without_target_entry() {
        // The fused triple's *second* exit must be range-checked too.
        let frag = Fragment::new(
            vec![Cmp {
                op: tm_lir::CmpOp::Lt,
                double: false,
                d: None,
                a: 0,
                b: Opd::Reg(1),
                wr: None,
                guard: Some(Guard { want: true, exit: 0 }),
                loop_exit: Some(5),
            }],
            0,
            2,
        );
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::ExitOutOfRange { exit: 5, .. })
        ));
    }

    #[test]
    fn rejects_mid_fragment_terminator() {
        let mut frag = ok_frag();
        frag.code[1] = End { exit: 0 };
        assert!(matches!(
            verify_fragment(&frag),
            Err(FragmentError::TerminatorNotLast { pc: 1 })
        ));
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut frag = ok_frag();
        frag.code.pop();
        assert_eq!(verify_fragment(&frag), Err(FragmentError::MissingTerminator));
    }

    #[test]
    fn loaded_tree_rejects_out_of_range_stitch_target() {
        let mut a = ok_frag();
        let b = ok_frag();
        assert_eq!(verify_loaded_fragments(&[a.clone(), b.clone()]), Ok(()));

        // Stitch into fragment 1: fine in a two-fragment tree...
        a.set_exit_target(0, ExitTarget::Fragment(1));
        assert_eq!(verify_loaded_fragments(&[a.clone(), b]), Ok(()));
        // ...fatal when the tree has only the one fragment.
        assert!(matches!(
            verify_loaded_fragments(&[a]),
            Err((0, FragmentError::StitchTargetOutOfRange { exit: 0, target: 1, .. }))
        ));
    }

    #[test]
    fn loaded_tree_reports_offending_fragment_index() {
        let mut bad = ok_frag();
        bad.code.pop();
        assert_eq!(
            verify_loaded_fragments(&[ok_frag(), bad]),
            Err((1, FragmentError::MissingTerminator))
        );
    }

    #[test]
    fn rejects_desynced_stitch_table() {
        let mut frag = ok_frag();
        // Bypassing set_exit_target leaves the decoded table stale.
        frag.exit_targets[0] = ExitTarget::Fragment(1);
        assert_eq!(
            verify_fragment(&frag),
            Err(FragmentError::StitchTableMismatch { exit: 0 })
        );
        frag.set_exit_target(0, ExitTarget::Fragment(1));
        assert_eq!(verify_fragment(&frag), Ok(()));
    }
}
