//! The virtual machine ISA that compiled traces execute.
//!
//! **Substitution note (see DESIGN.md):** the paper's NanoJIT emits real
//! x86/ARM machine code. We target a fixed virtual register ISA with two
//! execution tiers behind it:
//!
//! * the **decoded executor** ([`crate::executor`]) — a tight decode loop,
//!   portable to any target, and the reference semantics;
//! * the **native x86-64 backend** ([`crate::x64`]) — translates the same
//!   post-peephole `MachInst` stream into real machine code in an
//!   executable buffer (on by default on x86-64 Linux, selected per tree
//!   by the monitor). Every instruction emits; the one whole-tree
//!   fallback to the decoded executor is a `CallHelper` with more
//!   arguments than [`crate::x64::MAX_HELPER_ARGS`].
//!
//! What the evaluation depends on is preserved in both tiers: compiled
//! trace instructions operate on **unboxed words in registers**, with no
//! type dispatch, no interpreter decode, no operand stack traffic, and
//! guards compiled to single compare-and-exit operations — the Figure 4
//! profile ("most LIR instructions compile to a single x86 instruction").
//! The decoded tier keeps that profile observable on every platform and
//! doubles as the differential oracle for the native tier; the native
//! tier restores the paper's actual mechanism on the paper's actual
//! target.
//!
//! The ISA has two layers:
//!
//! * **Raw instructions** — what the assembler emits, one per LIR op (plus
//!   allocator moves/spills).
//! * **Fused superinstructions** — emitted only by the peephole pass
//!   ([`crate::peephole::fuse`]), each standing in for 2–4 adjacent raw
//!   instructions. These model what real NanoJIT gets for free from x86:
//!   immediate operands, memory-operand addressing modes, and macro-fused
//!   compare-and-branch. In the decode-loop tier every dispatched
//!   instruction costs a match arm, so shrinking the dispatched stream is
//!   the direct analogue of emitting denser machine code; the native
//!   backend compiles each fused form to exactly that denser encoding.
//!
//! A fused form is a core operation plus optional *suffixes*, one field
//! per folded raw instruction, so each tier handles a suffix once rather
//! than once per combination:
//!
//! | form | core | folded as fields |
//! |---|---|---|
//! | [`MachInst::Alu`] | int ALU | `ReadAr` / `ConstW` operand ([`Opd`]), `WriteAr` (`wr`) |
//! | [`MachInst::Chk`] | checked int ALU | `ConstW` operand, `WriteAr`, `LoopBack` (`loop_exit`) |
//! | [`MachInst::Cmp`] | int/double compare | `ConstW` operand, `WriteAr`, [`Guard`], `LoopBack` |
//! | [`MachInst::WriteArN`] | 2–3 `WriteAr`s | — |
//! | [`MachInst::ConstWrAr`], [`MachInst::MovAr`] | `ConstW` / `ReadAr` + `WriteAr` | — |
//!
//! [`MachInst::raw_width`] is one plus the number of folded instructions.
//! Which combinations the peephole forms is its business
//! ([`crate::peephole`] lists them). Both execution tiers accept any
//! combination except a double compare against a folded operand, which
//! the `.tmc` codec rejects along with fused forms that fold nothing.

use tm_lir::{AluOp, ChkOp, CmpOp};
use tm_runtime::Helper;

/// A virtual register index.
pub type Reg = u8;

/// Number of general registers the allocator may use (deliberately small,
/// x86-like, so the spill logic of §5.2 is actually exercised).
pub const NREGS: usize = 12;

/// Size of the executor's register file: `NREGS` rounded up to a power of
/// two so indexing can be masked instead of bounds-checked.
pub const REG_FILE_WORDS: usize = NREGS.next_power_of_two();

/// Mask deriving a register-file index from a [`Reg`]. Shared by the
/// executor and the allocator's `debug_assert!`s — the only in-range
/// registers are `0..NREGS`, so masking is a no-op on well-formed code.
pub const REG_MASK: u8 = (REG_FILE_WORDS - 1) as Reg;

/// Sentinel in [`Fragment::stitch`]: this exit returns to the monitor
/// rather than jumping to a stitched fragment.
pub const EXIT_UNSTITCHED: u32 = u32::MAX;

/// A machine instruction of the virtual ISA. `d` = destination register,
/// `a`/`b`/`s` = source registers; doubles travel as IEEE-754 bit patterns
/// in the same registers. `exit` fields are indexes into the fragment's
/// exit-target table.
#[derive(Debug, Clone, PartialEq)]
pub enum MachInst {
    /// Load a constant word.
    ConstW {
        /// Destination.
        d: Reg,
        /// The word.
        w: u64,
    },
    /// Register move (emitted by the allocator).
    Mov {
        /// Destination.
        d: Reg,
        /// Source.
        s: Reg,
    },
    /// Reload from a spill slot.
    LoadSpill {
        /// Destination.
        d: Reg,
        /// Spill slot index.
        slot: u16,
    },
    /// Store to a spill slot.
    StoreSpill {
        /// Spill slot index.
        slot: u16,
        /// Source.
        s: Reg,
    },
    /// Read a trace-activation-record slot.
    ReadAr {
        /// Destination.
        d: Reg,
        /// AR slot.
        slot: u16,
    },
    /// Write a trace-activation-record slot.
    WriteAr {
        /// AR slot.
        slot: u16,
        /// Source.
        s: Reg,
    },

    /// `d = a + b` (wrapping i32).
    AddI { d: Reg, a: Reg, b: Reg },
    /// `d = a - b` (wrapping i32).
    SubI { d: Reg, a: Reg, b: Reg },
    /// `d = a * b` (wrapping i32).
    MulI { d: Reg, a: Reg, b: Reg },
    /// `d = a & b`.
    AndI { d: Reg, a: Reg, b: Reg },
    /// `d = a | b`.
    OrI { d: Reg, a: Reg, b: Reg },
    /// `d = a ^ b`.
    XorI { d: Reg, a: Reg, b: Reg },
    /// `d = a << (b & 31)`.
    ShlI { d: Reg, a: Reg, b: Reg },
    /// `d = a >> (b & 31)` (arithmetic).
    ShrI { d: Reg, a: Reg, b: Reg },
    /// `d = a >>> (b & 31)` (logical, u32).
    UShrI { d: Reg, a: Reg, b: Reg },
    /// `d = !a` (bitwise).
    NotI { d: Reg, a: Reg },
    /// `d = -a` (wrapping).
    NegI { d: Reg, a: Reg },

    /// Checked add: exit when the exact result leaves the boxable 31-bit
    /// integer range.
    AddIChk { d: Reg, a: Reg, b: Reg, exit: u16 },
    /// Checked subtract.
    SubIChk { d: Reg, a: Reg, b: Reg, exit: u16 },
    /// Checked multiply.
    MulIChk { d: Reg, a: Reg, b: Reg, exit: u16 },
    /// Checked negate (exits on -0 and range overflow).
    NegIChk { d: Reg, a: Reg, exit: u16 },
    /// Checked remainder (exits on zero divisor / -0 result).
    ModIChk { d: Reg, a: Reg, b: Reg, exit: u16 },
    /// Checked shift left.
    ShlIChk { d: Reg, a: Reg, b: Reg, exit: u16 },
    /// Checked unsigned shift right.
    UShrIChk { d: Reg, a: Reg, b: Reg, exit: u16 },

    /// Double add.
    AddD { d: Reg, a: Reg, b: Reg },
    /// Double subtract.
    SubD { d: Reg, a: Reg, b: Reg },
    /// Double multiply.
    MulD { d: Reg, a: Reg, b: Reg },
    /// Double divide.
    DivD { d: Reg, a: Reg, b: Reg },
    /// Double remainder (fmod).
    ModD { d: Reg, a: Reg, b: Reg },
    /// Double negate.
    NegD { d: Reg, a: Reg },

    /// Integer compares producing 0/1.
    EqI { d: Reg, a: Reg, b: Reg },
    /// `<` (i32).
    LtI { d: Reg, a: Reg, b: Reg },
    /// `<=` (i32).
    LeI { d: Reg, a: Reg, b: Reg },
    /// `>` (i32).
    GtI { d: Reg, a: Reg, b: Reg },
    /// `>=` (i32).
    GeI { d: Reg, a: Reg, b: Reg },
    /// `==` (double; NaN false).
    EqD { d: Reg, a: Reg, b: Reg },
    /// `<` (double).
    LtD { d: Reg, a: Reg, b: Reg },
    /// `<=` (double).
    LeD { d: Reg, a: Reg, b: Reg },
    /// `>` (double).
    GtD { d: Reg, a: Reg, b: Reg },
    /// `>=` (double).
    GeD { d: Reg, a: Reg, b: Reg },
    /// Boolean not.
    NotB { d: Reg, a: Reg },

    /// Exact i32 → double.
    I2D { d: Reg, a: Reg },
    /// u32 bits → double.
    U2D { d: Reg, a: Reg },
    /// Double → i32 with integrality/range guard.
    D2IChk { d: Reg, a: Reg, exit: u16 },
    /// JS ToInt32 wrap.
    D2I32 { d: Reg, a: Reg },
    /// Guard an i32 fits the boxable 31-bit range (result = input).
    ChkRangeI { d: Reg, a: Reg, exit: u16 },

    /// Box an int (inline tagging, never allocates).
    BoxI { d: Reg, a: Reg },
    /// Box a double (allocates when non-integral).
    BoxD { d: Reg, a: Reg },
    /// Box a bool.
    BoxB { d: Reg, a: Reg },
    /// Box an object handle (bit tagging).
    BoxObj { d: Reg, a: Reg },
    /// Box a string handle (bit tagging).
    BoxStr { d: Reg, a: Reg },
    /// Unbox with tag guard.
    UnboxI { d: Reg, a: Reg, exit: u16 },
    /// Unbox a double (strict tag).
    UnboxD { d: Reg, a: Reg, exit: u16 },
    /// Unbox any number as double.
    UnboxNumD { d: Reg, a: Reg, exit: u16 },
    /// Unbox an object handle.
    UnboxObj { d: Reg, a: Reg, exit: u16 },
    /// Unbox a string handle.
    UnboxStr { d: Reg, a: Reg, exit: u16 },
    /// Unbox a boolean.
    UnboxBool { d: Reg, a: Reg, exit: u16 },

    /// Exit unless `s` is true (1).
    GuardTrue { s: Reg, exit: u16 },
    /// Exit unless `s` is false (0).
    GuardFalse { s: Reg, exit: u16 },
    /// Exit unless the object's shape matches.
    GuardShape { obj: Reg, shape: u32, exit: u16 },
    /// Exit unless the object's class matches.
    GuardClass { obj: Reg, class: u8, exit: u16 },
    /// Exit unless the boxed word bit-equals `w`.
    GuardBoxedEq { s: Reg, w: u64, exit: u16 },
    /// Exit unless `0 <= idx < elements.len()`.
    GuardBound { arr: Reg, idx: Reg, exit: u16 },

    /// Property slot load.
    LoadSlot { d: Reg, o: Reg, slot: u32 },
    /// Property slot store.
    StoreSlot { o: Reg, slot: u32, s: Reg },
    /// Prototype link load.
    LoadProto { d: Reg, o: Reg },
    /// Dense element load (pre-guarded).
    LoadElem { d: Reg, a: Reg, i: Reg },
    /// Dense element store (pre-guarded).
    StoreElem { a: Reg, i: Reg, s: Reg },
    /// Array length.
    ArrayLen { d: Reg, a: Reg },
    /// String length.
    StrLen { d: Reg, a: Reg },

    /// Call a runtime helper.
    CallHelper {
        /// Result register.
        d: Reg,
        /// The helper.
        helper: Helper,
        /// Argument registers.
        args: Box<[Reg]>,
        /// Exit taken on deep bail (reentry).
        exit: u16,
    },
    /// Call a nested trace tree (§4) through the host.
    CallTree {
        /// Tree registry key.
        tree: u32,
        /// Exit taken on unexpected inner exit.
        exit: u16,
    },
    /// Loop edge: jump to the tree anchor (fragment 0, pc 0); exits via
    /// `exit` on preemption or pending GC (§6.4).
    LoopBack { exit: u16 },
    /// Unconditional exit.
    End { exit: u16 },

    // ----- fused superinstructions (peephole pass only) -----
    /// Integer ALU `d = op(a, b)` with folded operands: `a` may be an AR
    /// slot (a folded `ReadAr`), `b` an immediate (a folded `ConstW`).
    /// `wr` folds a trailing `WriteAr` of `d`.
    Alu { op: AluOp, d: Reg, a: Opd, b: Opd, wr: Option<u16> },
    /// Checked integer ALU `d = op(a, b)`: exits via `exit` on overflow
    /// *before* any write, exactly like the raw checked op. Then `d`, the
    /// folded `WriteAr` (`wr`), and the folded loop edge (`loop_exit`:
    /// `LoopBack` semantics, a terminator).
    Chk { op: ChkOp, d: Reg, a: Reg, b: Opd, exit: u16, wr: Option<u16>, loop_exit: Option<u16> },
    /// Compare `c = cmp(op, a, b)` (i32, or f64 when `double`). `d` (when
    /// the 0/1 result is live) and `ar[wr]` are written, in that order,
    /// *before* the folded guard's exit check, exactly like the raw
    /// sequence — a failing exit still sees the stored condition. The
    /// folded loop edge (`loop_exit`) follows the guard.
    Cmp {
        op: CmpOp,
        double: bool,
        d: Option<Reg>,
        a: Reg,
        b: Opd,
        wr: Option<u16>,
        guard: Option<Guard>,
        loop_exit: Option<u16>,
    },
    /// `n` (2 or 3) consecutive AR stores `ar[slots[i]] = srcs[i]`,
    /// performed in order, so duplicate slots behave exactly like the raw
    /// sequence. Entries past `n` are unused.
    WriteArN { n: u8, slots: [u16; 3], srcs: [Reg; 3] },
    /// `d = w; ar[slot] = w` — `ConstW` + `WriteAr` (any word: int,
    /// double bits, or a boxed value).
    ConstWrAr { d: Reg, w: u64, slot: u16 },
    /// `d = ar[src]; ar[dst] = d` — `ReadAr` + `WriteAr`, an AR-to-AR
    /// move through a register (stack shuffles at call boundaries).
    MovAr { d: Reg, src: u16, dst: u16 },
}

impl MachInst {
    /// The register this instruction writes, if any.
    pub fn dest(&self) -> Option<Reg> {
        use MachInst::*;
        match self {
            ConstW { d, .. }
            | Mov { d, .. }
            | LoadSpill { d, .. }
            | ReadAr { d, .. }
            | AddI { d, .. }
            | SubI { d, .. }
            | MulI { d, .. }
            | AndI { d, .. }
            | OrI { d, .. }
            | XorI { d, .. }
            | ShlI { d, .. }
            | ShrI { d, .. }
            | UShrI { d, .. }
            | NotI { d, .. }
            | NegI { d, .. }
            | AddIChk { d, .. }
            | SubIChk { d, .. }
            | MulIChk { d, .. }
            | NegIChk { d, .. }
            | ModIChk { d, .. }
            | ShlIChk { d, .. }
            | UShrIChk { d, .. }
            | AddD { d, .. }
            | SubD { d, .. }
            | MulD { d, .. }
            | DivD { d, .. }
            | ModD { d, .. }
            | NegD { d, .. }
            | EqI { d, .. }
            | LtI { d, .. }
            | LeI { d, .. }
            | GtI { d, .. }
            | GeI { d, .. }
            | EqD { d, .. }
            | LtD { d, .. }
            | LeD { d, .. }
            | GtD { d, .. }
            | GeD { d, .. }
            | NotB { d, .. }
            | I2D { d, .. }
            | U2D { d, .. }
            | D2IChk { d, .. }
            | D2I32 { d, .. }
            | ChkRangeI { d, .. }
            | BoxI { d, .. }
            | BoxD { d, .. }
            | BoxB { d, .. }
            | BoxObj { d, .. }
            | BoxStr { d, .. }
            | UnboxI { d, .. }
            | UnboxD { d, .. }
            | UnboxNumD { d, .. }
            | UnboxObj { d, .. }
            | UnboxStr { d, .. }
            | UnboxBool { d, .. }
            | LoadSlot { d, .. }
            | LoadProto { d, .. }
            | LoadElem { d, .. }
            | ArrayLen { d, .. }
            | StrLen { d, .. }
            | CallHelper { d, .. }
            | Alu { d, .. }
            | Chk { d, .. }
            | ConstWrAr { d, .. }
            | MovAr { d, .. } => Some(*d),
            Cmp { d, .. } => *d,
            StoreSpill { .. }
            | WriteAr { .. }
            | WriteArN { .. }
            | GuardTrue { .. }
            | GuardFalse { .. }
            | GuardShape { .. }
            | GuardClass { .. }
            | GuardBoxedEq { .. }
            | GuardBound { .. }
            | StoreSlot { .. }
            | StoreElem { .. }
            | CallTree { .. }
            | LoopBack { .. }
            | End { .. } => None,
        }
    }

    /// Calls `f` once per source register read (the same register may be
    /// visited more than once).
    pub fn for_each_src(&self, mut f: impl FnMut(Reg)) {
        use MachInst::*;
        match self {
            ConstW { .. } | LoadSpill { .. } | ReadAr { .. } | CallTree { .. }
            | LoopBack { .. } | End { .. } | ConstWrAr { .. } | MovAr { .. } => {}
            Mov { s, .. } | StoreSpill { s, .. } | WriteAr { s, .. } => f(*s),
            AddI { a, b, .. }
            | SubI { a, b, .. }
            | MulI { a, b, .. }
            | AndI { a, b, .. }
            | OrI { a, b, .. }
            | XorI { a, b, .. }
            | ShlI { a, b, .. }
            | ShrI { a, b, .. }
            | UShrI { a, b, .. }
            | AddIChk { a, b, .. }
            | SubIChk { a, b, .. }
            | MulIChk { a, b, .. }
            | ModIChk { a, b, .. }
            | ShlIChk { a, b, .. }
            | UShrIChk { a, b, .. }
            | AddD { a, b, .. }
            | SubD { a, b, .. }
            | MulD { a, b, .. }
            | DivD { a, b, .. }
            | ModD { a, b, .. }
            | EqI { a, b, .. }
            | LtI { a, b, .. }
            | LeI { a, b, .. }
            | GtI { a, b, .. }
            | GeI { a, b, .. }
            | EqD { a, b, .. }
            | LtD { a, b, .. }
            | LeD { a, b, .. }
            | GtD { a, b, .. }
            | GeD { a, b, .. } => {
                f(*a);
                f(*b);
            }
            NotI { a, .. }
            | NegI { a, .. }
            | NegIChk { a, .. }
            | NegD { a, .. }
            | NotB { a, .. }
            | I2D { a, .. }
            | U2D { a, .. }
            | D2IChk { a, .. }
            | D2I32 { a, .. }
            | ChkRangeI { a, .. }
            | BoxI { a, .. }
            | BoxD { a, .. }
            | BoxB { a, .. }
            | BoxObj { a, .. }
            | BoxStr { a, .. }
            | UnboxI { a, .. }
            | UnboxD { a, .. }
            | UnboxNumD { a, .. }
            | UnboxObj { a, .. }
            | UnboxStr { a, .. }
            | UnboxBool { a, .. }
            | ArrayLen { a, .. }
            | StrLen { a, .. } => f(*a),
            GuardTrue { s, .. } | GuardFalse { s, .. } | GuardBoxedEq { s, .. } => f(*s),
            GuardShape { obj, .. } | GuardClass { obj, .. } => f(*obj),
            GuardBound { arr, idx, .. } => {
                f(*arr);
                f(*idx);
            }
            LoadSlot { o, .. } | LoadProto { o, .. } => f(*o),
            StoreSlot { o, s, .. } => {
                f(*o);
                f(*s);
            }
            LoadElem { a, i, .. } => {
                f(*a);
                f(*i);
            }
            StoreElem { a, i, s } => {
                f(*a);
                f(*i);
                f(*s);
            }
            CallHelper { args, .. } => args.iter().copied().for_each(f),
            Alu { a, b, .. } => {
                a.for_each_reg(&mut f);
                b.for_each_reg(f);
            }
            Chk { a, b, .. } | Cmp { a, b, .. } => {
                f(*a);
                b.for_each_reg(f);
            }
            WriteArN { n, srcs, .. } => srcs.iter().take(usize::from(*n)).copied().for_each(f),
        }
    }

    /// Calls `f` once per exit id this instruction can take.
    pub fn for_each_exit(&self, mut f: impl FnMut(u16)) {
        use MachInst::*;
        match self {
            AddIChk { exit, .. }
            | SubIChk { exit, .. }
            | MulIChk { exit, .. }
            | NegIChk { exit, .. }
            | ModIChk { exit, .. }
            | ShlIChk { exit, .. }
            | UShrIChk { exit, .. }
            | D2IChk { exit, .. }
            | ChkRangeI { exit, .. }
            | UnboxI { exit, .. }
            | UnboxD { exit, .. }
            | UnboxNumD { exit, .. }
            | UnboxObj { exit, .. }
            | UnboxStr { exit, .. }
            | UnboxBool { exit, .. }
            | GuardTrue { exit, .. }
            | GuardFalse { exit, .. }
            | GuardShape { exit, .. }
            | GuardClass { exit, .. }
            | GuardBoxedEq { exit, .. }
            | GuardBound { exit, .. }
            | CallHelper { exit, .. }
            | CallTree { exit, .. }
            | LoopBack { exit }
            | End { exit } => f(*exit),
            Chk { exit, loop_exit, .. } => std::iter::once(*exit).chain(*loop_exit).for_each(f),
            Cmp { guard, loop_exit, .. } => {
                guard.map(|g| g.exit).into_iter().chain(*loop_exit).for_each(f);
            }
            _ => {}
        }
    }

    /// Whether the instruction has no observable effect beyond writing its
    /// destination register: no stores, no exits, no allocation, no way to
    /// trap. Pure instructions whose destination is dead may be deleted.
    pub fn is_pure(&self) -> bool {
        use MachInst::*;
        matches!(
            self,
            ConstW { .. }
                | Mov { .. }
                | LoadSpill { .. }
                | ReadAr { .. }
                | AddI { .. }
                | SubI { .. }
                | MulI { .. }
                | AndI { .. }
                | OrI { .. }
                | XorI { .. }
                | ShlI { .. }
                | ShrI { .. }
                | UShrI { .. }
                | NotI { .. }
                | NegI { .. }
                | AddD { .. }
                | SubD { .. }
                | MulD { .. }
                | DivD { .. }
                | ModD { .. }
                | NegD { .. }
                | EqI { .. }
                | LtI { .. }
                | LeI { .. }
                | GtI { .. }
                | GeI { .. }
                | EqD { .. }
                | LtD { .. }
                | LeD { .. }
                | GtD { .. }
                | GeD { .. }
                | NotB { .. }
                | I2D { .. }
                | U2D { .. }
                | D2I32 { .. }
                | Alu { wr: None, .. }
                | Cmp { wr: None, guard: None, loop_exit: None, .. }
        )
    }

    /// Whether this instruction ends the fragment (nothing may follow it).
    pub fn is_terminator(&self) -> bool {
        use MachInst::*;
        matches!(
            self,
            LoopBack { .. }
                | End { .. }
                | Chk { loop_exit: Some(_), .. }
                | Cmp { loop_exit: Some(_), .. }
        )
    }

    /// Whether this is a fused superinstruction (never emitted by the
    /// assembler, only by the peephole pass).
    pub fn is_fused(&self) -> bool {
        self.raw_width() > 1
    }

    /// How many raw (pre-fusion) instructions this instruction stands for:
    /// one, plus one per folded operand, `WriteAr`, guard and loop edge.
    pub fn raw_width(&self) -> u64 {
        use MachInst::*;
        let one = |folded: bool| u64::from(folded);
        match self {
            Alu { a, b, wr, .. } => {
                1 + one(a.is_folded()) + one(b.is_folded()) + one(wr.is_some())
            }
            Chk { b, wr, loop_exit, .. } => {
                1 + one(b.is_folded()) + one(wr.is_some()) + one(loop_exit.is_some())
            }
            Cmp { b, wr, guard, loop_exit, .. } => {
                let suffixes = one(wr.is_some()) + one(guard.is_some()) + one(loop_exit.is_some());
                1 + one(b.is_folded()) + suffixes
            }
            WriteArN { n, .. } => u64::from(*n),
            ConstWrAr { .. } | MovAr { .. } => 2,
            _ => 1,
        }
    }
}

/// An operand of a fused ALU or compare: a register, or the raw
/// instruction that would have loaded it, folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opd {
    /// A register.
    Reg(Reg),
    /// A folded `ConstW` of the sign-extended 32-bit word `i64::from(imm)`.
    Imm(i32),
    /// A folded `ReadAr` of this AR slot.
    Ar(u16),
}

impl Opd {
    /// Whether the operand stands for a folded raw instruction.
    pub fn is_folded(self) -> bool {
        !matches!(self, Opd::Reg(_))
    }

    fn for_each_reg(self, f: impl FnOnce(Reg)) {
        if let Opd::Reg(r) = self {
            f(r);
        }
    }
}

/// A folded `GuardTrue` (`want: true`) or `GuardFalse` (`want: false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// The compare result that stays on trace.
    pub want: bool,
    /// Exit taken when the result differs.
    pub exit: u16,
}

/// Where a side exit goes: back to the monitor, or — once a branch trace
/// is attached by **trace stitching** (§6.2) — directly into another
/// fragment of the same tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitTarget {
    /// Return control to the trace monitor with this exit id.
    Return,
    /// Jump into fragment `0`-indexed id (trace stitching).
    Fragment(u32),
}

/// Static counters from the peephole pass, kept on the fragment so the
/// disassembler can report how dense the compiled code is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Instruction count before fusion (as assembled).
    pub raw_insts: u32,
    /// Instruction count after fusion + dead-code removal.
    pub fused_insts: u32,
    /// Fused superinstructions emitted.
    pub superinsts: u32,
    /// Pure instructions deleted because their destination was dead.
    pub dce_removed: u32,
}

/// A compiled trace fragment: straight-line machine code whose only
/// control flow is guard exits and the final loop-back/end.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The instructions.
    pub code: Vec<MachInst>,
    /// Number of spill slots used.
    pub num_spills: u16,
    /// Exit targets, indexed by exit id; patched by trace stitching
    /// (through [`Fragment::set_exit_target`], which keeps [`Fragment::stitch`]
    /// in sync).
    pub exit_targets: Vec<ExitTarget>,
    /// Decoded exit-resolution table: `stitch[e]` is the fragment index a
    /// stitched exit jumps to, or [`EXIT_UNSTITCHED`]. Always mirrors
    /// `exit_targets`; the executor reads only this.
    pub stitch: Vec<u32>,
    /// Peephole statistics (zero until [`crate::peephole::fuse`] runs).
    pub fuse_stats: FuseStats,
}

impl Fragment {
    /// A fragment whose `num_exits` exits all return to the monitor.
    pub fn new(code: Vec<MachInst>, num_spills: u16, num_exits: usize) -> Self {
        Fragment {
            code,
            num_spills,
            exit_targets: vec![ExitTarget::Return; num_exits],
            stitch: vec![EXIT_UNSTITCHED; num_exits],
            fuse_stats: FuseStats::default(),
        }
    }

    /// Retargets exit `exit`, keeping the decoded stitch table in sync
    /// with `exit_targets`. All stitching must go through here.
    pub fn set_exit_target(&mut self, exit: u16, target: ExitTarget) {
        self.exit_targets[exit as usize] = target;
        self.stitch[exit as usize] = match target {
            ExitTarget::Return => EXIT_UNSTITCHED,
            ExitTarget::Fragment(idx) => idx,
        };
    }

    /// Renders the fragment as a Figure-4 style listing. After the
    /// peephole pass has run, a header line reports the raw/fused
    /// instruction counts.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        let fs = &self.fuse_stats;
        if fs.raw_insts != 0 {
            out.push_str(&format!(
                "  ; fuse: {} raw -> {} fused ({} superinsts, {} dce)\n",
                fs.raw_insts, fs.fused_insts, fs.superinsts, fs.dce_removed
            ));
        }
        for (pc, inst) in self.code.iter().enumerate() {
            out.push_str(&format!("  {pc:4}: {inst:?}\n"));
        }
        out
    }

    /// Number of machine instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the fragment is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folding instructions into fields must not grow the instruction:
    /// the decoded executor streams `MachInst`s through the cache.
    #[test]
    fn machinst_stays_at_most_32_bytes() {
        assert!(std::mem::size_of::<MachInst>() <= 32, "{}", std::mem::size_of::<MachInst>());
    }
}
