//! Compile lowered IR to flat, statically typed register code — the
//! production execution tier ([`crate::exec`] runs it).
//!
//! A variant's precision map is fixed before it runs, so every slot's type
//! is known and, from it, the kind of every expression: `Int`, kind-generic
//! `Lit`, `F32`, `F64`, `Bool` or `Str`. [`compile`] resolves all of it
//! once per variant — operand kinds, promotions and the cast and operation
//! charges they imply, slot register numbers, array element types — and
//! emits one flat op vector per procedure over typed register planes
//! (`f64` for `F64` and `Lit`, `f32`, `i64` for `Int` and `Bool`, strings,
//! array handles). The executor then runs monomorphic f32/f64/i64 ops with
//! no value-kind dispatch.
//!
//! The contract is bit-identity with the tree-walking oracle
//! ([`crate::oracle`]): same values, same charges applied one at a time in
//! the same order (f64 accumulation order is observable), same events, same
//! errors at the same event with the same proc and line. So the compiler
//! does no algebra: the only folding is of literal-only arithmetic, which
//! the walker never charges either, and a non-finite literal fold still
//! errors at run time, at the event where the walker would.
//!
//! Shadow execution is a compile-time mode: a shadow build adds the
//! per-store bookkeeping ops, and the executor is monomorphized on it.

use crate::cost::{CostParams, OpClass};
use crate::ir::*;
use prose_fortran::ast::{BinOp, FpPrecision, Intent, UnOp};
use std::sync::Arc;

/// Static kind of a compiled value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum K {
    Int,
    /// Kind-generic real literal (or literal-only arithmetic result).
    Lit,
    F32,
    F64,
    Bool,
    Str,
}

impl K {
    fn of(ty: STy) -> K {
        match ty {
            STy::Fp(FpPrecision::Single) => K::F32,
            STy::Fp(FpPrecision::Double) => K::F64,
            STy::Int => K::Int,
            STy::Bool => K::Bool,
            STy::Str => K::Str,
        }
    }

    fn plane(self) -> usize {
        match self {
            K::Lit | K::F64 => P_F,
            K::F32 => P_G,
            K::Int | K::Bool => P_I,
            K::Str => P_S,
        }
    }

    fn is_fp(self) -> bool {
        matches!(self, K::F32 | K::F64)
    }

    /// The slot type a value of this kind is stored as.
    fn sty(self) -> STy {
        match self {
            K::F32 => STy::Fp(FpPrecision::Single),
            K::Lit | K::F64 => STy::Fp(FpPrecision::Double),
            K::Int => STy::Int,
            K::Bool => STy::Bool,
            K::Str => STy::Str,
        }
    }
}

const P_F: usize = 0;
const P_G: usize = 1;
const P_I: usize = 2;
const P_S: usize = 3;
const P_A: usize = 4;

/// A typed register operand, relative to the current window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct V {
    pub k: K,
    pub r: u32,
}

/// An array slot: window-relative array register, or (high bit set) a
/// global one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ASlot(pub u32);

pub(crate) const GLOBAL_BIT: u32 = 1 << 31;

/// Subscript registers of one element reference.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sub {
    One(u32),
    Two(u32, u32),
    /// `n` registers starting at `pool[at]`.
    Many {
        at: u32,
        n: u32,
    },
}

/// Destination window of a conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Win {
    Cur,
    /// The pending callee's window (argument binding).
    Callee,
}

/// Conversion flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cv {
    /// Assignment and argument copy-in: cast and `op_int` charges, finite
    /// check (`store`).
    Assign,
    /// Scalar copy-out: no charges, no check.
    Writeback,
    /// `real`/`dble`/`sngl`: charges, finite check (`convert`).
    Explicit,
}

/// One-argument math intrinsics.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Math {
    Sqrt,
    Exp,
    Ln,
    Log10,
    Sin,
    Cos,
    Tan,
    Atan,
    Tanh,
}

impl Math {
    pub(crate) fn f64(self, x: f64) -> f64 {
        match self {
            Math::Sqrt => x.sqrt(),
            Math::Exp => x.exp(),
            Math::Ln => x.ln(),
            Math::Log10 => x.log10(),
            Math::Sin => x.sin(),
            Math::Cos => x.cos(),
            Math::Tan => x.tan(),
            Math::Atan => x.atan(),
            Math::Tanh => x.tanh(),
        }
    }

    pub(crate) fn f32(self, x: f32) -> f32 {
        match self {
            Math::Sqrt => x.sqrt(),
            Math::Exp => x.exp(),
            Math::Ln => x.ln(),
            Math::Log10 => x.log10(),
            Math::Sin => x.sin(),
            Math::Cos => x.cos(),
            Math::Tan => x.tan(),
            Math::Atan => x.atan(),
            Math::Tanh => x.tanh(),
        }
    }
}

/// Two-argument real intrinsics that share the promoted-pair path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fn2 {
    Atan2,
    Mod,
    Sign,
}

impl Fn2 {
    pub(crate) fn f64(self, x: f64, y: f64) -> f64 {
        match self {
            Fn2::Atan2 => x.atan2(y),
            Fn2::Mod => x % y,
            Fn2::Sign => x.abs().copysign(y),
        }
    }

    pub(crate) fn f32(self, x: f32, y: f32) -> f32 {
        match self {
            Fn2::Atan2 => x.atan2(y),
            Fn2::Mod => x % y,
            Fn2::Sign => x.abs().copysign(y),
        }
    }
}

/// Whole-array reductions.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Red {
    Sum,
    Max,
    Min,
}

/// Element type of an array slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AK {
    F32,
    F64,
    Int,
    Bool,
    Str,
}

impl AK {
    fn of(ty: STy) -> AK {
        match ty {
            STy::Fp(FpPrecision::Single) => AK::F32,
            STy::Fp(FpPrecision::Double) => AK::F64,
            STy::Int => AK::Int,
            STy::Bool => AK::Bool,
            STy::Str => AK::Str,
        }
    }
}

/// Error message of a compiled `Fail`, possibly naming runtime values.
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    Text(&'static str),
    Owned(String),
    /// `{pre}{v:?}{post}`.
    Val {
        pre: &'static str,
        v: V,
        post: String,
    },
    /// `non-numeric operands {a:?}, {b:?}`.
    Pair(V, V),
}

/// A statically known error, raised when control reaches it.
#[derive(Debug, Clone)]
pub(crate) enum ErrSpec {
    /// `RunError::Invalid`; `line` 0 means the current statement's line.
    Invalid { line: u32, msg: Msg },
    /// A literal-only fold that is not finite (`RunError::NonFinite`).
    NonFinite { op: &'static str },
}

/// One register-machine instruction. Register numbers are relative to the
/// current window unless stated otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    // ---- statements and control ------------------------------------------
    /// Statement entry: one event, then the current line.
    Ev {
        line: u32,
    },
    /// Entry of a statement without a source line.
    EvNoLine,
    Jump {
        to: u32,
    },
    /// `if` arm: branch charge, then jump when `i[c]` is false.
    IfFalse {
        c: u32,
        to: u32,
    },
    /// `if` arm on a non-logical condition: the branch charge, then error.
    IfBad {
        e: u32,
    },
    /// Counted-loop entry; `i`, `i+1`, `i+2` hold counter, end and step.
    DoInit {
        i: u32,
        line: u32,
        cand: bool,
    },
    /// Counted-loop head: exit test, loop variable, control charge, event.
    DoHead {
        i: u32,
        var: u32,
        exit: u32,
    },
    DoNext {
        i: u32,
        head: u32,
    },
    /// Counted-loop exit: fold a candidate loop's buffer, check the budget.
    DoExit {
        cand: bool,
    },
    /// `do while` head on a logical condition.
    WhileTest {
        c: u32,
        exit: u32,
    },
    /// `do while` head on a non-logical condition.
    WhileBad {
        e: u32,
    },
    CheckBudget,
    /// The procedure's prologue is done: it becomes the current procedure.
    PushProc {
        p: u32,
    },
    Ret,
    /// `stop` / `stop 0`.
    HaltRet,
    StopErr {
        code: i64,
    },
    Fail {
        e: u32,
    },
    /// The walker's `unreachable!()` (e.g. `max` of an integer and a literal).
    Unreachable,
    ChargePlain {
        c: f64,
    },

    // ---- constants and moves -----------------------------------------------
    ConstF {
        d: u32,
        v: f64,
    },
    /// An f32 constant with its own shadow (a literal's unrounded value).
    ConstG {
        d: u32,
        v: f32,
        sh: f64,
    },
    ConstI {
        d: u32,
        v: i64,
    },
    ConstS {
        d: u32,
        s: u32,
    },
    Mov {
        k: K,
        d: u32,
        s: u32,
    },
    /// Global → current window.
    GLoad {
        k: K,
        d: u32,
        g: u32,
    },
    /// Current window → global.
    GStore {
        k: K,
        g: u32,
        s: u32,
    },
    /// Allocation flag of an allocatable scalar: error `e` if deallocated.
    ChkAlloc {
        flag: u32,
        global: bool,
        e: u32,
    },
    SetAlloc {
        flag: u32,
        global: bool,
        dealloc: bool,
    },

    // ---- conversions -------------------------------------------------------
    Cvt {
        mode: Cv,
        to: K,
        d: u32,
        s: V,
        win: Win,
        line: u32,
    },
    /// `eval_int`: truncate a numeric value to an integer, no charge.
    ToInt {
        d: u32,
        s: V,
    },
    /// Promotion of an integer operand to f64 (`op_int` charge).
    PromIF {
        d: u32,
        s: u32,
    },
    /// Promotion of an integer operand to f32 (`op_int` charge).
    PromIG {
        d: u32,
        s: u32,
    },
    /// Promotion of a literal operand to f32 (free).
    PromLG {
        d: u32,
        s: u32,
    },
    /// Promotion of an f32 operand against an f64 one (cast charge).
    PromGF {
        d: u32,
        s: u32,
    },
    /// Integer → f64 with no charge (math intrinsics of integers).
    IntF {
        d: u32,
        s: u32,
    },

    // ---- arithmetic --------------------------------------------------------
    /// f64 arithmetic; `lit` marks a kind-generic result (no cancellation
    /// check). `c` is the precomputed charge.
    ArF {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
        c: f64,
        lit: bool,
    },
    ArG {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
        c: f64,
    },
    /// Shadow build: f32 add/sub whose operands were promoted from `oa`/`ob`
    /// (the cancellation detector sees the unpromoted values).
    ArGX {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
        c: f64,
        oa: V,
        ob: V,
    },
    /// Literal-only arithmetic on runtime literal values: uncharged.
    ArLit {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
    },
    ArI {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
    },
    CmpF {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
        charge: bool,
    },
    CmpG {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
    },
    CmpI {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
    },
    Logic {
        and: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    Not {
        d: u32,
        s: u32,
    },
    NegI {
        d: u32,
        s: u32,
    },
    NegF {
        d: u32,
        s: u32,
        charge: bool,
    },
    NegG {
        d: u32,
        s: u32,
    },
    AbsI {
        d: u32,
        s: u32,
    },
    AbsF {
        d: u32,
        s: u32,
        charge: bool,
    },
    AbsG {
        d: u32,
        s: u32,
    },
    MathF {
        f: Math,
        d: u32,
        s: u32,
        c: f64,
    },
    MathG {
        f: Math,
        d: u32,
        s: u32,
        c: f64,
    },
    Bin2F {
        f: Fn2,
        d: u32,
        a: u32,
        b: u32,
        c: f64,
        check: bool,
    },
    Bin2G {
        f: Fn2,
        d: u32,
        a: u32,
        b: u32,
        c: f64,
    },
    Bin2I {
        f: Fn2,
        d: u32,
        a: u32,
        b: u32,
        c: f64,
    },
    ModI {
        d: u32,
        a: u32,
        b: u32,
    },
    MaxF {
        max: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    MaxG {
        max: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    MaxI {
        max: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    /// `int()`: charge, then truncate.
    IntOf {
        d: u32,
        s: V,
    },
    /// `nint()` / `floor()`.
    RoundOf {
        d: u32,
        s: V,
        floor: bool,
    },
    IsNan {
        d: u32,
        s: V,
    },

    // ---- arrays ------------------------------------------------------------
    /// Fail unless the array slot is allocated (handle read, no value).
    ArrCheck {
        a: ASlot,
        line: u32,
    },
    SizeOf {
        d: u32,
        a: ASlot,
    },
    SizeDim {
        d: u32,
        a: ASlot,
        dim: u32,
    },
    Reduce {
        f: Red,
        d: u32,
        a: ASlot,
        single: bool,
    },
    LdF {
        d: u32,
        a: ASlot,
        sub: Sub,
        line: u32,
    },
    LdG {
        d: u32,
        a: ASlot,
        sub: Sub,
        line: u32,
    },
    LdI {
        d: u32,
        a: ASlot,
        sub: Sub,
        line: u32,
    },
    /// Element read that passes the handle and bounds checks, then fails.
    LdBad {
        a: ASlot,
        sub: Sub,
        line: u32,
        e: u32,
    },
    /// Store into an f64 array, converting from `s.k`; `mem` charges the
    /// element write. `slot` keys the shadow note.
    StF {
        a: ASlot,
        sub: Sub,
        s: V,
        line: u32,
        mem: bool,
        slot: u32,
    },
    StG {
        a: ASlot,
        sub: Sub,
        s: V,
        line: u32,
        mem: bool,
        slot: u32,
    },
    /// Integer into an integer (`store`) or logical (dropped) array.
    StI {
        a: ASlot,
        sub: Sub,
        s: u32,
        line: u32,
        store: bool,
        charge: bool,
    },
    /// Element store that passes the handle and bounds checks, then fails.
    StBad {
        a: ASlot,
        sub: Sub,
        line: u32,
        e: u32,
    },
    Bcast {
        a: ASlot,
        s: V,
        line: u32,
    },
    ArrCopy {
        d: ASlot,
        s: ASlot,
        line: u32,
    },
    MakeArr {
        a: ASlot,
        k: AK,
        at: u32,
        n: u32,
    },
    Dealloc {
        a: ASlot,
    },

    // ---- calls -------------------------------------------------------------
    /// Recursion guard, budget check, call accounting; pushes the callee's
    /// window.
    CallBegin {
        p: u32,
    },
    BindArr {
        d: u32,
        s: ASlot,
    },
    Invoke {
        p: u32,
    },
    /// Copy a callee-window register into the current window.
    FromCallee {
        k: K,
        d: u32,
        s: u32,
    },
    /// The callee halted (`stop`): unwind as `Stop { code: 0 }`.
    CallHalt,
    CallEnd,

    // ---- intrinsic subroutines and I/O -----------------------------------
    Record {
        s: V,
        key: u32,
    },
    RecordArr {
        a: ASlot,
        key: u32,
        line: u32,
    },
    Allreduce,
    PrintItem {
        s: V,
    },
    PrintEnd,

    // ---- shadow bookkeeping (shadow builds only) --------------------------
    /// Note a store to FP scalar slot `slot` held in register `r`.
    Note {
        k: K,
        r: u32,
        slot: u32,
        global: bool,
    },
}

/// Register counts of one window, per plane.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Layout {
    pub n: [u32; 5],
}

/// One compiled procedure (or the global initializer).
#[derive(Debug, Default)]
pub(crate) struct CProc {
    pub code: Vec<Op>,
    /// Subscript and bound registers referenced by `Sub::Many`/`MakeArr`.
    pub pool: Vec<u32>,
    pub layout: Layout,
    pub inlinable: bool,
}

/// Cost-model charges, resolved once per compile.
#[derive(Debug, Clone)]
pub(crate) struct Costs {
    pub op_int: f64,
    pub op_basic: f64,
    pub cast: f64,
    pub call: f64,
    pub loop_control: f64,
    pub allreduce: f64,
    /// Memory cost per element, `[f32, f64]`.
    pub mem: [f64; 2],
    pub lanes: [f64; 2],
    /// `op_basic + mem_cost(p)` (reductions), `[f32, f64]`.
    pub reduce: [f64; 2],
}

/// A program compiled for one variant and one shadow mode.
#[derive(Debug)]
pub struct Compiled {
    pub(crate) procs: Vec<CProc>,
    /// Global initializers, run before `main` with no current procedure.
    pub(crate) init: CProc,
    pub(crate) globals: Layout,
    pub(crate) main: usize,
    pub(crate) shadow: bool,
    pub(crate) k: Costs,
    pub(crate) lanes32: f64,
    pub(crate) lanes64: f64,
    pub(crate) errs: Vec<ErrSpec>,
    pub(crate) strs: Vec<Arc<str>>,
    pub(crate) proc_names: Vec<Arc<str>>,
    /// Slot names for the shadow report (shadow builds only).
    pub(crate) slot_names: Vec<Vec<Arc<str>>>,
    pub(crate) global_names: Vec<Arc<str>>,
}

/// Compile `ir` for execution under cost model `cost`, with shadow
/// execution compiled in when `shadow` is set.
pub fn compile(ir: &ProgramIR, cost: &CostParams, shadow: bool) -> Compiled {
    let k = Costs {
        op_int: cost.op_int,
        op_basic: cost.op_basic,
        cast: cost.cast,
        call: cost.call_overhead + cost.timer_overhead,
        loop_control: cost.loop_control,
        allreduce: cost.allreduce,
        mem: [
            cost.mem_cost(FpPrecision::Single),
            cost.mem_cost(FpPrecision::Double),
        ],
        lanes: [cost.lanes_f32, cost.lanes_f64],
        reduce: [
            cost.op_basic + cost.mem_cost(FpPrecision::Single),
            cost.op_basic + cost.mem_cost(FpPrecision::Double),
        ],
    };
    let gmap = SlotMap::new(&ir.globals);
    let pmaps: Vec<SlotMap> = ir.procs.iter().map(|p| SlotMap::new(&p.slots)).collect();
    let env = Env {
        ir,
        cost,
        shadow,
        gmap: &gmap,
        pmaps: &pmaps,
    };
    let mut shared = Shared::default();
    let empty = SlotMap::default();

    let init = {
        let mut cx = Cx::new(&env, &mut shared, &[], &empty);
        cx.globals_init();
        cx.finish(false)
    };
    let procs = ir
        .procs
        .iter()
        .enumerate()
        .map(|(pid, p)| {
            let mut cx = Cx::new(&env, &mut shared, &p.slots, &pmaps[pid]);
            cx.proc_body(pid, p);
            cx.finish(p.inlinable)
        })
        .collect();
    let (slot_names, global_names) = if shadow {
        (
            ir.procs
                .iter()
                .map(|p| p.slots.iter().map(|s| Arc::clone(&s.name)).collect())
                .collect(),
            ir.globals.iter().map(|s| Arc::clone(&s.name)).collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    Compiled {
        procs,
        init,
        globals: gmap.layout,
        main: ir.main_proc,
        shadow,
        lanes32: cost.lanes_f32,
        lanes64: cost.lanes_f64,
        k,
        errs: shared.errs,
        strs: shared.strs,
        proc_names: ir.procs.iter().map(|p| Arc::clone(&p.name)).collect(),
        slot_names,
        global_names,
    }
}

/// Where a slot lives in its window.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Scalar(V),
    Array(u32),
}

/// Register assignment for one declaration list.
#[derive(Debug, Default)]
struct SlotMap {
    locs: Vec<Loc>,
    /// Allocation flag register of each allocatable scalar.
    flags: Vec<Option<u32>>,
    /// Registers taken by the slots themselves.
    layout: Layout,
}

impl SlotMap {
    fn new(decls: &[SlotDecl]) -> SlotMap {
        let mut n = [0u32; 5];
        let mut take = |plane: usize| {
            let r = n[plane];
            n[plane] += 1;
            r
        };
        let locs = decls
            .iter()
            .map(|d| {
                if d.dims.is_some() {
                    Loc::Array(take(P_A))
                } else {
                    let k = K::of(d.ty);
                    Loc::Scalar(V {
                        k,
                        r: take(k.plane()),
                    })
                }
            })
            .collect();
        let flags = decls
            .iter()
            .map(|d| (d.allocatable && d.dims.is_none()).then(|| take(P_I)))
            .collect();
        SlotMap {
            locs,
            flags,
            layout: Layout { n },
        }
    }
}

/// Compile-wide, read-only context.
struct Env<'a> {
    ir: &'a ProgramIR,
    cost: &'a CostParams,
    shadow: bool,
    gmap: &'a SlotMap,
    pmaps: &'a [SlotMap],
}

/// Tables shared by every procedure.
#[derive(Default)]
struct Shared {
    errs: Vec<ErrSpec>,
    strs: Vec<Arc<str>>,
}

/// Where a compiled value is.
#[derive(Debug, Clone, Copy)]
enum At {
    /// A temporary.
    Reg(u32),
    /// A local scalar slot read in place: must be copied out before a
    /// later sibling operand that contains a call (which may write it back).
    Slot(u32),
    F(f64),
    I(i64),
    S(u32),
}

#[derive(Debug, Clone, Copy)]
struct CV {
    k: K,
    at: At,
}

impl CV {
    fn lit(&self) -> Option<f64> {
        match (self.k, self.at) {
            (K::Lit, At::F(x)) => Some(x),
            _ => None,
        }
    }
}

/// A promoted operand pair (the walker's `PromotedPair`), registers ready.
enum Pair {
    Int(u32, u32),
    Lit(CV, CV),
    LitWork(u32, u32),
    /// f32 pair, with the unpromoted operands when a promotion happened.
    G(u32, u32, Option<(V, V)>),
    F(u32, u32),
    Bad(V, V),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    Do { cand: bool },
    While,
}

struct LoopLbl {
    kind: LoopKind,
    /// `exit` jumps to patch with the exit label.
    exits: Vec<usize>,
    /// `cycle` jumps to patch with the continue label.
    conts: Vec<usize>,
}

/// Per-procedure compiler.
struct Cx<'a> {
    env: &'a Env<'a>,
    sh: &'a mut Shared,
    decls: &'a [SlotDecl],
    map: &'a SlotMap,
    code: Vec<Op>,
    pool: Vec<u32>,
    next: [u32; 5],
    hw: [u32; 5],
    loops: Vec<LoopLbl>,
}

fn has_call(e: &IExpr) -> bool {
    match e {
        IExpr::CallFun { .. } => true,
        IExpr::RealLit(_)
        | IExpr::IntLit(_)
        | IExpr::BoolLit(_)
        | IExpr::StrLit(_)
        | IExpr::LoadScalar(_)
        | IExpr::Reduce { .. } => false,
        IExpr::LoadElem { indices, .. } => indices.iter().any(has_call),
        IExpr::Intrinsic { args, .. } => args.iter().any(has_call),
        IExpr::SizeOf { dim, .. } => dim.as_deref().is_some_and(has_call),
        IExpr::Bin { lhs, rhs, .. } => has_call(lhs) || has_call(rhs),
        IExpr::Un { operand, .. } => has_call(operand),
    }
}

fn lv_has_call(lv: &ILValue) -> bool {
    match lv {
        ILValue::Scalar(_) => false,
        ILValue::Elem { indices, .. } => indices.iter().any(has_call),
    }
}

impl<'a> Cx<'a> {
    fn new(
        env: &'a Env<'a>,
        sh: &'a mut Shared,
        decls: &'a [SlotDecl],
        map: &'a SlotMap,
    ) -> Cx<'a> {
        Cx {
            env,
            sh,
            decls,
            map,
            code: Vec::new(),
            pool: Vec::new(),
            next: map.layout.n,
            hw: map.layout.n,
            loops: Vec::new(),
        }
    }

    fn finish(self, inlinable: bool) -> CProc {
        CProc {
            code: self.code,
            pool: self.pool,
            layout: Layout { n: self.hw },
            inlinable,
        }
    }

    // ---- emission helpers -------------------------------------------------

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Op::Jump { to: t }
            | Op::IfFalse { to: t, .. }
            | Op::DoHead { exit: t, .. }
            | Op::WhileTest { exit: t, .. } => *t = to,
            other => unreachable!("patching {other:?}"),
        }
    }

    fn tmp_plane(&mut self, plane: usize) -> u32 {
        let r = self.next[plane];
        self.next[plane] += 1;
        self.hw[plane] = self.hw[plane].max(self.next[plane]);
        r
    }

    fn tmp(&mut self, k: K) -> u32 {
        self.tmp_plane(k.plane())
    }

    fn err(&mut self, e: ErrSpec) -> u32 {
        self.sh.errs.push(e);
        (self.sh.errs.len() - 1) as u32
    }

    fn invalid(&mut self, line: u32, msg: Msg) -> u32 {
        self.err(ErrSpec::Invalid { line, msg })
    }

    /// Emit an unconditional error; returns a placeholder value of kind `k`
    /// for the (unreachable) code that follows.
    fn fail(&mut self, line: u32, msg: Msg, k: K) -> CV {
        let e = self.invalid(line, msg);
        self.emit(Op::Fail { e });
        CV {
            k,
            at: At::Reg(self.tmp(k)),
        }
    }

    fn str_const(&mut self, s: &Arc<str>) -> u32 {
        self.sh.strs.push(Arc::clone(s));
        (self.sh.strs.len() - 1) as u32
    }

    fn op_cost(&self, class: OpClass, p: FpPrecision) -> f64 {
        self.env.cost.op_cost_at(class, p)
    }

    /// Put a value in a register.
    fn reg(&mut self, v: CV) -> u32 {
        match v.at {
            At::Reg(r) | At::Slot(r) => r,
            At::F(x) => {
                let d = self.tmp(K::Lit);
                self.emit(Op::ConstF { d, v: x });
                d
            }
            At::I(i) => {
                let d = self.tmp(K::Int);
                self.emit(Op::ConstI { d, v: i });
                d
            }
            At::S(s) => {
                let d = self.tmp(K::Str);
                self.emit(Op::ConstS { d, s });
                d
            }
        }
    }

    fn val(&mut self, v: CV) -> V {
        V {
            k: v.k,
            r: self.reg(v),
        }
    }

    /// Copy an in-place slot read into a temporary (a later sibling
    /// operand contains a call that may write the slot back).
    fn pin(&mut self, v: CV) -> CV {
        match v.at {
            At::Slot(s) => {
                let d = self.tmp(v.k);
                self.emit(Op::Mov { k: v.k, d, s });
                CV {
                    k: v.k,
                    at: At::Reg(d),
                }
            }
            _ => v,
        }
    }

    fn pin_if(&mut self, v: CV, hazard: bool) -> CV {
        if hazard {
            self.pin(v)
        } else {
            v
        }
    }

    fn new_reg(&mut self, k: K) -> (u32, CV) {
        let d = self.tmp(k);
        (d, CV { k, at: At::Reg(d) })
    }

    // ---- slots -------------------------------------------------------------

    fn decl(&self, r: SlotRef) -> &'a SlotDecl {
        match r {
            SlotRef::Local(i) => &self.decls[i],
            SlotRef::Global(i) => &self.env.ir.globals[i],
        }
    }

    fn loc(&self, r: SlotRef) -> (Loc, bool) {
        match r {
            SlotRef::Local(i) => (self.map.locs[i], false),
            SlotRef::Global(i) => (self.env.gmap.locs[i], true),
        }
    }

    fn flag(&self, r: SlotRef) -> Option<(u32, bool)> {
        match r {
            SlotRef::Local(i) => self.map.flags[i].map(|f| (f, false)),
            SlotRef::Global(i) => self.env.gmap.flags[i].map(|f| (f, true)),
        }
    }

    fn slot_index(r: SlotRef) -> u32 {
        match r {
            SlotRef::Local(i) | SlotRef::Global(i) => i as u32,
        }
    }

    /// The array register of slot `r`, or `None` for a scalar slot.
    fn aslot(&self, r: SlotRef) -> Option<ASlot> {
        match self.loc(r) {
            (Loc::Array(a), false) => Some(ASlot(a)),
            (Loc::Array(a), true) => Some(ASlot(a | GLOBAL_BIT)),
            (Loc::Scalar(_), _) => None,
        }
    }

    /// Read a scalar slot (`LoadScalar` / scalar `read_lvalue`).
    fn load_scalar(&mut self, r: SlotRef, msg: &'static str) -> CV {
        let (loc, global) = self.loc(r);
        let v = match loc {
            Loc::Scalar(v) => v,
            Loc::Array(_) => return self.fail(0, Msg::Text(msg), K::Int),
        };
        if let Some((flag, global)) = self.flag(r) {
            let e = self.invalid(0, Msg::Text(msg));
            self.emit(Op::ChkAlloc { flag, global, e });
        }
        if global {
            let (d, cv) = self.new_reg(v.k);
            self.emit(Op::GLoad { k: v.k, d, g: v.r });
            cv
        } else {
            CV {
                k: v.k,
                at: At::Slot(v.r),
            }
        }
    }

    /// Emit the conversion of `v` to kind `to` into register `d`, or the
    /// static error when the walker would reject the pair.
    fn convert(&mut self, mode: Cv, to: K, d: u32, v: CV, win: Win, line: u32) {
        let ty = to.sty();
        let ok = match (to, v.k) {
            (K::F32 | K::F64, K::F32 | K::F64 | K::Lit | K::Int) => true,
            (K::Int, K::Int) => true,
            (K::Int, K::F32 | K::F64 | K::Lit) => mode == Cv::Assign,
            (K::Bool, K::Bool) | (K::Str, K::Str) => mode != Cv::Explicit,
            _ => false,
        };
        let s = self.val(v);
        if ok {
            self.emit(Op::Cvt {
                mode,
                to,
                d,
                s,
                win,
                line,
            });
            return;
        }
        let msg = match mode {
            Cv::Assign => Msg::Val {
                pre: "cannot assign ",
                v: s,
                post: format!(" to a {ty:?} variable"),
            },
            Cv::Writeback => Msg::Val {
                pre: "cannot write back ",
                v: s,
                post: format!(" into {ty:?}"),
            },
            Cv::Explicit => Msg::Val {
                pre: "conversion of ",
                v: s,
                post: String::new(),
            },
        };
        let e = self.invalid(line, msg);
        self.emit(Op::Fail { e });
    }

    /// Whether the last op wrote `r` with a result that needs no further
    /// store-time check, so it can write the destination directly.
    fn retarget(&mut self, r: u32, k: K, d: u32) -> bool {
        let Some(last) = self.code.last_mut() else {
            return false;
        };
        let slot = match (k, last) {
            (K::F64, Op::ArF { d, lit: false, .. })
            | (K::F64, Op::MathF { d, .. })
            | (K::F64, Op::Bin2F { d, check: true, .. })
            | (K::F32, Op::ArG { d, .. })
            | (K::F32, Op::ArGX { d, .. })
            | (K::F32, Op::MathG { d, .. })
            | (K::F32, Op::Bin2G { d, .. })
            | (K::Int, Op::ArI { d, .. })
            | (K::Int, Op::LdI { d, .. })
            | (K::Int, Op::ModI { d, .. })
            | (K::Int, Op::NegI { d, .. })
            | (K::Bool, Op::CmpF { d, .. })
            | (K::Bool, Op::CmpG { d, .. })
            | (K::Bool, Op::CmpI { d, .. })
            | (K::Bool, Op::Logic { d, .. }) => d,
            _ => return false,
        };
        if *slot != r {
            return false;
        }
        *slot = d;
        true
    }

    /// Store `v` into scalar slot `r` (assignment or writeback semantics),
    /// then note it for the shadow report.
    fn store_scalar(&mut self, r: SlotRef, v: CV, line: u32, mode: Cv) {
        let (loc, global) = self.loc(r);
        let t = match loc {
            Loc::Scalar(t) => t,
            Loc::Array(_) => {
                self.fail(line, Msg::Text("scalar store into an array slot"), K::Int);
                return;
            }
        };
        let dst = if global { self.tmp(t.k) } else { t.r };
        let direct = matches!(v.at, At::Reg(x) if v.k == t.k && self.retarget(x, t.k, dst));
        if !direct {
            self.convert(mode, t.k, dst, v, Win::Cur, line);
        }
        if global {
            self.emit(Op::GStore {
                k: t.k,
                g: t.r,
                s: dst,
            });
        }
        if let Some((flag, global)) = self.flag(r) {
            self.emit(Op::SetAlloc {
                flag,
                global,
                dealloc: false,
            });
        }
        if self.env.shadow && t.k.is_fp() {
            self.emit(Op::Note {
                k: t.k,
                r: dst,
                slot: Self::slot_index(r),
                global,
            });
        }
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self, e: &IExpr) -> CV {
        match e {
            IExpr::RealLit(x) => CV {
                k: K::Lit,
                at: At::F(*x),
            },
            IExpr::IntLit(i) => CV {
                k: K::Int,
                at: At::I(*i),
            },
            IExpr::BoolLit(b) => CV {
                k: K::Bool,
                at: At::I(i64::from(*b)),
            },
            IExpr::StrLit(s) => CV {
                k: K::Str,
                at: At::S(self.str_const(s)),
            },
            IExpr::LoadScalar(r) => {
                self.load_scalar(*r, "scalar read of array or unallocated slot")
            }
            IExpr::LoadElem { slot, indices } => self.load_elem(*slot, indices, 0),
            IExpr::CallFun { proc, args } => self.call(*proc, args, true),
            IExpr::Intrinsic { f, args } => self.intrinsic(*f, args),
            IExpr::SizeOf { slot, dim } => {
                let Some(a) = self.aslot(*slot) else {
                    return self.fail(0, Msg::Text("expected an array"), K::Int);
                };
                let (d, out) = self.new_reg(K::Int);
                match dim {
                    None => {
                        self.emit(Op::SizeOf { d, a });
                    }
                    Some(dim) => {
                        self.emit(Op::ArrCheck { a, line: 0 });
                        let di = self.expr(dim);
                        let dim = self.int_reg(di, 0);
                        self.emit(Op::SizeDim { d, a, dim });
                    }
                }
                out
            }
            IExpr::Reduce { f, slot } => {
                let Some(a) = self.aslot(*slot) else {
                    return self.fail(0, Msg::Text("expected an array"), K::F64);
                };
                let single = match AK::of(self.decl(*slot).ty) {
                    AK::F32 => true,
                    AK::F64 => false,
                    _ => {
                        self.emit(Op::ArrCheck { a, line: 0 });
                        return self.fail(0, Msg::Text("reduction over non-real array"), K::F64);
                    }
                };
                let red = match f {
                    IntrinsicFn::Sum => Red::Sum,
                    IntrinsicFn::Maxval => Red::Max,
                    IntrinsicFn::Minval => Red::Min,
                    _ => {
                        self.emit(Op::ArrCheck { a, line: 0 });
                        return self.fail(0, Msg::Text("unsupported reduction"), K::F64);
                    }
                };
                let k = if single { K::F32 } else { K::F64 };
                let (d, out) = self.new_reg(k);
                self.emit(Op::Reduce {
                    f: red,
                    d,
                    a,
                    single,
                });
                out
            }
            IExpr::Bin { op, lhs, rhs } => {
                let a = self.expr(lhs);
                let a = self.pin_if(a, has_call(rhs));
                let b = self.expr(rhs);
                self.bin(*op, a, b)
            }
            IExpr::Un { op, operand } => {
                let v = self.expr(operand);
                self.unary(*op, v)
            }
        }
    }

    /// `eval_int`: an integer register holding `v` truncated.
    fn int_reg(&mut self, v: CV, line: u32) -> u32 {
        match v.k {
            K::Int => self.reg(v),
            K::Lit | K::F32 | K::F64 => {
                let s = self.val(v);
                let d = self.tmp(K::Int);
                self.emit(Op::ToInt { d, s });
                d
            }
            K::Bool | K::Str => {
                let s = self.val(v);
                let msg = Msg::Val {
                    pre: "expected integer, got ",
                    v: s,
                    post: String::new(),
                };
                let CV { at, .. } = self.fail(line, msg, K::Int);
                match at {
                    At::Reg(r) => r,
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Evaluate integer operands in order (`eval_int` each; `None` is the
    /// constant 1), pinning in-place slot reads against later calls.
    fn ints(&mut self, exprs: &[Option<&IExpr>], line: u32) -> Vec<u32> {
        let mut regs = Vec::with_capacity(exprs.len());
        for (i, e) in exprs.iter().enumerate() {
            let v = match e {
                Some(e) => self.expr(e),
                None => CV {
                    k: K::Int,
                    at: At::I(1),
                },
            };
            let later_call = exprs[i + 1..].iter().flatten().any(|e| has_call(e));
            let v = self.pin_if(v, later_call);
            regs.push(self.int_reg(v, line));
        }
        regs
    }

    /// Evaluate subscripts.
    fn subs(&mut self, indices: &[IExpr], line: u32) -> Sub {
        let exprs: Vec<Option<&IExpr>> = indices.iter().map(Some).collect();
        let regs = self.ints(&exprs, line);
        match regs[..] {
            [a] => Sub::One(a),
            [a, b] => Sub::Two(a, b),
            _ => {
                let at = self.pool.len() as u32;
                self.pool.extend_from_slice(&regs);
                Sub::Many {
                    at,
                    n: regs.len() as u32,
                }
            }
        }
    }

    fn load_elem(&mut self, slot: SlotRef, indices: &[IExpr], line: u32) -> CV {
        let sub = self.subs(indices, line);
        let Some(a) = self.aslot(slot) else {
            return self.fail(line, Msg::Text("expected an array"), K::Int);
        };
        match AK::of(self.decl(slot).ty) {
            AK::F64 => {
                let (d, out) = self.new_reg(K::F64);
                self.emit(Op::LdF { d, a, sub, line });
                out
            }
            AK::F32 => {
                let (d, out) = self.new_reg(K::F32);
                self.emit(Op::LdG { d, a, sub, line });
                out
            }
            AK::Int => {
                let (d, out) = self.new_reg(K::Int);
                self.emit(Op::LdI { d, a, sub, line });
                out
            }
            AK::Bool | AK::Str => {
                let e = self.invalid(line, Msg::Text("unsupported array read"));
                self.emit(Op::LdBad { a, sub, line, e });
                CV {
                    k: K::Int,
                    at: At::Reg(self.tmp(K::Int)),
                }
            }
        }
    }

    /// Promote an operand pair exactly as the walker's `promote_pair`,
    /// emitting its one conversion (and charge) if any.
    fn promote(&mut self, a: CV, b: CV) -> Pair {
        use K::*;
        match (a.k, b.k) {
            (Int, Int) => Pair::Int(self.reg(a), self.reg(b)),
            (Int, Lit) => {
                let (s, y) = (self.reg(a), self.reg(b));
                let d = self.tmp(Lit);
                self.emit(Op::PromIF { d, s });
                Pair::LitWork(d, y)
            }
            (Lit, Int) => {
                let (x, s) = (self.reg(a), self.reg(b));
                let d = self.tmp(Lit);
                self.emit(Op::PromIF { d, s });
                Pair::LitWork(x, d)
            }
            (Lit, Lit) => Pair::Lit(a, b),
            (F32, Int) | (F32, Lit) | (Int, F32) | (Lit, F32) => {
                // The shadow build's cancellation detector needs the
                // unpromoted operands.
                let orig = if self.env.shadow {
                    Some((self.val(a), self.val(b)))
                } else {
                    None
                };
                let conv = |cx: &mut Self, v: CV| -> u32 {
                    let d = cx.tmp(F32);
                    match (v.k, v.at) {
                        (Lit, At::F(x)) => {
                            cx.emit(Op::ConstG {
                                d,
                                v: x as f32,
                                sh: x,
                            });
                        }
                        (Lit, _) => {
                            let s = cx.reg(v);
                            cx.emit(Op::PromLG { d, s });
                        }
                        _ => {
                            let s = cx.reg(v);
                            cx.emit(Op::PromIG { d, s });
                        }
                    }
                    d
                };
                let (x, y) = if a.k == F32 {
                    let x = self.reg(a);
                    (x, conv(self, b))
                } else {
                    let x = conv(self, a);
                    (x, self.reg(b))
                };
                Pair::G(x, y, orig)
            }
            (F64, Int) | (Int, F64) => {
                let (x, y) = (self.reg(a), self.reg(b));
                let d = self.tmp(F64);
                if a.k == Int {
                    self.emit(Op::PromIF { d, s: x });
                    Pair::F(d, y)
                } else {
                    self.emit(Op::PromIF { d, s: y });
                    Pair::F(x, d)
                }
            }
            (F64, Lit) | (Lit, F64) | (F64, F64) => Pair::F(self.reg(a), self.reg(b)),
            (F32, F32) => Pair::G(self.reg(a), self.reg(b), None),
            (F32, F64) | (F64, F32) => {
                let (x, y) = (self.reg(a), self.reg(b));
                let d = self.tmp(F64);
                if a.k == F32 {
                    self.emit(Op::PromGF { d, s: x });
                    Pair::F(d, y)
                } else {
                    self.emit(Op::PromGF { d, s: y });
                    Pair::F(x, d)
                }
            }
            _ => Pair::Bad(self.val(a), self.val(b)),
        }
    }

    fn bin(&mut self, op: BinOp, a: CV, b: CV) -> CV {
        if op.is_logical() {
            if a.k != K::Bool || b.k != K::Bool {
                return self.fail(0, Msg::Text("non-logical operand"), K::Bool);
            }
            let (a, b) = (self.reg(a), self.reg(b));
            let (d, out) = self.new_reg(K::Bool);
            self.emit(Op::Logic {
                and: op == BinOp::And,
                d,
                a,
                b,
            });
            return out;
        }
        let pair = self.promote(a, b);
        let cmp = op.is_comparison();
        let class = crate::arith::op_class(op);
        match pair {
            Pair::Bad(x, y) => self.fail(0, Msg::Pair(x, y), K::Int),
            Pair::Int(a, b) => {
                let (d, out) = self.new_reg(if cmp { K::Bool } else { K::Int });
                self.emit(if cmp {
                    Op::CmpI { op, d, a, b }
                } else {
                    Op::ArI { op, d, a, b }
                });
                out
            }
            Pair::Lit(x, y) => {
                if let (Some(p), Some(q)) = (x.lit(), y.lit()) {
                    if cmp {
                        return CV {
                            k: K::Bool,
                            at: At::I(i64::from(crate::arith::compare(op, p, q))),
                        };
                    }
                    let r = crate::arith::apply_f64(op, p, q);
                    if r.is_finite() {
                        return CV {
                            k: K::Lit,
                            at: At::F(r),
                        };
                    }
                    let e = self.err(ErrSpec::NonFinite { op: "arith" });
                    self.emit(Op::Fail { e });
                    return CV {
                        k: K::Lit,
                        at: At::Reg(self.tmp(K::Lit)),
                    };
                }
                let (a, b) = (self.reg(x), self.reg(y));
                let (d, out) = self.new_reg(if cmp { K::Bool } else { K::Lit });
                self.emit(if cmp {
                    Op::CmpF {
                        op,
                        d,
                        a,
                        b,
                        charge: false,
                    }
                } else {
                    Op::ArLit { op, d, a, b }
                });
                out
            }
            Pair::LitWork(a, b) | Pair::F(a, b) => {
                let lit = matches!(pair, Pair::LitWork(..));
                let (d, out) = self.new_reg(if cmp {
                    K::Bool
                } else if lit {
                    K::Lit
                } else {
                    K::F64
                });
                self.emit(if cmp {
                    Op::CmpF {
                        op,
                        d,
                        a,
                        b,
                        charge: true,
                    }
                } else {
                    Op::ArF {
                        op,
                        d,
                        a,
                        b,
                        c: self.op_cost(class, FpPrecision::Double),
                        lit,
                    }
                });
                out
            }
            Pair::G(a, b, orig) => {
                let (d, out) = self.new_reg(if cmp { K::Bool } else { K::F32 });
                let c = self.op_cost(class, FpPrecision::Single);
                let op = match orig {
                    _ if cmp => Op::CmpG { op, d, a, b },
                    Some((oa, ob)) if self.env.shadow && matches!(op, BinOp::Add | BinOp::Sub) => {
                        Op::ArGX {
                            op,
                            d,
                            a,
                            b,
                            c,
                            oa,
                            ob,
                        }
                    }
                    _ => Op::ArG { op, d, a, b, c },
                };
                self.emit(op);
                out
            }
        }
    }

    fn unary(&mut self, op: UnOp, v: CV) -> CV {
        match op {
            UnOp::Plus => v,
            UnOp::Not => {
                if v.k != K::Bool {
                    return self.fail(0, Msg::Text(".not. of non-logical"), K::Bool);
                }
                if let At::I(b) = v.at {
                    return CV {
                        k: K::Bool,
                        at: At::I(i64::from(b == 0)),
                    };
                }
                let s = self.reg(v);
                let (d, out) = self.new_reg(K::Bool);
                self.emit(Op::Not { d, s });
                out
            }
            UnOp::Neg => {
                if let Some(x) = v.lit() {
                    return CV {
                        k: K::Lit,
                        at: At::F(-x),
                    };
                }
                let s = self.val(v);
                match v.k {
                    K::Int => {
                        let (d, out) = self.new_reg(K::Int);
                        self.emit(Op::NegI { d, s: s.r });
                        out
                    }
                    K::Lit | K::F64 => {
                        let (d, out) = self.new_reg(v.k);
                        self.emit(Op::NegF {
                            d,
                            s: s.r,
                            charge: v.k == K::F64,
                        });
                        out
                    }
                    K::F32 => {
                        let (d, out) = self.new_reg(K::F32);
                        self.emit(Op::NegG { d, s: s.r });
                        out
                    }
                    K::Bool | K::Str => self.fail(
                        0,
                        Msg::Val {
                            pre: "negation of ",
                            v: s,
                            post: String::new(),
                        },
                        K::Int,
                    ),
                }
            }
        }
    }

    fn intrinsic(&mut self, f: IntrinsicFn, args: &[IExpr]) -> CV {
        use IntrinsicFn::*;
        let mut vals: Vec<CV> = Vec::with_capacity(args.len());
        for (i, e) in args.iter().enumerate() {
            let v = self.expr(e);
            let later_call = args[i + 1..].iter().any(has_call);
            vals.push(self.pin_if(v, later_call));
        }
        let last = vals.last().copied();
        let last2 = (vals.len() >= 2).then(|| (vals[vals.len() - 2], vals[vals.len() - 1]));
        let unreachable = |cx: &mut Self, k: K| {
            cx.emit(Op::Unreachable);
            CV {
                k,
                at: At::Reg(cx.tmp(k)),
            }
        };
        let dbl = FpPrecision::Double;
        match f {
            Abs => {
                let Some(v) = last else {
                    return unreachable(self, K::Int);
                };
                if let Some(x) = v.lit() {
                    return CV {
                        k: K::Lit,
                        at: At::F(x.abs()),
                    };
                }
                let s = self.val(v);
                let (d, out) = match v.k {
                    K::Bool | K::Str => {
                        let msg = Msg::Val {
                            pre: "abs of ",
                            v: s,
                            post: String::new(),
                        };
                        return self.fail(0, msg, K::Int);
                    }
                    k => self.new_reg(k),
                };
                self.emit(match v.k {
                    K::Int => Op::AbsI { d, s: s.r },
                    K::F32 => Op::AbsG { d, s: s.r },
                    _ => Op::AbsF {
                        d,
                        s: s.r,
                        charge: v.k == K::F64,
                    },
                });
                out
            }
            Sqrt | Exp | Log | Log10 | Sin | Cos | Tan | Atan | Tanh => {
                let (m, class) = match f {
                    Sqrt => (Math::Sqrt, OpClass::Sqrt),
                    Exp => (Math::Exp, OpClass::Transcendental),
                    Log => (Math::Ln, OpClass::Transcendental),
                    Log10 => (Math::Log10, OpClass::Transcendental),
                    Sin => (Math::Sin, OpClass::Transcendental),
                    Cos => (Math::Cos, OpClass::Transcendental),
                    Tan => (Math::Tan, OpClass::Transcendental),
                    Atan => (Math::Atan, OpClass::Transcendental),
                    _ => (Math::Tanh, OpClass::Transcendental),
                };
                let Some(v) = last else {
                    return unreachable(self, K::F64);
                };
                let s = self.val(v);
                match v.k {
                    K::F32 => {
                        let (d, out) = self.new_reg(K::F32);
                        let c = self.op_cost(class, FpPrecision::Single);
                        self.emit(Op::MathG { f: m, d, s: s.r, c });
                        out
                    }
                    K::Lit | K::F64 | K::Int => {
                        let src = if v.k == K::Int {
                            let d = self.tmp(K::F64);
                            self.emit(Op::IntF { d, s: s.r });
                            d
                        } else {
                            s.r
                        };
                        let (d, out) = self.new_reg(if v.k == K::Lit { K::Lit } else { K::F64 });
                        let c = self.op_cost(class, dbl);
                        self.emit(Op::MathF { f: m, d, s: src, c });
                        out
                    }
                    K::Bool | K::Str => {
                        let msg = Msg::Val {
                            pre: "math intrinsic of ",
                            v: s,
                            post: String::new(),
                        };
                        self.fail(0, msg, K::F64)
                    }
                }
            }
            Atan2 | Mod | Sign => {
                let Some((a, b)) = last2 else {
                    return unreachable(self, K::F64);
                };
                let (g, class) = match f {
                    Atan2 => (Fn2::Atan2, OpClass::Transcendental),
                    Mod => (Fn2::Mod, OpClass::Div),
                    _ => (Fn2::Sign, OpClass::Basic),
                };
                if f == Mod && a.k == K::Int && b.k == K::Int {
                    let (a, b) = (self.reg(a), self.reg(b));
                    let (d, out) = self.new_reg(K::Int);
                    self.emit(Op::ModI { d, a, b });
                    return out;
                }
                let c64 = self.op_cost(class, dbl);
                match self.promote(a, b) {
                    Pair::Bad(x, y) => self.fail(0, Msg::Pair(x, y), K::F64),
                    Pair::Int(a, b) => {
                        let (d, out) = self.new_reg(K::Int);
                        self.emit(Op::Bin2I {
                            f: g,
                            d,
                            a,
                            b,
                            c: c64,
                        });
                        out
                    }
                    Pair::Lit(x, y) => {
                        let (a, b) = (self.reg(x), self.reg(y));
                        let (d, out) = self.new_reg(K::Lit);
                        self.emit(Op::Bin2F {
                            f: g,
                            d,
                            a,
                            b,
                            c: c64,
                            check: false,
                        });
                        out
                    }
                    pair @ (Pair::LitWork(..) | Pair::F(..)) => {
                        let (a, b, check) = match pair {
                            Pair::F(a, b) => (a, b, true),
                            Pair::LitWork(a, b) => (a, b, false),
                            _ => unreachable!(),
                        };
                        let (d, out) = self.new_reg(if check { K::F64 } else { K::Lit });
                        self.emit(Op::Bin2F {
                            f: g,
                            d,
                            a,
                            b,
                            c: c64,
                            check,
                        });
                        out
                    }
                    Pair::G(a, b, _) => {
                        let (d, out) = self.new_reg(K::F32);
                        let c = self.op_cost(class, FpPrecision::Single);
                        self.emit(Op::Bin2G { f: g, d, a, b, c });
                        out
                    }
                }
            }
            Max | Min => {
                let max = f == Max;
                let Some(&first) = vals.first() else {
                    return unreachable(self, K::F64);
                };
                let mut acc = first;
                for &v in &vals[1..] {
                    acc = match self.promote(acc, v) {
                        Pair::Bad(x, y) => return self.fail(0, Msg::Pair(x, y), K::F64),
                        Pair::LitWork(..) => return unreachable(self, K::Lit),
                        Pair::Int(a, b) => {
                            let (d, out) = self.new_reg(K::Int);
                            self.emit(Op::MaxI { max, d, a, b });
                            out
                        }
                        Pair::Lit(x, y) => {
                            let (a, b) = (self.reg(x), self.reg(y));
                            let (d, out) = self.new_reg(K::Lit);
                            self.emit(Op::MaxF { max, d, a, b });
                            out
                        }
                        Pair::F(a, b) => {
                            let (d, out) = self.new_reg(K::F64);
                            self.emit(Op::MaxF { max, d, a, b });
                            out
                        }
                        Pair::G(a, b, _) => {
                            let (d, out) = self.new_reg(K::F32);
                            self.emit(Op::MaxG { max, d, a, b });
                            out
                        }
                    };
                }
                acc
            }
            Real(_) | Dble | Sngl => {
                let to = match f {
                    Real(Some(FpPrecision::Double)) | Dble => K::F64,
                    _ => K::F32,
                };
                let Some(v) = last else {
                    return unreachable(self, to);
                };
                let (d, out) = self.new_reg(to);
                self.convert(Cv::Explicit, to, d, v, Win::Cur, 0);
                out
            }
            Int | Nint | Floor => {
                let Some(v) = last else {
                    return unreachable(self, K::Int);
                };
                let s = self.val(v);
                match v.k {
                    K::Bool | K::Str => {
                        self.emit(Op::ChargePlain {
                            c: self.env.cost.op_basic,
                        });
                        let msg = match f {
                            Int => Msg::Val {
                                pre: "int() of ",
                                v: s,
                                post: String::new(),
                            },
                            Nint => Msg::Text("nint() of non-numeric"),
                            _ => Msg::Text("floor() of non-numeric"),
                        };
                        self.fail(0, msg, K::Int)
                    }
                    _ => {
                        let (d, out) = self.new_reg(K::Int);
                        self.emit(match f {
                            Int => Op::IntOf { d, s },
                            _ => Op::RoundOf {
                                d,
                                s,
                                floor: f == Floor,
                            },
                        });
                        out
                    }
                }
            }
            Epsilon | Huge | Tiny => {
                let Some(&v) = vals.first() else {
                    return unreachable(self, K::F64);
                };
                if v.k == K::F32 {
                    let x = match f {
                        Epsilon => f32::EPSILON,
                        Huge => f32::MAX,
                        _ => f32::MIN_POSITIVE,
                    };
                    let (d, out) = self.new_reg(K::F32);
                    self.emit(Op::ConstG {
                        d,
                        v: x,
                        sh: x as f64,
                    });
                    out
                } else {
                    let x = match f {
                        Epsilon => f64::EPSILON,
                        Huge => f64::MAX,
                        _ => f64::MIN_POSITIVE,
                    };
                    let (d, out) = self.new_reg(K::F64);
                    self.emit(Op::ConstF { d, v: x });
                    out
                }
            }
            Isnan => {
                let Some(v) = last else {
                    return unreachable(self, K::Bool);
                };
                match v.k {
                    K::F32 | K::F64 | K::Lit => {
                        let s = self.val(v);
                        let (d, out) = self.new_reg(K::Bool);
                        self.emit(Op::IsNan { d, s });
                        out
                    }
                    _ => CV {
                        k: K::Bool,
                        at: At::I(0),
                    },
                }
            }
            Sum | Maxval | Minval | Size => unreachable(self, K::F64),
        }
    }

    // ---- calls -------------------------------------------------------------

    /// Compile a call: accounting, argument binding into the callee's
    /// window, the call itself, copy-out, and (for `want_result`) the
    /// function result.
    fn call(&mut self, p: usize, args: &[IArg], want_result: bool) -> CV {
        let env = self.env;
        let callee = &env.ir.procs[p];
        let cmap = &env.pmaps[p];
        self.emit(Op::CallBegin { p: p as u32 });
        let mut writebacks: Vec<(&ILValue, V)> = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            let slot = callee.params[i];
            let decl = &callee.slots[slot];
            match arg {
                IArg::Value(e) => {
                    let v = self.expr(e);
                    self.bind(decl, cmap.locs[slot], v);
                }
                IArg::ScalarRef(lv) => {
                    let v = match lv {
                        ILValue::Scalar(r) => {
                            self.load_scalar(*r, "scalar read of non-scalar slot")
                        }
                        ILValue::Elem { slot, indices } => self.load_elem(*slot, indices, 0),
                    };
                    self.bind(decl, cmap.locs[slot], v);
                    if decl.intent != Some(Intent::In) {
                        if let Loc::Scalar(cv) = cmap.locs[slot] {
                            writebacks.push((lv, cv));
                        }
                    }
                }
                IArg::ArrayRef(r) => {
                    let Some(s) = self.aslot(*r) else {
                        self.fail(0, Msg::Text("expected an array"), K::Int);
                        continue;
                    };
                    let Loc::Array(d) = cmap.locs[slot] else {
                        // Lowering binds whole arrays only to array
                        // dummies; reject any other IR.
                        self.emit(Op::ArrCheck { a: s, line: 0 });
                        self.fail(0, Msg::Owned(type_mismatch(decl)), K::Int);
                        continue;
                    };
                    self.emit(Op::BindArr { d, s });
                    let actual = self.decl(*r).ty;
                    match (decl.ty, actual) {
                        (STy::Fp(dp), STy::Fp(ap)) if dp != ap => {
                            let msg = format!(
                                "argument kind mismatch binding array to dummy `{}` \
                                 (kind={} vs kind={}) — Fortran would not compile this; \
                                 run the transformer to synthesize wrappers",
                                decl.name,
                                ap.kind(),
                                dp.kind()
                            );
                            self.fail(0, Msg::Owned(msg), K::Int);
                        }
                        (d, a) if d != a => {
                            self.fail(0, Msg::Owned(type_mismatch(decl)), K::Int);
                        }
                        _ => {}
                    }
                }
            }
        }
        self.emit(Op::Invoke { p: p as u32 });
        for (lv, src) in writebacks {
            let (d, v) = self.new_reg(src.k);
            self.emit(Op::FromCallee {
                k: src.k,
                d,
                s: src.r,
            });
            self.write_lvalue(lv, v, 0, false);
        }
        self.emit(Op::CallHalt);
        let out = if !want_result {
            CV {
                k: K::Int,
                at: At::I(0),
            }
        } else if !callee.is_function {
            self.fail(0, Msg::Text("subroutine used as function"), K::Int)
        } else {
            let rs = callee.result_slot.expect("functions have result slots");
            match cmap.locs[rs] {
                Loc::Scalar(src) => {
                    let (d, v) = self.new_reg(src.k);
                    self.emit(Op::FromCallee {
                        k: src.k,
                        d,
                        s: src.r,
                    });
                    v
                }
                Loc::Array(_) => self.fail(0, Msg::Text("function result is not scalar"), K::Int),
            }
        };
        self.emit(Op::CallEnd);
        out
    }

    /// Argument copy-in (`convert_to_slot`) into the pending callee window.
    fn bind(&mut self, decl: &SlotDecl, loc: Loc, v: CV) {
        let Loc::Scalar(t) = loc else {
            // Lowering rejects a scalar actual for an array dummy; reject
            // any other IR.
            self.fail(0, Msg::Owned(type_mismatch(decl)), K::Int);
            return;
        };
        self.copy_in(decl, t, v, Win::Callee);
    }

    /// `convert_to_slot`: the kind-mismatch check, then an assignment
    /// conversion into register `t` of window `win`.
    fn copy_in(&mut self, decl: &SlotDecl, t: V, v: CV, win: Win) {
        if let (STy::Fp(p), K::F32 | K::F64) = (decl.ty, v.k) {
            let vp = if v.k == K::F32 {
                FpPrecision::Single
            } else {
                FpPrecision::Double
            };
            if vp != p {
                let msg = format!(
                    "argument kind mismatch on dummy `{}` (kind={} vs kind={}) — \
                     Fortran would not compile this; run the transformer to \
                     synthesize wrappers",
                    decl.name,
                    vp.kind(),
                    p.kind()
                );
                self.fail(0, Msg::Owned(msg), K::Int);
                return;
            }
        }
        self.convert(Cv::Assign, t.k, t.r, v, win, 0);
    }

    /// `write_lvalue`: store `v` through an lvalue. `charge` is false for
    /// copy-out, which skips assignment charges and the element's memory
    /// charge (but not a converting element store's cast).
    fn write_lvalue(&mut self, lv: &ILValue, v: CV, line: u32, charge: bool) {
        match lv {
            ILValue::Scalar(r) => {
                let mode = if charge { Cv::Assign } else { Cv::Writeback };
                self.store_scalar(*r, v, line, mode);
            }
            ILValue::Elem { slot, indices } => {
                let v = self.pin_if(v, indices.iter().any(has_call));
                let sub = self.subs(indices, line);
                self.store_elem(
                    *slot,
                    sub,
                    v,
                    line,
                    charge,
                    false,
                    "non-integer element write",
                );
            }
        }
    }

    /// An element store after its subscripts are evaluated.
    #[allow(clippy::too_many_arguments)]
    fn store_elem(
        &mut self,
        slot: SlotRef,
        sub: Sub,
        v: CV,
        line: u32,
        mem: bool,
        int_charge: bool,
        int_msg: &'static str,
    ) {
        let Some(a) = self.aslot(slot) else {
            self.fail(line, Msg::Text("expected an array"), K::Int);
            return;
        };
        let s = self.val(v);
        let idx = Self::slot_index(slot);
        match AK::of(self.decl(slot).ty) {
            AK::F64 | AK::F32 if matches!(v.k, K::Bool | K::Str) => {
                let msg = Msg::Val {
                    pre: "expected real, got ",
                    v: s,
                    post: String::new(),
                };
                let e = self.invalid(line, msg);
                self.emit(Op::StBad { a, sub, line, e });
            }
            AK::F64 => {
                self.emit(Op::StF {
                    a,
                    sub,
                    s,
                    line,
                    mem,
                    slot: idx,
                });
            }
            AK::F32 => {
                self.emit(Op::StG {
                    a,
                    sub,
                    s,
                    line,
                    mem,
                    slot: idx,
                });
            }
            ak @ (AK::Int | AK::Bool) if v.k == K::Int => {
                self.emit(Op::StI {
                    a,
                    sub,
                    s: s.r,
                    line,
                    store: ak == AK::Int,
                    charge: int_charge,
                });
            }
            _ => {
                let e = self.invalid(line, Msg::Text(int_msg));
                self.emit(Op::StBad { a, sub, line, e });
            }
        }
    }

    // ---- statements --------------------------------------------------------

    fn ev(&mut self, line: u32) {
        self.emit(Op::Ev { line });
    }

    fn body(&mut self, stmts: &[IStmt]) {
        for s in stmts {
            let mark = self.next;
            self.stmt(s);
            self.next = mark;
        }
    }

    /// Leave every enclosing loop the way a `return`/`stop` unwinds the
    /// walker's loops: each counted loop folds and checks the budget.
    fn unwind_loops(&mut self) {
        for i in (0..self.loops.len()).rev() {
            if let LoopKind::Do { cand } = self.loops[i].kind {
                self.emit(Op::DoExit { cand });
            }
        }
    }

    fn stmt(&mut self, s: &IStmt) {
        match s {
            IStmt::AssignScalar { slot, value, line } => {
                self.ev(*line);
                let v = self.expr(value);
                self.store_scalar(*slot, v, *line, Cv::Assign);
            }
            IStmt::AssignElem {
                slot,
                indices,
                value,
                line,
            } => {
                self.ev(*line);
                let v = self.expr(value);
                let v = self.pin_if(v, indices.iter().any(has_call));
                let sub = self.subs(indices, *line);
                self.store_elem(
                    *slot,
                    sub,
                    v,
                    *line,
                    true,
                    true,
                    "non-integer into integer array",
                );
            }
            IStmt::AssignBroadcast { slot, value, line } => {
                self.ev(*line);
                let v = self.expr(value);
                let Some(a) = self.aslot(*slot) else {
                    self.fail(*line, Msg::Text("expected an array"), K::Int);
                    return;
                };
                let s = self.val(v);
                self.emit(Op::Bcast { a, s, line: *line });
            }
            IStmt::AssignArrayCopy { dst, src, line } => {
                self.ev(*line);
                let Some(d) = self.aslot(*dst) else {
                    self.fail(*line, Msg::Text("expected an array"), K::Int);
                    return;
                };
                let Some(s) = self.aslot(*src) else {
                    self.emit(Op::ArrCheck { a: d, line: *line });
                    self.fail(*line, Msg::Text("expected an array"), K::Int);
                    return;
                };
                self.emit(Op::ArrCopy { d, s, line: *line });
            }
            IStmt::If {
                arms,
                else_body,
                line,
            } => {
                self.ev(*line);
                let mut ends = Vec::with_capacity(arms.len());
                for (cond, body) in arms {
                    let mark = self.next;
                    let c = self.expr(cond);
                    let skip = if c.k == K::Bool {
                        let c = self.reg(c);
                        Some(self.emit(Op::IfFalse { c, to: 0 }))
                    } else {
                        let e = self.invalid(*line, Msg::Text("non-logical condition"));
                        self.emit(Op::IfBad { e });
                        None
                    };
                    self.next = mark;
                    self.body(body);
                    ends.push(self.emit(Op::Jump { to: 0 }));
                    if let Some(at) = skip {
                        let to = self.here();
                        self.patch(at, to);
                    }
                }
                self.body(else_body);
                let end = self.here();
                for at in ends {
                    self.patch(at, end);
                }
            }
            IStmt::Do {
                var,
                start,
                end,
                step,
                body,
                meta,
                line,
            } => {
                self.ev(*line);
                let cand = meta.vectorizable;
                // Counter, end and step: three consecutive integer registers.
                let i = self.tmp(K::Int);
                let e_reg = self.tmp(K::Int);
                let st_reg = self.tmp(K::Int);
                for (e, d) in [
                    (Some(start), i),
                    (Some(end), e_reg),
                    (step.as_ref(), st_reg),
                ] {
                    let mark = self.next;
                    match e {
                        Some(e) => {
                            let v = self.expr(e);
                            let s = self.int_reg(v, *line);
                            self.emit(Op::Mov { k: K::Int, d, s });
                        }
                        None => {
                            self.emit(Op::ConstI { d, v: 1 });
                        }
                    }
                    self.next = mark;
                }
                let (var_reg, global) = match self.loc(*var) {
                    (Loc::Scalar(v), global) if v.k == K::Int => (v.r, global),
                    _ => {
                        self.fail(
                            *line,
                            Msg::Text("loop variable is not an integer scalar"),
                            K::Int,
                        );
                        return;
                    }
                };
                let var_local = if global { self.tmp(K::Int) } else { var_reg };
                self.emit(Op::DoInit {
                    i,
                    line: *line,
                    cand,
                });
                let head = self.here();
                let head_at = self.emit(Op::DoHead {
                    i,
                    var: var_local,
                    exit: 0,
                });
                if global {
                    self.emit(Op::GStore {
                        k: K::Int,
                        g: var_reg,
                        s: var_local,
                    });
                }
                self.loops.push(LoopLbl {
                    kind: LoopKind::Do { cand },
                    exits: vec![head_at],
                    conts: Vec::new(),
                });
                self.body(body);
                let lbl = self.loops.pop().expect("loop label");
                let cont = self.here();
                self.emit(Op::DoNext { i, head });
                let exit = self.here();
                self.emit(Op::DoExit { cand });
                for at in lbl.conts {
                    self.patch(at, cont);
                }
                for at in lbl.exits {
                    self.patch(at, exit);
                }
            }
            IStmt::DoWhile { cond, body, line } => {
                self.ev(*line);
                let head = self.here();
                let c = self.expr(cond);
                let test = if c.k == K::Bool {
                    let c = self.reg(c);
                    self.emit(Op::WhileTest { c, exit: 0 })
                } else {
                    let e = self.invalid(*line, Msg::Text("non-logical condition"));
                    self.emit(Op::WhileBad { e })
                };
                self.loops.push(LoopLbl {
                    kind: LoopKind::While,
                    exits: Vec::new(),
                    conts: Vec::new(),
                });
                self.body(body);
                let lbl = self.loops.pop().expect("loop label");
                let cont = self.here();
                self.emit(Op::CheckBudget);
                self.emit(Op::Jump { to: head });
                let exit = self.here();
                if matches!(self.code[test], Op::WhileTest { .. }) {
                    self.patch(test, exit);
                }
                for at in lbl.conts {
                    self.patch(at, cont);
                }
                for at in lbl.exits {
                    self.patch(at, exit);
                }
            }
            IStmt::CallSub { proc, args, line } => {
                self.ev(*line);
                self.call(*proc, args, false);
            }
            IStmt::CallIntrinsicSub {
                f,
                name_arg,
                args,
                line,
            } => {
                self.ev(*line);
                self.intrinsic_sub(*f, name_arg.as_ref(), args, *line);
            }
            IStmt::Return => {
                self.emit(Op::EvNoLine);
                self.unwind_loops();
                self.emit(Op::Ret);
            }
            IStmt::Exit | IStmt::Cycle => {
                self.emit(Op::EvNoLine);
                if self.loops.is_empty() {
                    // Outside any loop the signal ends the procedure.
                    self.emit(Op::Ret);
                    return;
                }
                let at = self.emit(Op::Jump { to: 0 });
                let lbl = self.loops.last_mut().expect("loop label");
                if matches!(s, IStmt::Exit) {
                    lbl.exits.push(at);
                } else {
                    lbl.conts.push(at);
                }
            }
            IStmt::Print { items, line } => {
                self.ev(*line);
                for e in items {
                    let v = self.expr(e);
                    let s = self.val(v);
                    self.emit(Op::PrintItem { s });
                }
                self.emit(Op::PrintEnd);
            }
            IStmt::Stop { code, line } => {
                self.ev(*line);
                match code {
                    None | Some(0) => {
                        self.unwind_loops();
                        self.emit(Op::HaltRet);
                    }
                    Some(c) => {
                        self.emit(Op::StopErr { code: *c });
                    }
                }
            }
            IStmt::Allocate { slot, dims, line } => {
                self.ev(*line);
                let decl = self.decl(*slot);
                self.make_array(*slot, decl, dims, *line);
            }
            IStmt::Deallocate { slots, line } => {
                self.ev(*line);
                for r in slots {
                    if let Some(a) = self.aslot(*r) {
                        self.emit(Op::Dealloc { a });
                    } else if let Some((flag, global)) = self.flag(*r) {
                        self.emit(Op::SetAlloc {
                            flag,
                            global,
                            dealloc: true,
                        });
                    }
                }
            }
        }
    }

    /// Evaluate explicit bounds and allocate (`eval_bounds` + `make_array`).
    fn make_array(&mut self, slot: SlotRef, decl: &SlotDecl, dims: &[IDim], line: u32) {
        let mut exprs: Vec<Option<&IExpr>> = Vec::with_capacity(dims.len() * 2);
        let mut deferred = false;
        for d in dims {
            match d {
                IDim::Explicit { lower, upper } => {
                    exprs.push(lower.as_ref());
                    exprs.push(Some(upper));
                }
                IDim::Deferred => {
                    deferred = true;
                    break;
                }
            }
        }
        let regs = self.ints(&exprs, line);
        if deferred {
            let msg = Msg::Text("deferred bound where explicit shape required");
            self.fail(line, msg, K::Int);
            return;
        }
        let Some(a) = self.aslot(slot) else {
            self.fail(line, Msg::Text("scalar allocation"), K::Int);
            return;
        };
        let k = AK::of(decl.ty);
        if k == AK::Str {
            self.fail(
                line,
                Msg::Text("character arrays are not supported"),
                K::Int,
            );
            return;
        }
        let at = self.pool.len() as u32;
        self.pool.extend_from_slice(&regs);
        self.emit(Op::MakeArr {
            a,
            k,
            at,
            n: dims.len() as u32,
        });
    }

    fn intrinsic_sub(
        &mut self,
        f: IntrinsicSub,
        name: Option<&Arc<str>>,
        args: &[IArg],
        line: u32,
    ) {
        let key = name.map_or_else(|| Arc::from("unnamed"), Arc::clone);
        match f {
            IntrinsicSub::ProseRecord => {
                let IArg::Value(e) = &args[0] else {
                    unreachable!("lowering guarantees a value arg")
                };
                let v = self.expr(e);
                let s = self.val(v);
                if matches!(v.k, K::Bool | K::Str) {
                    self.fail(line, Msg::Text("prose_record of non-numeric"), K::Int);
                    return;
                }
                let key = self.str_const(&key);
                self.emit(Op::Record { s, key });
            }
            IntrinsicSub::ProseRecordArray => {
                let IArg::ArrayRef(r) = &args[0] else {
                    unreachable!("lowering guarantees an array arg")
                };
                let Some(a) = self.aslot(*r) else {
                    self.fail(line, Msg::Text("expected an array"), K::Int);
                    return;
                };
                let key = self.str_const(&key);
                self.emit(Op::RecordArr { a, key, line });
            }
            IntrinsicSub::MpiAllreduceSum | IntrinsicSub::MpiAllreduceMax => {
                let IArg::Value(e) = &args[0] else {
                    unreachable!()
                };
                let IArg::ScalarRef(out) = &args[1] else {
                    unreachable!()
                };
                let v = self.expr(e);
                let v = self.pin_if(v, lv_has_call(out));
                self.emit(Op::Allreduce);
                self.write_lvalue(out, v, line, true);
            }
        }
    }

    // ---- procedures --------------------------------------------------------

    /// A procedure: prologue (non-dummy locals, evaluated while the caller
    /// is still the current procedure), then the body.
    fn proc_body(&mut self, pid: usize, p: &ProcIR) {
        for (i, decl) in p.slots.iter().enumerate() {
            if decl.is_dummy {
                continue;
            }
            let mark = self.next;
            if let Some(dims) = &decl.dims {
                if !decl.allocatable {
                    self.make_array(SlotRef::Local(i), decl, dims, 0);
                }
            } else if let Some(init) = &decl.init {
                let v = self.expr(init);
                if let Loc::Scalar(t) = self.map.locs[i] {
                    self.copy_in(decl, t, v, Win::Cur);
                }
            }
            self.next = mark;
        }
        self.emit(Op::PushProc { p: pid as u32 });
        self.body(&p.body);
        self.emit(Op::Ret);
    }

    /// Module-level initializers, in declaration order.
    fn globals_init(&mut self) {
        let ir = self.env.ir;
        for (i, decl) in ir.globals.iter().enumerate() {
            let mark = self.next;
            if let Some(dims) = &decl.dims {
                if !decl.allocatable {
                    self.make_array(SlotRef::Global(i), decl, dims, 0);
                }
            } else if let Some(init) = &decl.init {
                let v = self.expr(init);
                if let Loc::Scalar(t) = self.env.gmap.locs[i] {
                    let d = self.tmp(t.k);
                    self.copy_in(decl, V { k: t.k, r: d }, v, Win::Cur);
                    self.emit(Op::GStore {
                        k: t.k,
                        g: t.r,
                        s: d,
                    });
                    if self.env.shadow && t.k.is_fp() {
                        self.emit(Op::Note {
                            k: t.k,
                            r: d,
                            slot: i as u32,
                            global: true,
                        });
                    }
                }
            }
            self.next = mark;
        }
        self.emit(Op::Ret);
    }
}

fn type_mismatch(decl: &SlotDecl) -> String {
    format!("argument type mismatch on dummy `{}`", decl.name)
}
