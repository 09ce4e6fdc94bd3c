//! The reference tree walker: the executor the compiled register code
//! ([`crate::compile`], [`crate::exec`]) is differentially tested against.
//!
//! It walks the lowered IR frame by frame, computing real mixed-precision
//! values and charging the cost model as it goes. No production path runs
//! it; it is kept, deliberately simple, as the executable specification of
//! the interpreter's semantics. Any observable difference between it and
//! the compiled executor is a bug in the compiled executor.
//!
//! Semantics notes (documented substitutions for full Fortran):
//!
//! * Scalars and arrays are zero-initialized (the `-init=zero` compiler
//!   behaviour); model sources still initialize explicitly.
//! * Scalar arguments use copy-in/copy-out (a standard-conforming argument
//!   association); arrays are associated by reference and adopt the
//!   actual's bounds.
//! * A kind- or type-mismatched argument association is a runtime error —
//!   in real Fortran it would not compile, and the transformer's wrappers
//!   guarantee it never happens for generated variants.
//! * Any non-finite FP result aborts the run (the model-crash analog the
//!   paper reports as "runtime error" variants), as does `stop` with a
//!   non-zero code.

use crate::arith::{apply_f32, apply_f64, compare, format_num, int_pow, op_class};
use crate::cost::{CostParams, LoopCtx, OpClass};
use crate::ir::*;
use crate::run::{
    OpCounts, RunConfig, RunError, RunOutcome, RunRecords, ShadowRun, DEADLINE_CHECK_INTERVAL,
};
use crate::shadow::{ShadowReport, ShadowState, GLOBAL_SCOPE};
use crate::timers::Timers;
use crate::value::{ArrayRef, ArrayVal, Fp, Num};
use prose_fortran::ast::{BinOp, FpPrecision, UnOp};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Run pre-lowered IR on the tree walker: the oracle counterpart of
/// [`crate::run_ir_shadow`], with the same contract.
pub fn run_ir_shadow(ir: &ProgramIR, cfg: &RunConfig) -> ShadowRun {
    let budget = cfg.budget.unwrap_or(f64::INFINITY);
    let t1 = std::time::Instant::now();
    let mut m = Machine::new(ir, cfg.cost.clone(), budget, cfg.max_events);
    m.fault = cfg.fault.clone();
    if let Some(d) = cfg.deadline {
        m.deadline_at = Some(t1 + d);
        m.deadline_ms = d.as_millis() as u64;
    }
    if cfg.shadow {
        m.enable_shadow();
    }
    if let Err(e) = m.run() {
        let report = m.shadow_report();
        return (Err(*e), report);
    }
    let report = m.shadow_report();
    let (timers, records, total_cycles, events, ops) = m.finish();
    let exec_ns = t1.elapsed().as_nanos() as u64;
    (
        Ok(RunOutcome {
            timers,
            records,
            total_cycles,
            events,
            ops,
            lower_ns: 0,
            exec_ns,
        }),
        report,
    )
}

/// Fortran's maximum array rank: subscripts up to it are evaluated into a
/// stack buffer.
const MAX_RANK: usize = 7;

/// Evaluated subscripts.
enum Subs {
    Inline([i64; MAX_RANK], usize),
    /// Over-rank references (always out of bounds, but still evaluated).
    Heap(Vec<i64>),
}

impl Subs {
    fn as_slice(&self) -> &[i64] {
        match self {
            Subs::Inline(b, n) => &b[..*n],
            Subs::Heap(v) => v,
        }
    }
}

/// Runtime slot contents.
#[derive(Debug, Clone)]
enum Slot {
    Int(i64),
    Fp(Fp),
    Bool(bool),
    Str(Arc<str>),
    Array(ArrayRef),
    Unallocated,
}

/// One activation's slots plus, under shadow execution, a parallel fp64
/// shadow value per slot. Indexing (`frame[i]`) reaches the primary slots;
/// the shadow plane is empty (and every accessor a no-op) when shadow
/// execution is off, so the normal path pays nothing.
#[derive(Debug, Default)]
struct Frame {
    slots: Vec<Slot>,
    sh: Vec<f64>,
}

impl Frame {
    fn new() -> Frame {
        Frame::default()
    }

    fn for_decls(decls: &[SlotDecl], shadow: bool) -> Frame {
        let slots: Vec<Slot> = decls.iter().map(default_slot).collect();
        let sh = if shadow {
            vec![0.0; slots.len()]
        } else {
            Vec::new()
        };
        Frame { slots, sh }
    }

    fn sh_get(&self, i: usize) -> f64 {
        self.sh.get(i).copied().unwrap_or(0.0)
    }

    fn sh_set(&mut self, i: usize, v: f64) {
        if let Some(s) = self.sh.get_mut(i) {
            *s = v;
        }
    }
}

impl std::ops::Index<usize> for Frame {
    type Output = Slot;
    fn index(&self, i: usize) -> &Slot {
        &self.slots[i]
    }
}

impl std::ops::IndexMut<usize> for Frame {
    fn index_mut(&mut self, i: usize) -> &mut Slot {
        &mut self.slots[i]
    }
}

/// Control flow signal from statement execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    ExitLoop,
    CycleLoop,
    Return,
    /// `stop` / `stop 0`: graceful termination.
    Halt,
}

struct Machine<'ir> {
    ir: &'ir ProgramIR,
    params: CostParams,
    globals: Frame,
    records: RunRecords,
    /// Exclusive cycles per procedure id (folded into [`Timers`] at the end;
    /// vector indexing keeps the per-operation charge path allocation- and
    /// hash-free).
    proc_cycles: Vec<f64>,
    proc_calls: Vec<u64>,
    total: f64,
    loop_stack: Vec<LoopCtx>,
    proc_stack: Vec<usize>,
    /// Source line of the statement currently executing (diagnostics).
    cur_line: u32,
    budget: f64,
    max_events: u64,
    events: u64,
    ops: OpCounts,
    /// Fault-injection plan for this run ([`prose_faults`]); `None` in
    /// normal operation.
    fault: Option<prose_faults::InjectedFault>,
    /// Wall-clock instant after which the run aborts with
    /// [`RunError::Deadline`]. Checked cooperatively every
    /// [`DEADLINE_CHECK_INTERVAL`] events; the check reads the clock and
    /// changes nothing unless it fires, so modeled cycles, numerics, and
    /// event counts are bit-identical whether or not a deadline is armed.
    deadline_at: Option<std::time::Instant>,
    /// Configured deadline in milliseconds (diagnostics only).
    deadline_ms: u64,
    /// Shadow execution enabled ([`crate::shadow`]).
    sh_on: bool,
    /// Shadow of the most recently evaluated expression. The discipline:
    /// every `eval` arm leaves the shadow of its result here, and consumers
    /// (stores, argument binding, recording) read it before the next `eval`.
    sh_reg: f64,
    shadow: Option<Box<ShadowState>>,
    /// Reusable intrinsic-argument buffers.
    arg_pool: Vec<Vec<Num>>,
    sh_pool: Vec<Vec<f64>>,
}

type R<T> = Result<T, Box<RunError>>;

impl<'ir> Machine<'ir> {
    fn new(ir: &'ir ProgramIR, params: CostParams, budget: f64, max_events: u64) -> Self {
        let nprocs = ir.procs.len();
        Machine {
            ir,
            params,
            globals: Frame::new(),
            records: RunRecords::default(),
            proc_cycles: vec![0.0; nprocs],
            proc_calls: vec![0; nprocs],
            total: 0.0,
            loop_stack: Vec::new(),
            proc_stack: Vec::new(),
            cur_line: 0,
            budget,
            max_events,
            events: 0,
            ops: OpCounts::default(),
            fault: None,
            deadline_at: None,
            deadline_ms: 0,
            sh_on: false,
            sh_reg: 0.0,
            shadow: None,
            arg_pool: Vec::new(),
            sh_pool: Vec::new(),
        }
    }

    /// Turn on shadow execution. Must be called before [`Machine::run`].
    fn enable_shadow(&mut self) {
        self.sh_on = true;
        self.shadow = Some(Box::default());
    }

    /// Initialize globals and execute the main program.
    fn run(&mut self) -> R<()> {
        self.init_globals()?;
        let main = self.ir.main_proc;
        let result = match self.call_proc(main, &[], &mut Frame::new()) {
            Ok(_) => Ok(()),
            // `stop` / `stop 0` unwinds as a sentinel: clean termination.
            Err(e) if *e == RunError::Stop { code: 0 } => Ok(()),
            Err(e) => Err(e),
        };
        // A planned fault whose event threshold exceeded the run length
        // still fires — at termination — so injection is deterministic
        // regardless of variant size.
        if result.is_ok() && self.fault.is_some() {
            return Err(self.fire_fault().into());
        }
        result
    }

    /// Abort the run with the armed injected fault.
    /// [`prose_faults::InjectedFault::Abort`] does not return: it panics
    /// with an [`prose_faults::InjectedAbort`] payload for the evaluator's
    /// `catch_unwind` containment to classify.
    fn fire_fault(&mut self) -> RunError {
        match self.fault.take().expect("fire_fault with no fault armed") {
            prose_faults::InjectedFault::NonFinite { .. } => {
                // Provenance: this NaN never traversed real arithmetic —
                // attribute it to the injection, not to the variant.
                let proc = self.cur_proc_name();
                let line = self.cur_line;
                self.note_nonfinite("injected", &proc, line, true);
                RunError::NonFinite { proc, line }
            }
            prose_faults::InjectedFault::Timeout { .. } => RunError::Timeout {
                budget: self.budget,
            },
            prose_faults::InjectedFault::Abort { after_events } => {
                std::panic::panic_any(prose_faults::InjectedAbort {
                    after_events: after_events.min(self.events),
                })
            }
            prose_faults::InjectedFault::Hang { .. } => self.stall(),
        }
    }

    /// Simulate a hung event loop: burn wall-clock time without advancing
    /// any modeled state. No budget or event limit applies here — by
    /// design, only an armed wall-clock deadline terminates the stall.
    fn stall(&mut self) -> RunError {
        loop {
            if let Some(at) = self.deadline_at {
                if std::time::Instant::now() >= at {
                    return RunError::Deadline {
                        ms: self.deadline_ms,
                    };
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Consume the machine, producing the timer table, records, and
    /// operation counters.
    fn finish(self) -> (Timers, RunRecords, f64, u64, OpCounts) {
        let mut timers = Timers::new();
        for (i, proc) in self.ir.procs.iter().enumerate() {
            if self.proc_calls[i] > 0 || self.proc_cycles[i] > 0.0 {
                timers.charge(&proc.name, self.proc_cycles[i]);
                timers.add_calls(&proc.name, self.proc_calls[i]);
            }
        }
        (timers, self.records, self.total, self.events, self.ops)
    }

    // ---- context helpers -------------------------------------------------

    fn cur_proc_name(&self) -> Arc<str> {
        self.proc_stack
            .last()
            .map(|p| Arc::clone(&self.ir.procs[*p].name))
            .unwrap_or_else(|| Arc::from("@init"))
    }

    fn cur_proc(&self) -> usize {
        self.proc_stack.last().copied().unwrap_or(self.ir.main_proc)
    }

    fn err_invalid(&self, line: u32, msg: impl Into<String>) -> Box<RunError> {
        let line = if line == 0 { self.cur_line } else { line };
        Box::new(RunError::Invalid {
            proc: self.cur_proc_name(),
            line,
            msg: msg.into(),
        })
    }

    /// Prefer the current statement's line for errors raised from
    /// expression contexts (which carry no spans).
    fn at_line(&self, line: u32) -> u32 {
        if line == 0 {
            self.cur_line
        } else {
            line
        }
    }

    // ---- shadow execution ------------------------------------------------
    //
    // None of these charge cycles, count ops, or bump events: shadow-on and
    // shadow-off runs are bit-identical in everything but the report.

    /// Shadow value of a scalar slot: the stored fp64 shadow for FP slots,
    /// the primary value widened to f64 for everything else (integers,
    /// logicals follow the primary by construction).
    fn load_shadow(&self, r: SlotRef, frame: &Frame) -> f64 {
        let (slot, sh) = match r {
            SlotRef::Local(i) => (&frame.slots[i], frame.sh_get(i)),
            SlotRef::Global(i) => (&self.globals.slots[i], self.globals.sh_get(i)),
        };
        match slot {
            Slot::Fp(_) => sh,
            Slot::Int(i) => *i as f64,
            Slot::Bool(b) => f64::from(u8::from(*b)),
            _ => 0.0,
        }
    }

    /// After a scalar slot store: persist the value's shadow (from the
    /// register) and fold the divergence into the per-variable stats. Non-FP
    /// slots snap their shadow to the primary.
    fn store_scalar_shadow(&mut self, r: SlotRef, frame: &mut Frame) {
        if !self.sh_on {
            return;
        }
        let (prim, is_fp) = match self.get_slot(r, frame) {
            Slot::Fp(f) => (f.as_f64(), true),
            Slot::Int(i) => (*i as f64, false),
            Slot::Bool(b) => (f64::from(u8::from(*b)), false),
            _ => return,
        };
        let sh = if is_fp { self.sh_reg } else { prim };
        match r {
            SlotRef::Local(i) => frame.sh_set(i, sh),
            SlotRef::Global(i) => self.globals.sh_set(i, sh),
        }
        if is_fp {
            self.note_var(r, prim, sh);
        }
    }

    /// Fold one store's divergence into the (scope, slot) stats.
    fn note_var(&mut self, r: SlotRef, prim: f64, sh: f64) {
        let key = match r {
            SlotRef::Local(i) => (self.cur_proc(), i),
            SlotRef::Global(i) => (GLOBAL_SCOPE, i),
        };
        if let Some(st) = &mut self.shadow {
            st.note_var(key, prim, sh);
        }
    }

    /// Shadow of a binary op's result; also the cancellation detector.
    fn shadow_bin(
        &mut self,
        op: BinOp,
        pa: Option<f64>,
        pb: Option<f64>,
        ash: f64,
        bsh: f64,
        r: &Num,
    ) {
        if op.is_logical() || op.is_comparison() {
            self.sh_reg = match r {
                Num::Bool(b) => f64::from(u8::from(*b)),
                _ => 0.0,
            };
            return;
        }
        if let Num::Int(i) = r {
            // Integer arithmetic: shadow snaps to the primary.
            self.sh_reg = *i as f64;
            return;
        }
        let sh = apply_f64(op, ash, bsh);
        self.sh_reg = sh;
        // Catastrophic cancellation: only meaningful for runtime FP add/sub
        // (literal folds are compile-time and precision-independent).
        if matches!(op, BinOp::Add | BinOp::Sub) && matches!(r, Num::Fp(_)) {
            if let (Some(x), Some(y), Some(pr)) = (pa, pb, r.as_f64()) {
                self.note_cancellation(x, y, pr, sh);
            }
        }
    }

    fn note_cancellation(&mut self, x: f64, y: f64, prim: f64, sh: f64) {
        let line = self.cur_line;
        let proc = self.cur_proc_name();
        if let Some(st) = &mut self.shadow {
            st.note_cancellation(x, y, prim, sh, || proc.to_string(), line);
        }
    }

    /// Record provenance for the first non-finite value and build the error.
    fn nonfinite_at(&mut self, line: u32, op: &'static str) -> Box<RunError> {
        let proc = self.cur_proc_name();
        let line = self.at_line(line);
        self.note_nonfinite(op, &proc, line, false);
        Box::new(RunError::NonFinite { proc, line })
    }

    fn note_nonfinite(&mut self, op: &str, proc: &str, line: u32, injected: bool) {
        if let Some(st) = &mut self.shadow {
            st.note_nonfinite(op, proc, line, injected);
        }
    }

    /// Build the shadow report, resolving slot keys to display names.
    /// `None` unless shadow execution was enabled.
    fn shadow_report(&self) -> Option<ShadowReport> {
        let ir = self.ir;
        let st = self.shadow.as_ref()?;
        Some(st.report(|scope, slot| {
            if scope == GLOBAL_SCOPE {
                format!("@global::{}", ir.globals[slot].name)
            } else {
                let p = &ir.procs[scope];
                format!("{}::{}", p.name, p.slots[slot].name)
            }
        }))
    }

    // ---- cost charging ---------------------------------------------------

    /// Charge `cycles` tagged with a precision (discountable when the
    /// enclosing loop vectorizes).
    fn charge_tagged(&mut self, prec: FpPrecision, cycles: f64) {
        let proc = self.cur_proc();
        if let Some(ctx) = self.loop_stack.last_mut() {
            let b = ctx.bucket(proc);
            match prec {
                FpPrecision::Single => b.f32_cost += cycles,
                FpPrecision::Double => b.f64_cost += cycles,
            }
        } else {
            self.proc_cycles[proc] += cycles;
            self.total += cycles;
        }
    }

    /// Charge untaggable (integer/control) work — discounted at f64 lanes.
    fn charge_plain(&mut self, cycles: f64) {
        self.charge_tagged(FpPrecision::Double, cycles);
    }

    /// Charge a precision conversion between scalar operands. Conversion
    /// instructions vectorize (`vcvtps2pd`), so this does NOT demote the
    /// enclosing loop — it just costs (tagged f64, so it discounts at f64
    /// lanes when the loop vectorizes).
    fn charge_cast(&mut self) {
        let cost = self.params.cast;
        self.ops.casts += 1;
        self.charge_tagged(FpPrecision::Double, cost);
    }

    /// Charge a converting *store* (an array element written at a different
    /// precision than its value). Mixed-width store streams are where the
    /// vectorizer gives up, so this demotes the enclosing loop — it is also
    /// what makes synthesized wrapper copy loops expensive.
    fn charge_cast_store(&mut self) {
        let cost = self.params.cast;
        self.ops.cast_stores += 1;
        if let Some(ctx) = self.loop_stack.last_mut() {
            ctx.saw_cast = true;
        }
        self.charge_tagged(FpPrecision::Double, cost);
    }

    /// Mark that a non-inlined call (or other vectorization-hostile event)
    /// happened inside any enclosing loop.
    fn mark_call(&mut self) {
        if let Some(ctx) = self.loop_stack.last_mut() {
            ctx.saw_call = true;
        }
    }

    fn charge_op(&mut self, class: OpClass, prec: FpPrecision) {
        let c = self.params.op_cost_at(class, prec);
        match prec {
            FpPrecision::Single => self.ops.fp32_ops += 1,
            FpPrecision::Double => self.ops.fp64_ops += 1,
        }
        self.charge_tagged(prec, c);
    }

    fn charge_mem(&mut self, prec: FpPrecision) {
        let c = self.params.mem_cost(prec);
        self.ops.mem_ops += 1;
        self.charge_tagged(prec, c);
    }

    fn bump_event(&mut self) -> R<()> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(RunError::EventLimit.into());
        }
        if self.events & (DEADLINE_CHECK_INTERVAL - 1) == 0 {
            if let Some(at) = self.deadline_at {
                if std::time::Instant::now() >= at {
                    return Err(RunError::Deadline {
                        ms: self.deadline_ms,
                    }
                    .into());
                }
            }
        }
        if let Some(f) = &self.fault {
            if self.events >= f.after_events() {
                return Err(self.fire_fault().into());
            }
        }
        Ok(())
    }

    fn check_budget(&self) -> R<()> {
        if self.total > self.budget {
            return Err(RunError::Timeout {
                budget: self.budget,
            }
            .into());
        }
        Ok(())
    }

    // ---- globals ---------------------------------------------------------

    fn init_globals(&mut self) -> R<()> {
        let ir = self.ir;
        // Slots first (so dim expressions can read earlier constants).
        self.globals = Frame::for_decls(&ir.globals, self.sh_on);
        // Evaluate initializers and array shapes in declaration order.
        for (i, decl) in ir.globals.iter().enumerate() {
            if let Some(dims) = &decl.dims {
                if !decl.allocatable {
                    let mut frame = Frame::new();
                    let bounds = self.eval_bounds(dims, &mut frame, 0)?;
                    let arr = self.make_array(decl, bounds, 0)?;
                    self.globals[i] = Slot::Array(Rc::new(RefCell::new(arr)));
                }
            } else if let Some(init) = &decl.init {
                let mut frame = Frame::new();
                let v = self.eval(init, &mut frame)?;
                let slot = self.convert_to_slot(decl, v, 0)?;
                self.globals[i] = slot;
                self.store_scalar_shadow(SlotRef::Global(i), &mut frame);
            }
        }
        Ok(())
    }

    fn make_array(&self, decl: &SlotDecl, bounds: Vec<(i64, i64)>, line: u32) -> R<ArrayVal> {
        Ok(match decl.ty {
            STy::Fp(p) => {
                let a = ArrayVal::new_fp(p, bounds);
                if self.sh_on {
                    a.with_shadow()
                } else {
                    a
                }
            }
            STy::Int => ArrayVal::new_int(bounds),
            STy::Bool => ArrayVal::new_bool(bounds),
            STy::Str => return Err(self.err_invalid(line, "character arrays are not supported")),
        })
    }

    fn eval_bounds(&mut self, dims: &[IDim], frame: &mut Frame, line: u32) -> R<Vec<(i64, i64)>> {
        dims.iter()
            .map(|d| match d {
                IDim::Explicit { lower, upper } => {
                    let lo = match lower {
                        Some(e) => self.eval_int(e, frame, line)?,
                        None => 1,
                    };
                    let hi = self.eval_int(upper, frame, line)?;
                    Ok((lo, hi))
                }
                IDim::Deferred => {
                    Err(self.err_invalid(line, "deferred bound where explicit shape required"))
                }
            })
            .collect()
    }

    // ---- calls -----------------------------------------------------------

    /// Call a procedure; returns the function result (None for subroutines).
    fn call_proc(
        &mut self,
        proc_id: usize,
        args: &[IArg],
        caller_frame: &mut Frame,
    ) -> R<Option<Num>> {
        // Fortran procedures here are non-recursive; the guard exists to
        // turn accidental recursion into a reported error well before the
        // interpreter's own (Rust) stack is at risk, including under debug
        // builds' larger frames.
        if self.proc_stack.len() > 64 {
            return Err(RunError::StackOverflow.into());
        }
        self.check_budget()?;
        let ir = self.ir;
        let proc = &ir.procs[proc_id];
        let inlined = proc.inlinable;

        // Accounting: the timer sees every invocation; non-inlined calls pay
        // overhead and poison enclosing vectorizable loops.
        self.proc_calls[proc_id] += 1;
        if !inlined && !self.proc_stack.is_empty() {
            self.mark_call();
            self.ops.timed_calls += 1;
            let oh = self.params.call_overhead + self.params.timer_overhead;
            self.charge_plain(oh);
        }

        // Bind arguments.
        let mut frame = Frame::for_decls(&proc.slots, self.sh_on);
        let mut writebacks: Vec<(&ILValue, usize)> = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            let slot_idx = proc.params[i];
            let decl = &proc.slots[slot_idx];
            match arg {
                IArg::Value(e) => {
                    let v = self.eval(e, caller_frame)?;
                    frame[slot_idx] = self.convert_to_slot(decl, v, 0)?;
                    frame.sh_set(slot_idx, self.sh_reg);
                }
                IArg::ScalarRef(lv) => {
                    let v = self.read_lvalue(lv, caller_frame, 0)?;
                    frame[slot_idx] = self.convert_to_slot(decl, v, 0)?;
                    frame.sh_set(slot_idx, self.sh_reg);
                    if decl.intent != Some(prose_fortran::ast::Intent::In) {
                        writebacks.push((lv, slot_idx));
                    }
                }
                IArg::ArrayRef(r) => {
                    let handle = self.read_array_handle(*r, caller_frame, 0)?;
                    // Kind and type check: argument association never
                    // converts, so the actual must match the dummy exactly.
                    let actual = handle.borrow().data.sty();
                    match (decl.ty, actual) {
                        (STy::Fp(dp), STy::Fp(ap)) if dp != ap => {
                            return Err(self.err_invalid(
                                0,
                                format!(
                                    "argument kind mismatch binding array to dummy `{}` \
                                     (kind={} vs kind={}) — Fortran would not compile this; \
                                     run the transformer to synthesize wrappers",
                                    decl.name,
                                    ap.kind(),
                                    dp.kind()
                                ),
                            ))
                        }
                        (d, a) if d != a => {
                            return Err(self.err_invalid(
                                0,
                                format!("argument type mismatch on dummy `{}`", decl.name),
                            ))
                        }
                        _ => {}
                    }
                    frame[slot_idx] = Slot::Array(handle);
                }
            }
        }

        // Initialize non-dummy locals (automatic arrays may reference dummies).
        for (i, decl) in proc.slots.iter().enumerate() {
            if decl.is_dummy {
                continue;
            }
            if let Some(dims) = &decl.dims {
                if !decl.allocatable {
                    let bounds = self.eval_bounds(dims, &mut frame, 0)?;
                    let arr = self.make_array(decl, bounds, 0)?;
                    frame[i] = Slot::Array(Rc::new(RefCell::new(arr)));
                }
            } else if let Some(init) = &decl.init {
                let v = self.eval(init, &mut frame)?;
                frame[i] = self.convert_to_slot(decl, v, 0)?;
                frame.sh_set(i, self.sh_reg);
            }
        }

        // Execute.
        self.proc_stack.push(proc_id);
        let flow = self.exec_body(&ir.procs[proc_id].body, &mut frame);
        self.proc_stack.pop();
        let flow = flow?;

        // Copy-out scalar refs.
        for (lv, slot_idx) in writebacks {
            let v = slot_to_num(&frame[slot_idx])
                .ok_or_else(|| self.err_invalid(0, "writeback of non-scalar"))?;
            self.sh_reg = self.load_shadow(SlotRef::Local(slot_idx), &frame);
            self.write_lvalue(lv, v, caller_frame, 0, false)?;
        }

        if flow == Flow::Halt {
            // Sentinel unwound by `run()` into clean termination.
            return Err(RunError::Stop { code: 0 }.into());
        }

        let proc = &ir.procs[proc_id];
        if proc.is_function {
            let rs = proc.result_slot.expect("functions have result slots");
            let v = slot_to_num(&frame[rs])
                .ok_or_else(|| self.err_invalid(0, "function result is not scalar"))?;
            self.sh_reg = self.load_shadow(SlotRef::Local(rs), &frame);
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    // ---- statements ------------------------------------------------------

    fn exec_body(&mut self, body: &[IStmt], frame: &mut Frame) -> R<Flow> {
        for s in body {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &IStmt, frame: &mut Frame) -> R<Flow> {
        self.bump_event()?;
        if let Some(line) = stmt_line(s) {
            self.cur_line = line;
        }
        match s {
            IStmt::AssignScalar { slot, value, line } => {
                let v = self.eval(value, frame)?;
                self.store_scalar(*slot, v, frame, *line)?;
                Ok(Flow::Normal)
            }
            IStmt::AssignElem {
                slot,
                indices,
                value,
                line,
            } => {
                let v = self.eval(value, frame)?;
                // Subscript evaluation clobbers the shadow register: hold
                // the value's shadow across it.
                let vsh = self.sh_reg;
                let subs = self.eval_subs(indices, frame, *line)?;
                let arr = self.read_array_handle(*slot, frame, *line)?;
                let (prec, stored) = {
                    let a = arr.borrow();
                    let off = a
                        .offset(subs.as_slice())
                        .ok_or_else(|| RunError::OutOfBounds {
                            proc: self.cur_proc_name(),
                            line: self.at_line(*line),
                        })?;
                    drop(a);
                    let mut a = arr.borrow_mut();
                    match a.data.fp_precision() {
                        Some(p) => {
                            let fv = self.num_to_fp(v, p, *line)?;
                            a.set_fp(off, fv);
                            a.shadow_set(off, vsh);
                            (Some(p), Some(fv.as_f64()))
                        }
                        None => {
                            // Integer array element.
                            let iv = v.as_int().ok_or_else(|| {
                                self.err_invalid(*line, "non-integer into integer array")
                            })?;
                            if let crate::value::ArrayData::Int(d) = &mut a.data {
                                d[off] = iv;
                            }
                            (None, None)
                        }
                    }
                };
                if self.sh_on {
                    if let Some(prim) = stored {
                        self.note_var(*slot, prim, vsh);
                    }
                }
                match prec {
                    Some(p) => self.charge_mem(p),
                    None => self.charge_plain(self.params.op_int),
                }
                Ok(Flow::Normal)
            }
            IStmt::AssignBroadcast { slot, value, line } => {
                let v = self.eval(value, frame)?;
                let vsh = self.sh_reg;
                let arr = self.read_array_handle(*slot, frame, *line)?;
                let n = arr.borrow().len();
                let prec = arr.borrow().data.fp_precision();
                match prec {
                    Some(p) => {
                        let fv = self.num_to_fp(v, p, *line)?;
                        let mut a = arr.borrow_mut();
                        for off in 0..n {
                            a.set_fp(off, fv);
                        }
                        if let Some(s) = &mut a.shadow {
                            s.fill(vsh);
                        }
                        drop(a);
                        // Broadcast stores vectorize.
                        let cost = n as f64 * self.params.mem_cost(p) / self.params.lanes(p);
                        self.charge_tagged(p, cost);
                    }
                    None => {
                        let iv = v
                            .as_int()
                            .ok_or_else(|| self.err_invalid(*line, "non-integer broadcast"))?;
                        let mut a = arr.borrow_mut();
                        if let crate::value::ArrayData::Int(d) = &mut a.data {
                            for x in d.iter_mut() {
                                *x = iv;
                            }
                        }
                        drop(a);
                        self.charge_plain(n as f64 * self.params.op_int);
                    }
                }
                Ok(Flow::Normal)
            }
            IStmt::AssignArrayCopy { dst, src, line } => {
                let d = self.read_array_handle(*dst, frame, *line)?;
                let s_ = self.read_array_handle(*src, frame, *line)?;
                if Rc::ptr_eq(&d, &s_) {
                    return Ok(Flow::Normal);
                }
                let sb = s_.borrow();
                let mut db = d.borrow_mut();
                if db.len() != sb.len() {
                    return Err(self.err_invalid(*line, "array copy shape mismatch"));
                }
                let n = sb.len();
                let (dp, sp) = (db.data.fp_precision(), sb.data.fp_precision());
                match (dp, sp) {
                    (Some(dp), Some(sp)) => {
                        for off in 0..n {
                            let v = sb.get_fp(off);
                            db.set_fp(off, v);
                        }
                        if let (Some(ss), Some(ds)) = (&sb.shadow, &mut db.shadow) {
                            ds.clone_from(ss);
                        }
                        drop(db);
                        drop(sb);
                        if dp != sp {
                            // Converting copy: scalar-rate conversion loop.
                            let cost = n as f64
                                * (self.params.cast
                                    + self.params.mem_cost(sp)
                                    + self.params.mem_cost(dp));
                            if let Some(ctx) = self.loop_stack.last_mut() {
                                ctx.saw_cast = true;
                            }
                            self.charge_tagged(FpPrecision::Double, cost);
                        } else {
                            let cost =
                                n as f64 * 2.0 * self.params.mem_cost(sp) / self.params.lanes(sp);
                            self.charge_tagged(sp, cost);
                        }
                    }
                    _ => return Err(self.err_invalid(*line, "array copy type mismatch")),
                }
                Ok(Flow::Normal)
            }
            IStmt::If {
                arms,
                else_body,
                line,
            } => {
                for (cond, body) in arms {
                    let c = self.eval(cond, frame)?;
                    self.charge_plain(self.params.op_int); // branch
                    if c.as_bool()
                        .ok_or_else(|| self.err_invalid(*line, "non-logical condition"))?
                    {
                        return self.exec_body(body, frame);
                    }
                }
                self.exec_body(else_body, frame)
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
                let s0 = self.eval_int(start, frame, *line)?;
                let e0 = self.eval_int(end, frame, *line)?;
                let st = match step {
                    Some(x) => self.eval_int(x, frame, *line)?,
                    None => 1,
                };
                if st == 0 {
                    return Err(self.err_invalid(*line, "zero do-loop step"));
                }
                let candidate = meta.vectorizable;
                if candidate {
                    self.loop_stack.push(LoopCtx::new());
                }
                let mut flow = Flow::Normal;
                let mut i = s0;
                loop {
                    if (st > 0 && i > e0) || (st < 0 && i < e0) {
                        break;
                    }
                    self.store_int(*var, i, frame);
                    self.ops.loop_iters += 1;
                    self.charge_plain(self.params.loop_control);
                    self.bump_event()?;
                    match self.exec_body(body, frame) {
                        Ok(Flow::Normal) | Ok(Flow::CycleLoop) => {}
                        Ok(Flow::ExitLoop) => break,
                        Ok(other) => {
                            flow = other;
                            break;
                        }
                        Err(e) => {
                            // Fold buffered cost before propagating so
                            // timers stay meaningful on errors.
                            if candidate {
                                self.fold_top_loop();
                            }
                            return Err(e);
                        }
                    }
                    i += st;
                }
                if candidate {
                    self.fold_top_loop();
                }
                self.check_budget()?;
                Ok(flow)
            }
            IStmt::DoWhile { cond, body, line } => {
                let mut flow = Flow::Normal;
                loop {
                    let c = self.eval(cond, frame)?;
                    self.ops.loop_iters += 1;
                    self.charge_plain(self.params.loop_control);
                    self.bump_event()?;
                    if !c
                        .as_bool()
                        .ok_or_else(|| self.err_invalid(*line, "non-logical condition"))?
                    {
                        break;
                    }
                    match self.exec_body(body, frame)? {
                        Flow::Normal | Flow::CycleLoop => {}
                        Flow::ExitLoop => break,
                        other => {
                            flow = other;
                            break;
                        }
                    }
                    self.check_budget()?;
                }
                Ok(flow)
            }
            IStmt::CallSub { proc, args, .. } => {
                self.call_proc(*proc, args, frame)?;
                Ok(Flow::Normal)
            }
            IStmt::CallIntrinsicSub {
                f,
                name_arg,
                args,
                line,
            } => {
                self.exec_intrinsic_sub(*f, name_arg.as_deref(), args, frame, *line)?;
                Ok(Flow::Normal)
            }
            IStmt::Return => Ok(Flow::Return),
            IStmt::Exit => Ok(Flow::ExitLoop),
            IStmt::Cycle => Ok(Flow::CycleLoop),
            IStmt::Print { items, .. } => {
                let mut parts = Vec::with_capacity(items.len());
                for e in items {
                    let v = self.eval(e, frame)?;
                    parts.push(format_num(&v));
                }
                self.records.stdout.push(parts.join(" "));
                self.charge_plain(100.0);
                Ok(Flow::Normal)
            }
            IStmt::Stop { code, .. } => match code {
                None | Some(0) => Ok(Flow::Halt),
                Some(c) => Err(RunError::Stop { code: *c }.into()),
            },
            IStmt::Allocate { slot, dims, line } => {
                let bounds = self.eval_bounds(dims, frame, *line)?;
                let decl = self.slot_decl(*slot).clone();
                let arr = self.make_array(&decl, bounds, *line)?;
                self.put_slot(*slot, Slot::Array(Rc::new(RefCell::new(arr))), frame);
                Ok(Flow::Normal)
            }
            IStmt::Deallocate { slots, .. } => {
                for r in slots {
                    self.put_slot(*r, Slot::Unallocated, frame);
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn fold_top_loop(&mut self) {
        if let Some(ctx) = self.loop_stack.pop() {
            let (folded, _vectorized) = ctx.fold(&self.params);
            for (proc, cycles) in folded {
                self.proc_cycles[proc] += cycles;
                self.total += cycles;
            }
        }
    }

    fn exec_intrinsic_sub(
        &mut self,
        f: IntrinsicSub,
        name_arg: Option<&str>,
        args: &[IArg],
        frame: &mut Frame,
        line: u32,
    ) -> R<()> {
        match f {
            IntrinsicSub::ProseRecord => {
                let v = match &args[0] {
                    IArg::Value(e) => self.eval(e, frame)?,
                    _ => unreachable!("lowering guarantees a value arg"),
                };
                let x = v
                    .as_f64()
                    .ok_or_else(|| self.err_invalid(line, "prose_record of non-numeric"))?;
                let key = name_arg.unwrap_or("unnamed");
                if let Some(st) = &mut self.shadow {
                    st.records
                        .entry(key.to_string())
                        .or_default()
                        .update(x, self.sh_reg);
                }
                self.records
                    .scalars
                    .entry(key.to_string())
                    .or_default()
                    .push(x);
                Ok(())
            }
            IntrinsicSub::ProseRecordArray => {
                let handle = match &args[0] {
                    IArg::ArrayRef(r) => self.read_array_handle(*r, frame, line)?,
                    _ => unreachable!("lowering guarantees an array arg"),
                };
                let snap = handle.borrow().snapshot_f64();
                let key = name_arg.unwrap_or("unnamed");
                if self.sh_on {
                    let sh = handle.borrow().shadow.clone();
                    if let (Some(sh), Some(st)) = (sh, &mut self.shadow) {
                        let e = st.records.entry(key.to_string()).or_default();
                        for (p, s) in snap.iter().zip(&sh) {
                            e.update(*p, *s);
                        }
                    }
                }
                self.records
                    .arrays
                    .entry(key.to_string())
                    .or_default()
                    .push(snap);
                Ok(())
            }
            IntrinsicSub::MpiAllreduceSum | IntrinsicSub::MpiAllreduceMax => {
                // One logical rank: the collective is the identity on the
                // data but a fixed latency on the clock, independent of
                // precision (vendor reductions do not vectorize, [41]).
                let v = match &args[0] {
                    IArg::Value(e) => self.eval(e, frame)?,
                    _ => unreachable!(),
                };
                let out = match &args[1] {
                    IArg::ScalarRef(lv) => lv.clone(),
                    _ => unreachable!(),
                };
                self.mark_call();
                self.ops.allreduces += 1;
                self.charge_plain(self.params.allreduce);
                self.write_lvalue(&out, v, frame, line, true)?;
                Ok(())
            }
        }
    }

    // ---- lvalues and slots -----------------------------------------------

    fn slot_decl(&self, r: SlotRef) -> &'ir SlotDecl {
        let ir = self.ir;
        match r {
            SlotRef::Local(i) => &ir.procs[self.cur_proc()].slots[i],
            SlotRef::Global(i) => &ir.globals[i],
        }
    }

    fn put_slot(&mut self, r: SlotRef, v: Slot, frame: &mut Frame) {
        match r {
            SlotRef::Local(i) => frame[i] = v,
            SlotRef::Global(i) => self.globals[i] = v,
        }
    }

    fn get_slot<'a>(&'a self, r: SlotRef, frame: &'a Frame) -> &'a Slot {
        match r {
            SlotRef::Local(i) => &frame[i],
            SlotRef::Global(i) => &self.globals[i],
        }
    }

    fn read_array_handle(&self, r: SlotRef, frame: &Frame, line: u32) -> R<ArrayRef> {
        match self.get_slot(r, frame) {
            Slot::Array(h) => Ok(Rc::clone(h)),
            Slot::Unallocated => Err(RunError::Unallocated {
                proc: self.cur_proc_name(),
                line: self.at_line(line),
            }
            .into()),
            _ => Err(self.err_invalid(line, "expected an array")),
        }
    }

    fn store_int(&mut self, r: SlotRef, v: i64, frame: &mut Frame) {
        self.put_slot(r, Slot::Int(v), frame);
    }

    /// Store a scalar with Fortran assignment conversion (and cast charges).
    /// Under shadow execution the value's shadow must be in the register
    /// (i.e. no intervening `eval` since the value was produced).
    fn store_scalar(&mut self, r: SlotRef, v: Num, frame: &mut Frame, line: u32) -> R<()> {
        let decl_ty = self.slot_decl(r).ty;
        let slot = self.convert_with_charges(decl_ty, v, line)?;
        self.put_slot(r, slot, frame);
        self.store_scalar_shadow(r, frame);
        Ok(())
    }

    /// Convert a value for a slot, charging casts (assignment context).
    fn convert_with_charges(&mut self, ty: STy, v: Num, line: u32) -> R<Slot> {
        match (ty, v) {
            (STy::Fp(p), Num::Fp(f)) => {
                if f.precision() != p {
                    self.charge_cast();
                }
                let out = f.to_precision(p);
                self.check_finite(out, line, "store")?;
                Ok(Slot::Fp(out))
            }
            (STy::Fp(p), Num::Lit(x)) => {
                let out = Fp::from_f64(x, p);
                self.check_finite(out, line, "store")?;
                Ok(Slot::Fp(out))
            }
            (STy::Fp(p), Num::Int(i)) => {
                self.charge_plain(self.params.op_int);
                Ok(Slot::Fp(Fp::from_f64(i as f64, p)))
            }
            (STy::Int, Num::Int(i)) => Ok(Slot::Int(i)),
            (STy::Int, Num::Fp(f)) => {
                self.charge_cast();
                Ok(Slot::Int(f.as_f64().trunc() as i64))
            }
            (STy::Int, Num::Lit(x)) => Ok(Slot::Int(x.trunc() as i64)),
            (STy::Bool, Num::Bool(b)) => Ok(Slot::Bool(b)),
            (STy::Str, Num::Str(s)) => Ok(Slot::Str(s)),
            (ty, v) => {
                Err(self.err_invalid(line, format!("cannot assign {v:?} to a {ty:?} variable")))
            }
        }
    }

    /// Conversion without the cast accounting (argument copy-in uses the
    /// same rules but its cost is part of the call model).
    fn convert_to_slot(&mut self, decl: &SlotDecl, v: Num, line: u32) -> R<Slot> {
        // Precision-mismatched scalar argument association is invalid
        // Fortran; enforce for Fp-to-Fp pairs.
        if let (STy::Fp(p), Num::Fp(f)) = (decl.ty, &v) {
            if f.precision() != p {
                return Err(self.err_invalid(
                    line,
                    format!(
                        "argument kind mismatch on dummy `{}` (kind={} vs kind={}) — \
                         Fortran would not compile this; run the transformer to \
                         synthesize wrappers",
                        decl.name,
                        f.precision().kind(),
                        p.kind()
                    ),
                ));
            }
        }
        self.convert_with_charges(decl.ty, v, line)
    }

    fn check_finite(&mut self, f: Fp, line: u32, op: &'static str) -> R<()> {
        if f.is_finite() {
            Ok(())
        } else {
            Err(self.nonfinite_at(line, op))
        }
    }

    fn read_lvalue(&mut self, lv: &ILValue, frame: &mut Frame, line: u32) -> R<Num> {
        match lv {
            ILValue::Scalar(r) => {
                let v = slot_to_num(self.get_slot(*r, frame))
                    .ok_or_else(|| self.err_invalid(line, "scalar read of non-scalar slot"))?;
                if self.sh_on {
                    self.sh_reg = self.load_shadow(*r, frame);
                }
                Ok(v)
            }
            ILValue::Elem { slot, indices } => self.read_elem(*slot, indices, frame, line),
        }
    }

    /// Read one array element (`slot(indices)`), borrowing the subscripts.
    fn read_elem(
        &mut self,
        slot: SlotRef,
        indices: &[IExpr],
        frame: &mut Frame,
        line: u32,
    ) -> R<Num> {
        let subs = self.eval_subs(indices, frame, line)?;
        let arr = self.read_array_handle(slot, frame, line)?;
        let a = arr.borrow();
        let off = a
            .offset(subs.as_slice())
            .ok_or_else(|| RunError::OutOfBounds {
                proc: self.cur_proc_name(),
                line: self.at_line(line),
            })?;
        let v = match a.data.fp_precision() {
            Some(p) => {
                drop(a);
                self.charge_mem(p);
                let a = arr.borrow();
                if self.sh_on {
                    self.sh_reg = a.shadow_at(off);
                }
                Num::Fp(a.get_fp(off))
            }
            None => match &a.data {
                crate::value::ArrayData::Int(d) => {
                    if self.sh_on {
                        self.sh_reg = d[off] as f64;
                    }
                    Num::Int(d[off])
                }
                _ => return Err(self.err_invalid(line, "unsupported array read")),
            },
        };
        Ok(v)
    }

    /// Write a value through an lvalue. `charge` controls whether the write
    /// pays assignment-conversion costs (writebacks don't: they are part of
    /// the call model).
    fn write_lvalue(
        &mut self,
        lv: &ILValue,
        v: Num,
        frame: &mut Frame,
        line: u32,
        charge: bool,
    ) -> R<()> {
        // Hold the value's shadow across subscript evaluation.
        let vsh = self.sh_reg;
        match lv {
            ILValue::Scalar(r) => {
                if charge {
                    self.store_scalar(*r, v, frame, line)
                } else {
                    let ty = self.slot_decl(*r).ty;
                    let slot = match (ty, v) {
                        (STy::Fp(p), Num::Fp(f)) => Slot::Fp(f.to_precision(p)),
                        (STy::Fp(p), Num::Lit(x)) => Slot::Fp(Fp::from_f64(x, p)),
                        (STy::Fp(p), Num::Int(i)) => Slot::Fp(Fp::from_f64(i as f64, p)),
                        (STy::Int, Num::Int(i)) => Slot::Int(i),
                        (STy::Bool, Num::Bool(b)) => Slot::Bool(b),
                        (STy::Str, Num::Str(s)) => Slot::Str(s),
                        (ty, v) => {
                            return Err(self
                                .err_invalid(line, format!("cannot write back {v:?} into {ty:?}")))
                        }
                    };
                    self.put_slot(*r, slot, frame);
                    self.store_scalar_shadow(*r, frame);
                    Ok(())
                }
            }
            ILValue::Elem { slot, indices } => {
                let subs = self.eval_subs(indices, frame, line)?;
                let arr = self.read_array_handle(*slot, frame, line)?;
                let mut a = arr.borrow_mut();
                let off = a
                    .offset(subs.as_slice())
                    .ok_or_else(|| RunError::OutOfBounds {
                        proc: self.cur_proc_name(),
                        line: self.at_line(line),
                    })?;
                match a.data.fp_precision() {
                    Some(p) => {
                        drop(a);
                        let fv = self.num_to_fp(v, p, line)?;
                        let mut a = arr.borrow_mut();
                        a.set_fp(off, fv);
                        a.shadow_set(off, vsh);
                        let prim = fv.as_f64();
                        drop(a);
                        if self.sh_on {
                            self.note_var(*slot, prim, vsh);
                        }
                        if charge {
                            self.charge_mem(p);
                        }
                    }
                    None => {
                        let iv = v
                            .as_int()
                            .ok_or_else(|| self.err_invalid(line, "non-integer element write"))?;
                        if let crate::value::ArrayData::Int(d) = &mut a.data {
                            d[off] = iv;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Convert a Num to an Fp at precision `p` for an array-element store,
    /// charging a converting store when precisions differ.
    fn num_to_fp(&mut self, v: Num, p: FpPrecision, line: u32) -> R<Fp> {
        let out = match v {
            Num::Fp(f) => {
                if f.precision() != p {
                    self.charge_cast_store();
                }
                f.to_precision(p)
            }
            Num::Lit(x) => Fp::from_f64(x, p),
            Num::Int(i) => {
                self.charge_plain(self.params.op_int);
                Fp::from_f64(i as f64, p)
            }
            other => return Err(self.err_invalid(line, format!("expected real, got {other:?}"))),
        };
        self.check_finite(out, line, "elem-store")?;
        Ok(out)
    }

    fn eval_subs(&mut self, indices: &[IExpr], frame: &mut Frame, line: u32) -> R<Subs> {
        if indices.len() > MAX_RANK {
            let v = indices
                .iter()
                .map(|e| self.eval_int(e, frame, line))
                .collect::<R<Vec<i64>>>()?;
            return Ok(Subs::Heap(v));
        }
        let mut buf = [0i64; MAX_RANK];
        for (b, e) in buf.iter_mut().zip(indices) {
            *b = self.eval_int(e, frame, line)?;
        }
        Ok(Subs::Inline(buf, indices.len()))
    }

    fn eval_int(&mut self, e: &IExpr, frame: &mut Frame, line: u32) -> R<i64> {
        let v = self.eval(e, frame)?;
        match v {
            Num::Int(i) => Ok(i),
            Num::Lit(x) => Ok(x.trunc() as i64),
            Num::Fp(f) => Ok(f.as_f64().trunc() as i64),
            other => Err(self.err_invalid(line, format!("expected integer, got {other:?}"))),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn eval(&mut self, e: &IExpr, frame: &mut Frame) -> R<Num> {
        match e {
            IExpr::RealLit(v) => {
                self.sh_reg = *v;
                Ok(Num::Lit(*v))
            }
            IExpr::IntLit(v) => {
                self.sh_reg = *v as f64;
                Ok(Num::Int(*v))
            }
            IExpr::BoolLit(b) => {
                self.sh_reg = f64::from(u8::from(*b));
                Ok(Num::Bool(*b))
            }
            IExpr::StrLit(s) => {
                self.sh_reg = 0.0;
                Ok(Num::Str(s.clone()))
            }
            IExpr::LoadScalar(r) => {
                if self.sh_on {
                    self.sh_reg = self.load_shadow(*r, frame);
                }
                slot_to_num(self.get_slot(*r, frame))
                    .ok_or_else(|| self.err_invalid(0, "scalar read of array or unallocated slot"))
            }
            IExpr::LoadElem { slot, indices } => self.read_elem(*slot, indices, frame, 0),
            IExpr::CallFun { proc, args } => {
                let v = self.call_proc(*proc, args, frame)?;
                v.ok_or_else(|| self.err_invalid(0, "subroutine used as function"))
            }
            IExpr::Intrinsic { f, args } => self.eval_intrinsic(*f, args, frame),
            IExpr::SizeOf { slot, dim } => {
                let arr = self.read_array_handle(*slot, frame, 0)?;
                let n = match dim {
                    Some(d) => {
                        let di = self.eval_int(d, frame, 0)?;
                        let a = arr.borrow();
                        if di < 1 || di as usize > a.rank() {
                            return Err(self.err_invalid(0, "size() dim out of range"));
                        }
                        a.extent(di as usize)
                    }
                    None => arr.borrow().len() as i64,
                };
                self.sh_reg = n as f64;
                Ok(Num::Int(n))
            }
            IExpr::Reduce { f, slot } => {
                let arr = self.read_array_handle(*slot, frame, 0)?;
                let a = arr.borrow();
                let p = a
                    .data
                    .fp_precision()
                    .ok_or_else(|| self.err_invalid(0, "reduction over non-real array"))?;
                let n = a.len() as f64;
                // Reductions vectorize: charge at SIMD rate directly.
                let cost =
                    n * (self.params.op_basic + self.params.mem_cost(p)) / self.params.lanes(p);
                let out = match (&a.data, f) {
                    (crate::value::ArrayData::F32(d), IntrinsicFn::Sum) => Fp::F32(d.iter().sum()),
                    (crate::value::ArrayData::F64(d), IntrinsicFn::Sum) => Fp::F64(d.iter().sum()),
                    (crate::value::ArrayData::F32(d), IntrinsicFn::Maxval) => {
                        Fp::F32(d.iter().copied().fold(f32::NEG_INFINITY, f32::max))
                    }
                    (crate::value::ArrayData::F64(d), IntrinsicFn::Maxval) => {
                        Fp::F64(d.iter().copied().fold(f64::NEG_INFINITY, f64::max))
                    }
                    (crate::value::ArrayData::F32(d), IntrinsicFn::Minval) => {
                        Fp::F32(d.iter().copied().fold(f32::INFINITY, f32::min))
                    }
                    (crate::value::ArrayData::F64(d), IntrinsicFn::Minval) => {
                        Fp::F64(d.iter().copied().fold(f64::INFINITY, f64::min))
                    }
                    _ => return Err(self.err_invalid(0, "unsupported reduction")),
                };
                let sh = if self.sh_on {
                    match (&a.shadow, f) {
                        (Some(s), IntrinsicFn::Sum) => s.iter().sum(),
                        (Some(s), IntrinsicFn::Maxval) => {
                            s.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                        }
                        (Some(s), IntrinsicFn::Minval) => {
                            s.iter().copied().fold(f64::INFINITY, f64::min)
                        }
                        _ => out.as_f64(),
                    }
                } else {
                    0.0
                };
                drop(a);
                self.charge_tagged(p, cost);
                self.check_finite(out, 0, "reduce")?;
                self.sh_reg = sh;
                Ok(Num::Fp(out))
            }
            IExpr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs, frame)?;
                let ash = self.sh_reg;
                let b = self.eval(rhs, frame)?;
                let bsh = self.sh_reg;
                let (pa, pb) = if self.sh_on {
                    (a.as_f64(), b.as_f64())
                } else {
                    (None, None)
                };
                let r = self.binop(*op, a, b, 0)?;
                if self.sh_on {
                    self.shadow_bin(*op, pa, pb, ash, bsh, &r);
                }
                Ok(r)
            }
            IExpr::Un { op, operand } => {
                let v = self.eval(operand, frame)?;
                match op {
                    UnOp::Not => {
                        let b = v
                            .as_bool()
                            .ok_or_else(|| self.err_invalid(0, ".not. of non-logical"))?;
                        self.sh_reg = f64::from(u8::from(!b));
                        Ok(Num::Bool(!b))
                    }
                    UnOp::Plus => Ok(v),
                    UnOp::Neg => match v {
                        Num::Int(i) => {
                            self.charge_plain(self.params.op_int);
                            self.sh_reg = -(i as f64);
                            Ok(Num::Int(-i))
                        }
                        Num::Lit(x) => {
                            self.sh_reg = -self.sh_reg;
                            Ok(Num::Lit(-x))
                        }
                        Num::Fp(f) => {
                            self.charge_op(OpClass::Basic, f.precision());
                            self.sh_reg = -self.sh_reg;
                            Ok(Num::Fp(match f {
                                Fp::F32(x) => Fp::F32(-x),
                                Fp::F64(x) => Fp::F64(-x),
                            }))
                        }
                        other => Err(self.err_invalid(0, format!("negation of {other:?}"))),
                    },
                }
            }
        }
    }

    /// Promote a pair of numeric operands and report the working precision.
    /// Charges (and flags) a conversion when two concrete FP precisions mix.
    fn promote_pair(&mut self, a: Num, b: Num, line: u32) -> R<PromotedPair> {
        use Num::*;
        Ok(match (a, b) {
            (Int(x), Int(y)) => PromotedPair::Int(x, y),
            (Int(x), Lit(y)) => {
                // A literal combined with a runtime integer is real work
                // (the literal is kind-generic but the int varies): charge
                // the conversion; the operator itself is charged by the
                // caller through the LitWork marker.
                self.charge_plain(self.params.op_int);
                PromotedPair::LitWork(x as f64, y)
            }
            (Lit(x), Int(y)) => {
                self.charge_plain(self.params.op_int);
                PromotedPair::LitWork(x, y as f64)
            }
            (Lit(x), Lit(y)) => PromotedPair::Lit(x, y),
            (Fp(f), Int(y)) => {
                self.charge_plain(self.params.op_int);
                match f {
                    crate::value::Fp::F32(x) => PromotedPair::F32(x, y as f32),
                    crate::value::Fp::F64(x) => PromotedPair::F64(x, y as f64),
                }
            }
            (Int(x), Fp(f)) => {
                self.charge_plain(self.params.op_int);
                match f {
                    crate::value::Fp::F32(y) => PromotedPair::F32(x as f32, y),
                    crate::value::Fp::F64(y) => PromotedPair::F64(x as f64, y),
                }
            }
            (Fp(f), Lit(y)) => match f {
                crate::value::Fp::F32(x) => PromotedPair::F32(x, y as f32),
                crate::value::Fp::F64(x) => PromotedPair::F64(x, y),
            },
            (Lit(x), Fp(f)) => match f {
                crate::value::Fp::F32(y) => PromotedPair::F32(x as f32, y),
                crate::value::Fp::F64(y) => PromotedPair::F64(x, y),
            },
            (Fp(fa), Fp(fb)) => {
                match (fa, fb) {
                    (crate::value::Fp::F32(x), crate::value::Fp::F32(y)) => PromotedPair::F32(x, y),
                    (crate::value::Fp::F64(x), crate::value::Fp::F64(y)) => PromotedPair::F64(x, y),
                    // Mixed: the conversion instruction the whole paper is
                    // about.
                    (crate::value::Fp::F32(x), crate::value::Fp::F64(y)) => {
                        self.charge_cast();
                        PromotedPair::F64(x as f64, y)
                    }
                    (crate::value::Fp::F64(x), crate::value::Fp::F32(y)) => {
                        self.charge_cast();
                        PromotedPair::F64(x, y as f64)
                    }
                }
            }
            (a, b) => {
                return Err(self.err_invalid(line, format!("non-numeric operands {a:?}, {b:?}")))
            }
        })
    }

    fn binop(&mut self, op: BinOp, a: Num, b: Num, line: u32) -> R<Num> {
        if op.is_logical() {
            let (x, y) = (
                a.as_bool()
                    .ok_or_else(|| self.err_invalid(line, "non-logical operand"))?,
                b.as_bool()
                    .ok_or_else(|| self.err_invalid(line, "non-logical operand"))?,
            );
            return Ok(Num::Bool(match op {
                BinOp::And => x && y,
                BinOp::Or => x || y,
                _ => unreachable!(),
            }));
        }
        let pair = self.promote_pair(a, b, line)?;
        if op.is_comparison() {
            let r = match pair {
                PromotedPair::Int(x, y) => {
                    self.charge_plain(self.params.op_int);
                    compare(op, x as f64, y as f64)
                }
                PromotedPair::Lit(x, y) => compare(op, x, y),
                PromotedPair::LitWork(x, y) => {
                    self.charge_op(OpClass::Basic, FpPrecision::Double);
                    compare(op, x, y)
                }
                PromotedPair::F32(x, y) => {
                    self.charge_op(OpClass::Basic, FpPrecision::Single);
                    compare(op, x as f64, y as f64)
                }
                PromotedPair::F64(x, y) => {
                    self.charge_op(OpClass::Basic, FpPrecision::Double);
                    compare(op, x, y)
                }
            };
            return Ok(Num::Bool(r));
        }
        // Arithmetic.
        match pair {
            PromotedPair::Int(x, y) => {
                self.charge_plain(self.params.op_int);
                let r = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(RunError::DivByZero {
                                proc: self.cur_proc_name(),
                                line,
                            }
                            .into());
                        }
                        x / y
                    }
                    BinOp::Pow => int_pow(x, y),
                    _ => unreachable!(),
                };
                Ok(Num::Int(r))
            }
            PromotedPair::Lit(x, y) => {
                // Pure-literal arithmetic: compile-time folded; no charge.
                let r = apply_f64(op, x, y);
                if !r.is_finite() {
                    return Err(self.nonfinite_at(line, "arith"));
                }
                Ok(Num::Lit(r))
            }
            PromotedPair::LitWork(x, y) => {
                self.charge_op(op_class(op), FpPrecision::Double);
                let r = apply_f64(op, x, y);
                if !r.is_finite() {
                    return Err(self.nonfinite_at(line, "arith"));
                }
                Ok(Num::Lit(r))
            }
            PromotedPair::F32(x, y) => {
                self.charge_op(op_class(op), FpPrecision::Single);
                let r = apply_f32(op, x, y);
                let out = Fp::F32(r);
                self.check_finite(out, line, "arith")?;
                Ok(Num::Fp(out))
            }
            PromotedPair::F64(x, y) => {
                self.charge_op(op_class(op), FpPrecision::Double);
                let r = apply_f64(op, x, y);
                let out = Fp::F64(r);
                self.check_finite(out, line, "arith")?;
                Ok(Num::Fp(out))
            }
        }
    }

    fn eval_intrinsic(&mut self, f: IntrinsicFn, args: &[IExpr], frame: &mut Frame) -> R<Num> {
        // Argument buffers come from a pool (one pair per nesting level), so
        // a warm run allocates nothing here.
        let mut vals = self.arg_pool.pop().unwrap_or_default();
        let mut shs = self.sh_pool.pop().unwrap_or_default();
        let r = self.eval_intrinsic_in(f, args, frame, &mut vals, &mut shs);
        vals.clear();
        shs.clear();
        self.arg_pool.push(vals);
        self.sh_pool.push(shs);
        r
    }

    fn eval_intrinsic_in(
        &mut self,
        f: IntrinsicFn,
        args: &[IExpr],
        frame: &mut Frame,
        vals: &mut Vec<Num>,
        shs: &mut Vec<f64>,
    ) -> R<Num> {
        use IntrinsicFn::*;
        // Evaluate arguments first, capturing each one's shadow as it lands
        // in the register (the next eval overwrites it).
        for a in args {
            vals.push(self.eval(a, frame)?);
            shs.push(self.sh_reg);
        }
        let prec_of = |v: &Num| v.fp_precision().unwrap_or(FpPrecision::Double);
        match f {
            Abs => {
                let v = vals.pop().unwrap();
                self.sh_reg = shs.pop().unwrap().abs();
                match v {
                    Num::Int(i) => {
                        self.charge_plain(self.params.op_int);
                        Ok(Num::Int(i.abs()))
                    }
                    Num::Lit(x) => Ok(Num::Lit(x.abs())),
                    Num::Fp(Fp::F32(x)) => {
                        self.charge_op(OpClass::Basic, FpPrecision::Single);
                        Ok(Num::Fp(Fp::F32(x.abs())))
                    }
                    Num::Fp(Fp::F64(x)) => {
                        self.charge_op(OpClass::Basic, FpPrecision::Double);
                        Ok(Num::Fp(Fp::F64(x.abs())))
                    }
                    other => Err(self.err_invalid(0, format!("abs of {other:?}"))),
                }
            }
            Sqrt => self.unary_math(vals.pop().unwrap(), OpClass::Sqrt, f32::sqrt, f64::sqrt),
            Exp => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::exp,
                f64::exp,
            ),
            Log => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::ln,
                f64::ln,
            ),
            Log10 => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::log10,
                f64::log10,
            ),
            Sin => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::sin,
                f64::sin,
            ),
            Cos => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::cos,
                f64::cos,
            ),
            Tan => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::tan,
                f64::tan,
            ),
            Atan => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::atan,
                f64::atan,
            ),
            Tanh => self.unary_math(
                vals.pop().unwrap(),
                OpClass::Transcendental,
                f32::tanh,
                f64::tanh,
            ),
            Atan2 => {
                let b = vals.pop().unwrap();
                let a = vals.pop().unwrap();
                let (bsh, ash) = (shs.pop().unwrap(), shs.pop().unwrap());
                let pair = self.promote_pair(a, b, 0)?;
                self.charge_op(OpClass::Transcendental, pair.precision());
                pair.apply(self, f32::atan2, f64::atan2, 0, ash, bsh)
            }
            Mod => {
                let b = vals.pop().unwrap();
                let a = vals.pop().unwrap();
                let (bsh, ash) = (shs.pop().unwrap(), shs.pop().unwrap());
                match (&a, &b) {
                    (Num::Int(x), Num::Int(y)) => {
                        if *y == 0 {
                            return Err(RunError::DivByZero {
                                proc: self.cur_proc_name(),
                                line: 0,
                            }
                            .into());
                        }
                        self.charge_plain(self.params.op_int);
                        self.sh_reg = (x % y) as f64;
                        Ok(Num::Int(x % y))
                    }
                    _ => {
                        let pair = self.promote_pair(a, b, 0)?;
                        self.charge_op(OpClass::Div, pair.precision());
                        pair.apply(self, |x, y| x % y, |x, y| x % y, 0, ash, bsh)
                    }
                }
            }
            Sign => {
                let b = vals.pop().unwrap();
                let a = vals.pop().unwrap();
                let (bsh, ash) = (shs.pop().unwrap(), shs.pop().unwrap());
                let pair = self.promote_pair(a, b, 0)?;
                self.charge_op(OpClass::Basic, pair.precision());
                pair.apply(
                    self,
                    |x, y| x.abs().copysign(y),
                    |x, y| x.abs().copysign(y),
                    0,
                    ash,
                    bsh,
                )
            }
            Max | Min => {
                let mut acc = vals[0].clone();
                let mut sacc = shs[0];
                for (v, sv) in vals.drain(..).zip(shs.drain(..)).skip(1) {
                    let pair = self.promote_pair(acc, v, 0)?;
                    self.charge_op(OpClass::Basic, pair.precision());
                    acc = match (f, pair) {
                        (Max, PromotedPair::Int(x, y)) => Num::Int(x.max(y)),
                        (Min, PromotedPair::Int(x, y)) => Num::Int(x.min(y)),
                        (Max, PromotedPair::Lit(x, y)) => Num::Lit(x.max(y)),
                        (Min, PromotedPair::Lit(x, y)) => Num::Lit(x.min(y)),
                        (Max, PromotedPair::F32(x, y)) => Num::Fp(Fp::F32(x.max(y))),
                        (Min, PromotedPair::F32(x, y)) => Num::Fp(Fp::F32(x.min(y))),
                        (Max, PromotedPair::F64(x, y)) => Num::Fp(Fp::F64(x.max(y))),
                        (Min, PromotedPair::F64(x, y)) => Num::Fp(Fp::F64(x.min(y))),
                        _ => unreachable!(),
                    };
                    sacc = match f {
                        Max => sacc.max(sv),
                        Min => sacc.min(sv),
                        _ => unreachable!(),
                    };
                }
                self.sh_reg = match &acc {
                    Num::Int(i) => *i as f64,
                    _ => sacc,
                };
                Ok(acc)
            }
            Real(k) => {
                let v = vals.pop().unwrap();
                let target = k.unwrap_or(FpPrecision::Single);
                self.explicit_convert(v, target)
            }
            Dble => {
                let v = vals.pop().unwrap();
                self.explicit_convert(v, FpPrecision::Double)
            }
            Sngl => {
                let v = vals.pop().unwrap();
                self.explicit_convert(v, FpPrecision::Single)
            }
            Int => {
                let v = vals.pop().unwrap();
                self.charge_plain(self.params.op_basic);
                let r = match v {
                    Num::Int(i) => i,
                    Num::Lit(x) => x.trunc() as i64,
                    Num::Fp(fv) => fv.as_f64().trunc() as i64,
                    other => return Err(self.err_invalid(0, format!("int() of {other:?}"))),
                };
                self.sh_reg = r as f64;
                Ok(Num::Int(r))
            }
            Nint => {
                let v = vals.pop().unwrap();
                self.charge_plain(self.params.op_basic);
                let x = v
                    .as_f64()
                    .ok_or_else(|| self.err_invalid(0, "nint() of non-numeric"))?;
                let r = x.round() as i64;
                self.sh_reg = r as f64;
                Ok(Num::Int(r))
            }
            Floor => {
                let v = vals.pop().unwrap();
                self.charge_plain(self.params.op_basic);
                let x = v
                    .as_f64()
                    .ok_or_else(|| self.err_invalid(0, "floor() of non-numeric"))?;
                let r = x.floor() as i64;
                self.sh_reg = r as f64;
                Ok(Num::Int(r))
            }
            Epsilon => {
                // Environment-inquiry intrinsics report the *variant's*
                // precision: the shadow snaps to the primary value.
                let out = match prec_of(&vals[0]) {
                    FpPrecision::Single => Fp::F32(f32::EPSILON),
                    FpPrecision::Double => Fp::F64(f64::EPSILON),
                };
                self.sh_reg = out.as_f64();
                Ok(Num::Fp(out))
            }
            Huge => {
                let out = match prec_of(&vals[0]) {
                    FpPrecision::Single => Fp::F32(f32::MAX),
                    FpPrecision::Double => Fp::F64(f64::MAX),
                };
                self.sh_reg = out.as_f64();
                Ok(Num::Fp(out))
            }
            Tiny => {
                let out = match prec_of(&vals[0]) {
                    FpPrecision::Single => Fp::F32(f32::MIN_POSITIVE),
                    FpPrecision::Double => Fp::F64(f64::MIN_POSITIVE),
                };
                self.sh_reg = out.as_f64();
                Ok(Num::Fp(out))
            }
            Isnan => {
                let v = vals.pop().unwrap();
                let b = match v {
                    Num::Fp(fv) => fv.is_nan(),
                    Num::Lit(x) => x.is_nan(),
                    _ => false,
                };
                self.sh_reg = f64::from(u8::from(b));
                Ok(Num::Bool(b))
            }
            Sum | Maxval | Minval | Size => {
                unreachable!("lowered to Reduce/SizeOf nodes")
            }
        }
    }

    fn unary_math(
        &mut self,
        v: Num,
        class: OpClass,
        f32f: fn(f32) -> f32,
        f64f: fn(f64) -> f64,
    ) -> R<Num> {
        // Single-argument intrinsic: the operand's shadow is still in the
        // register; replay the op on it in f64.
        if self.sh_on {
            self.sh_reg = f64f(self.sh_reg);
        }
        match v {
            Num::Lit(x) => {
                self.charge_op(class, FpPrecision::Double);
                let r = f64f(x);
                if !r.is_finite() {
                    return Err(self.nonfinite_at(0, "math"));
                }
                Ok(Num::Lit(r))
            }
            Num::Int(i) => {
                self.charge_op(class, FpPrecision::Double);
                let r = f64f(i as f64);
                let out = Fp::F64(r);
                self.check_finite(out, 0, "math")?;
                Ok(Num::Fp(out))
            }
            Num::Fp(Fp::F32(x)) => {
                self.charge_op(class, FpPrecision::Single);
                let out = Fp::F32(f32f(x));
                self.check_finite(out, 0, "math")?;
                Ok(Num::Fp(out))
            }
            Num::Fp(Fp::F64(x)) => {
                self.charge_op(class, FpPrecision::Double);
                let out = Fp::F64(f64f(x));
                self.check_finite(out, 0, "math")?;
                Ok(Num::Fp(out))
            }
            other => Err(self.err_invalid(0, format!("math intrinsic of {other:?}"))),
        }
    }

    /// Explicit conversion intrinsics (`real`, `dble`, `sngl`): a real
    /// conversion instruction, charged as a cast when it changes a concrete
    /// precision.
    fn explicit_convert(&mut self, v: Num, target: FpPrecision) -> R<Num> {
        let out = match v {
            Num::Int(i) => {
                self.charge_plain(self.params.op_int);
                Fp::from_f64(i as f64, target)
            }
            Num::Lit(x) => Fp::from_f64(x, target),
            Num::Fp(f) => {
                if f.precision() != target {
                    self.charge_cast();
                }
                f.to_precision(target)
            }
            other => return Err(self.err_invalid(0, format!("conversion of {other:?}"))),
        };
        self.check_finite(out, 0, "convert")?;
        Ok(Num::Fp(out))
    }
}

/// Operand pair after promotion.
enum PromotedPair {
    Int(i64, i64),
    /// Both operands compile-time constants: foldable, free.
    Lit(f64, f64),
    /// Kind-generic value involving a runtime integer: real work at f64
    /// rate, but the result stays kind-generic.
    LitWork(f64, f64),
    F32(f32, f32),
    F64(f64, f64),
}

impl PromotedPair {
    fn precision(&self) -> FpPrecision {
        match self {
            PromotedPair::F32(..) => FpPrecision::Single,
            _ => FpPrecision::Double,
        }
    }

    fn apply(
        self,
        m: &mut Machine<'_>,
        f32f: fn(f32, f32) -> f32,
        f64f: fn(f64, f64) -> f64,
        line: u32,
        ash: f64,
        bsh: f64,
    ) -> R<Num> {
        let out = match self {
            PromotedPair::Int(x, y) => Num::Int(f64f(x as f64, y as f64) as i64),
            PromotedPair::Lit(x, y) | PromotedPair::LitWork(x, y) => Num::Lit(f64f(x, y)),
            PromotedPair::F32(x, y) => Num::Fp(Fp::F32(f32f(x, y))),
            PromotedPair::F64(x, y) => Num::Fp(Fp::F64(f64f(x, y))),
        };
        if m.sh_on {
            m.sh_reg = match &out {
                Num::Int(i) => *i as f64,
                _ => f64f(ash, bsh),
            };
        }
        if let Num::Fp(f) = &out {
            if !f.is_finite() {
                return Err(m.nonfinite_at(line, "math"));
            }
        }
        Ok(out)
    }
}

/// The source line a statement carries, if any.
fn stmt_line(s: &IStmt) -> Option<u32> {
    match s {
        IStmt::AssignScalar { line, .. }
        | IStmt::AssignElem { line, .. }
        | IStmt::AssignBroadcast { line, .. }
        | IStmt::AssignArrayCopy { line, .. }
        | IStmt::If { line, .. }
        | IStmt::Do { line, .. }
        | IStmt::DoWhile { line, .. }
        | IStmt::CallSub { line, .. }
        | IStmt::CallIntrinsicSub { line, .. }
        | IStmt::Print { line, .. }
        | IStmt::Stop { line, .. }
        | IStmt::Allocate { line, .. }
        | IStmt::Deallocate { line, .. } => Some(*line),
        _ => None,
    }
}

fn default_slot(d: &SlotDecl) -> Slot {
    if d.dims.is_some() {
        Slot::Unallocated
    } else {
        match d.ty {
            STy::Fp(p) => Slot::Fp(Fp::zero(p)),
            STy::Int => Slot::Int(0),
            STy::Bool => Slot::Bool(false),
            STy::Str => Slot::Str(Arc::from("")),
        }
    }
}

fn slot_to_num(s: &Slot) -> Option<Num> {
    match s {
        Slot::Int(i) => Some(Num::Int(*i)),
        Slot::Fp(f) => Some(Num::Fp(*f)),
        Slot::Bool(b) => Some(Num::Bool(*b)),
        Slot::Str(s) => Some(Num::Str(s.clone())),
        _ => None,
    }
}
