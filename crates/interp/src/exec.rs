//! The register executor: runs a [`Compiled`] program.
//!
//! One window of typed register planes per active procedure (plus the
//! global window at the bottom of every plane); frames are pushed and
//! popped by resizing the planes, so a call allocates nothing once the
//! planes have grown. Each op is monomorphic over its operands' kinds, which
//! the compiler fixed. Shadow execution is the `SH` const parameter: the
//! shadow planes (one f64 shadow per f64 and f32 register) and all shadow
//! bookkeeping compile away when it is off.
//!
//! The cost-model machinery — charge buckets per candidate-vectorizable
//! loop, per-procedure cycles, events, the budget, the deadline and fault
//! injection — replicates the tree walker ([`crate::oracle`]) step for step.

use crate::arith::{apply_f32, apply_f64, compare, int_arith};
use crate::compile::{CProc, Compiled, Cv, ErrSpec, Msg, Op, Red, Sub, Win, AK, GLOBAL_BIT, K, V};
use crate::cost::LoopCtx;
use crate::run::{
    OpCounts, RunConfig, RunError, RunOutcome, RunRecords, ShadowRun, DEADLINE_CHECK_INTERVAL,
};
use crate::shadow::{ShadowState, GLOBAL_SCOPE};
use crate::timers::Timers;
use crate::value::{ArrayData as AData, ArrayRef as ARef, ArrayVal as Arr, Fp, Num};
use prose_fortran::ast::BinOp;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

type E = Box<RunError>;
type R<T> = Result<T, E>;

/// Plane indices (match the compiler's).
const F: usize = 0;
const G: usize = 1;
const I: usize = 2;
const S: usize = 3;
const A: usize = 4;

/// The walker's recursion guard.
const MAX_DEPTH: usize = 64;

/// One callee window: plane bases, and whether the callee halted.
#[derive(Clone, Copy)]
struct Frame {
    b: [usize; 5],
    halt: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Halt,
}

struct Vm<'c, const SH: bool> {
    c: &'c Compiled,
    f: Vec<f64>,
    g: Vec<f32>,
    i: Vec<i64>,
    s: Vec<Arc<str>>,
    a: Vec<Option<ARef>>,
    hf: Vec<f64>,
    hg: Vec<f64>,
    /// Current window's plane bases.
    w: [usize; 5],
    calls: Vec<Frame>,
    empty: Arc<str>,
    /// Active procedures (the walker's proc stack).
    procs: Vec<usize>,
    /// The procedure charges are attributed to.
    cur: usize,
    loops: Vec<LoopCtx>,
    spare: Vec<LoopCtx>,
    proc_cycles: Vec<f64>,
    proc_calls: Vec<u64>,
    total: f64,
    budget: f64,
    max_events: u64,
    events: u64,
    /// Next event count at which `bump` must take its slow path.
    next_slow: u64,
    fault: Option<prose_faults::InjectedFault>,
    deadline_at: Option<std::time::Instant>,
    deadline_ms: u64,
    cur_line: u32,
    ops: OpCounts,
    records: RunRecords,
    shadow: Option<Box<ShadowState>>,
    print: Vec<String>,
}

/// Run a compiled program under `cfg` (budget, event limit, deadline,
/// fault); see [`crate::run_compiled`].
pub(crate) fn execute(c: &Compiled, cfg: &RunConfig) -> ShadowRun {
    if c.shadow {
        Vm::<true>::new(c, cfg).go()
    } else {
        Vm::<false>::new(c, cfg).go()
    }
}

impl<'c, const SH: bool> Vm<'c, SH> {
    fn new(c: &'c Compiled, cfg: &RunConfig) -> Self {
        let nprocs = c.procs.len();
        let mut vm = Vm {
            c,
            f: Vec::new(),
            g: Vec::new(),
            i: Vec::new(),
            s: Vec::new(),
            a: Vec::new(),
            hf: Vec::new(),
            hg: Vec::new(),
            w: [0; 5],
            calls: Vec::new(),
            empty: Arc::from(""),
            procs: Vec::new(),
            cur: c.main,
            loops: Vec::new(),
            spare: Vec::new(),
            proc_cycles: vec![0.0; nprocs],
            proc_calls: vec![0; nprocs],
            total: 0.0,
            budget: cfg.budget.unwrap_or(f64::INFINITY),
            max_events: cfg.max_events,
            events: 0,
            next_slow: 0,
            fault: cfg.fault.clone(),
            deadline_at: None,
            deadline_ms: 0,
            cur_line: 0,
            ops: OpCounts::default(),
            records: RunRecords::default(),
            shadow: SH.then(Box::default),
            print: Vec::new(),
        };
        if let Some(d) = cfg.deadline {
            vm.deadline_at = Some(std::time::Instant::now() + d);
            vm.deadline_ms = d.as_millis() as u64;
        }
        vm.next_slow = vm.slow_point();
        vm
    }

    fn go(mut self) -> ShadowRun {
        if let Err(e) = self.run() {
            let report = self.report();
            return (Err(*e), report);
        }
        let report = self.report();
        let mut timers = Timers::new();
        for (p, name) in self.c.proc_names.iter().enumerate() {
            if self.proc_calls[p] > 0 || self.proc_cycles[p] > 0.0 {
                timers.charge(name, self.proc_cycles[p]);
                timers.add_calls(name, self.proc_calls[p]);
            }
        }
        (
            Ok(RunOutcome {
                timers,
                records: self.records,
                total_cycles: self.total,
                events: self.events,
                ops: self.ops,
                lower_ns: 0,
                exec_ns: 0,
            }),
            report,
        )
    }

    fn report(&self) -> Option<crate::shadow::ShadowReport> {
        let st = self.shadow.as_ref()?;
        let c = self.c;
        Some(st.report(|scope, slot| {
            if scope == GLOBAL_SCOPE {
                format!("@global::{}", c.global_names[slot])
            } else {
                format!("{}::{}", c.proc_names[scope], c.slot_names[scope][slot])
            }
        }))
    }

    /// Initialize globals, run the main program, and fire a fault still
    /// armed at termination.
    fn run(&mut self) -> R<()> {
        let c = self.c;
        self.push_window(&c.globals.n);
        self.w = self.push_window(&c.init.layout.n);
        self.exec(&c.init)?;
        let result = match self.call_main() {
            Ok(()) => Ok(()),
            // `stop` / `stop 0` unwinds as a sentinel: clean termination.
            // The walker folds each open candidate loop as the sentinel
            // passes through it, innermost first.
            Err(e) if *e == RunError::Stop { code: 0 } => {
                while !self.loops.is_empty() {
                    self.fold_top();
                }
                Ok(())
            }
            Err(e) => Err(e),
        };
        self.procs.clear();
        if result.is_ok() && self.fault.is_some() {
            return Err(self.fire_fault());
        }
        result
    }

    fn call_main(&mut self) -> R<()> {
        let main = self.c.main;
        self.call_begin(main)?;
        if self.invoke(main)? == Flow::Halt {
            return Err(RunError::Stop { code: 0 }.into());
        }
        Ok(())
    }

    // ---- windows -----------------------------------------------------------

    /// Push a zero-initialized window; returns its bases.
    fn push_window(&mut self, n: &[u32; 5]) -> [usize; 5] {
        let b = [
            self.f.len(),
            self.g.len(),
            self.i.len(),
            self.s.len(),
            self.a.len(),
        ];
        self.f.resize(b[F] + n[F] as usize, 0.0);
        self.g.resize(b[G] + n[G] as usize, 0.0);
        self.i.resize(b[I] + n[I] as usize, 0);
        if n[S] > 0 {
            self.s.resize(b[S] + n[S] as usize, Arc::clone(&self.empty));
        }
        if n[A] > 0 {
            self.a.resize_with(b[A] + n[A] as usize, || None);
        }
        if SH {
            self.hf.resize(b[F] + n[F] as usize, 0.0);
            self.hg.resize(b[G] + n[G] as usize, 0.0);
        }
        b
    }

    fn pop_window(&mut self, b: &[usize; 5]) {
        self.f.truncate(b[F]);
        self.g.truncate(b[G]);
        self.i.truncate(b[I]);
        self.s.truncate(b[S]);
        self.a.truncate(b[A]);
        if SH {
            self.hf.truncate(b[F]);
            self.hg.truncate(b[G]);
        }
    }

    fn callee(&self) -> [usize; 5] {
        self.calls.last().expect("a pending call").b
    }

    // ---- register access -----------------------------------------------------

    #[inline(always)]
    fn fr(&self, r: u32) -> f64 {
        self.f[self.w[F] + r as usize]
    }

    #[inline(always)]
    fn gr(&self, r: u32) -> f32 {
        self.g[self.w[G] + r as usize]
    }

    #[inline(always)]
    fn ir(&self, r: u32) -> i64 {
        self.i[self.w[I] + r as usize]
    }

    #[inline(always)]
    fn set_f(&mut self, r: u32, v: f64) {
        let x = self.w[F] + r as usize;
        self.f[x] = v;
    }

    #[inline(always)]
    fn set_g(&mut self, r: u32, v: f32) {
        let x = self.w[G] + r as usize;
        self.g[x] = v;
    }

    #[inline(always)]
    fn set_i(&mut self, r: u32, v: i64) {
        let x = self.w[I] + r as usize;
        self.i[x] = v;
    }

    #[inline(always)]
    fn shf(&self, r: u32) -> f64 {
        if SH {
            self.hf[self.w[F] + r as usize]
        } else {
            0.0
        }
    }

    #[inline(always)]
    fn shg(&self, r: u32) -> f64 {
        if SH {
            self.hg[self.w[G] + r as usize]
        } else {
            0.0
        }
    }

    #[inline(always)]
    fn set_shf(&mut self, r: u32, v: f64) {
        if SH {
            let x = self.w[F] + r as usize;
            self.hf[x] = v;
        }
    }

    #[inline(always)]
    fn set_shg(&mut self, r: u32, v: f64) {
        if SH {
            let x = self.w[G] + r as usize;
            self.hg[x] = v;
        }
    }

    /// A register's value as the walker's `Num` (error messages).
    fn num(&self, v: V) -> Num {
        match v.k {
            K::Int => Num::Int(self.ir(v.r)),
            K::Lit => Num::Lit(self.fr(v.r)),
            K::F32 => Num::Fp(Fp::F32(self.gr(v.r))),
            K::F64 => Num::Fp(Fp::F64(self.fr(v.r))),
            K::Bool => Num::Bool(self.ir(v.r) != 0),
            K::Str => Num::Str(Arc::clone(&self.s[self.w[S] + v.r as usize])),
        }
    }

    /// Primary value of a numeric register widened to f64.
    fn as_f64(&self, v: V) -> f64 {
        match v.k {
            K::Int | K::Bool => self.ir(v.r) as f64,
            K::Lit | K::F64 => self.fr(v.r),
            K::F32 => self.gr(v.r) as f64,
            K::Str => 0.0,
        }
    }

    /// Shadow of a numeric register: the shadow plane for FP, the primary
    /// for everything else (literals and integers follow the primary).
    fn shadow_of(&self, v: V) -> f64 {
        match v.k {
            K::F64 | K::Lit => self.shf(v.r),
            K::F32 => self.shg(v.r),
            _ => self.as_f64(v),
        }
    }

    // ---- context and errors ------------------------------------------------

    fn cur_proc_name(&self) -> Arc<str> {
        match self.procs.last() {
            Some(p) => Arc::clone(&self.c.proc_names[*p]),
            None => Arc::from("@init"),
        }
    }

    fn at_line(&self, line: u32) -> u32 {
        if line == 0 {
            self.cur_line
        } else {
            line
        }
    }

    fn invalid(&self, line: u32, msg: String) -> E {
        Box::new(RunError::Invalid {
            proc: self.cur_proc_name(),
            line: self.at_line(line),
            msg,
        })
    }

    fn nonfinite(&mut self, line: u32, op: &'static str) -> E {
        let proc = self.cur_proc_name();
        let line = self.at_line(line);
        if let Some(st) = &mut self.shadow {
            st.note_nonfinite(op, &proc, line, false);
        }
        Box::new(RunError::NonFinite { proc, line })
    }

    fn oob(&self, line: u32) -> E {
        Box::new(RunError::OutOfBounds {
            proc: self.cur_proc_name(),
            line: self.at_line(line),
        })
    }

    fn unallocated(&self, line: u32) -> E {
        Box::new(RunError::Unallocated {
            proc: self.cur_proc_name(),
            line: self.at_line(line),
        })
    }

    fn fail(&mut self, e: u32) -> E {
        match &self.c.errs[e as usize] {
            ErrSpec::Invalid { line, msg } => {
                let text = match msg {
                    Msg::Text(t) => t.to_string(),
                    Msg::Owned(t) => t.clone(),
                    Msg::Val { pre, v, post } => format!("{pre}{:?}{post}", self.num(*v)),
                    Msg::Pair(a, b) => {
                        format!(
                            "non-numeric operands {:?}, {:?}",
                            self.num(*a),
                            self.num(*b)
                        )
                    }
                };
                self.invalid(*line, text)
            }
            ErrSpec::NonFinite { op } => self.nonfinite(0, op),
        }
    }

    #[inline(always)]
    fn check_f64(&mut self, x: f64, line: u32, op: &'static str) -> R<()> {
        if x.is_finite() {
            Ok(())
        } else {
            Err(self.nonfinite(line, op))
        }
    }

    #[inline(always)]
    fn check_f32(&mut self, x: f32, line: u32, op: &'static str) -> R<()> {
        if x.is_finite() {
            Ok(())
        } else {
            Err(self.nonfinite(line, op))
        }
    }

    // ---- faults, events, budget ----------------------------------------------

    fn fire_fault(&mut self) -> E {
        match self.fault.take().expect("fire_fault with no fault armed") {
            prose_faults::InjectedFault::NonFinite { .. } => {
                let proc = self.cur_proc_name();
                let line = self.cur_line;
                if let Some(st) = &mut self.shadow {
                    st.note_nonfinite("injected", &proc, line, true);
                }
                Box::new(RunError::NonFinite { proc, line })
            }
            prose_faults::InjectedFault::Timeout { .. } => Box::new(RunError::Timeout {
                budget: self.budget,
            }),
            prose_faults::InjectedFault::Abort { after_events } => {
                std::panic::panic_any(prose_faults::InjectedAbort {
                    after_events: after_events.min(self.events),
                })
            }
            prose_faults::InjectedFault::Hang { .. } => loop {
                if let Some(at) = self.deadline_at {
                    if std::time::Instant::now() >= at {
                        return Box::new(RunError::Deadline {
                            ms: self.deadline_ms,
                        });
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
        }
    }

    /// The next event count at which the event limit, a deadline check or
    /// the armed fault needs attention.
    fn slow_point(&self) -> u64 {
        let mut n = self.max_events.saturating_add(1);
        if self.deadline_at.is_some() {
            n = n.min((self.events | (DEADLINE_CHECK_INTERVAL - 1)) + 1);
        }
        if let Some(f) = &self.fault {
            n = n.min(f.after_events().max(self.events + 1));
        }
        n
    }

    #[inline(always)]
    fn bump(&mut self) -> R<()> {
        self.events += 1;
        if self.events >= self.next_slow {
            return self.bump_slow();
        }
        Ok(())
    }

    #[cold]
    fn bump_slow(&mut self) -> R<()> {
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
                return Err(self.fire_fault());
            }
        }
        self.next_slow = self.slow_point();
        Ok(())
    }

    #[inline(always)]
    fn check_budget(&self) -> R<()> {
        if self.total > self.budget {
            return Err(RunError::Timeout {
                budget: self.budget,
            }
            .into());
        }
        Ok(())
    }

    // ---- charges ---------------------------------------------------------------

    /// Charge `c` cycles tagged f32 (`single`) or f64.
    #[inline(always)]
    fn charge(&mut self, single: bool, c: f64) {
        let proc = self.cur;
        if let Some(ctx) = self.loops.last_mut() {
            let b = ctx.bucket(proc);
            if single {
                b.f32_cost += c;
            } else {
                b.f64_cost += c;
            }
        } else {
            self.proc_cycles[proc] += c;
            self.total += c;
        }
    }

    #[inline(always)]
    fn plain(&mut self, c: f64) {
        self.charge(false, c);
    }

    #[inline(always)]
    fn op(&mut self, single: bool, c: f64) {
        if single {
            self.ops.fp32_ops += 1;
        } else {
            self.ops.fp64_ops += 1;
        }
        self.charge(single, c);
    }

    #[inline(always)]
    fn mem(&mut self, single: bool) {
        self.ops.mem_ops += 1;
        let c = self.c.k.mem[usize::from(!single)];
        self.charge(single, c);
    }

    fn cast(&mut self) {
        self.ops.casts += 1;
        self.charge(false, self.c.k.cast);
    }

    fn cast_store(&mut self) {
        self.ops.cast_stores += 1;
        if let Some(ctx) = self.loops.last_mut() {
            ctx.saw_cast = true;
        }
        self.charge(false, self.c.k.cast);
    }

    fn mark_call(&mut self) {
        if let Some(ctx) = self.loops.last_mut() {
            ctx.saw_call = true;
        }
    }

    /// Fold the innermost candidate loop's buffered cost (`LoopCtx::fold`).
    fn fold_top(&mut self) {
        let Some(mut ctx) = self.loops.pop() else {
            return;
        };
        let vectorized = ctx.vectorized();
        for (proc, b) in &ctx.buckets {
            let cost = if vectorized {
                b.f32_cost / self.c.lanes32 + b.f64_cost / self.c.lanes64
            } else {
                b.f32_cost + b.f64_cost
            };
            self.proc_cycles[*proc] += cost;
            self.total += cost;
        }
        ctx.buckets.clear();
        ctx.saw_cast = false;
        ctx.saw_call = false;
        self.spare.push(ctx);
    }

    // ---- shadow bookkeeping ----------------------------------------------------

    fn note_var(&mut self, global: bool, slot: u32, prim: f64, sh: f64) {
        let key = if global {
            (GLOBAL_SCOPE, slot as usize)
        } else {
            (self.cur, slot as usize)
        };
        if let Some(st) = &mut self.shadow {
            st.note_var(key, prim, sh);
        }
    }

    fn cancellation(&mut self, x: f64, y: f64, prim: f64, sh: f64) {
        if let Some(mut st) = self.shadow.take() {
            let line = self.cur_line;
            st.note_cancellation(x, y, prim, sh, || self.cur_proc_name().to_string(), line);
            self.shadow = Some(st);
        }
    }

    // ---- arrays ----------------------------------------------------------------

    #[inline(always)]
    fn aidx(&self, a: crate::compile::ASlot) -> usize {
        if a.0 & GLOBAL_BIT != 0 {
            (a.0 & !GLOBAL_BIT) as usize
        } else {
            self.w[A] + a.0 as usize
        }
    }

    /// The walker's handle read: the array's plane index, or `Unallocated`.
    #[inline(always)]
    fn handle(&self, a: crate::compile::ASlot, line: u32) -> R<usize> {
        let ai = self.aidx(a);
        if self.a[ai].is_none() {
            return Err(self.unallocated(line));
        }
        Ok(ai)
    }

    #[inline(always)]
    fn arr(&self, ai: usize) -> std::cell::Ref<'_, Arr> {
        self.a[ai].as_ref().expect("checked handle").borrow()
    }

    #[inline(always)]
    fn arr_mut(&self, ai: usize) -> std::cell::RefMut<'_, Arr> {
        self.a[ai].as_ref().expect("checked handle").borrow_mut()
    }

    /// Handle read plus `offset`: the element's location, or the walker's
    /// `Unallocated` / `OutOfBounds` (a rank mismatch is out of bounds).
    #[inline(always)]
    fn locate(
        &self,
        a: crate::compile::ASlot,
        sub: Sub,
        pool: &[u32],
        line: u32,
    ) -> R<(usize, usize)> {
        let ai = self.handle(a, line)?;
        let arr = self.arr(ai);
        let b = &arr.bounds;
        let off = match sub {
            Sub::One(r) => {
                let s = self.ir(r);
                match b[..] {
                    [(lo, hi)] if s >= lo && s <= hi => Some((s - lo) as usize),
                    _ => None,
                }
            }
            Sub::Two(r0, r1) => {
                let (s0, s1) = (self.ir(r0), self.ir(r1));
                match b[..] {
                    [(l0, h0), (l1, h1)] if s0 >= l0 && s0 <= h0 && s1 >= l1 && s1 <= h1 => {
                        Some((s0 - l0) as usize + (s1 - l1) as usize * arr.strides[1])
                    }
                    _ => None,
                }
            }
            Sub::Many { at, n } => {
                let regs = &pool[at as usize..(at + n) as usize];
                if regs.len() != b.len() {
                    None
                } else {
                    let mut off: usize = 0;
                    let mut ok = true;
                    for (d, r) in regs.iter().enumerate() {
                        let s = self.ir(*r);
                        let (lo, hi) = b[d];
                        if s < lo || s > hi {
                            ok = false;
                            break;
                        }
                        off = off.wrapping_add(((s - lo) as usize).wrapping_mul(arr.strides[d]));
                    }
                    ok.then_some(off)
                }
            }
        };
        drop(arr);
        match off {
            Some(o) => Ok((ai, o)),
            None => Err(self.oob(line)),
        }
    }

    /// `num_to_fp` for an f64 element: the value of `s` at f64 with its
    /// conversion charge, finite-checked.
    fn elem_f64(&mut self, s: V, line: u32) -> R<f64> {
        let x = match s.k {
            K::F64 | K::Lit => self.fr(s.r),
            K::F32 => {
                self.cast_store();
                self.gr(s.r) as f64
            }
            K::Int => {
                self.plain(self.c.k.op_int);
                self.ir(s.r) as f64
            }
            K::Bool | K::Str => unreachable!("rejected at compile time"),
        };
        self.check_f64(x, line, "elem-store")?;
        Ok(x)
    }

    fn elem_f32(&mut self, s: V, line: u32) -> R<f32> {
        let x = match s.k {
            K::F32 => self.gr(s.r),
            K::F64 => {
                self.cast_store();
                self.fr(s.r) as f32
            }
            K::Lit => self.fr(s.r) as f32,
            K::Int => {
                self.plain(self.c.k.op_int);
                self.ir(s.r) as f64 as f32
            }
            K::Bool | K::Str => unreachable!("rejected at compile time"),
        };
        self.check_f32(x, line, "elem-store")?;
        Ok(x)
    }

    // ---- conversions -----------------------------------------------------------

    /// Convert `s` to kind `to` into register `d` of window `b`.
    #[allow(clippy::too_many_arguments)]
    fn cvt(&mut self, mode: Cv, to: K, d: u32, s: V, b: [usize; 5], line: u32) -> R<()> {
        let charged = mode != Cv::Writeback;
        let what = if mode == Cv::Explicit {
            "convert"
        } else {
            "store"
        };
        let sh = self.shadow_of(s);
        match (to, s.k) {
            (K::F32, _) => {
                let x = match s.k {
                    K::F32 => self.gr(s.r),
                    K::F64 => {
                        if charged {
                            self.cast();
                        }
                        self.fr(s.r) as f32
                    }
                    K::Lit => self.fr(s.r) as f32,
                    _ => {
                        if charged {
                            self.plain(self.c.k.op_int);
                        }
                        self.ir(s.r) as f64 as f32
                    }
                };
                if charged {
                    self.check_f32(x, line, what)?;
                }
                self.g[b[G] + d as usize] = x;
                if SH {
                    self.hg[b[G] + d as usize] = sh;
                }
            }
            (K::F64, _) => {
                let x = match s.k {
                    K::F64 | K::Lit => self.fr(s.r),
                    K::F32 => {
                        if charged {
                            self.cast();
                        }
                        self.gr(s.r) as f64
                    }
                    _ => {
                        if charged {
                            self.plain(self.c.k.op_int);
                        }
                        self.ir(s.r) as f64
                    }
                };
                if charged {
                    self.check_f64(x, line, what)?;
                }
                self.f[b[F] + d as usize] = x;
                if SH {
                    self.hf[b[F] + d as usize] = sh;
                }
            }
            (K::Int | K::Bool, K::Int | K::Bool) => self.i[b[I] + d as usize] = self.ir(s.r),
            (K::Int, K::F32 | K::F64) => {
                self.cast();
                self.i[b[I] + d as usize] = self.as_f64(s).trunc() as i64;
            }
            (K::Int, K::Lit) => self.i[b[I] + d as usize] = self.fr(s.r).trunc() as i64,
            (K::Str, K::Str) => {
                let v = Arc::clone(&self.s[self.w[S] + s.r as usize]);
                self.s[b[S] + d as usize] = v;
            }
            _ => unreachable!("rejected at compile time"),
        }
        Ok(())
    }

    /// Copy a register of kind `k` between windows, with its shadow.
    fn copy(&mut self, k: K, from: [usize; 5], s: u32, to: [usize; 5], d: u32) {
        let (s, d) = (s as usize, d as usize);
        match k {
            K::F64 | K::Lit => {
                self.f[to[F] + d] = self.f[from[F] + s];
                if SH {
                    self.hf[to[F] + d] = self.hf[from[F] + s];
                }
            }
            K::F32 => {
                self.g[to[G] + d] = self.g[from[G] + s];
                if SH {
                    self.hg[to[G] + d] = self.hg[from[G] + s];
                }
            }
            K::Int | K::Bool => self.i[to[I] + d] = self.i[from[I] + s],
            K::Str => {
                let v = Arc::clone(&self.s[from[S] + s]);
                self.s[to[S] + d] = v;
            }
        }
    }

    // ---- calls -----------------------------------------------------------------

    fn call_begin(&mut self, p: usize) -> R<()> {
        if self.procs.len() > MAX_DEPTH {
            return Err(RunError::StackOverflow.into());
        }
        self.check_budget()?;
        let callee = &self.c.procs[p];
        self.proc_calls[p] += 1;
        if !callee.inlinable && !self.procs.is_empty() {
            self.mark_call();
            self.ops.timed_calls += 1;
            self.plain(self.c.k.call);
        }
        let b = self.push_window(&callee.layout.n);
        self.calls.push(Frame { b, halt: false });
        Ok(())
    }

    /// Run procedure `p` in the pending callee window.
    fn invoke(&mut self, p: usize) -> R<Flow> {
        let c = self.c;
        let saved = self.w;
        self.w = self.callee();
        let r = self.exec(&c.procs[p]);
        self.w = saved;
        r
    }

    // ---- the dispatch loop -------------------------------------------------------

    fn exec(&mut self, p: &'c CProc) -> R<Flow> {
        let code: &'c [Op] = &p.code;
        let pool: &'c [u32] = &p.pool;
        let c: &'c Compiled = self.c;
        let k = &c.k;
        let mut pc = 0usize;
        loop {
            let op = code[pc];
            pc += 1;
            match op {
                Op::Ev { line } => {
                    self.bump()?;
                    self.cur_line = line;
                }
                Op::EvNoLine => self.bump()?,
                Op::Jump { to } => pc = to as usize,
                Op::IfFalse { c, to } => {
                    self.plain(k.op_int);
                    if self.ir(c) == 0 {
                        pc = to as usize;
                    }
                }
                Op::IfBad { e } => {
                    self.plain(k.op_int);
                    return Err(self.fail(e));
                }
                Op::DoInit { i, line, cand } => {
                    if self.ir(i + 2) == 0 {
                        return Err(self.invalid(line, "zero do-loop step".into()));
                    }
                    if cand {
                        let ctx = self.spare.pop().unwrap_or_default();
                        self.loops.push(ctx);
                    }
                }
                Op::DoHead { i, var, exit } => {
                    let (x, e, st) = (self.ir(i), self.ir(i + 1), self.ir(i + 2));
                    if (st > 0 && x > e) || (st < 0 && x < e) {
                        pc = exit as usize;
                    } else {
                        self.set_i(var, x);
                        self.ops.loop_iters += 1;
                        self.plain(k.loop_control);
                        self.bump()?;
                    }
                }
                Op::DoNext { i, head } => {
                    let x = self.ir(i).wrapping_add(self.ir(i + 2));
                    self.set_i(i, x);
                    pc = head as usize;
                }
                Op::DoExit { cand } => {
                    if cand {
                        self.fold_top();
                    }
                    self.check_budget()?;
                }
                Op::WhileTest { c, exit } => {
                    self.ops.loop_iters += 1;
                    self.plain(k.loop_control);
                    self.bump()?;
                    if self.ir(c) == 0 {
                        pc = exit as usize;
                    }
                }
                Op::WhileBad { e } => {
                    self.ops.loop_iters += 1;
                    self.plain(k.loop_control);
                    self.bump()?;
                    return Err(self.fail(e));
                }
                Op::CheckBudget => self.check_budget()?,
                Op::PushProc { p } => {
                    self.procs.push(p as usize);
                    self.cur = p as usize;
                }
                Op::Ret | Op::HaltRet => {
                    self.procs.pop();
                    self.cur = self.procs.last().copied().unwrap_or(self.c.main);
                    return Ok(if matches!(op, Op::Ret) {
                        Flow::Normal
                    } else {
                        Flow::Halt
                    });
                }
                Op::StopErr { code } => return Err(RunError::Stop { code }.into()),
                Op::Fail { e } => return Err(self.fail(e)),
                Op::Unreachable => unreachable!(),
                Op::ChargePlain { c } => self.plain(c),

                // ---- constants and moves
                Op::ConstF { d, v } => {
                    self.set_f(d, v);
                    self.set_shf(d, v);
                }
                Op::ConstG { d, v, sh } => {
                    self.set_g(d, v);
                    self.set_shg(d, sh);
                }
                Op::ConstI { d, v } => self.set_i(d, v),
                Op::ConstS { d, s } => {
                    let v = Arc::clone(&self.c.strs[s as usize]);
                    let x = self.w[S] + d as usize;
                    self.s[x] = v;
                }
                Op::Mov { k, d, s } => self.copy(k, self.w, s, self.w, d),
                Op::GLoad { k, d, g } => self.copy(k, [0; 5], g, self.w, d),
                Op::GStore { k, g, s } => self.copy(k, self.w, s, [0; 5], g),
                Op::ChkAlloc { flag, global, e } => {
                    let set = if global {
                        self.i[flag as usize]
                    } else {
                        self.ir(flag)
                    };
                    if set != 0 {
                        return Err(self.fail(e));
                    }
                }
                Op::SetAlloc {
                    flag,
                    global,
                    dealloc,
                } => {
                    let x = if global {
                        flag as usize
                    } else {
                        self.w[I] + flag as usize
                    };
                    self.i[x] = i64::from(dealloc);
                }

                // ---- conversions
                Op::Cvt {
                    mode,
                    to,
                    d,
                    s,
                    win,
                    line,
                } => {
                    let b = match win {
                        Win::Cur => self.w,
                        Win::Callee => self.callee(),
                    };
                    self.cvt(mode, to, d, s, b, line)?;
                }
                Op::ToInt { d, s } => {
                    let x = match s.k {
                        K::Int | K::Bool => self.ir(s.r),
                        _ => self.as_f64(s).trunc() as i64,
                    };
                    self.set_i(d, x);
                }
                Op::PromIF { d, s } => {
                    self.plain(k.op_int);
                    let x = self.ir(s) as f64;
                    self.set_f(d, x);
                    self.set_shf(d, x);
                }
                Op::PromIG { d, s } => {
                    self.plain(k.op_int);
                    let x = self.ir(s);
                    self.set_g(d, x as f32);
                    self.set_shg(d, x as f64);
                }
                Op::PromLG { d, s } => {
                    self.set_g(d, self.fr(s) as f32);
                    self.set_shg(d, self.shf(s));
                }
                Op::PromGF { d, s } => {
                    self.cast();
                    self.set_f(d, self.gr(s) as f64);
                    self.set_shf(d, self.shg(s));
                }
                Op::IntF { d, s } => {
                    let x = self.ir(s) as f64;
                    self.set_f(d, x);
                    self.set_shf(d, x);
                }

                // ---- arithmetic
                Op::ArF {
                    op,
                    d,
                    a,
                    b,
                    c,
                    lit,
                } => {
                    self.op(false, c);
                    let (x, y) = (self.fr(a), self.fr(b));
                    let r = apply_f64(op, x, y);
                    self.check_f64(r, 0, "arith")?;
                    self.set_f(d, r);
                    if SH {
                        let sh = apply_f64(op, self.shf(a), self.shf(b));
                        self.set_shf(d, sh);
                        if !lit && matches!(op, BinOp::Add | BinOp::Sub) {
                            self.cancellation(x, y, r, sh);
                        }
                    }
                }
                Op::ArG { op, d, a, b, c } => {
                    self.op(true, c);
                    let (x, y) = (self.gr(a), self.gr(b));
                    let r = apply_f32(op, x, y);
                    self.check_f32(r, 0, "arith")?;
                    self.set_g(d, r);
                    if SH {
                        let sh = apply_f64(op, self.shg(a), self.shg(b));
                        self.set_shg(d, sh);
                        if matches!(op, BinOp::Add | BinOp::Sub) {
                            self.cancellation(x as f64, y as f64, r as f64, sh);
                        }
                    }
                }
                Op::ArGX {
                    op,
                    d,
                    a,
                    b,
                    c,
                    oa,
                    ob,
                } => {
                    self.op(true, c);
                    // The unpromoted operands, read before `d` (which may
                    // be one of them) is written.
                    let (x, y) = (self.as_f64(oa), self.as_f64(ob));
                    let r = apply_f32(op, self.gr(a), self.gr(b));
                    self.check_f32(r, 0, "arith")?;
                    self.set_g(d, r);
                    if SH {
                        let sh = apply_f64(op, self.shg(a), self.shg(b));
                        self.set_shg(d, sh);
                        self.cancellation(x, y, r as f64, sh);
                    }
                }
                Op::ArLit { op, d, a, b } => {
                    let r = apply_f64(op, self.fr(a), self.fr(b));
                    self.check_f64(r, 0, "arith")?;
                    self.set_f(d, r);
                    self.set_shf(d, r);
                }
                Op::ArI { op, d, a, b } => {
                    self.plain(k.op_int);
                    match int_arith(op, self.ir(a), self.ir(b)) {
                        Some(r) => self.set_i(d, r),
                        None => {
                            return Err(RunError::DivByZero {
                                proc: self.cur_proc_name(),
                                line: 0,
                            }
                            .into())
                        }
                    }
                }
                Op::CmpF {
                    op,
                    d,
                    a,
                    b,
                    charge,
                } => {
                    if charge {
                        self.op(false, k.op_basic);
                    }
                    let r = compare(op, self.fr(a), self.fr(b));
                    self.set_i(d, i64::from(r));
                }
                Op::CmpG { op, d, a, b } => {
                    self.op(true, k.op_basic);
                    let r = compare(op, self.gr(a) as f64, self.gr(b) as f64);
                    self.set_i(d, i64::from(r));
                }
                Op::CmpI { op, d, a, b } => {
                    self.plain(k.op_int);
                    let r = compare(op, self.ir(a) as f64, self.ir(b) as f64);
                    self.set_i(d, i64::from(r));
                }
                Op::Logic { and, d, a, b } => {
                    let (x, y) = (self.ir(a) != 0, self.ir(b) != 0);
                    self.set_i(d, i64::from(if and { x && y } else { x || y }));
                }
                Op::Not { d, s } => self.set_i(d, i64::from(self.ir(s) == 0)),
                Op::NegI { d, s } => {
                    self.plain(k.op_int);
                    self.set_i(d, self.ir(s).wrapping_neg());
                }
                Op::NegF { d, s, charge } => {
                    if charge {
                        self.op(false, k.op_basic);
                    }
                    self.set_f(d, -self.fr(s));
                    self.set_shf(d, -self.shf(s));
                }
                Op::NegG { d, s } => {
                    self.op(true, k.op_basic);
                    self.set_g(d, -self.gr(s));
                    self.set_shg(d, -self.shg(s));
                }
                Op::AbsI { d, s } => {
                    self.plain(k.op_int);
                    self.set_i(d, self.ir(s).wrapping_abs());
                }
                Op::AbsF { d, s, charge } => {
                    if charge {
                        self.op(false, k.op_basic);
                    }
                    self.set_f(d, self.fr(s).abs());
                    self.set_shf(d, self.shf(s).abs());
                }
                Op::AbsG { d, s } => {
                    self.op(true, k.op_basic);
                    self.set_g(d, self.gr(s).abs());
                    self.set_shg(d, self.shg(s).abs());
                }
                Op::MathF { f, d, s, c } => {
                    self.op(false, c);
                    let r = f.f64(self.fr(s));
                    self.check_f64(r, 0, "math")?;
                    self.set_f(d, r);
                    if SH {
                        self.set_shf(d, f.f64(self.shf(s)));
                    }
                }
                Op::MathG { f, d, s, c } => {
                    self.op(true, c);
                    let r = f.f32(self.gr(s));
                    self.check_f32(r, 0, "math")?;
                    self.set_g(d, r);
                    if SH {
                        self.set_shg(d, f.f64(self.shg(s)));
                    }
                }
                Op::Bin2F {
                    f,
                    d,
                    a,
                    b,
                    c,
                    check,
                } => {
                    self.op(false, c);
                    let r = f.f64(self.fr(a), self.fr(b));
                    if check {
                        self.check_f64(r, 0, "math")?;
                    }
                    self.set_f(d, r);
                    if SH {
                        self.set_shf(d, f.f64(self.shf(a), self.shf(b)));
                    }
                }
                Op::Bin2G { f, d, a, b, c } => {
                    self.op(true, c);
                    let r = f.f32(self.gr(a), self.gr(b));
                    self.check_f32(r, 0, "math")?;
                    self.set_g(d, r);
                    if SH {
                        self.set_shg(d, f.f64(self.shg(a), self.shg(b)));
                    }
                }
                Op::Bin2I { f, d, a, b, c } => {
                    self.op(false, c);
                    let r = f.f64(self.ir(a) as f64, self.ir(b) as f64) as i64;
                    self.set_i(d, r);
                }
                Op::ModI { d, a, b } => {
                    let (x, y) = (self.ir(a), self.ir(b));
                    if y == 0 {
                        return Err(RunError::DivByZero {
                            proc: self.cur_proc_name(),
                            line: 0,
                        }
                        .into());
                    }
                    self.plain(k.op_int);
                    self.set_i(d, x % y);
                }
                Op::MaxF { max, d, a, b } => {
                    self.op(false, k.op_basic);
                    let (x, y) = (self.fr(a), self.fr(b));
                    self.set_f(d, if max { x.max(y) } else { x.min(y) });
                    if SH {
                        let (p, q) = (self.shf(a), self.shf(b));
                        self.set_shf(d, if max { p.max(q) } else { p.min(q) });
                    }
                }
                Op::MaxG { max, d, a, b } => {
                    self.op(true, k.op_basic);
                    let (x, y) = (self.gr(a), self.gr(b));
                    self.set_g(d, if max { x.max(y) } else { x.min(y) });
                    if SH {
                        let (p, q) = (self.shg(a), self.shg(b));
                        self.set_shg(d, if max { p.max(q) } else { p.min(q) });
                    }
                }
                Op::MaxI { max, d, a, b } => {
                    self.op(false, k.op_basic);
                    let (x, y) = (self.ir(a), self.ir(b));
                    self.set_i(d, if max { x.max(y) } else { x.min(y) });
                }
                Op::IntOf { d, s } => {
                    self.plain(k.op_basic);
                    let x = match s.k {
                        K::Int => self.ir(s.r),
                        _ => self.as_f64(s).trunc() as i64,
                    };
                    self.set_i(d, x);
                }
                Op::RoundOf { d, s, floor } => {
                    self.plain(k.op_basic);
                    let x = self.as_f64(s);
                    self.set_i(d, if floor { x.floor() } else { x.round() } as i64);
                }
                Op::IsNan { d, s } => {
                    let nan = match s.k {
                        K::F32 => self.gr(s.r).is_nan(),
                        _ => self.fr(s.r).is_nan(),
                    };
                    self.set_i(d, i64::from(nan));
                }

                // ---- arrays
                Op::ArrCheck { a, line } => {
                    self.handle(a, line)?;
                }
                Op::SizeOf { d, a } => {
                    let ai = self.handle(a, 0)?;
                    let n = self.arr(ai).len() as i64;
                    self.set_i(d, n);
                }
                Op::SizeDim { d, a, dim } => {
                    let ai = self.handle(a, 0)?;
                    let di = self.ir(dim);
                    let extent = {
                        let arr = self.arr(ai);
                        (di >= 1 && di as usize <= arr.bounds.len()).then(|| {
                            let (lo, hi) = arr.bounds[di as usize - 1];
                            (hi - lo + 1).max(0)
                        })
                    };
                    match extent {
                        Some(n) => self.set_i(d, n),
                        None => return Err(self.invalid(0, "size() dim out of range".into())),
                    }
                }
                Op::Reduce { f, d, a, single } => self.reduce(f, d, a, single)?,
                Op::LdF { d, a, sub, line } => {
                    let (ai, off) = self.locate(a, sub, pool, line)?;
                    self.mem(false);
                    let (v, sh) = {
                        let arr = self.arr(ai);
                        let AData::F64(data) = &arr.data else {
                            unreachable!("f64 array slot")
                        };
                        (data[off], if SH { arr.shadow_at(off) } else { 0.0 })
                    };
                    self.set_f(d, v);
                    self.set_shf(d, sh);
                }
                Op::LdG { d, a, sub, line } => {
                    let (ai, off) = self.locate(a, sub, pool, line)?;
                    self.mem(true);
                    let (v, sh) = {
                        let arr = self.arr(ai);
                        let AData::F32(data) = &arr.data else {
                            unreachable!("f32 array slot")
                        };
                        (data[off], if SH { arr.shadow_at(off) } else { 0.0 })
                    };
                    self.set_g(d, v);
                    self.set_shg(d, sh);
                }
                Op::LdI { d, a, sub, line } => {
                    let (ai, off) = self.locate(a, sub, pool, line)?;
                    let v = {
                        let arr = self.arr(ai);
                        let AData::Int(data) = &arr.data else {
                            unreachable!("integer array slot")
                        };
                        data[off]
                    };
                    self.set_i(d, v);
                }
                Op::LdBad { a, sub, line, e } | Op::StBad { a, sub, line, e } => {
                    self.locate(a, sub, pool, line)?;
                    return Err(self.fail(e));
                }
                Op::StF {
                    a,
                    sub,
                    s,
                    line,
                    mem,
                    slot,
                } => {
                    let (ai, off) = self.locate(a, sub, pool, line)?;
                    let x = self.elem_f64(s, line)?;
                    let sh = self.shadow_of(s);
                    {
                        let mut arr = self.arr_mut(ai);
                        let AData::F64(data) = &mut arr.data else {
                            unreachable!("f64 array slot")
                        };
                        data[off] = x;
                        arr.shadow_set(off, sh);
                    }
                    if SH {
                        self.note_var(a.0 & GLOBAL_BIT != 0, slot, x, sh);
                    }
                    if mem {
                        self.mem(false);
                    }
                }
                Op::StG {
                    a,
                    sub,
                    s,
                    line,
                    mem,
                    slot,
                } => {
                    let (ai, off) = self.locate(a, sub, pool, line)?;
                    let x = self.elem_f32(s, line)?;
                    let sh = self.shadow_of(s);
                    {
                        let mut arr = self.arr_mut(ai);
                        let AData::F32(data) = &mut arr.data else {
                            unreachable!("f32 array slot")
                        };
                        data[off] = x;
                        arr.shadow_set(off, sh);
                    }
                    if SH {
                        self.note_var(a.0 & GLOBAL_BIT != 0, slot, x as f64, sh);
                    }
                    if mem {
                        self.mem(true);
                    }
                }
                Op::StI {
                    a,
                    sub,
                    s,
                    line,
                    store,
                    charge,
                } => {
                    let (ai, off) = self.locate(a, sub, pool, line)?;
                    if store {
                        let v = self.ir(s);
                        let mut arr = self.arr_mut(ai);
                        if let AData::Int(data) = &mut arr.data {
                            data[off] = v;
                        }
                    }
                    if charge {
                        self.plain(k.op_int);
                    }
                }
                Op::Bcast { a, s, line } => self.broadcast(a, s, line)?,
                Op::ArrCopy { d, s, line } => self.array_copy(d, s, line)?,
                Op::MakeArr { a, k, at, n } => {
                    let regs = &pool[at as usize..(at + 2 * n) as usize];
                    let bounds: Vec<(i64, i64)> = regs
                        .chunks(2)
                        .map(|lh| (self.ir(lh[0]), self.ir(lh[1])))
                        .collect();
                    let arr = match k {
                        AK::F32 => Arr::new_fp(prose_fortran::ast::FpPrecision::Single, bounds),
                        AK::F64 => Arr::new_fp(prose_fortran::ast::FpPrecision::Double, bounds),
                        AK::Int => Arr::new_int(bounds),
                        AK::Bool | AK::Str => Arr::new_bool(bounds),
                    };
                    let arr = if SH { arr.with_shadow() } else { arr };
                    let ai = self.aidx(a);
                    self.a[ai] = Some(Rc::new(RefCell::new(arr)));
                }
                Op::Dealloc { a } => {
                    let ai = self.aidx(a);
                    self.a[ai] = None;
                }

                // ---- calls
                Op::CallBegin { p } => self.call_begin(p as usize)?,
                Op::BindArr { d, s } => {
                    let ai = self.handle(s, 0)?;
                    let h = self.a[ai].clone();
                    let x = self.callee()[A] + d as usize;
                    self.a[x] = h;
                }
                Op::Invoke { p } => {
                    if self.invoke(p as usize)? == Flow::Halt {
                        self.calls.last_mut().expect("a pending call").halt = true;
                    }
                }
                Op::FromCallee { k, d, s } => {
                    let from = self.callee();
                    self.copy(k, from, s, self.w, d);
                }
                Op::CallHalt => {
                    if self.calls.last().expect("a pending call").halt {
                        return Err(RunError::Stop { code: 0 }.into());
                    }
                }
                Op::CallEnd => {
                    let fr = self.calls.pop().expect("a pending call");
                    self.pop_window(&fr.b);
                }

                // ---- intrinsic subroutines and I/O
                Op::Record { s, key } => {
                    let x = self.as_f64(s);
                    let key = &self.c.strs[key as usize];
                    if SH {
                        let sh = self.shadow_of(s);
                        if let Some(st) = &mut self.shadow {
                            st.note_record(key, x, sh);
                        }
                    }
                    match self.records.scalars.get_mut(&**key) {
                        Some(v) => v.push(x),
                        None => {
                            self.records.scalars.insert(key.to_string(), vec![x]);
                        }
                    }
                }
                Op::RecordArr { a, key, line } => {
                    let ai = self.handle(a, line)?;
                    let key = &self.c.strs[key as usize];
                    let snap = self.arr(ai).snapshot_f64();
                    if SH {
                        let arr = self.a[ai].clone().expect("checked handle");
                        let arr = arr.borrow();
                        if let (Some(sh), Some(st)) = (&arr.shadow, &mut self.shadow) {
                            for (p, s) in snap.iter().zip(sh) {
                                st.note_record(key, *p, *s);
                            }
                        }
                    }
                    match self.records.arrays.get_mut(&**key) {
                        Some(v) => v.push(snap),
                        None => {
                            self.records.arrays.insert(key.to_string(), vec![snap]);
                        }
                    }
                }
                Op::Allreduce => {
                    self.mark_call();
                    self.ops.allreduces += 1;
                    self.plain(k.allreduce);
                }
                Op::PrintItem { s } => {
                    let text = crate::arith::format_num(&self.num(s));
                    self.print.push(text);
                }
                Op::PrintEnd => {
                    let line = self.print.join(" ");
                    self.print.clear();
                    self.records.stdout.push(line);
                    self.plain(100.0);
                }
                Op::Note { k, r, slot, global } => {
                    let v = V { k, r };
                    let (prim, sh) = (self.as_f64(v), self.shadow_of(v));
                    self.note_var(global, slot, prim, sh);
                }
            }
        }
    }

    // ---- whole-array operations ----------------------------------------------------

    fn reduce(&mut self, f: Red, d: u32, a: crate::compile::ASlot, single: bool) -> R<()> {
        let ai = self.handle(a, 0)?;
        let p = usize::from(!single);
        let (n, v32, v64, sh) = {
            let arr = self.arr(ai);
            let n = arr.len() as f64;
            let (v32, v64) = match (&arr.data, f) {
                (AData::F32(v), Red::Sum) => (v.iter().sum(), 0.0),
                (AData::F32(v), Red::Max) => {
                    (v.iter().copied().fold(f32::NEG_INFINITY, f32::max), 0.0)
                }
                (AData::F32(v), Red::Min) => (v.iter().copied().fold(f32::INFINITY, f32::min), 0.0),
                (AData::F64(v), Red::Sum) => (0.0, v.iter().sum()),
                (AData::F64(v), Red::Max) => {
                    (0.0, v.iter().copied().fold(f64::NEG_INFINITY, f64::max))
                }
                (AData::F64(v), Red::Min) => (0.0, v.iter().copied().fold(f64::INFINITY, f64::min)),
                _ => unreachable!("real array slot"),
            };
            let sh = match (&arr.shadow, f) {
                (Some(s), Red::Sum) => s.iter().sum(),
                (Some(s), Red::Max) => s.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                (Some(s), Red::Min) => s.iter().copied().fold(f64::INFINITY, f64::min),
                (None, _) => 0.0,
            };
            (n, v32, v64, sh)
        };
        let cost = n * self.c.k.reduce[p] / self.c.k.lanes[p];
        self.charge(single, cost);
        if single {
            self.check_f32(v32, 0, "reduce")?;
            self.set_g(d, v32);
            self.set_shg(d, sh);
        } else {
            self.check_f64(v64, 0, "reduce")?;
            self.set_f(d, v64);
            self.set_shf(d, sh);
        }
        Ok(())
    }

    fn broadcast(&mut self, a: crate::compile::ASlot, s: V, line: u32) -> R<()> {
        let ai = self.handle(a, line)?;
        let (n, fp) = {
            let arr = self.arr(ai);
            let fp = match arr.data {
                AData::F32(_) => Some(true),
                AData::F64(_) => Some(false),
                _ => None,
            };
            (arr.len(), fp)
        };
        match fp {
            Some(single) => {
                if matches!(s.k, K::Bool | K::Str) {
                    let msg = format!("expected real, got {:?}", self.num(s));
                    return Err(self.invalid(line, msg));
                }
                let sh = self.shadow_of(s);
                if single {
                    let x = self.elem_f32(s, line)?;
                    let mut arr = self.arr_mut(ai);
                    if let AData::F32(v) = &mut arr.data {
                        v.fill(x);
                    }
                    if let Some(s) = &mut arr.shadow {
                        s.fill(sh);
                    }
                } else {
                    let x = self.elem_f64(s, line)?;
                    let mut arr = self.arr_mut(ai);
                    if let AData::F64(v) = &mut arr.data {
                        v.fill(x);
                    }
                    if let Some(s) = &mut arr.shadow {
                        s.fill(sh);
                    }
                }
                // Broadcast stores vectorize.
                let p = usize::from(!single);
                let cost = n as f64 * self.c.k.mem[p] / self.c.k.lanes[p];
                self.charge(single, cost);
            }
            None => {
                if s.k != K::Int {
                    return Err(self.invalid(line, "non-integer broadcast".into()));
                }
                let x = self.ir(s.r);
                if let AData::Int(v) = &mut self.arr_mut(ai).data {
                    v.fill(x);
                }
                self.plain(n as f64 * self.c.k.op_int);
            }
        }
        Ok(())
    }

    fn array_copy(
        &mut self,
        d: crate::compile::ASlot,
        s: crate::compile::ASlot,
        line: u32,
    ) -> R<()> {
        let di = self.handle(d, line)?;
        let si = self.handle(s, line)?;
        let (dst, src) = match (&self.a[di], &self.a[si]) {
            (Some(x), Some(y)) => (Rc::clone(x), Rc::clone(y)),
            _ => unreachable!("checked handles"),
        };
        if Rc::ptr_eq(&dst, &src) {
            return Ok(());
        }
        let (n, single_d, single_s) = {
            let sb = src.borrow();
            let mut db = dst.borrow_mut();
            if db.len() != sb.len() {
                drop((sb, db));
                return Err(self.invalid(line, "array copy shape mismatch".into()));
            }
            let n = sb.len();
            let prec = match (&mut db.data, &sb.data) {
                (AData::F32(x), AData::F32(y)) => {
                    x.copy_from_slice(y);
                    (true, true)
                }
                (AData::F64(x), AData::F64(y)) => {
                    x.copy_from_slice(y);
                    (false, false)
                }
                (AData::F32(x), AData::F64(y)) => {
                    for (o, v) in x.iter_mut().zip(y) {
                        *o = *v as f32;
                    }
                    (true, false)
                }
                (AData::F64(x), AData::F32(y)) => {
                    for (o, v) in x.iter_mut().zip(y) {
                        *o = *v as f64;
                    }
                    (false, true)
                }
                _ => {
                    drop((sb, db));
                    return Err(self.invalid(line, "array copy type mismatch".into()));
                }
            };
            if let (Some(ss), Some(ds)) = (&sb.shadow, &mut db.shadow) {
                ds.clone_from(ss);
            }
            (n, prec.0, prec.1)
        };
        let c: &'c Compiled = self.c;
        let k = &c.k;
        let (md, ms) = (k.mem[usize::from(!single_d)], k.mem[usize::from(!single_s)]);
        if single_d != single_s {
            // Converting copy: scalar-rate conversion loop.
            let cost = n as f64 * (k.cast + ms + md);
            if let Some(ctx) = self.loops.last_mut() {
                ctx.saw_cast = true;
            }
            self.charge(false, cost);
        } else {
            let cost = n as f64 * 2.0 * ms / k.lanes[usize::from(!single_s)];
            self.charge(single_s, cost);
        }
        Ok(())
    }
}
