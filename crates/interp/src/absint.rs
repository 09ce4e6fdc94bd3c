//! Abstract interpretation of the lowered IR: static value ranges and
//! round-off error bounds.
//!
//! This module is the IR-walking half of the `prose-analysis::absint`
//! subsystem (the domains live there; this crate depends on it, so the
//! walker lives here). [`analyze_ir`] over-approximates one variant's
//! shadow-mode execution: every abstract value carries the interval of the
//! fp64 *shadow* value plus a bound on `|primary − shadow|`, where the
//! primary runs at each slot's assigned precision ([`STy::Fp`], patched per
//! variant by [`crate::template::IrTemplate`]).
//!
//! Soundness contract (checked by `crates/analysis/tests/absint_sound.rs`):
//! for every run of the same IR that completes without a `RunError`, and for
//! every variable key in its [`crate::shadow::ShadowReport`], the observed
//! stored primaries lie in the reported `[lo, hi]` hull and the observed
//! `max_rel` is `≤` the reported `rel_err`. The analysis errs only toward
//! wider: binding conversions are always charged (covering both faithful
//! association and synthesized wrappers), rounding is charged even for
//! same-precision moves, and machine paths that would trap (`check_finite`,
//! kind mismatches, recursion limits) are allowed to continue abstractly —
//! a trapped run stores nothing further, so extra abstract stores only
//! widen the report.
//!
//! Loops with statically known trip counts are unrolled concretely under a
//! per-loop abstract-op allowance; everything else (unknown bounds,
//! `do while`, blown allowances) runs to a widening/narrowing fixpoint.
//! Calls are analyzed interprocedurally with a summary cache keyed by the
//! abstract arguments and globals; recursion past the machine's own stack
//! guard returns `⊤` (the machine errors there, so nothing is missed).
//! When the global step budget runs out the report is flagged
//! [`BoundReport::incomplete`] and every downstream verdict must degrade to
//! "undecided".

use std::collections::{BTreeMap, HashMap};

use prose_analysis::absint::{
    cancellation_kappa, unit_roundoff, AbsVal, BoundReport, CancelSite, Interval, VarBound, U64,
};
use prose_fortran::ast::{BinOp, FpPrecision, Intent, UnOp};
use prose_fortran::error::Result as FortResult;
use prose_fortran::precision::PrecisionMap;
use prose_fortran::sema::ProgramIndex;
use prose_fortran::Program;

use crate::ir::{
    IArg, IDim, IExpr, ILValue, IStmt, IntrinsicFn, IntrinsicSub, ProgramIR, STy, SlotRef,
};
use crate::template::IrTemplate;

/// Default global abstract-op budget.
pub const DEFAULT_MAX_STEPS: u64 = 2_000_000;
/// Per-loop allowance for concrete unrolling before falling back to the
/// widening fixpoint.
const UNROLL_OPS: u64 = 250_000;
/// Trip-count ceiling for concrete unrolling.
const UNROLL_MAX_TRIPS: i64 = 65_536;
/// Fixpoint rounds before widening kicks in, and the hard round cap.
const WIDEN_AFTER: u32 = 3;
const FIX_ROUND_CAP: u32 = 24;
/// Static cancellation-amplification threshold for reported sites,
/// matching the shadow guardrail's `CANCEL_LOST_BITS` and the range-driven
/// lints.
use prose_analysis::absint::CANCEL_KAPPA;
/// Scope marker for module-level slots (mirrors the shadow's scope space).
const GLOBAL_SCOPE: usize = usize::MAX;
/// The machine's recursion guard; past it the concrete run errors.
const CALL_DEPTH_LIMIT: usize = 64;
/// Summary-cache size cap.
const CACHE_CAP: usize = 4096;

// ---------------------------------------------------------------------------
// Abstract machine state
// ---------------------------------------------------------------------------

/// One abstract slot. Arrays are summarized: a single element value joined
/// over every index, per-dimension extent intervals, and the total length.
#[derive(Debug, Clone, PartialEq)]
enum ASlot {
    Fp(AbsVal),
    Int(Interval),
    Bool,
    Str,
    FpArr {
        elem: AbsVal,
        dims: Vec<Interval>,
        len: Interval,
        prec: FpPrecision,
    },
    IntArr {
        elem: Interval,
        dims: Vec<Interval>,
        len: Interval,
    },
    /// Whole-array dummy bound to a module array: reads and writes resolve
    /// to the global slot, so direct-global and through-dummy accesses stay
    /// coherent without any aliasing havoc.
    AliasGlobal(usize),
}

/// An abstract expression value.
#[derive(Debug, Clone)]
enum AV {
    Fp(AbsVal),
    Int(Interval),
    Bool,
    Str,
}

#[derive(Debug, Clone)]
struct State {
    locals: Vec<ASlot>,
    globals: Vec<ASlot>,
}

/// Where an array access lands after alias resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stor {
    L(usize),
    G(usize),
}

/// Control-flow accumulators for the current procedure / loop nest.
struct Env {
    ret: Option<State>,
    loops: Vec<LoopAcc>,
}

#[derive(Default)]
struct LoopAcc {
    exit: Option<State>,
    cyc: Option<State>,
}

/// Why an abstract execution was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abort {
    /// Global budget exhausted: the whole analysis is incomplete.
    Budget,
    /// A per-loop unroll allowance tripped: retry that loop as a fixpoint.
    Unroll,
}

type W<T> = Result<T, Abort>;

/// Per-variable store accumulator (joined over every recorded store).
#[derive(Debug, Clone)]
struct Acc {
    hull: Interval,
    abs_err: f64,
    rel: f64,
}

impl Acc {
    fn update(&mut self, v: &AbsVal) {
        self.hull = self.hull.join(&v.primary_iv());
        self.abs_err = self.abs_err.max(v.err);
        self.rel = self.rel.max(v.rel_bound());
    }

    fn of(v: &AbsVal) -> Acc {
        Acc {
            hull: v.primary_iv(),
            abs_err: v.err,
            rel: v.rel_bound(),
        }
    }
}

type CacheKey = (usize, Vec<u64>);

struct CacheOut {
    exit: Option<(Vec<ASlot>, Vec<ASlot>)>,
    ret: Option<AV>,
}

// ---------------------------------------------------------------------------
// Walker
// ---------------------------------------------------------------------------

struct Walker<'a> {
    ir: &'a ProgramIR,
    steps: u64,
    budget: u64,
    /// Innermost-first stack of absolute step ceilings for unroll attempts.
    ceilings: Vec<u64>,
    depth: usize,
    vars: BTreeMap<(usize, usize), Acc>,
    records: BTreeMap<String, Acc>,
    /// Worst cancellation amplification per `(proc, line)` site; named
    /// `proc:line` only when the report is built.
    cancels: HashMap<(usize, u32), f64>,
    cache: HashMap<CacheKey, CacheOut>,
    cur_proc: usize,
    cur_line: u32,
    /// Recording suppression depth. While `> 0` (fixpoint iteration rounds),
    /// stores are not folded into the report: intermediate rounds can pass
    /// through havoced states that are not invariants. Each loop records via
    /// one final pass over its converged invariant instead.
    mute: u32,
}

/// Analyze one lowered variant. `max_steps` bounds the abstract work; pass
/// [`DEFAULT_MAX_STEPS`] unless you have a reason not to.
pub fn analyze_ir(ir: &ProgramIR, max_steps: u64) -> BoundReport {
    let mut w = Walker {
        ir,
        steps: 0,
        budget: max_steps.max(1),
        ceilings: Vec::new(),
        depth: 0,
        vars: BTreeMap::new(),
        records: BTreeMap::new(),
        cancels: HashMap::new(),
        cache: HashMap::new(),
        cur_proc: GLOBAL_SCOPE,
        cur_line: 0,
        mute: 0,
    };
    let incomplete = match w.run() {
        Ok(()) => false,
        Err(_) => true,
    };
    w.finish(incomplete)
}

/// Lower `program` under the candidate `map` (no wrappers — binding
/// conversions over-approximate them) and analyze the result.
pub fn analyze_variant(
    program: &Program,
    index: &ProgramIndex,
    map: &PrecisionMap,
    inline_max_stmts: usize,
    max_steps: u64,
) -> FortResult<BoundReport> {
    let t = IrTemplate::new(program, index, inline_max_stmts)?;
    let ir = t.instantiate(map, &[], &HashMap::new())?;
    Ok(analyze_ir(&ir, max_steps))
}

impl<'a> Walker<'a> {
    // ---- bookkeeping ----------------------------------------------------

    fn bump(&mut self, n: u64) -> W<()> {
        self.steps += n;
        if self.steps > self.budget {
            return Err(Abort::Budget);
        }
        if let Some(&c) = self.ceilings.last() {
            if self.steps > c {
                return Err(Abort::Unroll);
            }
        }
        Ok(())
    }

    fn scope_name(&self, proc: usize) -> &str {
        if proc == GLOBAL_SCOPE {
            "@global"
        } else {
            &self.ir.procs[proc].name
        }
    }

    fn record_var(&mut self, proc: usize, slot: usize, v: &AbsVal) {
        if self.mute > 0 {
            return;
        }
        self.vars
            .entry((proc, slot))
            .and_modify(|a| a.update(v))
            .or_insert_with(|| Acc::of(v));
    }

    fn record_record(&mut self, key: &str, v: &AbsVal) {
        if self.mute > 0 {
            return;
        }
        match self.records.get_mut(key) {
            Some(a) => a.update(v),
            None => {
                self.records.insert(key.to_string(), Acc::of(v));
            }
        }
    }

    fn note_cancellation(&mut self, a: &Interval, b: &Interval) {
        if self.mute > 0 {
            return;
        }
        let k = cancellation_kappa(a, b);
        if k >= CANCEL_KAPPA && (a.max_abs() > 0.0 || b.max_abs() > 0.0) {
            let e = self
                .cancels
                .entry((self.cur_proc, self.cur_line))
                .or_insert(0.0);
            *e = e.max(k);
        }
    }

    fn finish(self, incomplete: bool) -> BoundReport {
        let mut vars: Vec<VarBound> = self
            .vars
            .iter()
            .map(|(&(proc, slot), acc)| {
                let name = if proc == GLOBAL_SCOPE {
                    format!("@global::{}", self.ir.globals[slot].name)
                } else {
                    let p = &self.ir.procs[proc];
                    format!("{}::{}", p.name, p.slots[slot].name)
                };
                VarBound {
                    name,
                    lo: acc.hull.lo,
                    hi: acc.hull.hi,
                    abs_err: acc.abs_err,
                    rel_err: acc.rel,
                }
            })
            .collect();
        let mut records: Vec<VarBound> = self
            .records
            .iter()
            .map(|(name, acc)| VarBound {
                name: name.clone(),
                lo: acc.hull.lo,
                hi: acc.hull.hi,
                abs_err: acc.abs_err,
                rel_err: acc.rel,
            })
            .collect();
        let by_rel = |a: &VarBound, b: &VarBound| {
            b.rel_err
                .total_cmp(&a.rel_err)
                .then_with(|| a.name.cmp(&b.name))
        };
        vars.sort_by(by_rel);
        records.sort_by(by_rel);
        let worst_rel = vars
            .iter()
            .chain(records.iter())
            .map(|v| v.rel_err)
            .fold(0.0_f64, f64::max);
        let mut sites: BTreeMap<String, f64> = BTreeMap::new();
        for (&(proc, line), &kappa) in &self.cancels {
            let site = format!("{}:{}", self.scope_name(proc), line);
            let e = sites.entry(site).or_insert(0.0);
            *e = e.max(kappa);
        }
        let mut cancellations: Vec<CancelSite> = sites
            .into_iter()
            .map(|(site, kappa)| CancelSite { site, kappa })
            .collect();
        cancellations.sort_by(|a, b| {
            b.kappa
                .total_cmp(&a.kappa)
                .then_with(|| a.site.cmp(&b.site))
        });
        cancellations.truncate(64);
        BoundReport {
            vars,
            records,
            worst_rel,
            cancellations,
            incomplete,
            steps: self.steps,
        }
    }

    // ---- program entry --------------------------------------------------

    fn run(&mut self) -> W<()> {
        let ir = self.ir;
        let mut st = State {
            locals: Vec::new(),
            globals: ir.globals.iter().map(default_slot).collect(),
        };
        // Globals in declaration order: fixed-shape arrays, then scalar
        // initializers (recorded — the machine notes these stores).
        for (i, decl) in ir.globals.iter().enumerate() {
            if let Some(dims) = &decl.dims {
                if !decl.allocatable {
                    let (dims, len) = self.eval_dims(dims, &mut st)?;
                    st.globals[i] = fresh_array(decl, dims, len);
                }
            } else if let Some(init) = &decl.init {
                let v = self.eval(init, &mut st)?;
                self.assign_scalar(SlotRef::Global(i), v, &mut st, true)?;
            }
        }
        self.call_inner(ir.main_proc, &[], &mut st)?;
        Ok(())
    }

    // ---- calls ----------------------------------------------------------

    fn call_inner(&mut self, proc_id: usize, args: &[IArg], st: &mut State) -> W<Option<AV>> {
        self.bump(8)?;
        if self.depth >= CALL_DEPTH_LIMIT {
            // The machine's recursion guard errors here: no further stores.
            return Ok(Some(AV::Fp(AbsVal::top())));
        }
        let ir = self.ir;
        let proc = &ir.procs[proc_id];

        // Bind arguments in order (argument expressions have effects).
        let mut locals: Vec<ASlot> = proc.slots.iter().map(default_slot).collect();
        let mut wbs: Vec<(usize, ILValue)> = Vec::new();
        let mut arr_outs: Vec<(usize, usize)> = Vec::new(); // (param slot, caller local)
        let mut seen_copy: Vec<usize> = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            let slot_idx = proc.params[i];
            let decl = &proc.slots[slot_idx];
            match arg {
                IArg::Value(e) => {
                    let v = self.eval(e, st)?;
                    locals[slot_idx] = bind_scalar(decl, v);
                }
                IArg::ScalarRef(lv) => {
                    let v = self.read_lv(lv, st)?;
                    locals[slot_idx] = bind_scalar(decl, v);
                    if decl.intent != Some(Intent::In) {
                        wbs.push((slot_idx, lv.clone()));
                    }
                }
                IArg::ArrayRef(r) => {
                    let stor = self.resolve_arr(st, *r);
                    match stor {
                        Stor::G(g) => locals[slot_idx] = ASlot::AliasGlobal(g),
                        Stor::L(l) => {
                            if seen_copy.contains(&l) {
                                // The machine shares one handle; a copied
                                // summary would lose cross-param writes.
                                havoc_slot(&mut st.locals[l]);
                            }
                            seen_copy.push(l);
                            locals[slot_idx] = bind_array(decl, &st.locals[l]);
                            arr_outs.push((slot_idx, l));
                        }
                    }
                }
            }
        }

        // Summary cache: behavior is a function of the abstract arguments
        // and globals (locals init below is deterministic from them).
        let key: CacheKey = (proc_id, encode_state(&locals, &st.globals));
        if let Some(hit) = self.cache.get(&key) {
            let ret = hit.ret.clone();
            let exit = hit.exit.as_ref().map(|(l, g)| (l.clone(), g.clone()));
            self.bump(1)?;
            match exit {
                None => return Ok(ret), // callee never returns; path is dead concretely
                Some((exit_locals, exit_globals)) => {
                    st.globals = exit_globals;
                    self.apply_outs(&exit_locals, &wbs, &arr_outs, proc_id, st)?;
                    return Ok(ret);
                }
            }
        }

        // Initialize non-dummy locals (shapes may read dummies).
        let saved_proc = self.cur_proc;
        self.cur_proc = proc_id;
        self.depth += 1;
        let mut callee = State {
            locals,
            globals: std::mem::take(&mut st.globals),
        };
        let mut init_abort = None;
        for (i, decl) in proc.slots.iter().enumerate() {
            if decl.is_dummy {
                continue;
            }
            if let Some(dims) = &decl.dims {
                if !decl.allocatable {
                    match self.eval_dims(dims, &mut callee) {
                        Ok((dims, len)) => callee.locals[i] = fresh_array(decl, dims, len),
                        Err(a) => {
                            init_abort = Some(a);
                            break;
                        }
                    }
                }
            } else if let Some(init) = &decl.init {
                // Bindings and local inits are not `note_var`ed.
                match self.eval(init, &mut callee) {
                    Ok(v) => callee.locals[i] = bind_scalar(decl, v),
                    Err(a) => {
                        init_abort = Some(a);
                        break;
                    }
                }
            }
        }

        // The pre-call globals, restored when the callee never returns.
        let entry_globals = callee.globals.clone();
        let result = match init_abort {
            Some(a) => Err(a),
            None => {
                let mut env = Env {
                    ret: None,
                    loops: Vec::new(),
                };
                self.exec_block(&proc.body, callee, &mut env)
                    .map(|fall| join_opt(fall, env.ret))
            }
        };
        self.depth -= 1;
        self.cur_proc = saved_proc;

        let exit = match result {
            Ok(e) => e,
            Err(a) => {
                // Restore the caller's globals before propagating.
                st.globals = entry_globals;
                return Err(a);
            }
        };

        let (ret, out) = match exit {
            None => {
                // All paths stop or trap: the caller's continuation is
                // concretely unreachable. Restore pre-call globals.
                st.globals = entry_globals;
                (Some(AV::Fp(AbsVal::top())), None)
            }
            Some(ex) => {
                let ret = if proc.is_function {
                    let rs = proc.result_slot.expect("function result slot");
                    Some(slot_value(&ex, &ex.locals[rs]))
                } else {
                    Some(AV::Bool)
                };
                st.globals = ex.globals.clone();
                self.apply_outs(&ex.locals, &wbs, &arr_outs, proc_id, st)?;
                (ret, Some((ex.locals, ex.globals)))
            }
        };
        // Only unmuted executions populate the cache: a muted call records
        // nothing, so replaying its summary later would silently skip the
        // callee's store recording.
        if self.mute == 0 && self.cache.len() < CACHE_CAP {
            self.cache.insert(
                key,
                CacheOut {
                    exit: out,
                    ret: ret.clone(),
                },
            );
        }
        Ok(ret)
    }

    /// Scalar copy-outs (recorded stores, like the machine's writebacks)
    /// and whole-array copy-outs (strong updates, unrecorded).
    fn apply_outs(
        &mut self,
        exit_locals: &[ASlot],
        wbs: &[(usize, ILValue)],
        arr_outs: &[(usize, usize)],
        proc_id: usize,
        st: &mut State,
    ) -> W<()> {
        for (slot_idx, lv) in wbs {
            let v = slot_value_raw(&exit_locals[*slot_idx]);
            self.write_lv(lv, v, st, true)?;
        }
        for (slot_idx, caller_local) in arr_outs {
            let mut out = exit_locals[*slot_idx].clone();
            // A converting writeback (wrapper path) re-rounds at the
            // caller's kind; same-kind writeback is exact.
            if let (
                ASlot::FpArr { elem, prec, .. },
                ASlot::FpArr {
                    prec: caller_prec, ..
                },
            ) = (&mut out, &st.locals[*caller_local])
            {
                if prec != caller_prec {
                    *elem = elem.store(*caller_prec);
                    *prec = *caller_prec;
                }
            }
            if !matches!(out, ASlot::AliasGlobal(_)) {
                st.locals[*caller_local] = out;
            }
        }
        let _ = proc_id;
        Ok(())
    }

    // ---- statements -----------------------------------------------------

    fn exec_block(&mut self, body: &[IStmt], mut st: State, env: &mut Env) -> W<Option<State>> {
        for s in body {
            match self.exec_stmt(s, st, env)? {
                Some(next) => st = next,
                None => return Ok(None),
            }
        }
        Ok(Some(st))
    }

    fn exec_stmt(&mut self, s: &IStmt, mut st: State, env: &mut Env) -> W<Option<State>> {
        self.bump(1)?;
        match s {
            IStmt::AssignScalar { slot, value, line } => {
                self.cur_line = *line;
                let v = self.eval(value, &mut st)?;
                self.assign_scalar(*slot, v, &mut st, true)?;
                Ok(Some(st))
            }
            IStmt::AssignElem {
                slot,
                indices,
                value,
                line,
            } => {
                self.cur_line = *line;
                for ix in indices {
                    self.eval(ix, &mut st)?;
                }
                let v = self.eval(value, &mut st)?;
                self.elem_store(*slot, v, &mut st, true)?;
                Ok(Some(st))
            }
            IStmt::AssignBroadcast { slot, value, line } => {
                self.cur_line = *line;
                let v = self.eval(value, &mut st)?;
                let stor = self.resolve_arr(&st, *slot);
                match arr_mut(&mut st, stor) {
                    ASlot::FpArr { elem, prec, .. } => {
                        *elem = store_fp(to_fp(&v, Some(*prec)), *prec);
                    }
                    ASlot::IntArr { elem, .. } => {
                        *elem = to_int(&v);
                    }
                    other => havoc_slot(other),
                }
                Ok(Some(st))
            }
            IStmt::AssignArrayCopy { dst, src, line } => {
                self.cur_line = *line;
                let sstor = self.resolve_arr(&st, *src);
                let dstor = self.resolve_arr(&st, *dst);
                if sstor != dstor {
                    let srcv = arr_mut(&mut st, sstor).clone();
                    let d = arr_mut(&mut st, dstor);
                    match (&srcv, &mut *d) {
                        (
                            ASlot::FpArr {
                                elem: se,
                                dims: sd,
                                len: sl,
                                prec: sp,
                            },
                            ASlot::FpArr {
                                elem,
                                dims,
                                len,
                                prec,
                            },
                        ) => {
                            *elem = if sp == prec { *se } else { se.store(*prec) };
                            *dims = sd.clone();
                            *len = *sl;
                        }
                        (
                            ASlot::IntArr {
                                elem: se,
                                dims: sd,
                                len: sl,
                            },
                            ASlot::IntArr { elem, dims, len },
                        ) => {
                            *elem = *se;
                            *dims = sd.clone();
                            *len = *sl;
                        }
                        (_, d) => havoc_slot(d),
                    }
                }
                Ok(Some(st))
            }
            IStmt::If {
                arms,
                else_body,
                line,
            } => {
                self.cur_line = *line;
                let mut fall: Option<State> = None;
                for (cond, body) in arms {
                    self.eval(cond, &mut st)?;
                    let taken = self.exec_block(body, st.clone(), env)?;
                    fall = join_opt(fall, taken);
                }
                let e = self.exec_block(else_body, st, env)?;
                Ok(join_opt(fall, e))
            }
            IStmt::Do {
                var,
                start,
                end,
                step,
                body,
                line,
                ..
            } => {
                self.cur_line = *line;
                let s_iv = to_int(&self.eval(start, &mut st)?);
                let e_iv = to_int(&self.eval(end, &mut st)?);
                let stp_iv = match step {
                    Some(x) => to_int(&self.eval(x, &mut st)?),
                    None => Interval::point(1.0),
                };
                if let (Some(s0), Some(e0), Some(sp)) = (
                    int_singleton(&s_iv),
                    int_singleton(&e_iv),
                    int_singleton(&stp_iv),
                ) {
                    if sp != 0 {
                        let trips = if sp > 0 {
                            (e0 - s0 + sp).max(0) / sp
                        } else {
                            (s0 - e0 - sp).max(0) / -sp
                        };
                        if trips <= UNROLL_MAX_TRIPS {
                            let snapshot = st.clone();
                            let ceiling = self
                                .ceilings
                                .last()
                                .copied()
                                .unwrap_or(u64::MAX)
                                .min(self.steps.saturating_add(UNROLL_OPS));
                            self.ceilings.push(ceiling);
                            let attempt = self.unroll_do(*var, s0, e0, sp, body, st, env);
                            self.ceilings.pop();
                            match attempt {
                                Ok(out) => return Ok(out),
                                Err(Abort::Unroll) => st = snapshot,
                                Err(a) => return Err(a),
                            }
                        }
                    }
                }
                // Fixpoint fallback: the loop variable ranges over the hull
                // of the bounds, inflated one step past the end.
                let stp_mag = stp_iv.abs().hi.max(1.0);
                let hull = Interval::new(
                    s_iv.lo.min(e_iv.lo) - stp_mag,
                    s_iv.hi.max(e_iv.hi) + stp_mag,
                );
                self.fix_loop(st, Some((*var, hull)), None, body, env)
            }
            IStmt::DoWhile { cond, body, line } => {
                self.cur_line = *line;
                self.fix_loop(st, None, Some(cond), body, env)
            }
            IStmt::CallSub { proc, args, line } => {
                self.cur_line = *line;
                self.call_inner(*proc, args, &mut st)?;
                Ok(Some(st))
            }
            IStmt::CallIntrinsicSub {
                f,
                name_arg,
                args,
                line,
            } => {
                self.cur_line = *line;
                self.intrinsic_sub(*f, name_arg.as_deref(), args, &mut st)?;
                Ok(Some(st))
            }
            IStmt::Return => {
                env.ret = join_opt(env.ret.take(), Some(st));
                Ok(None)
            }
            IStmt::Exit => {
                if let Some(la) = env.loops.last_mut() {
                    la.exit = join_opt(la.exit.take(), Some(st));
                }
                Ok(None)
            }
            IStmt::Cycle => {
                if let Some(la) = env.loops.last_mut() {
                    la.cyc = join_opt(la.cyc.take(), Some(st));
                }
                Ok(None)
            }
            IStmt::Print { items, line } => {
                self.cur_line = *line;
                for e in items {
                    self.eval(e, &mut st)?;
                }
                Ok(Some(st))
            }
            IStmt::Stop { .. } => Ok(None),
            IStmt::Allocate { slot, dims, line } => {
                self.cur_line = *line;
                let (dims, len) = self.eval_dims(dims, &mut st)?;
                let decl = self.slot_decl(*slot);
                let stor = self.resolve_arr(&st, *slot);
                *arr_mut(&mut st, stor) = fresh_array(decl, dims, len);
                Ok(Some(st))
            }
            IStmt::Deallocate { .. } => Ok(Some(st)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn unroll_do(
        &mut self,
        var: SlotRef,
        s0: i64,
        e0: i64,
        sp: i64,
        body: &[IStmt],
        mut st: State,
        env: &mut Env,
    ) -> W<Option<State>> {
        // Each iteration consumes the state it runs on: on an abort the
        // caller restarts from its own pre-loop snapshot.
        let mut exit_acc: Option<State> = None;
        let mut i = s0;
        loop {
            if (sp > 0 && i > e0) || (sp < 0 && i < e0) {
                break;
            }
            self.bump(2)?;
            self.set_int(var, Interval::point(i as f64), &mut st);
            env.loops.push(LoopAcc::default());
            let fall = self.exec_block(body, st, env);
            let la = env.loops.pop().unwrap_or_default();
            let fall = fall?;
            exit_acc = join_opt(exit_acc, la.exit);
            match join_opt(fall, la.cyc) {
                Some(next) => st = next,
                None => return Ok(exit_acc),
            }
            i += sp;
        }
        self.set_int(var, Interval::point(i as f64), &mut st);
        Ok(join_opt(Some(st), exit_acc))
    }

    fn fix_loop(
        &mut self,
        entry: State,
        var: Option<(SlotRef, Interval)>,
        cond: Option<&IExpr>,
        body: &[IStmt],
        env: &mut Env,
    ) -> W<Option<State>> {
        let mut acc = entry.clone();
        let mut exit_acc: Option<State> = None;
        let mut rounds: u32 = 0;
        // Iteration rounds are muted: they may traverse non-invariant
        // intermediate states (and, past the round cap, a havoced one), so
        // nothing they do may enter the report.
        self.mute += 1;
        let fix = (|| -> W<()> {
            loop {
                self.bump(4)?;
                let mut stx = acc.clone();
                if let Some((v, hull)) = &var {
                    self.set_int(*v, *hull, &mut stx);
                }
                if let Some(c) = cond {
                    self.eval(c, &mut stx)?;
                }
                env.loops.push(LoopAcc::default());
                let fall = self.exec_block(body, stx, env);
                let la = env.loops.pop().unwrap_or_default();
                let Some(out) = join_opt(fall?, la.cyc) else {
                    break;
                };
                let next = join_state(&acc, &out);
                if state_le(&next, &acc) {
                    break;
                }
                rounds += 1;
                acc = if rounds > WIDEN_AFTER {
                    widen_state(&next, &acc)
                } else {
                    next
                };
                if rounds > FIX_ROUND_CAP {
                    havoc_state(&mut acc);
                    break;
                }
            }
            Ok(())
        })();
        self.mute -= 1;
        fix?;
        // Final recording pass from the converged invariant: over-approximates
        // every concrete iteration's stores and exits, and doubles as one
        // narrowing step (adopt the tighter result if it still covers entry).
        {
            let mut stx = acc.clone();
            if let Some((v, hull)) = &var {
                self.set_int(*v, *hull, &mut stx);
            }
            if let Some(c) = cond {
                self.eval(c, &mut stx)?;
            }
            env.loops.push(LoopAcc::default());
            let fall = self.exec_block(body, stx, env);
            let la = env.loops.pop().unwrap_or_default();
            let fall = fall?;
            exit_acc = join_opt(exit_acc, la.exit);
            if let Some(out) = join_opt(fall, la.cyc) {
                let cand = join_state(&entry, &out);
                if state_le(&cand, &acc) {
                    acc = cand;
                }
            }
        }
        let mut post = acc;
        if let Some((v, hull)) = &var {
            self.set_int(*v, *hull, &mut post);
        }
        Ok(join_opt(Some(post), exit_acc))
    }

    fn intrinsic_sub(
        &mut self,
        f: IntrinsicSub,
        name_arg: Option<&str>,
        args: &[IArg],
        st: &mut State,
    ) -> W<()> {
        match f {
            IntrinsicSub::ProseRecord => {
                let v = match &args[0] {
                    IArg::Value(e) => self.eval(e, st)?,
                    _ => AV::Fp(AbsVal::top()),
                };
                let fv = to_fp(&v, None);
                self.record_record(name_arg.unwrap_or("unnamed"), &fv);
                Ok(())
            }
            IntrinsicSub::ProseRecordArray => {
                let v = match &args[0] {
                    IArg::ArrayRef(r) => {
                        let stor = self.resolve_arr(st, *r);
                        match arr_mut(st, stor) {
                            ASlot::FpArr { elem, .. } => *elem,
                            _ => AbsVal::top(),
                        }
                    }
                    _ => AbsVal::top(),
                };
                self.record_record(name_arg.unwrap_or("unnamed"), &v);
                Ok(())
            }
            IntrinsicSub::MpiAllreduceSum | IntrinsicSub::MpiAllreduceMax => {
                // One logical rank: identity on the data.
                let v = match &args[0] {
                    IArg::Value(e) => self.eval(e, st)?,
                    _ => AV::Fp(AbsVal::top()),
                };
                if let Some(IArg::ScalarRef(lv)) = args.get(1) {
                    self.write_lv(lv, v, st, true)?;
                }
                Ok(())
            }
        }
    }

    // ---- stores and loads -----------------------------------------------

    fn slot_decl(&self, r: SlotRef) -> &'a crate::ir::SlotDecl {
        let ir = self.ir;
        match r {
            SlotRef::Local(i) => &ir.procs[self.cur_proc].slots[i],
            SlotRef::Global(i) => &ir.globals[i],
        }
    }

    fn assign_scalar(&mut self, r: SlotRef, v: AV, st: &mut State, record: bool) -> W<()> {
        self.bump(1)?;
        let decl_ty = self.slot_decl(r).ty;
        let stored = match decl_ty {
            STy::Fp(p) => {
                let fv = store_fp(to_fp(&v, Some(p)), p);
                if record {
                    match r {
                        SlotRef::Local(i) => self.record_var(self.cur_proc, i, &fv),
                        SlotRef::Global(i) => self.record_var(GLOBAL_SCOPE, i, &fv),
                    }
                }
                ASlot::Fp(fv)
            }
            STy::Int => ASlot::Int(trunc_hull(&to_fp_primary(&v))),
            STy::Bool => ASlot::Bool,
            STy::Str => ASlot::Str,
        };
        match r {
            SlotRef::Local(i) => st.locals[i] = stored,
            SlotRef::Global(i) => st.globals[i] = stored,
        }
        Ok(())
    }

    /// Weak (joining) element store, recorded like the machine's `note_var`.
    fn elem_store(&mut self, r: SlotRef, v: AV, st: &mut State, record: bool) -> W<()> {
        self.bump(1)?;
        let stor = self.resolve_arr(st, r);
        let mut rec: Option<AbsVal> = None;
        match arr_mut(st, stor) {
            ASlot::FpArr { elem, prec, .. } => {
                let fv = store_fp(to_fp(&v, Some(*prec)), *prec);
                *elem = elem.join(&fv);
                rec = Some(fv);
            }
            ASlot::IntArr { elem, .. } => {
                *elem = elem.join(&to_int(&v));
            }
            other => havoc_slot(other),
        }
        if let (Some(fv), true) = (rec, record) {
            match stor {
                Stor::L(i) => self.record_var(self.cur_proc, i, &fv),
                Stor::G(i) => self.record_var(GLOBAL_SCOPE, i, &fv),
            }
        }
        Ok(())
    }

    fn set_int(&mut self, r: SlotRef, iv: Interval, st: &mut State) {
        match r {
            SlotRef::Local(i) => st.locals[i] = ASlot::Int(iv),
            SlotRef::Global(i) => st.globals[i] = ASlot::Int(iv),
        }
    }

    fn resolve_arr(&self, st: &State, r: SlotRef) -> Stor {
        match r {
            SlotRef::Global(g) => Stor::G(g),
            SlotRef::Local(i) => match st.locals[i] {
                ASlot::AliasGlobal(g) => Stor::G(g),
                _ => Stor::L(i),
            },
        }
    }

    fn read_lv(&mut self, lv: &ILValue, st: &mut State) -> W<AV> {
        match lv {
            ILValue::Scalar(r) => {
                let slot = match r {
                    SlotRef::Local(i) => &st.locals[*i],
                    SlotRef::Global(i) => &st.globals[*i],
                };
                Ok(slot_value(st, slot))
            }
            ILValue::Elem { slot, indices } => {
                for ix in indices {
                    self.eval(ix, st)?;
                }
                let stor = self.resolve_arr(st, *slot);
                Ok(match arr_mut(st, stor) {
                    ASlot::FpArr { elem, .. } => AV::Fp(*elem),
                    ASlot::IntArr { elem, .. } => AV::Int(*elem),
                    _ => AV::Fp(AbsVal::top()),
                })
            }
        }
    }

    fn write_lv(&mut self, lv: &ILValue, v: AV, st: &mut State, record: bool) -> W<()> {
        match lv {
            ILValue::Scalar(r) => self.assign_scalar(*r, v, st, record),
            ILValue::Elem { slot, indices } => {
                for ix in indices {
                    self.eval(ix, st)?;
                }
                self.elem_store(*slot, v, st, record)
            }
        }
    }

    fn eval_dims(&mut self, dims: &[IDim], st: &mut State) -> W<(Vec<Interval>, Interval)> {
        let mut extents = Vec::with_capacity(dims.len());
        for d in dims {
            let e = match d {
                IDim::Explicit { lower, upper } => {
                    let lo = match lower {
                        Some(l) => to_int(&self.eval(l, st)?),
                        None => Interval::point(1.0),
                    };
                    let hi = to_int(&self.eval(upper, st)?);
                    let e = hi.sub(&lo).add(&Interval::point(1.0));
                    Interval::new(e.lo.max(0.0), e.hi.max(0.0))
                }
                IDim::Deferred => Interval::new(0.0, f64::INFINITY),
            };
            extents.push(e);
        }
        let mut len = Interval::point(1.0);
        for e in &extents {
            len = len.mul(e);
        }
        len = Interval::new(len.lo.max(0.0), len.hi.max(0.0));
        Ok((extents, len))
    }

    // ---- expressions ----------------------------------------------------

    fn eval(&mut self, e: &IExpr, st: &mut State) -> W<AV> {
        self.bump(1)?;
        Ok(match e {
            IExpr::RealLit(x) => AV::Fp(AbsVal::lit(*x)),
            IExpr::IntLit(i) => AV::Int(int_point(*i)),
            IExpr::BoolLit(_) => AV::Bool,
            IExpr::StrLit(_) => AV::Str,
            IExpr::LoadScalar(r) => {
                let slot = match r {
                    SlotRef::Local(i) => &st.locals[*i],
                    SlotRef::Global(i) => &st.globals[*i],
                };
                slot_value(st, slot)
            }
            IExpr::LoadElem { slot, indices } => {
                for ix in indices {
                    self.eval(ix, st)?;
                }
                let stor = self.resolve_arr(st, *slot);
                match arr_mut(st, stor) {
                    ASlot::FpArr { elem, .. } => AV::Fp(*elem),
                    ASlot::IntArr { elem, .. } => AV::Int(*elem),
                    _ => AV::Fp(AbsVal::top()),
                }
            }
            IExpr::CallFun { proc, args } => self
                .call_inner(*proc, args, st)?
                .unwrap_or(AV::Fp(AbsVal::top())),
            IExpr::Intrinsic { f, args } => self.intrinsic(*f, args, st)?,
            IExpr::SizeOf { slot, dim } => {
                let d = match dim {
                    Some(e) => Some(to_int(&self.eval(e, st)?)),
                    None => None,
                };
                let stor = self.resolve_arr(st, *slot);
                let (dims, len) = match arr_mut(st, stor) {
                    ASlot::FpArr { dims, len, .. } | ASlot::IntArr { dims, len, .. } => {
                        (dims.as_slice(), *len)
                    }
                    _ => (&[][..], Interval::new(0.0, f64::INFINITY)),
                };
                match d {
                    None => AV::Int(len),
                    Some(di) => match int_singleton(&di) {
                        Some(k) if k >= 1 && (k as usize) <= dims.len() => {
                            AV::Int(dims[(k - 1) as usize])
                        }
                        _ => {
                            let mut hull: Option<Interval> = None;
                            for e in dims {
                                hull = Some(match hull {
                                    None => *e,
                                    Some(h) => h.join(e),
                                });
                            }
                            AV::Int(hull.unwrap_or_else(|| Interval::new(0.0, f64::INFINITY)))
                        }
                    },
                }
            }
            IExpr::Reduce { f, slot } => {
                let stor = self.resolve_arr(st, *slot);
                let (elem, len, prec) = match arr_mut(st, stor) {
                    ASlot::FpArr {
                        elem, len, prec, ..
                    } => (*elem, *len, *prec),
                    _ => return Ok(AV::Fp(AbsVal::top())),
                };
                AV::Fp(reduce_fp(*f, &elem, &len, prec))
            }
            IExpr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs, st)?;
                let b = self.eval(rhs, st)?;
                if op.is_comparison() || op.is_logical() {
                    AV::Bool
                } else {
                    self.arith(*op, a, b, rhs)
                }
            }
            IExpr::Un { op, operand } => {
                let v = self.eval(operand, st)?;
                match op {
                    UnOp::Not => AV::Bool,
                    UnOp::Plus => v,
                    UnOp::Neg => match v {
                        AV::Int(iv) => AV::Int(iv.neg()),
                        AV::Fp(f) => AV::Fp(f.neg()),
                        other => other,
                    },
                }
            }
        })
    }

    fn arith(&mut self, op: BinOp, a: AV, b: AV, rhs: &IExpr) -> AV {
        if let (AV::Int(x), AV::Int(y)) = (&a, &b) {
            return AV::Int(int_bin(op, x, y, rhs));
        }
        // Mixed: integers convert at the FP side's working precision.
        let fb = to_fp_as_operand(&b, &a);
        let fa = to_fp_as_operand(&a, &b);
        match op {
            BinOp::Add => {
                self.note_cancellation(&fa.iv, &fb.iv.neg());
                AV::Fp(fa.add(&fb))
            }
            BinOp::Sub => {
                self.note_cancellation(&fa.iv, &fb.iv);
                AV::Fp(fa.sub(&fb))
            }
            BinOp::Mul => AV::Fp(fa.mul(&fb)),
            BinOp::Div => AV::Fp(fa.div(&fb)),
            BinOp::Pow => AV::Fp(fp_pow(&fa, &fb, rhs)),
            _ => AV::Fp(AbsVal::top()),
        }
    }

    fn intrinsic(&mut self, f: IntrinsicFn, args: &[IExpr], st: &mut State) -> W<AV> {
        use IntrinsicFn::*;
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, st)?);
        }
        Ok(match f {
            Abs => match &vals[0] {
                AV::Int(iv) => AV::Int(iv.abs()),
                v => AV::Fp(to_fp(v, None).abs()),
            },
            Sqrt => AV::Fp(math_arg(&vals[0]).sqrt()),
            Exp => AV::Fp(math_arg(&vals[0]).exp()),
            Log => AV::Fp(math_arg(&vals[0]).ln()),
            Log10 => {
                let v = math_arg(&vals[0]);
                if v.iv.lo > 0.0 {
                    let iv = mono_iv(&v.iv, f64::log10);
                    let lo_primary = v.iv.lo - v.err;
                    let lip = if lo_primary > 0.0 {
                        1.0 / (lo_primary * std::f64::consts::LN_10)
                    } else {
                        f64::INFINITY
                    };
                    AV::Fp(v.lipschitz(iv, lip))
                } else {
                    AV::Fp(AbsVal {
                        iv: Interval::top(),
                        err: f64::INFINITY,
                        prec: v.prec,
                    })
                }
            }
            Sin => AV::Fp(math_arg(&vals[0]).sin()),
            Cos => AV::Fp(math_arg(&vals[0]).cos()),
            Tan => AV::Fp(AbsVal {
                iv: Interval::top(),
                err: f64::INFINITY,
                prec: math_arg(&vals[0]).prec,
            }),
            Atan => {
                let v = math_arg(&vals[0]);
                AV::Fp(v.lipschitz(mono_iv(&v.iv, f64::atan), 1.0))
            }
            Tanh => {
                let v = math_arg(&vals[0]);
                AV::Fp(v.lipschitz(mono_iv(&v.iv, f64::tanh), 1.0))
            }
            Atan2 => {
                let a = math_arg(&vals[0]);
                let b = math_arg(&vals[1]);
                if b.primary_iv().lo > 0.0 {
                    let q = a.div(&b);
                    AV::Fp(q.lipschitz(mono_iv(&q.iv, f64::atan), 1.0))
                } else {
                    AV::Fp(AbsVal {
                        iv: Interval::new(-3.15, 3.15),
                        err: f64::INFINITY,
                        prec: prose_analysis::absint::promote(a.prec, b.prec),
                    })
                }
            }
            Mod => match (&vals[0], &vals[1]) {
                (AV::Int(x), AV::Int(y)) => {
                    let m = x.max_abs().min(y.max_abs());
                    AV::Int(if x.lo >= 0.0 {
                        Interval::new(0.0, m)
                    } else {
                        Interval::new(-m, m)
                    })
                }
                (x, y) => {
                    let fx = to_fp_as_operand(x, y);
                    let fy = to_fp_as_operand(y, x);
                    let m = fx.iv.max_abs().min(fy.iv.max_abs());
                    let err = if fx.err == 0.0 && fy.err == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    };
                    AV::Fp(AbsVal {
                        iv: Interval::new(-m, m),
                        err,
                        prec: prose_analysis::absint::promote(fx.prec, fy.prec),
                    })
                }
            },
            Sign => match (&vals[0], &vals[1]) {
                (AV::Int(x), AV::Int(y)) => {
                    let m = x.max_abs();
                    AV::Int(if y.lo > 0.0 {
                        x.abs()
                    } else if y.hi < 0.0 {
                        x.abs().neg()
                    } else {
                        Interval::new(-m, m)
                    })
                }
                (x, y) => {
                    let fx = to_fp_as_operand(x, y);
                    let fy = to_fp_as_operand(y, x);
                    let prec = prose_analysis::absint::promote(fx.prec, fy.prec);
                    let byv = fy.primary_iv();
                    if byv.lo > 0.0 {
                        AV::Fp(AbsVal { prec, ..fx.abs() })
                    } else if byv.hi < 0.0 {
                        AV::Fp(AbsVal {
                            prec,
                            ..fx.abs().neg()
                        })
                    } else {
                        // The primary and shadow may disagree on the sign.
                        let m = fx.iv.max_abs();
                        AV::Fp(AbsVal {
                            iv: Interval::new(-m, m),
                            err: if fx.err.is_finite() && m.is_finite() {
                                fx.err + 2.0 * m
                            } else {
                                f64::INFINITY
                            },
                            prec,
                        })
                    }
                }
            },
            Max | Min => {
                let mut acc = vals[0].clone();
                for v in &vals[1..] {
                    acc = match (&acc, v) {
                        (AV::Int(x), AV::Int(y)) => {
                            AV::Int(if f == Max { x.max(y) } else { x.min(y) })
                        }
                        (x, y) => {
                            let fx = to_fp_as_operand(x, y);
                            let fy = to_fp_as_operand(y, x);
                            AV::Fp(if f == Max { fx.max(&fy) } else { fx.min(&fy) })
                        }
                    };
                }
                acc
            }
            Real(k) => AV::Fp(convert_fp(&vals[0], k.unwrap_or(FpPrecision::Single))),
            Dble => AV::Fp(convert_fp(&vals[0], FpPrecision::Double)),
            Sngl => AV::Fp(convert_fp(&vals[0], FpPrecision::Single)),
            Int => AV::Int(trunc_hull(&to_fp_primary(&vals[0]))),
            Nint => AV::Int(round_hull(&to_fp_primary(&vals[0]))),
            Floor => AV::Int(floor_hull(&to_fp_primary(&vals[0]))),
            Epsilon | Huge | Tiny => {
                let p = match &vals[0] {
                    AV::Fp(v) => v.prec.unwrap_or(FpPrecision::Double),
                    _ => FpPrecision::Double,
                };
                let x = match (f, p) {
                    (Epsilon, FpPrecision::Single) => f32::EPSILON as f64,
                    (Epsilon, FpPrecision::Double) => f64::EPSILON,
                    (Huge, FpPrecision::Single) => f32::MAX as f64,
                    (Huge, FpPrecision::Double) => f64::MAX,
                    (Tiny, FpPrecision::Single) => f32::MIN_POSITIVE as f64,
                    (Tiny, FpPrecision::Double) => f64::MIN_POSITIVE,
                    _ => unreachable!(),
                };
                // Environment inquiry: the shadow snaps to the primary.
                AV::Fp(AbsVal::exact(x, p))
            }
            Isnan => AV::Bool,
            Size | Sum | Maxval | Minval => AV::Fp(AbsVal::top()),
        })
    }
}

// ---------------------------------------------------------------------------
// Slot and value helpers
// ---------------------------------------------------------------------------

fn default_slot(decl: &crate::ir::SlotDecl) -> ASlot {
    match (decl.ty, &decl.dims) {
        (STy::Fp(p), None) => ASlot::Fp(AbsVal::exact(0.0, p)),
        (STy::Int, None) => ASlot::Int(Interval::point(0.0)),
        (STy::Bool, None) => ASlot::Bool,
        (STy::Str, None) => ASlot::Str,
        (STy::Fp(p), Some(dims)) => ASlot::FpArr {
            elem: AbsVal::exact(0.0, p),
            dims: vec![Interval::new(0.0, f64::INFINITY); dims.len()],
            len: Interval::new(0.0, f64::INFINITY),
            prec: p,
        },
        (STy::Int, Some(dims)) => ASlot::IntArr {
            elem: Interval::point(0.0),
            dims: vec![Interval::new(0.0, f64::INFINITY); dims.len()],
            len: Interval::new(0.0, f64::INFINITY),
        },
        (_, Some(_)) => ASlot::Str,
    }
}

fn fresh_array(decl: &crate::ir::SlotDecl, dims: Vec<Interval>, len: Interval) -> ASlot {
    match decl.ty {
        STy::Fp(p) => ASlot::FpArr {
            elem: AbsVal::exact(0.0, p),
            dims,
            len,
            prec: p,
        },
        STy::Int => ASlot::IntArr {
            elem: Interval::point(0.0),
            dims,
            len,
        },
        _ => ASlot::Str,
    }
}

/// Bind a scalar value to a dummy/local declaration (conversion charged,
/// store not recorded — matches the machine's `convert_to_slot` path and
/// over-approximates synthesized wrappers for mismatched kinds).
fn bind_scalar(decl: &crate::ir::SlotDecl, v: AV) -> ASlot {
    match decl.ty {
        STy::Fp(p) => ASlot::Fp(store_fp(to_fp(&v, Some(p)), p)),
        STy::Int => ASlot::Int(trunc_hull(&to_fp_primary(&v))),
        STy::Bool => ASlot::Bool,
        STy::Str => ASlot::Str,
    }
}

/// Bind a whole-array actual to an array dummy. Same-kind association is
/// exact sharing (modeled copy-in/copy-out); a kind mismatch models the
/// wrapper's converting copy (the faithful path traps there).
fn bind_array(decl: &crate::ir::SlotDecl, actual: &ASlot) -> ASlot {
    match (decl.ty, actual) {
        (
            STy::Fp(dp),
            ASlot::FpArr {
                elem,
                dims,
                len,
                prec,
            },
        ) => ASlot::FpArr {
            elem: if *prec == dp { *elem } else { elem.store(dp) },
            dims: dims.clone(),
            len: *len,
            prec: dp,
        },
        (STy::Int, ASlot::IntArr { .. }) => actual.clone(),
        (STy::Fp(dp), _) => ASlot::FpArr {
            elem: AbsVal::top(),
            dims: Vec::new(),
            len: Interval::new(0.0, f64::INFINITY),
            prec: dp,
        },
        (_, other) => other.clone(),
    }
}

fn slot_value(st: &State, slot: &ASlot) -> AV {
    match slot {
        ASlot::Fp(v) => AV::Fp(*v),
        ASlot::Int(iv) => AV::Int(*iv),
        ASlot::Bool => AV::Bool,
        ASlot::Str => AV::Str,
        ASlot::AliasGlobal(g) => slot_value_raw(&st.globals[*g]),
        arr => slot_value_raw(arr),
    }
}

fn slot_value_raw(slot: &ASlot) -> AV {
    match slot {
        ASlot::Fp(v) => AV::Fp(*v),
        ASlot::Int(iv) => AV::Int(*iv),
        ASlot::Bool => AV::Bool,
        ASlot::Str => AV::Str,
        ASlot::FpArr { elem, .. } => AV::Fp(*elem),
        ASlot::IntArr { elem, .. } => AV::Int(*elem),
        ASlot::AliasGlobal(_) => AV::Fp(AbsVal::top()),
    }
}

fn arr_mut(st: &mut State, stor: Stor) -> &mut ASlot {
    match stor {
        Stor::L(i) => &mut st.locals[i],
        Stor::G(g) => &mut st.globals[g],
    }
}

fn havoc_slot(s: &mut ASlot) {
    match s {
        ASlot::Fp(v) => *v = AbsVal::top(),
        ASlot::Int(iv) => *iv = Interval::top(),
        ASlot::FpArr {
            elem, dims, len, ..
        } => {
            *elem = AbsVal::top();
            for d in dims.iter_mut() {
                *d = Interval::new(0.0, f64::INFINITY);
            }
            *len = Interval::new(0.0, f64::INFINITY);
        }
        ASlot::IntArr { elem, dims, len } => {
            *elem = Interval::top();
            for d in dims.iter_mut() {
                *d = Interval::new(0.0, f64::INFINITY);
            }
            *len = Interval::new(0.0, f64::INFINITY);
        }
        ASlot::Bool | ASlot::Str | ASlot::AliasGlobal(_) => {}
    }
}

fn havoc_state(st: &mut State) {
    for s in st.locals.iter_mut().chain(st.globals.iter_mut()) {
        havoc_slot(s);
    }
}

// ---------------------------------------------------------------------------
// State lattice operations
// ---------------------------------------------------------------------------

fn join_opt(a: Option<State>, b: Option<State>) -> Option<State> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(mut x), Some(y)) => {
            join_into(&mut x, &y);
            Some(x)
        }
    }
}

fn join_state(a: &State, b: &State) -> State {
    let mut joined = a.clone();
    join_into(&mut joined, b);
    joined
}

/// `a ← a ⊔ b`, in place.
fn join_into(a: &mut State, b: &State) {
    join_slots_into(&mut a.locals, &b.locals);
    join_slots_into(&mut a.globals, &b.globals);
}

fn join_slots_into(a: &mut Vec<ASlot>, b: &[ASlot]) {
    a.truncate(b.len());
    for (x, y) in a.iter_mut().zip(b) {
        join_slot_into(x, y);
    }
}

/// `a ← a ⊔ b` for one slot. Mismatched shapes keep `a`'s shape, havoced.
fn join_slot_into(a: &mut ASlot, b: &ASlot) {
    match (a, b) {
        (ASlot::Fp(x), ASlot::Fp(y)) => *x = x.join(y),
        (ASlot::Int(x), ASlot::Int(y)) => *x = x.join(y),
        (ASlot::Bool, ASlot::Bool) | (ASlot::Str, ASlot::Str) => {}
        (
            ASlot::FpArr {
                elem: xe,
                dims: xd,
                len: xl,
                prec: xp,
            },
            ASlot::FpArr {
                elem: ye,
                dims: yd,
                len: yl,
                prec: yp,
            },
        ) if *xp == *yp && xd.len() == yd.len() => {
            *xe = xe.join(ye);
            for (p, q) in xd.iter_mut().zip(yd) {
                *p = p.join(q);
            }
            *xl = xl.join(yl);
        }
        (
            ASlot::IntArr {
                elem: xe,
                dims: xd,
                len: xl,
            },
            ASlot::IntArr {
                elem: ye,
                dims: yd,
                len: yl,
            },
        ) if xd.len() == yd.len() => {
            *xe = xe.join(ye);
            for (p, q) in xd.iter_mut().zip(yd) {
                *p = p.join(q);
            }
            *xl = xl.join(yl);
        }
        (ASlot::AliasGlobal(x), ASlot::AliasGlobal(y)) if *x == *y => {}
        (x, _) => havoc_slot(x),
    }
}

fn state_le(a: &State, b: &State) -> bool {
    slots_le(&a.locals, &b.locals) && slots_le(&a.globals, &b.globals)
}

fn slots_le(a: &[ASlot], b: &[ASlot]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| slot_le(x, y))
}

fn slot_le(a: &ASlot, b: &ASlot) -> bool {
    match (a, b) {
        (ASlot::Fp(x), ASlot::Fp(y)) => x.subset_of(y),
        (ASlot::Int(x), ASlot::Int(y)) => x.subset_of(y),
        (ASlot::Bool, ASlot::Bool) | (ASlot::Str, ASlot::Str) => true,
        (
            ASlot::FpArr {
                elem: xe,
                dims: xd,
                len: xl,
                prec: xp,
            },
            ASlot::FpArr {
                elem: ye,
                dims: yd,
                len: yl,
                prec: yp,
            },
        ) => {
            xp == yp
                && xd.len() == yd.len()
                && xe.subset_of(ye)
                && xl.subset_of(yl)
                && xd.iter().zip(yd.iter()).all(|(p, q)| p.subset_of(q))
        }
        (
            ASlot::IntArr {
                elem: xe,
                dims: xd,
                len: xl,
            },
            ASlot::IntArr {
                elem: ye,
                dims: yd,
                len: yl,
            },
        ) => {
            xd.len() == yd.len()
                && xe.subset_of(ye)
                && xl.subset_of(yl)
                && xd.iter().zip(yd.iter()).all(|(p, q)| p.subset_of(q))
        }
        (ASlot::AliasGlobal(x), ASlot::AliasGlobal(y)) => x == y,
        _ => false,
    }
}

fn widen_state(next: &State, prev: &State) -> State {
    State {
        locals: widen_slots(&next.locals, &prev.locals),
        globals: widen_slots(&next.globals, &prev.globals),
    }
}

/// Threshold ("staircase") widening. The domain's classic widen jumps any
/// moving bound straight to ±∞, which is hopeless for round-off bounds: every
/// loop iteration grows `err` by a rounding term, so a contracting loop like
/// `x = x * 0.5` would widen to `err = ∞` even though its true error is
/// bounded by ~2u. Snapping moving bounds up a geometric ladder instead lets
/// such loops stabilize one ladder step above their true bound, while
/// genuinely diverging loops still climb to ∞ (or hit the round cap and
/// havoc — both sound).
fn mag_up(x: f64, step: f64) -> f64 {
    let mut m = 1e-30;
    while m < x {
        m *= step;
        if m > 1e300 {
            return f64::INFINITY;
        }
    }
    m
}

fn mag_down(x: f64, step: f64) -> f64 {
    if x < 1e-30 {
        return 0.0;
    }
    let mut m = 1e-30;
    while m * step <= x {
        m *= step;
        if m > 1e300 {
            return x;
        }
    }
    m
}

fn thresh_hi(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        f64::INFINITY
    } else if x > 0.0 {
        mag_up(x, 1e8)
    } else if x == 0.0 {
        0.0
    } else {
        -mag_down(-x, 1e8)
    }
}

fn thresh_lo(x: f64) -> f64 {
    -thresh_hi(-x)
}

fn widen_interval(next: &Interval, prev: &Interval) -> Interval {
    Interval {
        lo: if next.lo < prev.lo {
            thresh_lo(next.lo)
        } else {
            next.lo
        },
        hi: if next.hi > prev.hi {
            thresh_hi(next.hi)
        } else {
            next.hi
        },
    }
}

fn widen_absval(next: &AbsVal, prev: &AbsVal) -> AbsVal {
    AbsVal {
        iv: widen_interval(&next.iv, &prev.iv),
        err: if next.err > prev.err {
            mag_up(next.err, 1e4)
        } else {
            next.err
        },
        prec: prose_analysis::absint::promote(next.prec, prev.prec),
    }
}

fn widen_slots(next: &[ASlot], prev: &[ASlot]) -> Vec<ASlot> {
    next.iter()
        .zip(prev.iter())
        .map(|(n, p)| match (n, p) {
            // Integer counters widen classically: an unguarded `n = n + 1`
            // would otherwise climb the ladder one step per round and burn
            // the round cap before the FP state has a chance to stabilize.
            (ASlot::Fp(x), ASlot::Fp(y)) => ASlot::Fp(widen_absval(x, y)),
            (ASlot::Int(x), ASlot::Int(y)) => ASlot::Int(x.widen(y)),
            (
                ASlot::FpArr {
                    elem: xe,
                    dims: xd,
                    len: xl,
                    prec: xp,
                },
                ASlot::FpArr {
                    elem: ye,
                    dims: yd,
                    len: yl,
                    prec: yp,
                },
            ) if xp == yp && xd.len() == yd.len() => ASlot::FpArr {
                elem: widen_absval(xe, ye),
                dims: xd
                    .iter()
                    .zip(yd.iter())
                    .map(|(a, b)| widen_interval(a, b))
                    .collect(),
                len: widen_interval(xl, yl),
                prec: *xp,
            },
            (
                ASlot::IntArr {
                    elem: xe,
                    dims: xd,
                    len: xl,
                },
                ASlot::IntArr {
                    elem: ye,
                    dims: yd,
                    len: yl,
                },
            ) if xd.len() == yd.len() => ASlot::IntArr {
                elem: widen_interval(xe, ye),
                dims: xd
                    .iter()
                    .zip(yd.iter())
                    .map(|(a, b)| widen_interval(a, b))
                    .collect(),
                len: widen_interval(xl, yl),
            },
            (n, p) => {
                let mut joined = n.clone();
                join_slot_into(&mut joined, p);
                joined
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Numeric conversion helpers
// ---------------------------------------------------------------------------

fn to_int(v: &AV) -> Interval {
    match v {
        AV::Int(iv) => *iv,
        AV::Fp(f) => trunc_hull(&f.primary_iv()),
        AV::Bool | AV::Str => Interval::top(),
    }
}

fn int_point(i: i64) -> Interval {
    let x = i as f64;
    if x as i64 == i || !x.is_finite() {
        Interval::point(x)
    } else {
        Interval::point(x).inflate(x.abs() * 1e-15)
    }
}

fn int_singleton(iv: &Interval) -> Option<i64> {
    let x = iv.singleton()?;
    if x.is_finite() && x == x.trunc() && x.abs() < 9.0e15 {
        Some(x as i64)
    } else {
        None
    }
}

/// Convert to an FP abstract value in the context of a partner operand:
/// integers pick up the conversion rounding of the partner's working
/// precision (the machine promotes `int op real` at the real's kind).
fn to_fp_as_operand(v: &AV, partner: &AV) -> AbsVal {
    let target = match partner {
        AV::Fp(p) => p.prec,
        _ => None,
    };
    to_fp(v, target)
}

fn to_fp(v: &AV, target: Option<FpPrecision>) -> AbsVal {
    match v {
        AV::Fp(f) => *f,
        AV::Int(iv) => int_to_fp(iv, target),
        AV::Bool | AV::Str => AbsVal::top(),
    }
}

fn int_to_fp(iv: &Interval, target: Option<FpPrecision>) -> AbsVal {
    let (u, exact_lim) = match target {
        Some(FpPrecision::Single) => (unit_roundoff(FpPrecision::Single), 16_777_216.0),
        _ => (U64, 9.007_199_254_740_992e15),
    };
    let m = iv.max_abs();
    let err = if m <= exact_lim { 0.0 } else { u * m };
    AbsVal {
        iv: *iv,
        err,
        prec: None,
    }
}

/// Hull of primary values (for integer conversions, which snap the shadow).
fn to_fp_primary(v: &AV) -> Interval {
    match v {
        AV::Fp(f) => f.primary_iv(),
        AV::Int(iv) => *iv,
        AV::Bool | AV::Str => Interval::top(),
    }
}

fn store_fp(v: AbsVal, p: FpPrecision) -> AbsVal {
    // Same-precision moves are exact; everything else re-rounds at `p`.
    if v.prec == Some(p) {
        v
    } else {
        v.store(p)
    }
}

fn convert_fp(v: &AV, target: FpPrecision) -> AbsVal {
    // `real`/`dble`/`sngl`: the primary re-rounds, the shadow keeps f64.
    store_fp(to_fp(v, Some(target)), target)
}

fn trunc_hull(iv: &Interval) -> Interval {
    Interval::new(finite_map(iv.lo, f64::trunc), finite_map(iv.hi, f64::trunc))
}

fn round_hull(iv: &Interval) -> Interval {
    Interval::new(finite_map(iv.lo, f64::round), finite_map(iv.hi, f64::round))
}

fn floor_hull(iv: &Interval) -> Interval {
    Interval::new(finite_map(iv.lo, f64::floor), finite_map(iv.hi, f64::floor))
}

fn finite_map(x: f64, f: fn(f64) -> f64) -> f64 {
    if x.is_finite() {
        f(x)
    } else {
        x
    }
}

fn int_bin(op: BinOp, a: &Interval, b: &Interval, rhs: &IExpr) -> Interval {
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::Div => {
            let q = a.div(b);
            if q.is_finite() {
                Interval::new(q.lo.trunc() - 1.0, q.hi.trunc() + 1.0)
            } else {
                Interval::top()
            }
        }
        BinOp::Pow => match rhs {
            IExpr::IntLit(n) if (0..=64).contains(n) => {
                let mut acc = Interval::point(1.0);
                for _ in 0..*n {
                    acc = acc.mul(a);
                }
                acc
            }
            _ => Interval::top(),
        },
        _ => Interval::top(),
    }
}

fn fp_pow(base: &AbsVal, exp: &AbsVal, rhs: &IExpr) -> AbsVal {
    // The machine routes integral exponents |n| ≤ 64 through `powi`
    // (repeated multiplication), which the domain models directly.
    if let IExpr::IntLit(n) = rhs {
        if n.abs() <= 64 {
            return base.powi(*n);
        }
    }
    if let Some(x) = exp.iv.singleton() {
        if exp.err == 0.0 && x == x.trunc() && x.abs() <= 64.0 {
            return base.powi(x as i64);
        }
    }
    if base.iv.lo - base.err > 0.0 {
        // a^b = exp(b · ln a): each composite step is conservative.
        return base.ln().mul(exp).exp();
    }
    AbsVal::top()
}

/// Unary math intrinsics promote integers to f64 work (`unary_math`).
fn math_arg(v: &AV) -> AbsVal {
    match v {
        AV::Fp(f) => *f,
        AV::Int(iv) => AbsVal {
            prec: Some(FpPrecision::Double),
            ..int_to_fp(iv, Some(FpPrecision::Double))
        },
        AV::Bool | AV::Str => AbsVal::top(),
    }
}

fn reduce_fp(f: IntrinsicFn, elem: &AbsVal, len: &Interval, p: FpPrecision) -> AbsVal {
    match f {
        IntrinsicFn::Sum => {
            let n = len.hi.max(0.0);
            let m = elem.iv.max_abs();
            if !n.is_finite() || !m.is_finite() || !elem.err.is_finite() {
                return AbsVal {
                    iv: Interval::top(),
                    err: f64::INFINITY,
                    prec: Some(p),
                };
            }
            let n_iv = Interval::new(len.lo.max(0.0), n);
            let iv = elem.iv.mul(&n_iv);
            // n per-element divergences plus n roundings of partial sums
            // bounded by n·max|elem| on either side.
            let partial = n * (m + elem.err);
            let err = n * elem.err + n * unit_roundoff(p) * partial + n * U64 * (n * m);
            AbsVal {
                iv,
                err,
                prec: Some(p),
            }
        }
        // `maxval`/`minval` pick (possibly different) elements on each side:
        // the divergence stays within the per-element bound.
        _ => AbsVal {
            iv: elem.iv,
            err: elem.err,
            prec: Some(p),
        },
    }
}

/// Monotone-increasing transfer with an outward pad covering both the
/// interval-endpoint evaluation and the shadow's own libm rounding (libm
/// transcendentals are not guaranteed correctly rounded, so one ulp of
/// slack is not enough).
fn mono_iv(iv: &Interval, f: fn(f64) -> f64) -> Interval {
    let lo = f(iv.lo);
    let hi = f(iv.hi);
    Interval::new(
        nudge_down(lo - lo.abs() * 1e-15),
        nudge_up(hi + hi.abs() * 1e-15),
    )
}

fn nudge_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let b = x.to_bits();
    f64::from_bits(if x > 0.0 { b + 1 } else { b - 1 })
}

fn nudge_down(x: f64) -> f64 {
    -nudge_up(-x)
}

// ---------------------------------------------------------------------------
// Cache encoding
// ---------------------------------------------------------------------------

fn encode_state(locals: &[ASlot], globals: &[ASlot]) -> Vec<u64> {
    let mut out = Vec::with_capacity((locals.len() + globals.len()) * 4 + 1);
    for s in locals {
        encode_slot(s, &mut out);
    }
    out.push(u64::MAX); // separator
    for s in globals {
        encode_slot(s, &mut out);
    }
    out
}

fn encode_slot(s: &ASlot, out: &mut Vec<u64>) {
    match s {
        ASlot::Fp(v) => {
            out.push(0);
            encode_absval(v, out);
        }
        ASlot::Int(iv) => {
            out.push(1);
            out.push(iv.lo.to_bits());
            out.push(iv.hi.to_bits());
        }
        ASlot::Bool => out.push(2),
        ASlot::Str => out.push(3),
        ASlot::FpArr {
            elem,
            dims,
            len,
            prec,
        } => {
            out.push(4);
            encode_absval(elem, out);
            out.push(*prec as u64);
            out.push(len.lo.to_bits());
            out.push(len.hi.to_bits());
            out.push(dims.len() as u64);
            for d in dims {
                out.push(d.lo.to_bits());
                out.push(d.hi.to_bits());
            }
        }
        ASlot::IntArr { elem, dims, len } => {
            out.push(5);
            out.push(elem.lo.to_bits());
            out.push(elem.hi.to_bits());
            out.push(len.lo.to_bits());
            out.push(len.hi.to_bits());
            out.push(dims.len() as u64);
            for d in dims {
                out.push(d.lo.to_bits());
                out.push(d.hi.to_bits());
            }
        }
        ASlot::AliasGlobal(g) => {
            out.push(6);
            out.push(*g as u64);
        }
    }
}

fn encode_absval(v: &AbsVal, out: &mut Vec<u64>) {
    out.push(v.iv.lo.to_bits());
    out.push(v.iv.hi.to_bits());
    out.push(v.err.to_bits());
    out.push(match v.prec {
        None => 0,
        Some(FpPrecision::Single) => 1,
        Some(FpPrecision::Double) => 2,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_fortran::{analyze, parse_program};

    fn report(src: &str) -> BoundReport {
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        let map = PrecisionMap::declared(&ix);
        analyze_variant(&p, &ix, &map, 16, DEFAULT_MAX_STEPS).unwrap()
    }

    #[test]
    fn straight_line_bounds_are_tight_and_errors_scale_with_kind() {
        let r = report(
            r#"
program main
  real(kind=8) :: x
  real(kind=4) :: y
  x = 1.5d0 * 2.0d0
  y = 1.5 * 2.0
  call prose_record('x', x)
end program main
"#,
        );
        assert!(!r.incomplete);
        let x = r.var("@main::x").unwrap();
        assert!(x.lo <= 3.0 && 3.0 <= x.hi, "x hull {:?}", (x.lo, x.hi));
        assert!(x.hi - x.lo < 1e-9);
        assert!(x.abs_err < 1e-14, "f64 err {}", x.abs_err);
        let y = r.var("@main::y").unwrap();
        assert!(y.lo <= 3.0 && 3.0 <= y.hi);
        // f32 storage costs one single-precision rounding.
        assert!(y.abs_err > 0.0 && y.abs_err < 1e-5, "f32 err {}", y.abs_err);
        assert!(r.records.iter().any(|v| v.name == "x"));
    }

    #[test]
    fn counted_loop_unrolls_concretely() {
        let r = report(
            r#"
program main
  real(kind=8) :: s
  integer :: i
  s = 0.0d0
  do i = 1, 100
    s = s + 0.5d0
  end do
end program main
"#,
        );
        assert!(!r.incomplete);
        let s = r.var("@main::s").unwrap();
        assert!(s.lo <= 50.0 && 50.0 <= s.hi, "s hull {:?}", (s.lo, s.hi));
        // Concrete unroll keeps the hull over all iterations, [0, 50].
        assert!(s.hi < 50.0 + 1e-9);
        assert!(s.abs_err < 1e-11);
    }

    #[test]
    fn while_loop_reaches_a_fixpoint_without_hanging() {
        let r = report(
            r#"
program main
  real(kind=8) :: x
  integer :: n
  x = 1.0d0
  n = 0
  do while (n < 10)
    x = x * 0.5d0
    n = n + 1
  end do
  call prose_record('x', x)
end program main
"#,
        );
        assert!(!r.incomplete);
        // The variable hull includes the pre-loop seed store `x = 1`.
        let x = r.var("@main::x").unwrap();
        assert!(x.hi <= 1.0 + 1e-9, "x hi {}", x.hi);
        assert!(x.lo >= -1e-9, "x lo {}", x.lo);
        assert!(x.abs_err < 1e-9, "x err {}", x.abs_err);
        // The post-loop record is bounded by the loop invariant [0, 1] (the
        // abstract post-state keeps the trip-0 case) with a finite tight
        // error — the fixpoint must not widen err to ∞ on a contracting loop.
        let rec = r.records.iter().find(|v| v.name == "x").unwrap();
        assert!(rec.hi <= 1.0 + 1e-9, "rec hi {}", rec.hi);
        assert!(rec.lo >= -1e-9, "rec lo {}", rec.lo);
        assert!(rec.abs_err < 1e-9, "rec err {}", rec.abs_err);
    }

    #[test]
    fn interprocedural_call_and_globals_flow_through() {
        let r = report(
            r#"
module m
  real(kind=8) :: shared = 2.0d0
contains
  function dbl(q) result(f)
    real(kind=8) :: q, f
    f = q * shared
  end function dbl
end module m
program main
  use m, only: dbl
  real(kind=8) :: a
  a = dbl(3.0d0)
end program main
"#,
        );
        assert!(!r.incomplete);
        let a = r.var("@main::a").unwrap();
        assert!(a.lo <= 6.0 && 6.0 <= a.hi, "a hull {:?}", (a.lo, a.hi));
        assert!(a.hi - a.lo < 1e-9);
        let f = r.var("dbl::f").unwrap();
        assert!(f.lo <= 6.0 && 6.0 <= f.hi);
    }

    #[test]
    fn cancellation_site_is_reported() {
        let r = report(
            r#"
program main
  real(kind=8) :: a, b, c
  a = 1.0d0
  b = 1.0d0 + 1.0d-9
  c = b - a
end program main
"#,
        );
        assert!(
            r.cancellations.iter().any(|s| s.site.starts_with("@main:")),
            "sites: {:?}",
            r.cancellations
        );
    }

    #[test]
    fn f32_overflow_collapses_error_to_infinity() {
        let r = report(
            r#"
program main
  real(kind=4) :: big
  big = 1.0d38 * 100.0d0
end program main
"#,
        );
        let b = r.var("@main::big").unwrap();
        assert!(b.abs_err.is_infinite(), "err {}", b.abs_err);
    }

    #[test]
    fn precision_map_demotion_widens_the_static_error() {
        let src = r#"
program main
  real(kind=8) :: t
  integer :: i
  t = 0.0d0
  do i = 1, 300
    t = t + 1.0d-3
  end do
end program main
"#;
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        let base = PrecisionMap::declared(&ix);
        let r64 = analyze_variant(&p, &ix, &base, 16, DEFAULT_MAX_STEPS).unwrap();
        let mut demoted = base.clone();
        let main_scope = (0..ix.scope_count())
            .map(prose_fortran::sema::ScopeId)
            .find(|s| ix.scope_info(*s).kind == prose_fortran::sema::ScopeKind::Main)
            .unwrap();
        demoted.set(ix.fp_var_id(main_scope, "t").unwrap(), FpPrecision::Single);
        let r32 = analyze_variant(&p, &ix, &demoted, 16, DEFAULT_MAX_STEPS).unwrap();
        let e64 = r64.var("@main::t").unwrap().abs_err;
        let e32 = r32.var("@main::t").unwrap().abs_err;
        assert!(e64 < 1e-12, "f64 err {}", e64);
        assert!(e32 > 1e-6 && e32 < 1e-2, "f32 err {}", e32);
        assert!(e32 > e64 * 1e4);
    }

    #[test]
    fn array_kernel_with_dummy_binding_is_bounded() {
        let r = report(
            r#"
module m
contains
  subroutine kernel(u, t, n)
    real(kind=8), intent(in) :: u(n)
    real(kind=8), intent(out) :: t(n)
    integer, intent(in) :: n
    integer :: i
    do i = 1, n
      t(i) = u(i) * 2.0d0
    end do
  end subroutine kernel
end module m
program main
  use m, only: kernel
  real(kind=8) :: a(8), b(8)
  integer :: k
  do k = 1, 8
    a(k) = 0.25d0 * k
  end do
  call kernel(a, b, 8)
  call prose_record('b1', b(1))
end program main
"#,
        );
        assert!(!r.incomplete);
        let t = r.var("kernel::t").unwrap();
        assert!(
            t.lo >= -1e-9 && t.hi <= 4.0 + 1e-9,
            "t hull {:?}",
            (t.lo, t.hi)
        );
        let rec = r.records.iter().find(|v| v.name == "b1").unwrap();
        assert!(rec.lo >= -1e-9 && rec.hi <= 4.0 + 1e-9);
    }

    #[test]
    fn budget_exhaustion_marks_report_incomplete() {
        let p = parse_program(
            r#"
program main
  real(kind=8) :: s
  integer :: i
  s = 0.0d0
  do i = 1, 10000
    s = s + 1.0d0
  end do
end program main
"#,
        )
        .unwrap();
        let ix = analyze(&p).unwrap();
        let map = PrecisionMap::declared(&ix);
        let r = analyze_variant(&p, &ix, &map, 16, 50).unwrap();
        assert!(r.incomplete);
    }
}
