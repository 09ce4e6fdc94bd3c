//! Top-level entry: lower, compile, execute, and package results.

use crate::compile::{compile, Compiled};
use crate::cost::CostParams;
use crate::exec::execute;
use crate::ir::ProgramIR;
use crate::lower::lower_program;
use crate::shadow::ShadowReport;
use crate::timers::Timers;
use prose_fortran::sema::ProgramIndex;
use prose_fortran::Program;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Configuration for one dynamic evaluation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub cost: CostParams,
    /// Simulated-cycle budget; exceeding it aborts with
    /// [`RunError::Timeout`] (searches use 3× the baseline, Section IV-A).
    pub budget: Option<f64>,
    /// Hard event-count safety valve.
    pub max_events: u64,
    /// Wall-clock deadline for the execution phase. Checked cooperatively
    /// every [`DEADLINE_CHECK_INTERVAL`] events; exceeding
    /// it aborts with [`RunError::Deadline`]. Unlike `budget` (modeled
    /// cycles) this is real elapsed time — the only mechanism that can kill
    /// a stalled event loop (e.g. an injected `hang` fault). `None`
    /// disables the check; modeled cycles, numerics, and records are
    /// bit-identical either way as long as the deadline does not fire.
    pub deadline: Option<std::time::Duration>,
    /// Names of synthesized wrapper procedures (excluded from inlining and
    /// from hotspot timer scopes).
    pub wrapper_names: HashSet<String>,
    /// Fault to inject into this run ([`prose_faults`]); `None` in normal
    /// operation. The fault fires after its event threshold, or at run
    /// termination if the run is shorter, so a planned fault always
    /// manifests.
    pub fault: Option<prose_faults::InjectedFault>,
    /// Run an fp64 shadow value alongside every FP slot and array element
    /// ([`crate::shadow`]). Bit-identical primary results; use
    /// [`run_ir_shadow`]/[`run_program_shadow`] to retrieve the report.
    pub shadow: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cost: CostParams::default(),
            budget: None,
            max_events: 400_000_000,
            deadline: None,
            wrapper_names: HashSet::new(),
            fault: None,
            shadow: false,
        }
    }
}

/// The result of one successful run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-procedure exclusive cycles and call counts.
    pub timers: Timers,
    /// Recorded metric samples and captured prints.
    pub records: RunRecords,
    /// Whole-program simulated cycles.
    pub total_cycles: f64,
    /// Interpreter events executed (statements + iterations).
    pub events: u64,
    /// Operation counters (observability; not part of the cost model).
    pub ops: OpCounts,
    /// Wall-clock nanoseconds spent lowering AST → IR and compiling it.
    pub lower_ns: u64,
    /// Wall-clock nanoseconds spent executing the compiled code.
    pub exec_ns: u64,
}

/// Aggregate operation counters for one run. Pure observability: the
/// counters never feed back into the cost model, they exist so the trial
/// journal can explain *where* a variant's simulated cycles came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// FP arithmetic charged at single precision.
    pub fp32_ops: u64,
    /// FP arithmetic charged at double precision.
    pub fp64_ops: u64,
    /// Array/memory traffic charges.
    pub mem_ops: u64,
    /// Scalar precision conversions (vectorizable `vcvt` kind).
    pub casts: u64,
    /// Converting stores — the kind that demotes a loop to scalar cost.
    pub cast_stores: u64,
    /// Non-inlined procedure calls that paid call + timer overhead.
    pub timed_calls: u64,
    /// Loop-control charges (`do` / `do while` iterations).
    pub loop_iters: u64,
    /// `MPI_ALLREDUCE` collectives.
    pub allreduces: u64,
}

impl OpCounts {
    /// Total counted events (not cycles — see [`crate::cost`] for those).
    pub fn total(&self) -> u64 {
        self.fp32_ops
            + self.fp64_ops
            + self.mem_ops
            + self.casts
            + self.cast_stores
            + self.timed_calls
            + self.loop_iters
            + self.allreduces
    }
}

/// Why a run aborted.
///
/// `proc` fields are interned: they share the lowered IR's procedure-name
/// `Arc<str>`s instead of allocating a fresh `String` per error.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A floating-point operation produced NaN/Inf.
    NonFinite { proc: Arc<str>, line: u32 },
    /// `stop <code>` with a non-zero code (model guard tripped).
    Stop { code: i64 },
    /// Simulated time exceeded the budget (3× baseline in searches).
    Timeout { budget: f64 },
    /// Wall-clock deadline exceeded ([`crate::run::RunConfig::deadline`]).
    /// Unlike [`RunError::Timeout`] this is real elapsed time, not modeled
    /// cycles: it is the only thing that can kill a stalled event loop.
    Deadline { ms: u64 },
    /// Event-count safety valve tripped (runaway loop).
    EventLimit,
    /// Array subscript out of bounds.
    OutOfBounds { proc: Arc<str>, line: u32 },
    /// Use of an unallocated allocatable.
    Unallocated { proc: Arc<str>, line: u32 },
    /// Type/kind/shape violation (e.g. mismatched argument association).
    Invalid {
        proc: Arc<str>,
        line: u32,
        msg: String,
    },
    /// Integer division by zero.
    DivByZero { proc: Arc<str>, line: u32 },
    /// Lowering failed (malformed program).
    Lower(String),
    /// Call stack exceeded the recursion guard.
    StackOverflow,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NonFinite { proc, line } => {
                write!(f, "non-finite FP result in `{proc}` at line {line}")
            }
            RunError::Stop { code } => write!(f, "stop {code}"),
            RunError::Timeout { budget } => write!(f, "timeout (budget {budget} cycles)"),
            RunError::Deadline { ms } => write!(f, "wall-clock deadline exceeded ({ms} ms)"),
            RunError::EventLimit => write!(f, "event limit exceeded"),
            RunError::OutOfBounds { proc, line } => {
                write!(f, "subscript out of bounds in `{proc}` at line {line}")
            }
            RunError::Unallocated { proc, line } => {
                write!(f, "unallocated array used in `{proc}` at line {line}")
            }
            RunError::Invalid { proc, line, msg } => {
                write!(f, "invalid operation in `{proc}` at line {line}: {msg}")
            }
            RunError::DivByZero { proc, line } => {
                write!(f, "integer division by zero in `{proc}` at line {line}")
            }
            RunError::Lower(msg) => write!(f, "lowering failed: {msg}"),
            RunError::StackOverflow => write!(f, "call stack exceeded recursion guard"),
        }
    }
}

impl std::error::Error for RunError {}

/// Output recorded by `prose_record*` plus captured `print` lines.
///
/// `PartialEq` is bitwise on the recorded floats — the comparison the
/// fast-path cross-check uses to assert the two variant paths agree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecords {
    pub scalars: BTreeMap<String, Vec<f64>>,
    pub arrays: BTreeMap<String, Vec<Vec<f64>>>,
    pub stdout: Vec<String>,
}

/// Events between cooperative wall-clock deadline checks (power of two:
/// the check divides into `bump_event` with a mask). Coarse enough that
/// an un-armed run never pays a clock read per event; fine enough that a
/// deadline is noticed within microseconds of real work.
pub const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// A run's result plus, when shadow execution was on, its shadow report.
pub type ShadowRun = (Result<RunOutcome, RunError>, Option<ShadowReport>);

/// Lower, compile and execute `program`, returning timing + records, or
/// the runtime error that aborted it.
pub fn run_program(
    program: &Program,
    index: &ProgramIndex,
    cfg: &RunConfig,
) -> Result<RunOutcome, RunError> {
    run_program_shadow(program, index, cfg).0
}

/// [`run_program`], also returning the shadow report when
/// [`RunConfig::shadow`] is set. The report is produced even when the run
/// aborts with an error — that is where NaN/Inf provenance lives.
pub fn run_program_shadow(program: &Program, index: &ProgramIndex, cfg: &RunConfig) -> ShadowRun {
    let t0 = std::time::Instant::now();
    let ir = match lower_program(
        program,
        index,
        &cfg.wrapper_names,
        cfg.cost.inline_max_stmts,
    ) {
        Ok(ir) => ir,
        Err(e) => return (Err(RunError::Lower(e.to_string())), None),
    };
    let compiled = compile(&ir, &cfg.cost, cfg.shadow);
    with_lower_ns(run_compiled(&compiled, cfg), t0)
}

/// Execute pre-lowered IR — the variant fast path ([`crate::template`]).
///
/// `wrapper_names` in `cfg` is ignored: wrapper status is already baked
/// into the IR. `lower_ns` in the outcome is the compile time; template
/// instantiation time is accounted by the caller's stage clock.
pub fn run_ir(ir: &ProgramIR, cfg: &RunConfig) -> Result<RunOutcome, RunError> {
    run_ir_shadow(ir, cfg).0
}

/// [`run_ir`], also returning the shadow report when [`RunConfig::shadow`]
/// is set. The report survives aborted runs so NaN/Inf provenance is
/// available for failure classification.
pub fn run_ir_shadow(ir: &ProgramIR, cfg: &RunConfig) -> ShadowRun {
    let t0 = std::time::Instant::now();
    let compiled = compile(ir, &cfg.cost, cfg.shadow);
    with_lower_ns(run_compiled(&compiled, cfg), t0)
}

/// Execute an already [compiled](crate::compile) program. The cost
/// parameters and the shadow mode are the ones it was compiled with; `cfg`
/// supplies the budget, the event limit, the deadline and the injected
/// fault. `lower_ns` in the outcome is zero.
pub fn run_compiled(compiled: &Compiled, cfg: &RunConfig) -> ShadowRun {
    let t0 = std::time::Instant::now();
    let (res, report) = execute(compiled, cfg);
    (
        res.map(|mut outcome| {
            outcome.exec_ns = t0.elapsed().as_nanos() as u64;
            outcome
        }),
        report,
    )
}

/// Charge the time from `t0` to the start of execution as `lower_ns`.
fn with_lower_ns((res, report): ShadowRun, t0: std::time::Instant) -> ShadowRun {
    (
        res.map(|mut outcome| {
            let total = t0.elapsed().as_nanos() as u64;
            outcome.lower_ns = total.saturating_sub(outcome.exec_ns);
            outcome
        }),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_fortran::{analyze, parse_program};

    fn run(src: &str) -> RunOutcome {
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        run_program(&p, &ix, &RunConfig::default()).unwrap()
    }

    fn run_err(src: &str) -> RunError {
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        run_program(&p, &ix, &RunConfig::default()).unwrap_err()
    }

    fn run_cfg(src: &str, cfg: &RunConfig) -> Result<RunOutcome, RunError> {
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        run_program(&p, &ix, cfg)
    }

    #[test]
    fn computes_and_records_a_scalar() {
        let out = run(
            "program t\n real(kind=8) :: x\n x = 3.0d0\n x = x * x + 1.0d0\n call prose_record('x', x)\nend program t\n",
        );
        assert_eq!(out.records.scalars["x"], vec![10.0]);
        assert!(out.total_cycles > 0.0);
    }

    #[test]
    fn op_counts_reflect_program_structure() {
        let out = run(
            "program t\n real(kind=8) :: s\n integer :: i\n s = 0.0d0\n do i = 1, 10\n s = s + 1.5d0\n end do\n call prose_record('s', s)\nend program t\n",
        );
        assert_eq!(out.ops.loop_iters, 10);
        assert!(
            out.ops.fp64_ops >= 10,
            "fp64 adds in the loop: {:?}",
            out.ops
        );
        assert_eq!(out.ops.fp32_ops, 0);
        assert_eq!(out.ops.allreduces, 0);
        assert!(out.ops.total() > 0);
        // Stage clocks are plumbed through; at least one of the two
        // stages must have registered time for a real parse+run.
        assert!(out.lower_ns > 0 || out.exec_ns > 0);
    }

    #[test]
    fn single_precision_arithmetic_really_rounds() {
        let src = |kind: u8| {
            format!(
                "program t\n real(kind={kind}) :: x, acc\n integer :: i\n acc = 0.0\n x = 0.1\n do i = 1, 1000\n acc = acc + x\n end do\n call prose_record('acc', acc)\nend program t\n"
            )
        };
        let out64 = run(&src(8));
        let out32 = run(&src(4));
        let a64 = out64.records.scalars["acc"][0];
        let a32 = out32.records.scalars["acc"][0];
        // Both near 100 but the f32 accumulation error is much larger.
        assert!((a64 - 100.0).abs() < 1e-9);
        assert!((a32 - 100.0).abs() > 1e-6);
        assert!((a32 - 100.0).abs() < 0.1);
    }

    #[test]
    fn loops_with_do_step_and_while() {
        let out = run(
            "program t\n integer :: i, n\n real(kind=8) :: s\n s = 0.0d0\n n = 0\n do i = 10, 2, -2\n s = s + 1.0d0\n end do\n do while (n < 5)\n n = n + 1\n end do\n call prose_record('s', s)\n call prose_record('n', 1.0d0 * n)\nend program t\n",
        );
        assert_eq!(out.records.scalars["s"], vec![5.0]);
        assert_eq!(out.records.scalars["n"], vec![5.0]);
    }

    #[test]
    fn procedures_functions_and_scalar_writeback() {
        let out = run(r#"
module m
contains
  function square(x) result(y)
    real(kind=8) :: x, y
    y = x * x
  end function square
  subroutine bump(v)
    real(kind=8), intent(inout) :: v
    v = v + 1.0d0
  end subroutine bump
end module m
program t
  use m
  real(kind=8) :: a
  a = square(3.0d0)
  call bump(a)
  call prose_record('a', a)
end program t
"#);
        assert_eq!(out.records.scalars["a"], vec![10.0]);
    }

    #[test]
    fn arrays_are_passed_by_reference() {
        let out = run(r#"
module m
contains
  subroutine fill(v, n)
    real(kind=8), intent(out) :: v(n)
    integer, intent(in) :: n
    integer :: i
    do i = 1, n
      v(i) = 1.0d0 * i
    end do
  end subroutine fill
end module m
program t
  use m
  real(kind=8) :: a(4)
  call fill(a, 4)
  call prose_record('a3', a(3))
  call prose_record_array('a', a)
end program t
"#);
        assert_eq!(out.records.scalars["a3"], vec![3.0]);
        assert_eq!(out.records.arrays["a"], vec![vec![1.0, 2.0, 3.0, 4.0]]);
    }

    #[test]
    fn allocatable_lifecycle() {
        let out = run(
            "program t\n real(kind=8), allocatable :: a(:)\n allocate(a(3))\n a = 2.0d0\n call prose_record('s', sum(a))\n deallocate(a)\nend program t\n",
        );
        assert_eq!(out.records.scalars["s"], vec![6.0]);
    }

    #[test]
    fn use_after_deallocate_is_an_error() {
        let e = run_err(
            "program t\n real(kind=8), allocatable :: a(:)\n allocate(a(3))\n deallocate(a)\n a(1) = 1.0d0\nend program t\n",
        );
        assert!(matches!(e, RunError::Unallocated { .. }));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let e = run_err(
            "program t\n real(kind=8) :: a(3)\n integer :: i\n i = 4\n a(i) = 1.0d0\nend program t\n",
        );
        assert!(matches!(e, RunError::OutOfBounds { .. }));
    }

    #[test]
    fn overflow_to_infinity_is_a_runtime_error() {
        // f32 overflows where f64 does not: the MOM6-style failure mode.
        let e = run_err(
            "program t\n real(kind=4) :: x\n integer :: i\n x = 10.0\n do i = 1, 100\n x = x * x\n end do\nend program t\n",
        );
        assert!(matches!(e, RunError::NonFinite { .. }));
        // Same program in f64 still overflows eventually; with fewer steps
        // it survives in f64 but dies in f32.
        // 10^(2^6) = 1e64 overflows f32 (max ~3.4e38) but not f64.
        let ok64 = run(
            "program t\n real(kind=8) :: x\n integer :: i\n x = 10.0\n do i = 1, 6\n x = x * x\n end do\n call prose_record('x', x)\nend program t\n",
        );
        assert!(ok64.records.scalars["x"][0].is_finite());
        let e32 = run_err(
            "program t\n real(kind=4) :: x\n integer :: i\n x = 10.0\n do i = 1, 6\n x = x * x\n end do\nend program t\n",
        );
        assert!(matches!(e32, RunError::NonFinite { .. }));
    }

    #[test]
    fn stop_nonzero_is_error_stop_zero_is_clean() {
        let e = run_err("program t\n stop 7\nend program t\n");
        assert_eq!(e, RunError::Stop { code: 7 });
        let out = run("program t\n real(kind=8) :: x\n x = 1.0d0\n call prose_record('x', x)\n stop\nend program t\n");
        assert_eq!(out.records.scalars["x"], vec![1.0]);
    }

    #[test]
    fn stop_guard_inside_procedure_unwinds() {
        let e = run_err(
            r#"
module m
contains
  subroutine guard(h)
    real(kind=8) :: h
    if (h < 0.0d0) then
      stop 2
    end if
  end subroutine guard
end module m
program t
  use m
  call guard(-1.0d0)
end program t
"#,
        );
        assert_eq!(e, RunError::Stop { code: 2 });
    }

    #[test]
    fn budget_timeout_fires() {
        let cfg = RunConfig {
            budget: Some(100.0),
            ..Default::default()
        };
        let e = run_cfg(
            "program t\n integer :: i\n real(kind=8) :: s\n s = 0.0d0\n do i = 1, 100000\n s = s + 1.0d0\n end do\nend program t\n",
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(e, RunError::Timeout { .. }));
    }

    #[test]
    fn event_limit_catches_infinite_loops() {
        let cfg = RunConfig {
            max_events: 10_000,
            ..Default::default()
        };
        let e = run_cfg(
            "program t\n real(kind=8) :: x\n x = 1.0d0\n do while (x > 0.0d0)\n x = x + 1.0d0\n x = x - 1.0d0\n end do\nend program t\n",
            &cfg,
        )
        .unwrap_err();
        assert_eq!(e, RunError::EventLimit);
    }

    #[test]
    fn deadline_kills_long_runs_but_not_short_ones() {
        let src = "program t\n integer :: i\n real(kind=8) :: s\n s = 0.0d0\n do i = 1, 100000\n s = s + 1.0d0\n end do\n call prose_record('s', s)\nend program t\n";
        // A generous deadline never fires, and the run is unaffected.
        let cfg = RunConfig {
            deadline: Some(std::time::Duration::from_secs(600)),
            ..Default::default()
        };
        let out = run_cfg(src, &cfg).unwrap();
        assert_eq!(out.records.scalars["s"], vec![100000.0]);
        // A zero deadline kills any run long enough to hit a check point.
        let cfg = RunConfig {
            deadline: Some(std::time::Duration::from_millis(0)),
            ..Default::default()
        };
        let e = run_cfg(src, &cfg).unwrap_err();
        assert_eq!(e, RunError::Deadline { ms: 0 });
    }

    #[test]
    fn deadline_does_not_perturb_modeled_state() {
        let src = "program t\n integer :: i\n real(kind=8) :: s\n s = 0.0d0\n do i = 1, 5000\n s = s + 0.1d0\n end do\n call prose_record('s', s)\nend program t\n";
        let off = run_cfg(src, &RunConfig::default()).unwrap();
        let cfg = RunConfig {
            deadline: Some(std::time::Duration::from_secs(600)),
            ..Default::default()
        };
        let on = run_cfg(src, &cfg).unwrap();
        assert_eq!(off.records, on.records);
        assert_eq!(off.total_cycles.to_bits(), on.total_cycles.to_bits());
        assert_eq!(off.events, on.events);
        assert_eq!(off.ops, on.ops);
    }

    #[test]
    fn hang_fault_is_killed_only_by_the_deadline() {
        use prose_faults::InjectedFault;
        let src = "program t\n integer :: i\n real(kind=8) :: s\n s = 0.0d0\n do i = 1, 1000\n s = s + 1.0d0\n end do\nend program t\n";
        // Once the stall begins, neither the modeled budget nor the event
        // limit is ever consulted again — only the wall-clock deadline
        // terminates it.
        let cfg = RunConfig {
            fault: Some(InjectedFault::Hang { after_events: 10 }),
            deadline: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        };
        let t0 = std::time::Instant::now();
        let e = run_cfg(src, &cfg).unwrap_err();
        assert_eq!(e, RunError::Deadline { ms: 50 });
        assert!(t0.elapsed() >= std::time::Duration::from_millis(50));
    }

    #[test]
    fn injected_faults_fire_deterministically() {
        use prose_faults::InjectedFault;
        let src = "program t\n integer :: i\n real(kind=8) :: s\n s = 0.0d0\n do i = 1, 1000\n s = s + 1.0d0\n end do\n call prose_record('s', s)\nend program t\n";
        // Spurious timeout, despite an infinite budget.
        let cfg = RunConfig {
            fault: Some(InjectedFault::Timeout { after_events: 50 }),
            ..Default::default()
        };
        assert!(matches!(
            run_cfg(src, &cfg).unwrap_err(),
            RunError::Timeout { .. }
        ));
        // NaN/Inf result on a program that computes nothing non-finite.
        let cfg = RunConfig {
            fault: Some(InjectedFault::NonFinite { after_events: 50 }),
            ..Default::default()
        };
        assert!(matches!(
            run_cfg(src, &cfg).unwrap_err(),
            RunError::NonFinite { .. }
        ));
        // A fault with a threshold beyond the run length fires at
        // termination rather than silently evaporating.
        let cfg = RunConfig {
            fault: Some(InjectedFault::NonFinite {
                after_events: u64::MAX,
            }),
            ..Default::default()
        };
        assert!(matches!(
            run_cfg(src, &cfg).unwrap_err(),
            RunError::NonFinite { .. }
        ));
    }

    #[test]
    fn injected_abort_panics_with_typed_payload() {
        use prose_faults::{InjectedAbort, InjectedFault};
        let src = "program t\n integer :: i\n real(kind=8) :: s\n s = 0.0d0\n do i = 1, 1000\n s = s + 1.0d0\n end do\nend program t\n";
        let cfg = RunConfig {
            fault: Some(InjectedFault::Abort { after_events: 25 }),
            ..Default::default()
        };
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_program(&p, &ix, &cfg)))
                .unwrap_err();
        let abort = payload
            .downcast_ref::<InjectedAbort>()
            .expect("abort panic carries an InjectedAbort payload");
        assert_eq!(abort.after_events, 25);
    }

    #[test]
    fn uniform_f32_vector_loop_is_about_twice_as_fast() {
        let src = |kind: u8| {
            format!(
                r#"
module m
contains
  subroutine axpy(a, x, y, n)
    real(kind={kind}), intent(in) :: a, x(n)
    real(kind={kind}), intent(inout) :: y(n)
    integer, intent(in) :: n
    integer :: i
    do i = 1, n
      y(i) = y(i) + a * x(i)
    end do
  end subroutine axpy
end module m
program t
  use m
  real(kind={kind}) :: x(1000), y(1000), a
  integer :: i
  do i = 1, 1000
    x(i) = 1.0
    y(i) = 2.0
  end do
  a = 0.5
  call axpy(a, x, y, 1000)
end program t
"#
            )
        };
        let p64 = parse_program(&src(8)).unwrap();
        let ix64 = analyze(&p64).unwrap();
        let o64 = run_program(&p64, &ix64, &RunConfig::default()).unwrap();
        let p32 = parse_program(&src(4)).unwrap();
        let ix32 = analyze(&p32).unwrap();
        let o32 = run_program(&p32, &ix32, &RunConfig::default()).unwrap();
        let t64 = o64.timers.get("axpy").unwrap().cycles;
        let t32 = o32.timers.get("axpy").unwrap().cycles;
        let speedup = t64 / t32;
        assert!(
            speedup > 1.6 && speedup < 2.2,
            "expected ~2x f32 speedup in vector loop, got {speedup}"
        );
    }

    #[test]
    fn recurrence_loop_gets_no_f32_speedup() {
        let src = |kind: u8| {
            format!(
                r#"
module m
contains
  subroutine scan(x, n)
    real(kind={kind}), intent(inout) :: x(n)
    integer, intent(in) :: n
    integer :: i
    do i = 2, n
      x(i) = x(i) + x(i-1) * 0.5
    end do
  end subroutine scan
end module m
program t
  use m
  real(kind={kind}) :: x(1000)
  integer :: i
  do i = 1, 1000
    x(i) = 0.001
  end do
  call scan(x, 1000)
end program t
"#
            )
        };
        let p64 = parse_program(&src(8)).unwrap();
        let o64 = run_program(&p64, &analyze(&p64).unwrap(), &RunConfig::default()).unwrap();
        let p32 = parse_program(&src(4)).unwrap();
        let o32 = run_program(&p32, &analyze(&p32).unwrap(), &RunConfig::default()).unwrap();
        let t64 = o64.timers.get("scan").unwrap().cycles;
        let t32 = o32.timers.get("scan").unwrap().cycles;
        let speedup = t64 / t32;
        // Scalar loop: only memory traffic shrinks; compute dominates.
        assert!(
            speedup < 1.35,
            "recurrence must not enjoy vector speedup, got {speedup}"
        );
    }

    #[test]
    fn mixed_precision_in_loop_is_slower_than_either_uniform() {
        let src = |k_acc: u8, k_arr: u8| {
            format!(
                r#"
module m
contains
  subroutine work(x, t, n)
    real(kind={k_arr}), intent(in) :: x(n)
    real(kind={k_arr}), intent(out) :: t(n)
    integer, intent(in) :: n
    real(kind={k_acc}) :: c
    integer :: i
    c = 1.5
    do i = 1, n
      t(i) = x(i) * c + x(i)
    end do
  end subroutine work
end module m
program t
  use m
  real(kind={k_arr}) :: x(2000), t(2000)
  integer :: i
  do i = 1, 2000
    x(i) = 0.5
  end do
  call work(x, t, 2000)
end program t
"#
            )
        };
        let time = |a: u8, b: u8| {
            let p = parse_program(&src(a, b)).unwrap();
            let o = run_program(&p, &analyze(&p).unwrap(), &RunConfig::default()).unwrap();
            o.timers.get("work").unwrap().cycles
        };
        let uniform64 = time(8, 8);
        let uniform32 = time(4, 4);
        let mixed = time(8, 4); // f64 scalar inside f32 loop → casts, no SIMD
        assert!(
            mixed > uniform64,
            "mixed {mixed} should exceed uniform64 {uniform64}"
        );
        assert!(
            mixed > uniform32,
            "mixed {mixed} should exceed uniform32 {uniform32}"
        );
    }

    #[test]
    fn intrinsics_compute_correctly() {
        let out = run(r#"
program t
  real(kind=8) :: x
  x = sqrt(16.0d0) + abs(-2.0d0) + max(1.0d0, 3.0d0) + min(5.0d0, 4.0d0)
  x = x + sign(2.0d0, -1.0d0) + mod(7.0d0, 4.0d0)
  call prose_record('x', x)
  call prose_record('e', exp(0.0d0))
  call prose_record('ep32', dble(epsilon(sngl(x))))
  call prose_record('fl', 1.0d0 * floor(2.7d0) + nint(2.6d0))
end program t
"#);
        assert_eq!(
            out.records.scalars["x"],
            vec![4.0 + 2.0 + 3.0 + 4.0 - 2.0 + 3.0]
        );
        assert_eq!(out.records.scalars["e"], vec![1.0]);
        assert_eq!(out.records.scalars["ep32"], vec![f32::EPSILON as f64]);
        assert_eq!(out.records.scalars["fl"], vec![5.0]);
    }

    #[test]
    fn mpi_allreduce_is_identity_with_fixed_latency() {
        let out = run(
            "program t\n real(kind=8) :: local, global\n local = 5.0d0\n global = 0.0d0\n call mpi_allreduce_sum(local * 2.0d0, global)\n call prose_record('g', global)\nend program t\n",
        );
        assert_eq!(out.records.scalars["g"], vec![10.0]);
        // Latency appears on the clock.
        assert!(out.total_cycles >= CostParams::default().allreduce);
    }

    #[test]
    fn module_variables_are_shared_state() {
        let out = run(r#"
module state
  real(kind=8) :: counter = 0.0d0
contains
  subroutine tick()
    counter = counter + 1.0d0
  end subroutine tick
end module state
program t
  use state
  call tick()
  call tick()
  call prose_record('c', counter)
end program t
"#);
        assert_eq!(out.records.scalars["c"], vec![2.0]);
    }

    #[test]
    fn print_is_captured() {
        let out = run("program t\n print *, 'hello', 42\nend program t\n");
        assert_eq!(out.records.stdout, vec!["hello 42"]);
    }

    #[test]
    fn exit_and_cycle_control_loops() {
        let out = run(r#"
program t
  integer :: i
  real(kind=8) :: s
  s = 0.0d0
  do i = 1, 10
    if (i == 3) then
      cycle
    end if
    if (i == 6) then
      exit
    end if
    s = s + 1.0d0
  end do
  call prose_record('s', s)
end program t
"#);
        assert_eq!(out.records.scalars["s"], vec![4.0]); // i = 1,2,4,5
    }

    #[test]
    fn untransformed_mixed_argument_association_is_rejected() {
        // Passing an f64 array to an f32 dummy without a wrapper must fail,
        // exactly as Fortran would fail to compile it.
        let e = run_err(
            r#"
module m
contains
  subroutine s(u, n)
    real(kind=4), intent(inout) :: u(n)
    integer, intent(in) :: n
    u(1) = 0.0
  end subroutine s
end module m
program t
  use m
  real(kind=8) :: a(3)
  a = 1.0d0
  call s(a, 3)
end program t
"#,
        );
        assert!(matches!(e, RunError::Invalid { .. }), "{e}");
    }

    #[test]
    fn function_result_kind_conversion_at_assignment() {
        let out = run(r#"
module m
contains
  function third() result(r)
    real(kind=4) :: r
    r = 1.0 / 3.0
  end function third
end module m
program t
  use m
  real(kind=8) :: x
  x = third()
  call prose_record('x', x)
end program t
"#);
        let x = out.records.scalars["x"][0];
        assert_eq!(x, (1.0f32 / 3.0f32) as f64);
    }

    #[test]
    fn wrapper_call_costs_more_than_direct_call() {
        // A loop calling a non-inlinable wrapper pays call overhead per
        // iteration and loses vectorization.
        let direct = r#"
module m
contains
  function f(q) result(r)
    real(kind=8) :: q, r
    r = q * 0.5d0
  end function f
  subroutine k(u, n)
    real(kind=8), intent(inout) :: u(n)
    integer, intent(in) :: n
    integer :: i
    do i = 1, n
      u(i) = f(u(i))
    end do
  end subroutine k
end module m
program t
  use m
  real(kind=8) :: u(500)
  u = 1.0d0
  call k(u, 500)
end program t
"#;
        let p = parse_program(direct).unwrap();
        let ix = analyze(&p).unwrap();
        let o_inline = run_program(&p, &ix, &RunConfig::default()).unwrap();
        // Same program, but pretend f is a wrapper (not inlinable).
        let mut cfg = RunConfig::default();
        cfg.wrapper_names.insert("f".to_string());
        let o_wrapped = run_program(&p, &ix, &cfg).unwrap();
        assert!(
            o_wrapped.total_cycles > o_inline.total_cycles * 2.0,
            "wrapper: {} vs inlined: {}",
            o_wrapped.total_cycles,
            o_inline.total_cycles
        );
    }
}
