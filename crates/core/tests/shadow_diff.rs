//! Differential test for shadow execution: running with the fp64 shadow
//! enabled must be observably **bit-identical** to running without it in
//! every primary output — recorded values, simulated cycles, op counts,
//! events, per-procedure timers — across random precision assignments, on
//! both the faithful pipeline (`run_program`) and the template fast path
//! (`run_ir`). The shadow is pure bookkeeping; if it ever perturbs a
//! primary value or charges a cycle, the guardrail would be changing the
//! very measurements it is guarding.

use proptest::prelude::*;
use prose_fortran::ast::FpPrecision;
use prose_fortran::precision::PrecisionMap;
use prose_fortran::{analyze, parse_program};
use prose_interp::{run_ir, run_ir_shadow, run_program, run_program_shadow, IrTemplate, RunConfig};
use prose_transform::{make_variant, VariantPlan, VariantTemplate};

/// Scalar interprocedural flow with a recurrence (funarc-shaped), plus a
/// cancellation-prone difference so the shadow bookkeeping is genuinely
/// exercised (not just carried along at zero error).
const ARC: &str = r#"
module arc_mod
contains
  function fun(x) result(t1)
    real(kind=8) :: x, t1, d1
    integer :: k
    d1 = 1.0d0
    t1 = x
    do k = 1, 4
      d1 = 2.0d0 * d1
      t1 = t1 + sin(d1 * x) / d1
    end do
  end function fun

  subroutine arc(result, n)
    real(kind=8) :: result
    integer :: n
    real(kind=8) :: s1, h, t1, t2, eps
    integer :: i
    s1 = 0.0d0
    t1 = 0.0d0
    h = 3.141592653589793d0 / n
    do i = 1, n
      t2 = fun(i * h)
      s1 = s1 + sqrt(h * h + (t2 - t1) * (t2 - t1))
      t1 = t2
    end do
    eps = 1.0d-8
    result = s1 + ((1.0d0 + eps) - 1.0d0)
  end subroutine arc
end module arc_mod

program main
  use arc_mod, only: arc
  implicit none
  real(kind=8) :: result
  result = 0.0d0
  call arc(result, 40)
  call prose_record('result', result)
end program main
"#;

/// Array arguments, a module global in the callee, reductions, and
/// broadcast assignment — the array half of the shadow bookkeeping.
const FLOW: &str = r#"
module flow_mod
  real(kind=8) :: drag = 0.125d0
contains
  function edge_flux(q, v) result(f)
    real(kind=8) :: q, v, f
    f = q * v - drag * q * q
  end function edge_flux

  subroutine advance(u, w, n)
    real(kind=8), intent(inout) :: u(n)
    real(kind=8), intent(out) :: w(n)
    integer, intent(in) :: n
    integer :: i
    do i = 1, n - 1
      w(i) = edge_flux(u(i), u(i + 1))
    end do
    do i = 1, n - 1
      u(i) = u(i) - 0.01d0 * w(i)
    end do
  end subroutine advance
end module flow_mod

program main
  use flow_mod, only: advance
  implicit none
  real(kind=8) :: u(32), w(32), acc
  integer :: step, i
  w = 0.0d0
  do i = 1, 32
    u(i) = 1.0d0 + 0.03125d0 * i
  end do
  do step = 1, 6
    call advance(u, w, 32)
  end do
  acc = sum(u) + maxval(w)
  call prose_record('acc', acc)
  call prose_record_array('u', u)
end program main
"#;

const MODELS: &[&str] = &[ARC, FLOW];

fn assert_outcomes_identical(
    on: &prose_interp::RunOutcome,
    off: &prose_interp::RunOutcome,
    path: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &on.records,
        &off.records,
        "{}: recorded outputs diverge",
        path
    );
    prop_assert_eq!(
        on.total_cycles,
        off.total_cycles,
        "{}: simulated cycles diverge",
        path
    );
    prop_assert_eq!(on.ops, off.ops, "{}: op counts diverge", path);
    prop_assert_eq!(on.events, off.events, "{}: event counts diverge", path);
    prop_assert_eq!(
        on.timers.len(),
        off.timers.len(),
        "{}: timer tables diverge",
        path
    );
    for (proc, t) in off.timers.iter() {
        prop_assert_eq!(
            on.timers.get(proc),
            Some(t),
            "{}: timers diverge for `{}`",
            path,
            proc
        );
    }
    Ok(())
}

fn shadow_differential(src: &str, bits: &[bool]) -> Result<(), TestCaseError> {
    let program = parse_program(src).expect("mini-model parses");
    let index = analyze(&program).expect("mini-model analyzes");
    let atoms = index.atoms();
    let mut map = PrecisionMap::declared(&index);
    for (i, a) in atoms.iter().enumerate() {
        if bits[i % bits.len()] {
            map.set(*a, FpPrecision::Single);
        }
    }

    // Faithful path: transformed source, shadow off vs shadow on.
    let variant = make_variant(&program, &index, &map).expect("faithful transform");
    let cfg_off = RunConfig {
        cost: Default::default(),
        budget: None,
        max_events: 50_000_000,
        wrapper_names: variant.wrappers.iter().cloned().collect(),
        fault: None,
        shadow: false,
        deadline: None,
    };
    let cfg_on = RunConfig {
        shadow: true,
        ..cfg_off.clone()
    };
    let off = run_program(&variant.program, &variant.index, &cfg_off);
    let (on, report) = run_program_shadow(&variant.program, &variant.index, &cfg_on);
    match (&off, &on) {
        (Ok(f), Ok(g)) => {
            assert_outcomes_identical(g, f, "faithful")?;
            prop_assert!(report.is_some(), "shadow on must produce a report");
        }
        (Err(ef), Err(eg)) => prop_assert_eq!(
            eg.to_string(),
            ef.to_string(),
            "faithful: run errors diverge"
        ),
        _ => {
            return Err(TestCaseError::fail(format!(
                "faithful: shadow changed the verdict: off {off:?} vs on {on:?}"
            )))
        }
    }

    // Fast path: specialized template IR, shadow off vs shadow on.
    let vt = VariantTemplate::new(&program, &index);
    let it =
        IrTemplate::new(&program, &index, cfg_off.cost.inline_max_stmts).expect("template lowers");
    let VariantPlan {
        wrappers,
        decisions,
    } = vt.instantiate(&map);
    let pairs: Vec<_> = wrappers.into_iter().map(|w| (w.callee, w.ast)).collect();
    let ir = it
        .instantiate(&map, &pairs, &decisions)
        .expect("template instantiates");
    let off = run_ir(&ir, &cfg_off);
    let (on, report) = run_ir_shadow(&ir, &cfg_on);
    match (&off, &on) {
        (Ok(f), Ok(g)) => {
            assert_outcomes_identical(g, f, "fast")?;
            prop_assert!(report.is_some(), "shadow on must produce a report");
        }
        (Err(ef), Err(eg)) => {
            prop_assert_eq!(eg.to_string(), ef.to_string(), "fast: run errors diverge")
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "fast: shadow changed the verdict: off {off:?} vs on {on:?}"
            )))
        }
    }

    // The compiled executor against the reference walker, shadow on: the
    // same primary outputs and the same shadow report.
    let (walked, walked_report) = prose_interp::oracle::run_ir_shadow(&ir, &cfg_on);
    match (&on, &walked) {
        (Ok(g), Ok(w)) => assert_outcomes_identical(g, w, "compiled vs walker")?,
        (Err(eg), Err(ew)) => prop_assert_eq!(eg, ew, "compiled vs walker: run errors diverge"),
        _ => {
            return Err(TestCaseError::fail(format!(
                "compiled vs walker: verdicts differ: {on:?} vs {walked:?}"
            )))
        }
    }
    prop_assert_eq!(
        format!("{report:?}"),
        format!("{walked_report:?}"),
        "compiled vs walker: shadow reports diverge"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn shadow_execution_never_perturbs_primary_results(
        model in 0usize..MODELS.len(),
        bits in proptest::collection::vec(any::<bool>(), 1..24),
    ) {
        shadow_differential(MODELS[model], &bits)?;
    }
}

/// The precision extremes, deterministically: all-double (shadow tracks an
/// identical computation) and all-single (maximum shadow divergence, so the
/// bookkeeping is busiest).
#[test]
fn precision_extremes_match_with_shadow() {
    for src in MODELS {
        shadow_differential(src, &[false]).unwrap();
        shadow_differential(src, &[true]).unwrap();
    }
}
