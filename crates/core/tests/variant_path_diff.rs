//! Differential test for the variant fast path: for random precision
//! assignments over mini-models, the template pipeline
//! (`VariantTemplate` → `IrTemplate` → `run_ir`) must be observably
//! **bit-identical** to the faithful pipeline (`make_variant` →
//! unparse → reparse → reanalyze → `run_program`): same wrapper set, same
//! recorded outputs, same simulated cycles, same op counts, same
//! per-procedure timers. The fast path's compiled run is also checked
//! against the reference tree walker ([`prose_interp::oracle`]).

use proptest::prelude::*;
use prose_fortran::ast::FpPrecision;
use prose_fortran::precision::PrecisionMap;
use prose_fortran::{analyze, parse_program};
use prose_interp::{run_ir, run_program, IrTemplate, RunConfig};
use prose_transform::{make_variant, VariantPlan, VariantTemplate};

/// Scalar interprocedural flow through a function, with a recurrence
/// (funarc-shaped, shrunk).
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
    real(kind=8) :: s1, h, t1, t2
    integer :: i
    s1 = 0.0d0
    t1 = 0.0d0
    h = 3.141592653589793d0 / n
    do i = 1, n
      t2 = fun(i * h)
      s1 = s1 + sqrt(h * h + (t2 - t1) * (t2 - t1))
      t1 = t2
    end do
    result = s1
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

/// Array arguments, a module global inside the callee, and a
/// function-in-a-loop call pattern — the shapes that demand wrappers and
/// exercise vectorization classification.
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
  do i = 1, 32
    u(i) = 1.0d0 + 0.03125d0 * i
  end do
  do step = 1, 6
    call advance(u, w, 32)
  end do
  acc = 0.0d0
  do i = 1, 32
    acc = acc + u(i)
  end do
  call prose_record('acc', acc)
  call prose_record_array('u', u)
end program main
"#;

const MODELS: &[&str] = &[ARC, FLOW];

fn differential(src: &str, bits: &[bool]) -> Result<(), TestCaseError> {
    let program = parse_program(src).expect("mini-model parses");
    let index = analyze(&program).expect("mini-model analyzes");
    let atoms = index.atoms();
    let mut map = PrecisionMap::declared(&index);
    for (i, a) in atoms.iter().enumerate() {
        if bits[i % bits.len()] {
            map.set(*a, FpPrecision::Single);
        }
    }

    // Faithful: transformed source, text round trip, full re-lower.
    let variant = make_variant(&program, &index, &map).expect("faithful transform");
    let cfg = RunConfig {
        cost: Default::default(),
        budget: None,
        max_events: 50_000_000,
        wrapper_names: variant.wrappers.iter().cloned().collect(),
        fault: None,
        shadow: false,
        deadline: None,
    };
    let faithful = run_program(&variant.program, &variant.index, &cfg);

    // Fast: specialize templates built from the pristine baseline.
    let vt = VariantTemplate::new(&program, &index);
    let it = IrTemplate::new(&program, &index, cfg.cost.inline_max_stmts).expect("template lowers");
    let plan = vt.instantiate(&map);
    prop_assert_eq!(
        plan.wrapper_names(),
        variant.wrappers.clone(),
        "wrapper sets diverge"
    );
    let VariantPlan {
        wrappers,
        decisions,
    } = plan;
    let pairs: Vec<_> = wrappers.into_iter().map(|w| (w.callee, w.ast)).collect();
    let ir = it
        .instantiate(&map, &pairs, &decisions)
        .expect("template instantiates");
    let fast = run_ir(&ir, &cfg);

    // The compiled executor against the reference walker on the same IR.
    let walked = prose_interp::oracle::run_ir_shadow(&ir, &cfg).0;
    match (&fast, &walked) {
        (Ok(g), Ok(w)) => {
            prop_assert_eq!(
                &g.records,
                &w.records,
                "compiled vs walker: records diverge"
            );
            prop_assert_eq!(
                g.total_cycles.to_bits(),
                w.total_cycles.to_bits(),
                "compiled vs walker: simulated cycles diverge"
            );
            prop_assert_eq!(g.ops, w.ops, "compiled vs walker: op counts diverge");
            prop_assert_eq!(
                g.events,
                w.events,
                "compiled vs walker: event counts diverge"
            );
            prop_assert_eq!(
                g.timers.len(),
                w.timers.len(),
                "compiled vs walker: timers diverge"
            );
            for (proc, t) in w.timers.iter() {
                prop_assert_eq!(
                    g.timers.get(proc),
                    Some(t),
                    "compiled vs walker: `{}`",
                    proc
                );
            }
        }
        (Err(eg), Err(ew)) => prop_assert_eq!(eg, ew, "compiled vs walker: run errors diverge"),
        (g, w) => {
            return Err(TestCaseError::fail(format!(
                "compiled vs walker: verdicts differ: {g:?} vs {w:?}"
            )))
        }
    }

    match (faithful, fast) {
        (Ok(f), Ok(g)) => {
            prop_assert_eq!(&g.records, &f.records, "recorded outputs diverge");
            prop_assert_eq!(g.total_cycles, f.total_cycles, "simulated cycles diverge");
            prop_assert_eq!(g.ops, f.ops, "op counts diverge");
            prop_assert_eq!(g.events, f.events, "event counts diverge");
            prop_assert_eq!(g.timers.len(), f.timers.len(), "timer tables diverge");
            for (proc, t) in f.timers.iter() {
                let gt = g.timers.get(proc);
                prop_assert_eq!(gt, Some(t), "timers diverge for `{}`", proc);
            }
        }
        (Err(ef), Err(eg)) => {
            prop_assert_eq!(eg.to_string(), ef.to_string(), "run errors diverge");
        }
        (f, g) => {
            return Err(TestCaseError::fail(format!(
                "one path ran, the other failed: faithful {f:?} vs fast {g:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn fast_path_is_bit_identical_to_faithful(
        model in 0usize..MODELS.len(),
        bits in proptest::collection::vec(any::<bool>(), 1..24),
    ) {
        differential(MODELS[model], &bits)?;
    }
}

/// The two precision extremes, deterministically (proptest may not sample
/// them): all-double must plan zero wrappers on both paths, all-single must
/// still bit-match.
#[test]
fn precision_extremes_match() {
    for src in MODELS {
        differential(src, &[false]).unwrap();
        differential(src, &[true]).unwrap();
    }
}
