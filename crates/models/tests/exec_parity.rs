//! Differential test of the production executor against the reference tree
//! walker: compiled register code ([`prose_interp::run_ir_shadow`]) must be
//! **bit-identical** to [`prose_interp::oracle::run_ir_shadow`] in every
//! observable — cycles, per-procedure timers, op counts, events, records,
//! stdout and the shadow report — on every model, across uniform and random
//! precision maps, with shadow execution on and off; and it must abort with
//! the same error, at the same place, for every way a run can abort.

use prose_faults::{splitmix64, InjectedAbort, InjectedFault};
use prose_fortran::ast::FpPrecision;
use prose_fortran::precision::PrecisionMap;
use prose_fortran::{analyze, parse_program, Program};
use prose_interp::ir::ProgramIR;
use prose_interp::{oracle, run_ir_shadow, IrTemplate, RunConfig, ShadowRun};
use prose_models::{all_models, guardrail::guardrail_smoke, ModelSize};
use prose_transform::{VariantPlan, VariantTemplate};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Assert two runs agree bit for bit.
fn assert_same(what: &str, compiled: &ShadowRun, walked: &ShadowRun) {
    let (cres, crep) = compiled;
    let (wres, wrep) = walked;
    match (cres, wres) {
        (Ok(c), Ok(w)) => {
            assert_eq!(
                c.total_cycles.to_bits(),
                w.total_cycles.to_bits(),
                "{what}: total cycles {} vs {}",
                c.total_cycles,
                w.total_cycles
            );
            assert_eq!(c.events, w.events, "{what}: events");
            assert_eq!(c.ops, w.ops, "{what}: op counts");
            // Debug output of an f64 round-trips, so equal strings mean
            // equal bits (including the sign of zero).
            assert_eq!(
                format!("{:?}", c.records),
                format!("{:?}", w.records),
                "{what}: records"
            );
            assert_eq!(c.timers.len(), w.timers.len(), "{what}: timer tables");
            for (proc, t) in w.timers.iter() {
                let ct = c
                    .timers
                    .get(proc)
                    .unwrap_or_else(|| panic!("{what}: no timer `{proc}`"));
                assert_eq!(
                    ct.cycles.to_bits(),
                    t.cycles.to_bits(),
                    "{what}: `{proc}` cycles"
                );
                assert_eq!(ct.calls, t.calls, "{what}: `{proc}` calls");
            }
            assert_eq!(
                c.timers.total_cycles().to_bits(),
                w.timers.total_cycles().to_bits(),
                "{what}: timer total"
            );
        }
        (Err(c), Err(w)) => assert_eq!(c, w, "{what}: errors"),
        (c, w) => panic!(
            "{what}: outcomes differ: compiled {:?} vs walker {:?}",
            c.as_ref().err(),
            w.as_ref().err()
        ),
    }
    assert_eq!(
        format!("{crep:?}"),
        format!("{wrep:?}"),
        "{what}: shadow reports"
    );
}

fn both(ir: &ProgramIR, cfg: &RunConfig) -> (ShadowRun, ShadowRun) {
    (run_ir_shadow(ir, cfg), oracle::run_ir_shadow(ir, cfg))
}

/// Run both executors, assert they agree, and return the compiled run.
fn checked(what: &str, ir: &ProgramIR, cfg: &RunConfig) -> ShadowRun {
    let (c, w) = both(ir, cfg);
    assert_same(what, &c, &w);
    c
}

fn check(what: &str, ir: &ProgramIR, cfg: &RunConfig) {
    let _ = checked(what, ir, cfg);
}

/// One variant's IR through the template fast path.
fn variant_ir(program: &Program, map: &PrecisionMap) -> ProgramIR {
    let index = analyze(program).expect("model analyzes");
    let vt = VariantTemplate::new(program, &index);
    let it = IrTemplate::new(program, &index, 16).expect("template lowers");
    let VariantPlan {
        wrappers,
        decisions,
    } = vt.instantiate(map);
    let pairs: Vec<_> = wrappers.into_iter().map(|w| (w.callee, w.ast)).collect();
    it.instantiate(map, &pairs, &decisions)
        .expect("template instantiates")
}

fn source_ir(src: &str) -> ProgramIR {
    let p = parse_program(src).expect("parses");
    let ix = analyze(&p).expect("analyzes");
    prose_interp::lower::lower_program(&p, &ix, &Default::default(), 16).expect("lowers")
}

#[test]
fn every_model_matches_the_walker_under_uniform_and_random_maps() {
    let mut specs = all_models(ModelSize::Small);
    specs.push(guardrail_smoke(ModelSize::Small));
    let mut seed = 0x5eed_0013_u64;
    for spec in specs {
        let m = spec.load().expect("model loads");
        let atoms = m.index.atoms();
        let mut maps = vec![
            (
                "uniform-64".to_string(),
                PrecisionMap::uniform(&m.index, &atoms, FpPrecision::Double),
            ),
            (
                "uniform-32".to_string(),
                PrecisionMap::uniform(&m.index, &atoms, FpPrecision::Single),
            ),
        ];
        for k in 0..16 {
            let mut map = PrecisionMap::declared(&m.index);
            let p = (splitmix64(&mut seed) % 100) as f64 / 100.0;
            for a in &atoms {
                if (splitmix64(&mut seed) % 1000) as f64 / 1000.0 < p {
                    map.set(*a, FpPrecision::Single);
                }
            }
            maps.push((format!("random-{k}"), map));
        }
        for (name, map) in &maps {
            let ir = variant_ir(&m.program, map);
            for shadow in [false, true] {
                let cfg = RunConfig {
                    shadow,
                    ..Default::default()
                };
                check(&format!("{} {name} shadow={shadow}", spec.name), &ir, &cfg);
            }
        }
    }
}

/// A loop-heavy run to abort at chosen points.
const LOOPY: &str = r#"
module work_mod
  real(kind=8) :: g = 0.5d0
contains
  function f(x) result(y)
    real(kind=8) :: x, y
    y = x * g + 1.0d0
  end function f
  subroutine step(u, n)
    real(kind=8), intent(inout) :: u(n)
    integer, intent(in) :: n
    integer :: i
    do i = 1, n
      u(i) = f(u(i)) * 0.5d0
    end do
  end subroutine step
end module work_mod
program main
  use work_mod
  real(kind=8) :: u(50), s
  integer :: i, it
  do i = 1, 50
    u(i) = 0.01d0 * i
  end do
  do it = 1, 20
    call step(u, 50)
    s = 0.0d0
    do i = 1, 50
      s = s + u(i)
    end do
    call prose_record('s', s)
  end do
end program main
"#;

#[test]
fn aborts_match_the_walker_event_for_event() {
    let ir = source_ir(LOOPY);
    let base = checked("baseline", &ir, &RunConfig::default());
    let base = base.0.expect("baseline runs");
    let events = base.events;
    for shadow in [false, true] {
        for k in [0, 1, 2, 3, 17, 1000, events / 3, events - 1, events] {
            let cfg = RunConfig {
                max_events: k,
                shadow,
                ..Default::default()
            };
            check(&format!("max_events={k}"), &ir, &cfg);
        }
        for frac in [0.0, 0.01, 0.3, 0.77, 0.999] {
            let cfg = RunConfig {
                budget: Some(base.total_cycles * frac),
                shadow,
                ..Default::default()
            };
            check(&format!("budget={frac}"), &ir, &cfg);
        }
        for after in [0, 1, 5, 333, events - 1, events, events + 1, u64::MAX] {
            for fault in [
                InjectedFault::NonFinite {
                    after_events: after,
                },
                InjectedFault::Timeout {
                    after_events: after,
                },
            ] {
                let what = format!("{fault:?}");
                let cfg = RunConfig {
                    fault: Some(fault),
                    shadow,
                    ..Default::default()
                };
                check(&what, &ir, &cfg);
            }
            let cfg = RunConfig {
                fault: Some(InjectedFault::Abort {
                    after_events: after,
                }),
                shadow,
                ..Default::default()
            };
            let payload = |f: &dyn Fn() -> ShadowRun| {
                let p = catch_unwind(AssertUnwindSafe(f)).expect_err("abort panics");
                p.downcast_ref::<InjectedAbort>()
                    .expect("typed payload")
                    .after_events
            };
            assert_eq!(
                payload(&|| run_ir_shadow(&ir, &cfg)),
                payload(&|| oracle::run_ir_shadow(&ir, &cfg)),
                "abort after {after}"
            );
        }
    }
    for after in [0, 100, events + 5] {
        let cfg = RunConfig {
            fault: Some(InjectedFault::Hang {
                after_events: after,
            }),
            deadline: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        check(&format!("hang after {after}"), &ir, &cfg);
    }
}

#[test]
fn runtime_errors_match_the_walker() {
    let cases = [
        (
            "out of bounds",
            "program t\n real(kind=8) :: a(3)\n integer :: i\n i = 4\n a(i) = 1.0d0\nend program t\n",
        ),
        (
            "out of bounds read",
            "program t\n real(kind=4) :: a(3), x\n integer :: i\n i = 0\n x = a(i) + 1.0\nend program t\n",
        ),
        (
            "integer divide by zero",
            "program t\n integer :: i, j\n j = 0\n i = 7 / j\nend program t\n",
        ),
        (
            "integer mod by zero",
            "program t\n integer :: i, j\n j = 0\n i = mod(7, j)\nend program t\n",
        ),
        ("stop 3", "program t\n real(kind=8) :: x\n x = 1.0d0\n stop 3\nend program t\n"),
        (
            "f32 overflow",
            "program t\n real(kind=4) :: x\n integer :: i\n x = 10.0\n do i = 1, 100\n x = x * x\n end do\nend program t\n",
        ),
        (
            "unallocated",
            "program t\n real(kind=8), allocatable :: a(:)\n allocate(a(3))\n deallocate(a)\n a(1) = 1.0d0\nend program t\n",
        ),
        (
            "mixed kinds without a wrapper",
            "module m\ncontains\n subroutine s(u, n)\n real(kind=4), intent(inout) :: u(n)\n integer, intent(in) :: n\n u(1) = 0.0\n end subroutine s\nend module m\nprogram t\n use m\n real(kind=8) :: a(3)\n a = 1.0d0\n call s(a, 3)\nend program t\n",
        ),
        (
            "recursion guard",
            "module m\ncontains\n subroutine r(n)\n integer :: n\n n = n + 1\n call r(n)\n end subroutine r\nend module m\nprogram t\n use m\n integer :: k\n k = 0\n call r(k)\nend program t\n",
        ),
    ];
    for (what, src) in cases {
        let ir = source_ir(src);
        for shadow in [false, true] {
            let cfg = RunConfig {
                shadow,
                ..Default::default()
            };
            let (c, _) = checked(what, &ir, &cfg);
            assert!(c.is_err(), "{what}: expected an abort");
        }
    }
}

#[test]
fn stop_inside_nested_loops_and_calls_matches_the_walker() {
    let src = r#"
module m
contains
  subroutine inner(u, n, s)
    real(kind=8), intent(inout) :: u(n)
    integer, intent(in) :: n
    real(kind=8), intent(inout) :: s
    integer :: i
    do i = 1, n
      u(i) = u(i) * 0.5d0
      s = s + u(i)
      if (s > 3.0d0) then
        stop
      end if
    end do
  end subroutine inner
end module m
program t
  use m
  real(kind=8) :: u(8), s
  integer :: it
  u = 1.0d0
  s = 0.0d0
  do it = 1, 10
    call inner(u, 8, s)
    call prose_record('s', s)
  end do
end program t
"#;
    let ir = source_ir(src);
    for shadow in [false, true] {
        let cfg = RunConfig {
            shadow,
            ..Default::default()
        };
        let (c, _) = checked("stop 0", &ir, &cfg);
        assert!(c.is_ok(), "stop 0 terminates cleanly");
    }
}

/// Shadow-mode cancellation bookkeeping on promoted f32 operands, including
/// a result written back over one of its own operands.
#[test]
fn shadow_cancellation_reports_match_the_walker() {
    let src = r#"
program t
  real(kind=4) :: x, y, z
  real(kind=8) :: w
  integer :: i, k
  x = 3.0
  w = 0.0d0
  do i = 1, 40
    k = i
    x = 3.0 + 2.0e-7 * i
    y = x - 3.0
    x = x - 3.0
    z = k - y
    w = w + (1.0d0 + 1.0d-9 * i) - 1.0d0
    x = (x * 3.0) - k
  end do
  call prose_record('x', x)
  call prose_record('y', y)
  call prose_record('w', w)
end program t
"#;
    let ir = source_ir(src);
    for shadow in [false, true] {
        let cfg = RunConfig {
            shadow,
            ..Default::default()
        };
        let (c, report) = checked("cancellation", &ir, &cfg);
        assert!(c.is_ok());
        if shadow {
            let r = report.expect("shadow report");
            assert!(r.cancellations > 0, "the program cancels: {r:?}");
        }
    }
}

/// Constructs the models do not use — reductions, `size`, every intrinsic,
/// `print`, `do while` with `exit`/`cycle`, `return`, allocatables,
/// integer and 2-D arrays, module globals passed by reference, integer
/// powers, collectives — under uniform and random maps.
#[test]
fn every_construct_matches_the_walker() {
    let src = include_str!("exec_parity_sink.f90");
    let program = parse_program(src).expect("parses");
    let index = analyze(&program).expect("analyzes");
    let base = checked("sink baseline", &source_ir(src), &RunConfig::default());
    assert!(base.0.is_ok(), "the baseline runs: {:?}", base.0.err());
    let atoms = index.atoms();
    let mut seed = 0x51_4b_u64;
    let mut maps = vec![
        PrecisionMap::uniform(&index, &atoms, FpPrecision::Double),
        PrecisionMap::uniform(&index, &atoms, FpPrecision::Single),
    ];
    for _ in 0..12 {
        let mut map = PrecisionMap::declared(&index);
        for a in &atoms {
            if splitmix64(&mut seed).is_multiple_of(2) {
                map.set(*a, FpPrecision::Single);
            }
        }
        maps.push(map);
    }
    for (k, map) in maps.iter().enumerate() {
        let ir = variant_ir(&program, map);
        for shadow in [false, true] {
            let cfg = RunConfig {
                shadow,
                ..Default::default()
            };
            check(&format!("sink map {k} shadow={shadow}"), &ir, &cfg);
        }
    }
}
