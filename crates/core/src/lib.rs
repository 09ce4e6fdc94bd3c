//! # prose-core
//!
//! The paper's primary contribution, end to end: automated,
//! performance-guided floating-point precision tuning for Fortran programs
//! (the PROSE pipeline of *"Toward Automated Precision Tuning of Weather
//! and Climate Models: A Case Study"*, SC 2024).
//!
//! The Figure-1 cycle, with every choice from Section III:
//!
//! 1. **Search space** ([`tuner::ModelSpec::load`]) — FP variable
//!    declarations inside hotspot work routines, two precision levels.
//! 2. **Search** (`prose-search`) — the delta-debugging adaptation of
//!    Precimonious, returning 1-minimal variants.
//! 3. **Transformation** (`prose-transform`) — source-to-source declaration
//!    rewriting plus wrapper synthesis for mixed-precision parameter
//!    passing.
//! 4. **Correctness** ([`metrics`]) — model-specific scalar metrics
//!    (kinetic energy / water elevation / CFL) with relative-error
//!    thresholds.
//! 5. **Performance** ([`speedup`]) — GPTL-style hotspot timers, Equation
//!    1's noise-tolerant median-of-n speedup, per-variant 3×-baseline
//!    timeouts.
//!
//! # Quickstart
//!
//! ```
//! use prose_core::{metrics::CorrectnessMetric, tuner};
//!
//! let spec = tuner::ModelSpec {
//!     name: "demo".into(),
//!     source: r#"
//! module hot
//! contains
//!   subroutine work(u, n)
//!     real(kind=8), intent(inout) :: u(n)
//!     integer, intent(in) :: n
//!     real(kind=8) :: c
//!     integer :: i
//!     c = 1.0000001d0
//!     do i = 1, n
//!       u(i) = u(i) * c + 0.25d0
//!     end do
//!   end subroutine work
//! end module hot
//! program main
//!   use hot
//!   real(kind=8) :: field(256), diag(2048), acc
//!   integer :: step, i
//!   field = 1.0d0
//!   diag = 0.5d0
//!   acc = 0.0d0
//!   do step = 1, 20
//!     call work(field, 256)
//!     ! Driver-side work outside the hotspot (the other 85% of a real
//!     ! model), so the hotspot share and the 3x timeout are realistic.
//!     do i = 1, 2048
//!       diag(i) = diag(i) * 0.999d0 + 0.001d0
//!     end do
//!     acc = acc + sum(diag)
//!   end do
//!   call prose_record_array('field', field)
//! end program main
//! "#
//!     .into(),
//!     hotspot_module: "hot".into(),
//!     target_procs: vec!["work".into()],
//!     metric: CorrectnessMetric::MaxOverSpaceL2OverTime { key: "field".into(), floor_frac: 0.0 },
//!     error_threshold: 1e-3,
//!     n_runs: 1,
//!     noise_rsd: 0.0,
//!     exclude: vec![],
//! };
//! let model = spec.load().unwrap();
//! let task = model.task(tuner::PerfScope::Hotspot, 42).unwrap();
//! let outcome = tuner::tune(&task).unwrap();
//! let best = outcome.search.best.expect("found a faster variant");
//! assert!(best.outcome.speedup > 1.0);
//! ```

pub mod certify;
pub mod ensemble;
pub mod evaluator;
pub mod job;
pub mod metrics;
pub mod pool;
pub mod prepass;
pub mod profile;
pub mod speedup;
pub mod tuner;

pub use certify::{certify_config, crosscheck_journal, BoundCheck, Certificate};
pub use ensemble::{
    validate_ensemble, CandidateValidation, EnsembleError, EnsembleParams, EnsembleReport,
    MemberResult,
};
pub use evaluator::{
    hotspot_scope_from_callers, hotspot_scope_with_wrappers, status_from_name, status_name,
    CancelRequested, DynamicEvaluator, FailureKind, ProcSample, StrictDesync, VariantRecord,
};
pub use job::{job_id_for, run_job, JobError, JobRequest, JobResult};
pub use metrics::CorrectnessMetric;
pub use prepass::{run_prepass, PrepassReport, StaticVerdict};
pub use profile::{profile, select_hotspot, ProfileRow};
pub use tuner::{
    tune, tune_brute_force, LoadedModel, ModelSpec, PerfScope, TuningOutcome, TuningTask,
    VariantPath,
};
