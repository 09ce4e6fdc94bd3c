//! # prose-interp
//!
//! Dynamic evaluation substrate: mixed-precision execution of the
//! `prose-fortran` AST plus an analytical performance model. The AST is
//! lowered to IR ([`lower`]); each variant's IR is compiled once to flat,
//! statically typed register code ([`compile`]) and run by a register
//! executor. The tree walker the executor replaced is kept as the
//! differential-test oracle ([`oracle`]).
//!
//! The paper compiled each variant with ifort and ran it on Derecho under
//! MPI, measuring hotspot CPU time with GPTL. This crate substitutes both
//! halves of that loop:
//!
//! * **Numerics are real.** Every FP value is computed in the precision of
//!   the variable it flows through (`f32` or `f64` per the variant's
//!   declarations; literals are kind-generic as with promoted model builds),
//!   so rounding, convergence behaviour, overflow, and NaN production are
//!   genuine — an iterative kernel that fails to converge in single
//!   precision fails here for the same numerical reason it fails on real
//!   hardware.
//! * **Time is modeled.** Execution emits an event stream (FP operations by
//!   precision, array traffic by element size, conversions, call overhead,
//!   collective latency), and the [`cost`] model folds it into simulated
//!   cycles using a vectorization discount: a counted loop that is
//!   statically legal to vectorize ([`prose_analysis::vect`]) and stays
//!   precision-uniform at runtime is charged at SIMD rates (twice the f32
//!   throughput of f64 — the AVX-512 ratio the paper's speedups stem from);
//!   conversions or non-inlined calls inside a loop demote it to scalar
//!   cost. This reproduces the paper's observed phenomena: casting overhead
//!   from mixed-precision interprocedural data flow, inlining loss through
//!   wrappers, vectorization-hostile recurrences, and precision-insensitive
//!   `MPI_ALLREDUCE` latency.
//! * **Timers are GPTL-shaped.** Per-procedure exclusive cycles and call
//!   counts; a hotspot's time is the sum over its procedures, and wrapper
//!   procedures are *not* part of the hotspot set — conversion work at the
//!   hotspot boundary is invisible to hotspot-scoped timing (Figure 5) but
//!   fully visible to whole-model timing (Figure 7), exactly as in the
//!   paper.

pub mod absint;
mod arith;
pub mod compile;
pub mod cost;
mod exec;
pub mod ir;
pub mod lower;
#[doc(hidden)]
pub mod oracle;
pub mod run;
pub mod shadow;
pub mod template;
pub mod timers;
pub mod value;

pub use absint::{analyze_ir, analyze_variant, DEFAULT_MAX_STEPS};
pub use compile::{compile, Compiled};
pub use cost::CostParams;
pub use run::{
    run_compiled, run_ir, run_ir_shadow, run_program, run_program_shadow, OpCounts, RunConfig,
    RunError, RunOutcome, RunRecords, ShadowRun, DEADLINE_CHECK_INTERVAL,
};
pub use shadow::{CancellationEvent, NonFiniteOrigin, ShadowReport, VarShadow};
pub use template::IrTemplate;
pub use timers::{ProcTimer, Timers};
