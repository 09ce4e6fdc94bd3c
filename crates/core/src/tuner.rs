//! Orchestration of the full FPPT cycle (Figure 1): search-space
//! construction, search, transformation, dynamic evaluation, and result
//! packaging.

use crate::evaluator::{DynamicEvaluator, VariantRecord};
use crate::metrics::CorrectnessMetric;
use prose_fortran::sema::{FpVarId, ProgramIndex};
use prose_fortran::{FortranError, Program};
use prose_interp::{CostParams, RunError};
use prose_search::dd::{DdParams, DeltaDebug};
use prose_search::{brute::BruteForce, Config, CountingSink, SearchResult};
use prose_trace::Counters;
use serde::{Deserialize, Serialize};

/// What the performance metric times (Sections IV-B vs IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PerfScope {
    /// CPU time within the hotspot procedures only (GPTL-style).
    Hotspot,
    /// Wall time of the entire model run.
    WholeModel,
}

/// How the evaluator turns a precision assignment into a runnable variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum VariantPath {
    /// Precision-parametric templates: the baseline is lowered to IR once
    /// per task, and each variant specializes slot precisions and call-site
    /// retargets in place — no unparse → reparse → re-lower round trip.
    #[default]
    Fast,
    /// The original per-variant pipeline: clone the AST, rewrite
    /// declarations, synthesize wrappers, unparse, reparse, reanalyze, and
    /// lower from scratch. Kept as the fidelity reference the fast path is
    /// cross-checked against.
    Faithful,
}

impl VariantPath {
    /// Journal-facing name.
    pub fn name(self) -> &'static str {
        match self {
            VariantPath::Fast => "fast",
            VariantPath::Faithful => "faithful",
        }
    }
}

impl std::str::FromStr for VariantPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fast" => Ok(VariantPath::Fast),
            "faithful" => Ok(VariantPath::Faithful),
            other => Err(format!("unknown variant path `{other}` (fast|faithful)")),
        }
    }
}

/// Atom granularity of the delta-debugging search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SearchGranularity {
    /// One search decision per FP declaration (the paper's search space).
    #[default]
    Variable,
    /// One decision per precision congruence class first (variables the
    /// dependence analysis proves must co-move), then per-variable
    /// refinement of only the classes on the 1-minimal frontier. Classes
    /// are probed in descending static-penalty order.
    Grouped,
}

impl SearchGranularity {
    /// Journal-facing name.
    pub fn name(self) -> &'static str {
        match self {
            SearchGranularity::Variable => "variable",
            SearchGranularity::Grouped => "grouped",
        }
    }
}

impl std::str::FromStr for SearchGranularity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "variable" => Ok(SearchGranularity::Variable),
            "grouped" => Ok(SearchGranularity::Grouped),
            other => Err(format!(
                "unknown search granularity `{other}` (variable|grouped)"
            )),
        }
    }
}

/// A fully specified tuning task.
#[derive(Debug)]
pub struct TuningTask {
    pub program: Program,
    pub index: ProgramIndex,
    /// Search atoms (FP variable declarations, Section III-A).
    pub atoms: Vec<FpVarId>,
    /// Procedures whose timers constitute the hotspot.
    pub hotspot_procs: Vec<String>,
    pub metric: CorrectnessMetric,
    pub error_threshold: f64,
    /// Eq. 1 `n`.
    pub n_runs: usize,
    pub noise_rsd: f64,
    pub seed: u64,
    pub scope: PerfScope,
    pub cost: CostParams,
    /// Per-variant budget as a multiple of the baseline (paper: 3×).
    pub timeout_factor: f64,
    /// Unique-variant budget (the 12-hour-wall stand-in); `None` = none.
    pub max_variants: Option<usize>,
    /// Acceptance bar on speedup (1.0 = must beat baseline).
    pub min_speedup: f64,
    /// Interpreter event safety valve.
    pub max_events: u64,
    /// Trial-journal path (JSONL). When set, every evaluation request is
    /// appended, and an existing journal preloads the evaluator's
    /// memoization cache so repeated configurations never re-run the
    /// interpreter — including across process restarts.
    pub journal: Option<std::path::PathBuf>,
    /// Variant-generation path (template fast path by default).
    pub variant_path: VariantPath,
    /// On the fast path: the first `crosscheck` uncached evaluations are
    /// re-run through the faithful pipeline and checked bit-identical
    /// (records, simulated cycles, op counts, wrapper set). `0` disables.
    pub crosscheck: usize,
    /// Strict crosscheck policy: a fast/faithful divergence aborts the
    /// experiment. Lenient (default) counts it, disables the fast path,
    /// and re-answers through the faithful pipeline.
    pub strict: bool,
    /// Deterministic fault-injection plan (`None` = no injection).
    pub faults: Option<prose_faults::FaultConfig>,
    /// Noise-tolerant re-evaluation: when a measured speedup lands within
    /// `retry_band * min_speedup` of the acceptance bar, re-measure with
    /// an escalating sample count. `0.0` disables.
    pub retry_band: f64,
    /// Sample-count ceiling for the escalating re-measurement.
    pub retry_max_runs: usize,
    /// Journal write-ahead-log flush policy (per-record by default, so a
    /// killed process loses at most the record being written).
    pub wal_flush: prose_trace::FlushPolicy,
    /// Run every variant with an fp64 shadow and gate passing trials on
    /// the shadow-error budget (the numerical guardrail).
    pub shadow: bool,
    /// Per-metric shadow-error budget; `None` uses `error_threshold`. A
    /// passing trial whose worst per-variable shadow error exceeds the
    /// budget — or that triggered catastrophic cancellation — is demoted
    /// to fail-accuracy with [`crate::evaluator::FailureKind::ShadowBudget`].
    pub shadow_budget: Option<f64>,
    /// Held-out ensemble member id this task evaluates (`None` = the
    /// tuning input). Stamped into journal records and part of the
    /// memoization key, so resumed ensemble validations skip completed
    /// members without cross-member cache collisions.
    pub member: Option<u32>,
    /// Atom granularity for the delta-debugging search: per-variable (the
    /// default) or per congruence class with frontier refinement.
    pub granularity: SearchGranularity,
    /// Run the abstract-interpretation pre-pass before the search: atoms
    /// whose static round-off bound clears the error budget at f32 are
    /// pre-demoted without trials, atoms whose static range overflows f32
    /// are pinned at f64, and only the undecided residue enters delta
    /// debugging. Off by default (byte-identical journals with prior
    /// releases); every trial is then stamped with the verdict summary
    /// ([`prose_trace::TrialRecord::static_verdict`]).
    pub absint: bool,
    /// Worker-pool width ([`crate::pool::map_ordered`]) for batch
    /// evaluation (the paper's one-PBS-node-per-variant fan-out) and for
    /// the independent analyses of the absint pre-pass. `1` (the default)
    /// runs both serially on the submitting thread; results, journals, the
    /// pre-pass report and the final configuration are identical at any
    /// width.
    pub workers: usize,
    /// Per-variant wall-clock deadline in milliseconds (`None` disables).
    /// Unlike `timeout_factor` — a budget on *modeled* cycles — this is
    /// real elapsed time: the supervision valve that kills a hung or
    /// pathologically slow interpreter run. Checked cooperatively every
    /// [`prose_interp::DEADLINE_CHECK_INTERVAL`] events, so modeled
    /// cycles, numerics, and journals are bit-identical when it never
    /// fires. Also seeds the stuck-election watchdog's patience.
    pub deadline_ms: Option<u64>,
    /// Transient-failure retry budget: re-attempt a trial that failed by
    /// injected timeout or wall-clock deadline up to this many extra
    /// times, doubling the cycle budget and deadline each attempt. Every
    /// attempt is journaled (`attempt` field); after exhaustion the final
    /// failure stands as an ordinary rejection. `0` (default) disables.
    pub retry_attempts: u32,
    /// Content-addressed service job id this task runs under; stamped into
    /// every journal record (provenance only, never part of the
    /// memoization key). `None` for standalone runs.
    pub job_id: Option<String>,
    /// Cooperative cancellation token. When set and flipped to `true`, the
    /// evaluator raises [`crate::evaluator::CancelRequested`] at the next
    /// evaluation boundary — between trials, never mid-journal-append, so
    /// a cancelled run's journal stays intact and resumable.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

/// The result of one tuning experiment.
#[derive(Debug)]
pub struct TuningOutcome {
    pub search: SearchResult,
    /// Rich per-variant measurements, aligned with evaluation order (may
    /// exceed the search trace if batches over-evaluated).
    pub variants: Vec<VariantRecord>,
    /// Baseline measurements.
    pub baseline_hotspot_cycles: f64,
    pub baseline_total_cycles: f64,
    /// Hotspot share of whole-model time (Table I's "% CPU Time").
    pub hotspot_share: f64,
    /// Observability counters: evaluator cache hits/misses, search-level
    /// memo hits, and aggregate interpreter op counts.
    pub metrics: Counters,
}

impl TuningOutcome {
    /// The precision map of the search's final configuration.
    pub fn final_map(
        &self,
        index: &ProgramIndex,
        atoms: &[FpVarId],
    ) -> prose_fortran::PrecisionMap {
        config_to_map(index, atoms, &self.search.final_config)
    }

    /// Number of atoms the final configuration keeps at 64-bit.
    pub fn remaining_double(&self) -> usize {
        self.search.final_config.iter().filter(|b| !**b).count()
    }
}

/// Map a search configuration to a precision assignment.
pub fn config_to_map(
    index: &ProgramIndex,
    atoms: &[FpVarId],
    lowered: &Config,
) -> prose_fortran::PrecisionMap {
    let mut map = prose_fortran::PrecisionMap::declared(index);
    for (i, low) in lowered.iter().enumerate() {
        if *low {
            map.set(atoms[i], prose_fortran::ast::FpPrecision::Single);
        }
    }
    map
}

/// Run the delta-debugging tuning experiment for a task.
pub fn tune(task: &TuningTask) -> Result<TuningOutcome, RunError> {
    let mut pre = task.absint.then(|| crate::prepass::run_prepass(task));
    let mut eval = DynamicEvaluator::new(task)?;
    let baseline_hotspot_cycles = eval.baseline.hotspot_cycles;
    let baseline_total_cycles = eval.baseline.total_cycles;
    let hotspot_share = eval.baseline.hotspot_share();
    if let Some(p) = &mut pre {
        eval.set_static_verdict(Some(p.stamp.clone()));
        // Dynamic guard on the static demotions: every searched
        // configuration bakes the pre-demoted atoms in, so before trusting
        // them, evaluate the forced configuration once (it is journaled
        // and memoized like any trial). A failure means the static bound
        // lied about this program — drop every demotion back into the
        // search rather than poison the final configuration.
        if p.count(crate::prepass::StaticVerdict::PreDemote) > 0 {
            let guard = prose_search::Evaluator::evaluate(&mut eval, &p.forced());
            if guard.status != prose_search::Status::Pass {
                p.drop_demotions(&task.index, &task.atoms);
                eval.set_static_verdict(Some(p.stamp.clone()));
            }
        }
    }
    let dd = DeltaDebug::new(DdParams {
        min_speedup: task.min_speedup,
        max_variants: task.max_variants,
        ..Default::default()
    });
    let mut sink = CountingSink::default();
    // Hotspot-scoped searches price casting only at call sites the
    // hotspot timers can see, mirroring the dynamic metric.
    let caller_scopes: Option<Vec<_>> = match task.scope {
        PerfScope::Hotspot => Some(
            task.hotspot_procs
                .iter()
                .filter_map(|p| task.index.scope_of_procedure(p))
                .collect(),
        ),
        PerfScope::WholeModel => None,
    };
    let grouped_units = |atoms: &[FpVarId]| -> Vec<Vec<usize>> {
        let depgraph = prose_analysis::DepGraph::build(&task.program, &task.index);
        depgraph.ordered_atom_groups(&task.index, atoms, caller_scopes.as_deref())
    };
    let search = match &pre {
        None => match task.granularity {
            SearchGranularity::Variable => dd.run_with_sink(&mut eval, &mut sink),
            SearchGranularity::Grouped => {
                let units = grouped_units(&task.atoms);
                dd.run_grouped_with_sink(&mut eval, &units, &mut sink)
            }
        },
        Some(p) => {
            // Statically decided atoms never enter the search: the
            // reduced evaluator pins them in every probed configuration
            // and only the undecided residue is delta-debugged.
            let residue = p.residue();
            let mut red = crate::prepass::ReducedEvaluator::new(&mut eval, p);
            let reduced = match task.granularity {
                SearchGranularity::Variable => dd.run_with_sink(&mut red, &mut sink),
                SearchGranularity::Grouped => {
                    let residue_atoms: Vec<FpVarId> =
                        residue.iter().map(|&i| task.atoms[i]).collect();
                    let units = grouped_units(&residue_atoms);
                    dd.run_grouped_with_sink(&mut red, &units, &mut sink)
                }
            };
            expand_search(reduced, p, &residue)
        }
    };
    let mut metrics = eval.metrics();
    metrics.bump("search_probes", sink.trials + sink.memo_hits);
    metrics.bump("search_memo_hits", sink.memo_hits);
    metrics.bump("search_unique_trials", sink.trials);
    if let Some(p) = &pre {
        use crate::prepass::StaticVerdict;
        metrics.bump(
            "absint_predemoted",
            p.count(StaticVerdict::PreDemote) as u64,
        );
        metrics.bump("absint_pinned", p.count(StaticVerdict::PinF64) as u64);
        metrics.bump("absint_undecided", p.count(StaticVerdict::Undecided) as u64);
        metrics.bump("absint_analyses", p.analyses);
        metrics.bump("absint_steps", p.steps);
        if p.joint_fallback {
            metrics.bump("absint_joint_fallback", 1);
        }
    }
    Ok(TuningOutcome {
        search,
        variants: eval.into_records(),
        baseline_hotspot_cycles,
        baseline_total_cycles,
        hotspot_share,
        metrics,
    })
}

/// Map a residue-space [`SearchResult`] back to the full atom space: every
/// trace/best/final configuration gets the pre-demoted atoms forced `true`
/// and the pinned atoms forced `false`, matching the full-width configs
/// the evaluator journaled.
fn expand_search(
    mut s: SearchResult,
    pre: &crate::prepass::PrepassReport,
    residue: &[usize],
) -> SearchResult {
    s.final_config = pre.expand(residue, &s.final_config);
    for t in &mut s.trace {
        t.config = pre.expand(residue, &t.config);
    }
    if let Some(b) = &mut s.best {
        b.config = pre.expand(residue, &b.config);
    }
    s
}

/// Exhaustively evaluate the full 2ⁿ space (funarc / Figure 2).
pub fn tune_brute_force(task: &TuningTask) -> Result<TuningOutcome, RunError> {
    let mut eval = DynamicEvaluator::new(task)?;
    let baseline_hotspot_cycles = eval.baseline.hotspot_cycles;
    let baseline_total_cycles = eval.baseline.total_cycles;
    let hotspot_share = eval.baseline.hotspot_share();
    let search = BruteForce::default().run(&mut eval);
    let metrics = eval.metrics();
    Ok(TuningOutcome {
        search,
        variants: eval.into_records(),
        baseline_hotspot_cycles,
        baseline_total_cycles,
        hotspot_share,
        metrics,
    })
}

/// Evaluate an explicit list of configurations (used by ablations and by
/// verification tests that probe specific variants).
pub fn evaluate_configs(
    task: &TuningTask,
    configs: &[Config],
) -> Result<Vec<VariantRecord>, RunError> {
    let eval = DynamicEvaluator::new(task)?;
    let recs: Vec<VariantRecord> = configs.iter().map(|c| eval.eval_one(c)).collect();
    Ok(recs)
}

/// A reusable model description: Fortran source plus the experiment
/// parameters from Section IV-A. `prose-models` ships one per model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSpec {
    pub name: String,
    /// Complete Fortran source (modules + main program driver).
    pub source: String,
    /// Table I "Targeted Module".
    pub hotspot_module: String,
    /// The work routines inside the hotspot module whose FP declarations
    /// are the search atoms and whose timers form the hotspot scope.
    pub target_procs: Vec<String>,
    pub metric: CorrectnessMetric,
    pub error_threshold: f64,
    pub n_runs: usize,
    pub noise_rsd: f64,
    /// Variable names (within the target scopes) excluded from the atom
    /// set — e.g. funarc's `result` output in the motivating example.
    pub exclude: Vec<String>,
}

/// A parsed and indexed model, ready to build tasks from.
#[derive(Debug)]
pub struct LoadedModel {
    pub spec: ModelSpec,
    pub program: Program,
    pub index: ProgramIndex,
    pub atoms: Vec<FpVarId>,
}

impl ModelSpec {
    /// Parse, analyze, and construct the search space.
    pub fn load(&self) -> Result<LoadedModel, FortranError> {
        let program = prose_fortran::parse_program(&self.source)?;
        let index = prose_fortran::analyze(&program)?;
        let scopes: Vec<_> = self
            .target_procs
            .iter()
            .filter_map(|p| index.scope_of_procedure(p))
            .collect();
        if scopes.len() != self.target_procs.len() {
            let missing: Vec<_> = self
                .target_procs
                .iter()
                .filter(|p| index.scope_of_procedure(p).is_none())
                .collect();
            return Err(FortranError::sema(
                0,
                format!("target procedures not found: {missing:?}"),
            ));
        }
        let mut atoms = index.atoms_in_scopes(&scopes);
        atoms.retain(|a| !self.exclude.iter().any(|x| x == &index.fp_var(*a).name));
        Ok(LoadedModel {
            spec: self.clone(),
            program,
            index,
            atoms,
        })
    }
}

impl LoadedModel {
    /// Build a tuning task with the given performance scope and seed.
    ///
    /// Re-analyzes the stored program (the task owns its own index); the
    /// analysis already succeeded in [`ModelSpec::load`], so an error here
    /// means the model was mutated in between and is reported, not
    /// panicked on.
    pub fn task(&self, scope: PerfScope, seed: u64) -> Result<TuningTask, FortranError> {
        Ok(TuningTask {
            program: self.program.clone(),
            index: prose_fortran::analyze(&self.program)?,
            atoms: self.atoms.clone(),
            hotspot_procs: self.spec.target_procs.clone(),
            metric: self.spec.metric.clone(),
            error_threshold: self.spec.error_threshold,
            n_runs: self.spec.n_runs,
            noise_rsd: self.spec.noise_rsd,
            seed,
            scope,
            cost: CostParams::default(),
            timeout_factor: 3.0,
            max_variants: None,
            min_speedup: 1.0,
            max_events: 400_000_000,
            journal: None,
            variant_path: VariantPath::default(),
            crosscheck: 1,
            strict: false,
            faults: None,
            retry_band: 0.0,
            retry_max_runs: 25,
            wal_flush: prose_trace::FlushPolicy::default(),
            shadow: false,
            shadow_budget: None,
            member: None,
            granularity: SearchGranularity::default(),
            absint: false,
            workers: default_workers(),
            deadline_ms: default_deadline_ms(),
            retry_attempts: default_retry_attempts(),
            job_id: None,
            cancel: None,
        })
    }
}

/// Worker-pool width when none is requested explicitly: the
/// `PROSE_WORKERS` environment variable when set to a positive integer,
/// else 1 (serial). CLI `--workers` flags override this.
pub fn default_workers() -> usize {
    std::env::var("PROSE_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Per-variant wall-clock deadline when none is requested explicitly: the
/// `PROSE_DEADLINE_MS` environment variable when set to a positive
/// integer, else disabled. CLI `--deadline-ms` flags override this.
pub fn default_deadline_ms() -> Option<u64> {
    std::env::var("PROSE_DEADLINE_MS")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .filter(|&n| n >= 1)
}

/// Transient-failure retry budget when none is requested explicitly: the
/// `PROSE_RETRY_ATTEMPTS` environment variable, else 0 (disabled). CLI
/// `--retry-attempts` flags override this.
pub fn default_retry_attempts() -> u32 {
    std::env::var("PROSE_RETRY_ATTEMPTS")
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
        .unwrap_or(0)
}
