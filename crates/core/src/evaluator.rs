//! The dynamic-evaluation half of the Figure-1 cycle: transform → run →
//! measure, for one tuning task.
//!
//! Implements [`prose_search::Evaluator`]; batches are evaluated on a
//! scoped-thread worker pool ([`TuningTask::workers`]), standing in for
//! the paper's one-Derecho-node-per-variant parallelism.
//!
//! ## Determinism under parallelism
//!
//! Worker count must never change results. Three invariants make a
//! parallel run byte-equivalent to a serial one (up to wall-clock and
//! worker-provenance fields):
//!
//! 1. **Stable reduction order** — batch results land in index-ordered
//!    slots, so the search applies outcomes in submission order no matter
//!    which worker finished first. Worker panics are captured per slot
//!    and re-raised in batch order.
//! 2. **Single-flight memo** — the config cache carries an in-flight set
//!    guarded by the same lock; concurrent requests for one configuration
//!    wait for the first evaluation instead of repeating it, so every
//!    configuration runs the interpreter at most once per journal.
//! 3. **Deferred journal writes** — workers only *record* trials; the
//!    submitting thread appends them through the single journal writer in
//!    batch index order, so sequence numbers and record order in the file
//!    are identical at any worker count. Per-trial fault plans are keyed
//!    by a hash of the configuration ([`prose_faults::config_hash`]), not
//!    by evaluation arrival order.
//!
//! ## Memoization and the trial journal
//!
//! Every evaluation request is answered through a config-keyed cache.
//! Delta-debugging's probe sets overlap heavily across granularity levels,
//! and re-running an experiment repeats them wholesale; the cache
//! guarantees the interpreter runs **at most once per configuration per
//! journal**. When [`TuningTask::journal`] is set, the cache is preloaded
//! from the journal file and every request (hit or miss) is appended to
//! it, so a re-run against an existing journal performs zero interpreter
//! evaluations and the journal doubles as the experiment's audit trail.

use crate::speedup::{speedup, NoiseModel};
use crate::tuner::{PerfScope, TuningTask, VariantPath};
use prose_analysis::flow::FpFlowGraph;
use prose_fortran::ast::Procedure;
use prose_fortran::precision::PrecisionMap;
use prose_fortran::sema::FpVarId;
use prose_interp::{
    compile, run_compiled, run_program, run_program_shadow, IrTemplate, OpCounts, RunConfig,
    RunError, RunOutcome, ShadowReport, Timers,
};
use prose_search::{Config, Outcome, Status};
use prose_trace::{Counters, Journal, ShadowTrial, StageClock, TrialRecord};
use prose_transform::{make_variant, VariantPlan, VariantTemplate};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Poison-tolerant lock acquisition. A worker panic while holding a lock
/// poisons it; every panic that can unwind through a lock scope here is
/// either contained per-trial or deliberately re-raised (strict desync,
/// injected kill), so the guarded data is never left half-updated in a way
/// the search cares about. Propagating the poison would instead cascade
/// one contained failure into a panic on every later trial.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a variant evaluation failed, one level finer than [`Status`].
///
/// `Status` is the search-facing verdict (a timeout and a floating-point
/// trap are both "not a candidate"); `FailureKind` is the operator-facing
/// diagnosis that the journal and `prose-report` preserve. Every failed
/// evaluation carries exactly one kind; passing and fail-accuracy records
/// carry none (an accuracy miss is a measurement, not a fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// Simulated-cycle budget or event-limit valve tripped.
    Timeout,
    /// Wall-clock deadline exceeded — the supervision layer killed a run
    /// (or the watchdog declared a stuck election dead). Real elapsed
    /// time, unlike [`FailureKind::Timeout`]'s modeled cycles.
    Deadline,
    /// Non-finite value surfaced where the interpreter checks for one.
    FpException,
    /// Fast-path template output diverged from the faithful pipeline.
    TemplateDesync,
    /// A panic unwound out of the evaluation and was contained.
    Panic,
    /// The trial journal could not be read or written.
    JournalError,
    /// The source-level transform rejected the precision assignment.
    Transform,
    /// Any other interpreter abort (out-of-bounds, div-by-zero, ...).
    RuntimeOther,
    /// The scalar metric passed but the shadow-execution guardrail demoted
    /// the trial: per-variable shadow error over budget, or catastrophic
    /// cancellation flagged.
    ShadowBudget,
}

impl FailureKind {
    /// Journal-facing name.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Timeout => "timeout",
            FailureKind::Deadline => "deadline",
            FailureKind::FpException => "fp_exception",
            FailureKind::TemplateDesync => "template_desync",
            FailureKind::Panic => "panic",
            FailureKind::JournalError => "journal_error",
            FailureKind::Transform => "transform",
            FailureKind::RuntimeOther => "runtime_other",
            FailureKind::ShadowBudget => "shadow_budget",
        }
    }

    /// Inverse of [`FailureKind::name`].
    pub fn from_name(name: &str) -> Option<FailureKind> {
        Some(match name {
            "timeout" => FailureKind::Timeout,
            "deadline" => FailureKind::Deadline,
            "fp_exception" => FailureKind::FpException,
            "template_desync" => FailureKind::TemplateDesync,
            "panic" => FailureKind::Panic,
            "journal_error" => FailureKind::JournalError,
            "transform" => FailureKind::Transform,
            "runtime_other" => FailureKind::RuntimeOther,
            "shadow_budget" => FailureKind::ShadowBudget,
            _ => return None,
        })
    }

    /// Classify an interpreter abort.
    pub fn from_run_error(e: &RunError) -> FailureKind {
        match e {
            RunError::Timeout { .. } | RunError::EventLimit => FailureKind::Timeout,
            RunError::Deadline { .. } => FailureKind::Deadline,
            RunError::NonFinite { .. } => FailureKind::FpException,
            RunError::Lower(_) => FailureKind::Transform,
            _ => FailureKind::RuntimeOther,
        }
    }
}

/// Panic payload raised by the strict crosscheck policy: a template
/// divergence under `--strict` must abort the experiment, so
/// [`DynamicEvaluator::eval_one`]'s containment re-raises it instead of
/// recording a [`FailureKind::Panic`] trial.
pub struct StrictDesync(pub String);

/// Panic payload raised when the task's cancellation token flips while a
/// search is running. Raised only at evaluation boundaries on the
/// submitting thread — between journal appends, never inside one — so the
/// journal of a cancelled run is always intact and resumable. Callers
/// embedding the tuner as a library (`run_job`, `prose-tune`'s signal
/// handler) catch it with `catch_unwind` and downcast.
pub struct CancelRequested;

/// Best-effort text of a contained panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Journal-facing name of a [`Status`].
pub fn status_name(s: Status) -> &'static str {
    match s {
        Status::Pass => "pass",
        Status::FailAccuracy => "fail_accuracy",
        Status::Timeout => "timeout",
        Status::RuntimeError => "runtime_error",
        Status::TransformError => "transform_error",
    }
}

/// Inverse of [`status_name`].
pub fn status_from_name(name: &str) -> Option<Status> {
    Some(match name {
        "pass" => Status::Pass,
        "fail_accuracy" => Status::FailAccuracy,
        "timeout" => Status::Timeout,
        "runtime_error" => Status::RuntimeError,
        "transform_error" => Status::TransformError,
        _ => return None,
    })
}

/// Render interpreter op counts as journal counters.
fn ops_counters(ops: &OpCounts, events: u64) -> Counters {
    let mut c = Counters::new();
    c.bump("interp_fp32_ops", ops.fp32_ops);
    c.bump("interp_fp64_ops", ops.fp64_ops);
    c.bump("interp_mem_ops", ops.mem_ops);
    c.bump("interp_casts", ops.casts);
    c.bump("interp_cast_stores", ops.cast_stores);
    c.bump("interp_timed_calls", ops.timed_calls);
    c.bump("interp_loop_iters", ops.loop_iters);
    c.bump("interp_allreduces", ops.allreduces);
    c.bump("interp_events", events);
    c
}

/// Per-procedure timing sample inside one variant (Figure 6's raw data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcSample {
    pub proc: String,
    pub cycles: f64,
    pub calls: u64,
    /// Fingerprint of the precision assignment restricted to this
    /// procedure's own FP variables — "unique procedure variants".
    pub fingerprint: u64,
}

impl ProcSample {
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.cycles / self.calls as f64
        }
    }
}

/// Everything measured about one explored variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantRecord {
    /// Search configuration (true = 32-bit).
    pub config: Config,
    pub outcome: Outcome,
    /// Fraction of atoms at 32-bit.
    pub fraction_single: f64,
    /// Hotspot procedures' timers for this variant.
    pub per_proc: Vec<ProcSample>,
    /// Wrapper procedures synthesized for this variant.
    pub wrappers: Vec<String>,
    /// Human-readable failure detail, when the run aborted.
    pub detail: Option<String>,
    /// Whole-model simulated cycles (present when the run completed).
    pub total_cycles: Option<f64>,
    /// Hotspot-scoped cycles (present when the run completed).
    pub hotspot_cycles: Option<f64>,
    /// Structured failure classification (set iff the evaluation failed
    /// for a reason other than accuracy).
    #[serde(default)]
    pub failure: Option<FailureKind>,
    /// Name of the fault injected into this trial, when the fault harness
    /// planned one ("nan" / "timeout" / "abort" / "jitter").
    #[serde(default)]
    pub fault_kind: Option<String>,
    /// Per-trial fault-plan seed (reproduces the injection exactly).
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Shadow-execution diagnostics, when the task ran with `--shadow`.
    #[serde(default)]
    pub shadow: Option<ShadowTrial>,
}

/// What a variant path hands back: the completed run, the wrapper set, the
/// variant's hotspot procedure scope, and the shadow report (when the task
/// runs with shadow execution). Failures come back as finished records.
type PathResult =
    Result<(RunOutcome, Vec<String>, Vec<String>, Option<ShadowReport>), Box<VariantRecord>>;

/// Flatten an interpreter shadow report to the journal-friendly per-trial
/// summary. `demoted` is filled in by the guardrail gate afterwards.
fn shadow_trial(rep: &ShadowReport) -> ShadowTrial {
    ShadowTrial {
        worst_rel: rep.worst_rel,
        worst_var: rep.worst_var().map(|v| v.name.clone()),
        cancellations: rep.cancellations,
        cancellation_site: rep.worst_cancellation.as_ref().map(|c| {
            format!(
                "{}:{} ({:.1} bits lost, rel {:.2e})",
                c.proc, c.line, c.lost_bits, c.rel_err
            )
        }),
        nonfinite_origin: rep
            .nonfinite
            .as_ref()
            .map(|n| format!("{} at {}:{}", n.op, n.proc, n.line)),
        nonfinite_injected: rep.nonfinite.as_ref().is_some_and(|n| n.injected),
        demoted: false,
    }
}

/// Operator-facing explanation of a guardrail demotion.
fn shadow_demotion_detail(rep: &ShadowReport, budget: f64) -> String {
    let mut parts = Vec::new();
    if rep.worst_rel > budget {
        let var = rep
            .worst_var()
            .map(|v| v.name.clone())
            .unwrap_or_else(|| "?".into());
        parts.push(format!(
            "shadow error {:.2e} on {var} exceeds budget {budget:.2e}",
            rep.worst_rel
        ));
    }
    if rep.cancellations > 0 {
        let site = rep
            .worst_cancellation
            .as_ref()
            .map(|c| format!("{}:{}", c.proc, c.line))
            .unwrap_or_else(|| "?".into());
        parts.push(format!(
            "{} catastrophic cancellation(s), worst at {site}",
            rep.cancellations
        ));
    }
    format!("shadow guardrail: {}", parts.join("; "))
}

/// Is this failed record worth re-attempting? Transient kinds are the two
/// wall-clock-ish ones jitter can cause: an injected timeout and a
/// deadline kill. Deterministic rejections (accuracy, transform errors,
/// FP traps, panics) re-fail identically and are never retried.
fn is_transient(rec: &VariantRecord) -> bool {
    matches!(
        rec.failure,
        Some(FailureKind::Timeout) | Some(FailureKind::Deadline)
    )
}

/// Config-keyed memoization state. The in-flight set lives under the same
/// lock as the map so a membership check and an insertion are atomic:
/// concurrent workers asking for the same configuration elect exactly one
/// evaluator, and the rest wait on [`DynamicEvaluator::memo_cv`].
#[derive(Default)]
struct MemoState {
    map: HashMap<Config, VariantRecord>,
    /// In-flight configurations, keyed to their election time so the
    /// watchdog can spot a stuck evaluator by wall-clock age.
    inflight: HashMap<Config, Instant>,
}

/// One completed evaluation attempt that was retried: its failed record
/// plus the bookkeeping its journal entry needs.
struct AttemptTrial {
    rec: VariantRecord,
    attempt: u32,
    wall_ms: f64,
    clock: StageClock,
    counters: Counters,
}

/// Per-trial bookkeeping produced alongside a [`VariantRecord`] and
/// consumed by the (possibly deferred) journal append.
struct TrialMeta {
    cached: bool,
    /// Wall time of *this evaluation*, measured when it completed — not
    /// when its journal record is appended, so batch queueing never skews
    /// the number.
    wall_ms: f64,
    clock: StageClock,
    counters: Counters,
    /// Pool worker that ran the trial (`None`: submitting thread).
    worker: Option<u32>,
    /// Attempt ordinal of the *final* record (0 unless transient-failure
    /// retries happened).
    attempt: u32,
    /// Earlier attempts that failed transiently and were retried; each is
    /// journaled (in attempt order) ahead of the final record.
    prior: Vec<AttemptTrial>,
}

impl TrialMeta {
    fn cached_hit(wall_ms: f64, worker: Option<u32>) -> Self {
        TrialMeta {
            cached: true,
            wall_ms,
            clock: StageClock::new(),
            counters: Counters::new(),
            worker,
            attempt: 0,
            prior: Vec::new(),
        }
    }
}

/// Removes the in-flight marker for a configuration even when the
/// evaluation unwinds, so waiters blocked on the single-flight condvar are
/// released instead of deadlocking under a propagating panic.
struct InflightGuard<'a, 'b> {
    eval: &'a DynamicEvaluator<'b>,
    config: &'a Config,
}

impl Drop for InflightGuard<'_, '_> {
    fn drop(&mut self) {
        let mut memo = lock(&self.eval.memo);
        memo.inflight.remove(self.config);
        drop(memo);
        self.eval.memo_cv.notify_all();
    }
}

/// Baseline measurements shared by every variant evaluation.
#[derive(Debug)]
pub struct Baseline {
    pub outcome: RunOutcome,
    pub hotspot_cycles: f64,
    pub total_cycles: f64,
}

impl Baseline {
    pub fn scoped(&self, scope: PerfScope) -> f64 {
        match scope {
            PerfScope::Hotspot => self.hotspot_cycles,
            PerfScope::WholeModel => self.total_cycles,
        }
    }

    /// Fraction of whole-model time spent in the hotspot (Table I).
    pub fn hotspot_share(&self) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.hotspot_cycles / self.total_cycles
        }
    }
}

/// The evaluator driven by the search strategies.
pub struct DynamicEvaluator<'a> {
    pub task: &'a TuningTask,
    pub baseline: Baseline,
    noise: NoiseModel,
    /// Per hotspot procedure: its own FP variable ids (for fingerprints).
    proc_vars: Vec<(String, Vec<FpVarId>)>,
    /// All evaluated variants, in evaluation order.
    records: Mutex<Vec<VariantRecord>>,
    /// Config-keyed memoization: every measured configuration, including
    /// outcomes replayed from a preloaded journal, plus the in-flight set
    /// backing the single-flight election.
    memo: Mutex<MemoState>,
    /// Signalled whenever an in-flight evaluation completes (or unwinds).
    memo_cv: Condvar,
    /// Aggregate observability counters (cache hits/misses, interpreter op
    /// totals).
    counters: Mutex<Counters>,
    /// Trial journal sink ([`TuningTask::journal`]); `None` disables
    /// journaling but not in-memory memoization.
    journal: Option<Mutex<Journal>>,
    /// Next journal sequence number (continues a preloaded journal).
    seq: AtomicU64,
    /// Fast-path templates, built once per task when
    /// [`TuningTask::variant_path`] is [`VariantPath::Fast`]. `None` means
    /// every evaluation takes the faithful unparse → reparse → re-lower
    /// pipeline (requested, or the template build failed).
    templates: Option<(VariantTemplate<'a>, IrTemplate<'a>)>,
    /// Faithful cross-check tickets remaining ([`TuningTask::crosscheck`]).
    crosschecks_left: AtomicU64,
    /// Set when a lenient crosscheck caught a template divergence: the
    /// fast path is no longer trusted and every subsequent evaluation
    /// takes the faithful pipeline.
    fast_disabled: AtomicBool,
    /// Journal records appended this process (drives the fault harness's
    /// `kill-after` mid-run abort).
    journal_appends: AtomicU64,
    /// Evaluation-round ordinal: one per [`eval_one`] call or
    /// [`Evaluator::evaluate_batch`] submission. Deterministic across
    /// worker counts (it counts submissions, not completions) and stamped
    /// into every trial record so `prose-report` can reconstruct
    /// wall-clock-per-round.
    batch_seq: AtomicU64,
    /// Absint pre-pass context stamped into every journaled trial
    /// ([`TrialRecord::static_verdict`]); `None` when no pre-pass ran.
    static_verdict: Option<String>,
}

impl<'a> DynamicEvaluator<'a> {
    /// Run the 64-bit baseline and set up the evaluator.
    pub fn new(task: &'a TuningTask) -> Result<Self, RunError> {
        let cfg = RunConfig {
            cost: task.cost.clone(),
            budget: None,
            max_events: task.max_events,
            wrapper_names: Default::default(),
            // The baseline is never fault-injected: it anchors correctness
            // and timing for every variant. It is also never shadowed —
            // the baseline is all-fp64, so its shadow is itself. No
            // deadline either: killing the baseline would abort the whole
            // task, and it is exactly the run the deadline is calibrated
            // against.
            fault: None,
            shadow: false,
            deadline: None,
        };
        let outcome = run_program(&task.program, &task.index, &cfg)?;

        // Fast-path templates: one AST scan + one full lowering per task,
        // amortized over every uncached evaluation. A build failure is not
        // fatal — the faithful pipeline remains available.
        let templates = match task.variant_path {
            VariantPath::Faithful => None,
            VariantPath::Fast => {
                match IrTemplate::new(&task.program, &task.index, task.cost.inline_max_stmts) {
                    Ok(ir) => Some((VariantTemplate::new(&task.program, &task.index), ir)),
                    Err(e) => {
                        eprintln!(
                            "[prose] fast variant path unavailable ({e}); using faithful path"
                        );
                        None
                    }
                }
            }
        };

        let hotspot_cycles = outcome
            .timers
            .scoped_cycles(task.hotspot_procs.iter().map(String::as_str));
        let total_cycles = outcome.total_cycles;
        let noise = NoiseModel::new(task.noise_rsd, task.seed);

        let proc_vars = task
            .hotspot_procs
            .iter()
            .map(|p| {
                let vars = task
                    .index
                    .scope_of_procedure(p)
                    .map(|s| task.index.atoms_in_scopes(&[s]))
                    .unwrap_or_default();
                (p.clone(), vars)
            })
            .collect();

        // Preload the memoization cache from the task's journal, when one
        // is configured and already has records for this atom count.
        let mut cache: HashMap<Config, VariantRecord> = HashMap::new();
        let mut counters = Counters::new();
        let mut journal = None;
        let mut seq = 0;
        if let Some(path) = &task.journal {
            // Repair mode: corrupt mid-file records are quarantined (not
            // fatal) and a torn tail is truncated so this process's appends
            // can never merge into a partial line. A healthy journal is
            // left untouched.
            match Journal::load_repair_or_empty(path) {
                Ok(report) => {
                    counters.bump("journal_torn_lines", u64::from(report.torn_tail));
                    counters.bump("journal_quarantined", u64::from(report.quarantined));
                    if report.damaged() > 0 {
                        if let Some(q) = &report.quarantine_path {
                            eprintln!(
                                "[prose] journal repair: {} damaged record(s) quarantined to {}",
                                report.damaged(),
                                q.display()
                            );
                        }
                    }
                    // Continue the sequence after the highest surviving
                    // record (not the record count: quarantine can leave
                    // holes, and seq collisions would corrupt resume).
                    seq = report
                        .records
                        .iter()
                        .map(|tr| tr.seq + 1)
                        .max()
                        .unwrap_or(0);
                    for tr in &report.records {
                        // Records are keyed by (config, ensemble member):
                        // the same configuration evaluated on a different
                        // held-out member is a different measurement.
                        if tr.member != task.member {
                            continue;
                        }
                        if tr.config.len() == task.atoms.len() && !cache.contains_key(&tr.config) {
                            if let Some(rec) = variant_from_trial(tr, task.error_threshold) {
                                cache.insert(tr.config.clone(), rec);
                                counters.bump("cache_preloaded", 1);
                            }
                        }
                    }
                }
                Err(e) => {
                    counters.bump("journal_errors", 1);
                    eprintln!(
                        "[prose] ignoring unreadable trial journal {} ({}): {e}",
                        path.display(),
                        FailureKind::JournalError.name()
                    );
                }
            }
            match Journal::open_append_with(path, task.wal_flush) {
                Ok(j) => journal = Some(Mutex::new(j)),
                Err(e) => {
                    counters.bump("journal_errors", 1);
                    eprintln!(
                        "[prose] trial journaling disabled ({}: {e})",
                        path.display()
                    );
                }
            }
        }

        Ok(DynamicEvaluator {
            task,
            baseline: Baseline {
                outcome,
                hotspot_cycles,
                total_cycles,
            },
            noise,
            proc_vars,
            records: Mutex::new(Vec::new()),
            memo: Mutex::new(MemoState {
                map: cache,
                inflight: HashMap::new(),
            }),
            memo_cv: Condvar::new(),
            counters: Mutex::new(counters),
            journal,
            seq: AtomicU64::new(seq),
            templates,
            crosschecks_left: AtomicU64::new(task.crosscheck as u64),
            fast_disabled: AtomicBool::new(false),
            journal_appends: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
            static_verdict: None,
        })
    }

    /// Record the absint pre-pass verdict stamp; every subsequently
    /// journaled trial carries it. Set once, before the search starts.
    pub fn set_static_verdict(&mut self, stamp: Option<String>) {
        self.static_verdict = stamp;
    }

    /// Journal-facing name of the path evaluations actually take.
    pub fn variant_path_name(&self) -> &'static str {
        if self.templates.is_some() && !self.fast_disabled.load(Ordering::Relaxed) {
            VariantPath::Fast.name()
        } else {
            VariantPath::Faithful.name()
        }
    }

    /// Consume the evaluator, returning every variant record.
    pub fn into_records(self) -> Vec<VariantRecord> {
        self.records
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the aggregate observability counters.
    pub fn metrics(&self) -> Counters {
        lock(&self.counters).clone()
    }

    /// Effective worker-pool width for batch evaluation.
    pub fn workers(&self) -> usize {
        self.task.workers.max(1)
    }

    /// Map a search configuration to a precision assignment over the task's
    /// atoms.
    pub fn precision_map(&self, lowered: &Config) -> PrecisionMap {
        let mut map = PrecisionMap::declared(&self.task.index);
        for (i, low) in lowered.iter().enumerate() {
            if *low {
                map.set(self.task.atoms[i], prose_fortran::ast::FpPrecision::Single);
            }
        }
        map
    }

    /// Answer one configuration, consulting the memoization cache first.
    /// Cache hits never touch the interpreter; every request — hit or
    /// miss — is appended to the trial journal when one is configured.
    pub fn eval_one(&self, lowered: &Config) -> VariantRecord {
        self.check_cancelled();
        let batch = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let (rec, meta) = self.eval_record(lowered, None);
        self.journal_append(&rec, &meta, batch);
        rec
    }

    /// Measure one configuration without journaling it: the memoized (or
    /// freshly evaluated) record plus the bookkeeping a journal append
    /// needs. Safe to call from pool workers; the single-flight election
    /// guarantees the interpreter runs at most once per configuration even
    /// when several workers ask concurrently.
    fn eval_record(&self, lowered: &Config, worker: Option<u32>) -> (VariantRecord, TrialMeta) {
        let t0 = Instant::now();
        {
            let mut memo = lock(&self.memo);
            let mut logged_wait = false;
            let mut reelections = 0u64;
            loop {
                if let Some(hit) = memo.map.get(lowered) {
                    let hit = hit.clone();
                    drop(memo);
                    lock(&self.counters).bump("cache_hits", 1);
                    let mut meta = TrialMeta::cached_hit(t0.elapsed().as_secs_f64() * 1e3, worker);
                    if reelections > 0 {
                        // Surface the re-election in the waiter's journal
                        // record; a healthy run journals nothing extra, so
                        // journals stay byte-stable across worker counts.
                        meta.counters.bump("watchdog_reelections", reelections);
                    }
                    return (hit, meta);
                }
                match memo.inflight.get(lowered) {
                    None => {
                        memo.inflight.insert(lowered.clone(), Instant::now());
                        break;
                    }
                    Some(elected_at) if elected_at.elapsed() > self.watchdog_limit() => {
                        // Watchdog: the elected evaluator has been in
                        // flight longer than any legitimate evaluation
                        // can take (every escalated retry plus grace).
                        // Either it is hung with no interpreter deadline
                        // armed to kill it, or its thread died abnormally
                        // without unwinding. Re-elect: mark the trial
                        // failed-by-deadline so every waiter (and the
                        // search) moves on instead of stranding forever.
                        // A late answer from the stuck worker simply
                        // overwrites this record with the same verdict.
                        memo.inflight.remove(lowered);
                        let rec = self.watchdog_record(lowered);
                        memo.map.insert(lowered.clone(), rec);
                        reelections += 1;
                        lock(&self.counters).bump("watchdog_reelections", 1);
                        drop(memo);
                        self.memo_cv.notify_all();
                        memo = lock(&self.memo);
                    }
                    Some(_) => {
                        // Another worker is evaluating this exact
                        // configuration: wait for it rather than
                        // duplicating interpreter work — but never
                        // unboundedly, so a stuck election is noticed.
                        if !logged_wait {
                            lock(&self.counters).bump("singleflight_waits", 1);
                            logged_wait = true;
                        }
                        let (m, _timed_out) = self
                            .memo_cv
                            .wait_timeout(memo, self.watchdog_tick())
                            .unwrap_or_else(PoisonError::into_inner);
                        memo = m;
                    }
                }
            }
        }
        let guard = InflightGuard {
            eval: self,
            config: lowered,
        };
        // Transient-failure retry: an injected timeout or a wall-clock
        // deadline kill may be jitter, not a property of the
        // configuration. Re-attempt up to `task.retry_attempts` times with
        // a doubled budget and deadline each attempt; every attempt is
        // journaled. Only the final verdict enters the memo cache, so an
        // exhausted retry quarantines the configuration as an ordinary
        // rejection — delta debugging treats it like any failed trial.
        let mut prior: Vec<AttemptTrial> = Vec::new();
        let mut attempt: u32 = 0;
        let (rec, clock, trial_counters) = loop {
            let t_attempt = Instant::now();
            let mut clock = StageClock::new();
            let mut trial_counters = Counters::new();
            let rec = self.eval_uncached(lowered, attempt, &mut clock, &mut trial_counters);
            if attempt < self.task.retry_attempts && is_transient(&rec) {
                trial_counters.bump("retry_attempts", 1);
                {
                    let mut agg = lock(&self.counters);
                    agg.bump("retry_attempts", 1);
                    agg.merge(&trial_counters);
                }
                prior.push(AttemptTrial {
                    rec,
                    attempt,
                    wall_ms: t_attempt.elapsed().as_secs_f64() * 1e3,
                    clock,
                    counters: trial_counters,
                });
                attempt += 1;
                continue;
            }
            break (rec, clock, trial_counters);
        };
        {
            let mut agg = lock(&self.counters);
            agg.bump("cache_misses", 1);
            agg.merge(&trial_counters);
            if rec.failure == Some(FailureKind::Deadline) {
                agg.bump("deadline_kills", 1);
            }
            if !prior.is_empty() && rec.outcome.status == Status::Pass {
                agg.bump("retry_recovered", 1);
            }
        }
        lock(&self.memo).map.insert(lowered.clone(), rec.clone());
        drop(guard); // releases the in-flight marker and wakes waiters
        let meta = TrialMeta {
            cached: false,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            clock,
            counters: trial_counters,
            worker,
            attempt,
            prior,
        };
        (rec, meta)
    }

    /// Raise [`CancelRequested`] when the task's cancellation token has
    /// flipped. Called only at evaluation boundaries on the submitting
    /// thread, so the unwind can never tear a journal record or strand a
    /// single-flight election on a worker.
    fn check_cancelled(&self) {
        if let Some(cancel) = &self.task.cancel {
            if cancel.load(Ordering::Relaxed) {
                lock(&self.counters).bump("cancel_checkpoints", 1);
                std::panic::panic_any(CancelRequested);
            }
        }
    }

    /// How long an election may be in flight before the watchdog declares
    /// it dead. Generous by construction: the sum of every escalated
    /// attempt's deadline plus a fixed grace, so a legitimately slow (but
    /// progressing) evaluation is never misfired on. Without a configured
    /// deadline there is no calibration to lean on and the limit falls
    /// back to a large constant.
    fn watchdog_limit(&self) -> Duration {
        match self.task.deadline_ms {
            Some(ms) => {
                let escalated: u64 = (0..=self.task.retry_attempts.min(20))
                    .map(|a| ms.saturating_mul(1u64 << a))
                    .fold(0, u64::saturating_add);
                Duration::from_millis(escalated.saturating_add((ms * 4).max(5_000)))
            }
            None => Duration::from_secs(300),
        }
    }

    /// Condvar wait quantum for single-flight waiters: short enough to
    /// notice a stuck election promptly, long enough not to spin.
    fn watchdog_tick(&self) -> Duration {
        (self.watchdog_limit() / 8).clamp(Duration::from_millis(10), Duration::from_secs(1))
    }

    /// The record a watchdog re-election synthesizes for a stuck trial:
    /// failed-by-deadline, rejected by the search.
    fn watchdog_record(&self, lowered: &Config) -> VariantRecord {
        let map = self.precision_map(lowered);
        VariantRecord {
            config: lowered.clone(),
            outcome: Outcome {
                status: Status::Timeout,
                speedup: 0.0,
                error: f64::INFINITY,
            },
            fraction_single: map.fraction_single(&self.task.atoms),
            per_proc: Vec::new(),
            wrappers: Vec::new(),
            detail: Some(format!(
                "watchdog: elected evaluator stuck past {} ms; marked failed-by-deadline",
                self.watchdog_limit().as_millis()
            )),
            total_cycles: None,
            hotspot_cycles: None,
            failure: Some(FailureKind::Deadline),
            fault_kind: None,
            fault_seed: None,
            shadow: None,
        }
    }

    /// Evaluate a batch on the worker pool and return the records in batch
    /// index order, with journal appends performed afterwards — also in
    /// batch index order — on the calling thread. This is what makes the
    /// journal byte-stable across worker counts. A panic escaping any
    /// trial (only [`StrictDesync`] and [`prose_faults::InjectedKill`]
    /// escape containment) is re-raised here in batch index order with its
    /// payload intact.
    pub fn eval_batch_records(&self, batch: &[Config]) -> Vec<VariantRecord> {
        self.check_cancelled();
        type Slot = Option<std::thread::Result<(VariantRecord, TrialMeta)>>;
        let batch_id = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let workers = self.workers().min(batch.len()).max(1);
        let mut slots: Vec<std::thread::Result<(VariantRecord, TrialMeta)>> = if workers <= 1 {
            batch
                .iter()
                .map(|cfg| catch_unwind(AssertUnwindSafe(|| self.eval_record(cfg, None))))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let cells: Vec<Mutex<Slot>> = batch.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let next = &next;
                    let cells = &cells;
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cfg) = batch.get(i) else { break };
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            self.eval_record(cfg, Some(w as u32))
                        }));
                        *lock(&cells[i]) = Some(out);
                    });
                }
            });
            cells
                .into_iter()
                .map(|c| {
                    c.into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .expect("worker filled every claimed slot")
                })
                .collect()
        };
        // Reduce in submission order: journal appends (and any re-raised
        // panic) happen exactly where a serial run would place them.
        let mut recs = Vec::with_capacity(slots.len());
        for slot in slots.drain(..) {
            match slot {
                Ok((rec, meta)) => {
                    self.journal_append(&rec, &meta, batch_id);
                    recs.push(rec);
                }
                Err(payload) => resume_unwind(payload),
            }
        }
        recs
    }

    /// Append one request to the trial journal (no-op without a journal).
    /// Retried attempts are appended first, in attempt order, then the
    /// final record; each gets its own sequence number and CRC stamp.
    fn journal_append(&self, rec: &VariantRecord, meta: &TrialMeta, batch: u64) {
        if self.journal.is_none() {
            return;
        }
        for a in &meta.prior {
            self.journal_append_one(
                &a.rec,
                a.attempt,
                false,
                a.wall_ms,
                &a.clock,
                &a.counters,
                meta.worker,
                batch,
            );
        }
        self.journal_append_one(
            rec,
            meta.attempt,
            meta.cached,
            meta.wall_ms,
            &meta.clock,
            &meta.counters,
            meta.worker,
            batch,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn journal_append_one(
        &self,
        rec: &VariantRecord,
        attempt: u32,
        cached: bool,
        wall_ms: f64,
        clock: &StageClock,
        counters: &Counters,
        worker: Option<u32>,
        batch: u64,
    ) {
        let Some(journal) = &self.journal else { return };
        // The sequence number is taken under the journal lock so records
        // land in the file in sequence order; batch appends additionally
        // arrive pre-ordered by the submission-order reduction.
        let mut j = lock(journal);
        let tr = TrialRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            config: rec.config.clone(),
            status: status_name(rec.outcome.status).to_string(),
            speedup: rec.outcome.speedup,
            error: rec.outcome.error,
            cached,
            wall_ms,
            fraction_single: rec.fraction_single,
            wrappers: rec.wrappers.len() as u64,
            total_cycles: rec.total_cycles,
            hotspot_cycles: rec.hotspot_cycles,
            stages: clock.stages().clone(),
            counters: counters.clone(),
            variant_path: self.variant_path_name().to_string(),
            failure_kind: rec.failure.map(|f| f.name().to_string()),
            fault_kind: rec.fault_kind.clone(),
            fault_seed: rec.fault_seed,
            shadow: rec.shadow.clone(),
            member: self.task.member,
            search_granularity: self.task.granularity.name().to_string(),
            workers: self.workers() as u64,
            worker,
            batch: Some(batch),
            attempt,
            job: self.task.job_id.clone(),
            static_verdict: self.static_verdict.clone(),
            crc: None,
        };
        // Serialize (stamping the CRC) before deciding how to write: the
        // corrupt-record fault flips one bit of the already-checksummed
        // line, which is exactly the damage `load_repair` must catch. The
        // draw is keyed off the trial's own fault plan, never arrival
        // order, so a parallel run corrupts exactly the records a serial
        // run would.
        let write_result = match Journal::serialize_line(&tr) {
            Ok(line) => {
                let flip = self
                    .task
                    .faults
                    .as_ref()
                    .filter(|f| f.is_active())
                    .map(|f| f.plan_for_config_attempt(&tr.config, attempt))
                    .and_then(|p| p.corrupt_at(line.len()));
                if let Some((off, bit)) = flip {
                    let mut bytes = line.into_bytes();
                    bytes[off] ^= bit;
                    lock(&self.counters).bump("journal_corruptions_injected", 1);
                    j.append_raw_line(&bytes)
                } else {
                    j.append_raw_line(line.as_bytes())
                }
            }
            Err(e) => Err(e),
        };
        if let Err(e) = write_result {
            // A journal failure cannot itself be journaled; it surfaces as
            // a counter and a warning instead of killing the search.
            lock(&self.counters).bump("journal_errors", 1);
            eprintln!(
                "[prose] trial journal write failed ({}): {e}",
                FailureKind::JournalError.name()
            );
        }
        let appended = self.journal_appends.fetch_add(1, Ordering::Relaxed) + 1;
        drop(j);
        // Fault harness kill switch: simulate the process dying mid-run
        // right after the k-th append. Raised as an uncontained panic so it
        // tears down the whole search exactly where a real crash would.
        // Appends are always performed on the submitting thread (batch
        // reduction is deferred), so the kill tears down the search rather
        // than a worker.
        if let Some(k) = self.task.faults.as_ref().and_then(|f| f.kill_after) {
            if appended >= k {
                std::panic::panic_any(prose_faults::InjectedKill { appended });
            }
        }
    }

    /// Transform, run, and measure one configuration, with panic
    /// containment and fault-plan bookkeeping.
    ///
    /// Any panic that unwinds out of the evaluation — an injected abort
    /// from the fault harness, or a genuine bug in a transform/interpreter
    /// path — is caught here and classified as [`FailureKind::Panic`], so
    /// one poisoned variant rejects that configuration instead of killing
    /// the whole search. Two payloads are deliberately re-raised:
    /// [`StrictDesync`] (the `--strict` crosscheck policy aborts the
    /// experiment) and [`prose_faults::InjectedKill`] (the harness's
    /// process-death stand-in must not be contained).
    fn eval_uncached(
        &self,
        lowered: &Config,
        attempt: u32,
        clock: &mut StageClock,
        trial_counters: &mut Counters,
    ) -> VariantRecord {
        let vid = prose_faults::config_hash(lowered);
        // Fault plans are keyed by the configuration's own hash, never by
        // arrival order, so a parallel run injects exactly the faults a
        // serial run would. Retries re-draw (attempt 0 is bit-identical to
        // the unkeyed plan): a transient injected fault models jitter, and
        // jitter does not strike the same run twice deterministically.
        let plan = self
            .task
            .faults
            .as_ref()
            .filter(|f| f.is_active())
            .map(|f| f.plan_for_config_attempt(lowered, attempt));
        if plan.as_ref().is_some_and(|p| p.kind_name().is_some()) {
            trial_counters.bump("faults_injected", 1);
        }
        let contained = catch_unwind(AssertUnwindSafe(|| {
            self.eval_inner(lowered, vid, attempt, plan.as_ref(), clock, trial_counters)
        }));
        let mut rec = match contained {
            Ok(rec) => rec,
            Err(payload) => {
                if payload.downcast_ref::<StrictDesync>().is_some()
                    || payload
                        .downcast_ref::<prose_faults::InjectedKill>()
                        .is_some()
                {
                    resume_unwind(payload);
                }
                trial_counters.bump("failures_contained_panic", 1);
                let detail = if let Some(a) = payload.downcast_ref::<prose_faults::InjectedAbort>()
                {
                    format!(
                        "contained panic: injected abort after {} events",
                        a.after_events
                    )
                } else {
                    format!("contained panic: {}", panic_message(payload.as_ref()))
                };
                let map = self.precision_map(lowered);
                VariantRecord {
                    config: lowered.clone(),
                    outcome: Outcome {
                        status: Status::RuntimeError,
                        speedup: 0.0,
                        error: f64::INFINITY,
                    },
                    fraction_single: map.fraction_single(&self.task.atoms),
                    per_proc: Vec::new(),
                    wrappers: Vec::new(),
                    detail: Some(detail),
                    total_cycles: None,
                    hotspot_cycles: None,
                    failure: Some(FailureKind::Panic),
                    fault_kind: None,
                    fault_seed: None,
                    shadow: None,
                }
            }
        };
        if let Some(p) = &plan {
            rec.fault_kind = p.kind_name().map(str::to_string);
            rec.fault_seed = Some(p.seed);
        }
        rec
    }

    /// The uncontained evaluation body (pure w.r.t. shared state), filling
    /// per-stage wall clocks and interpreter counters.
    /// Simulated-cycle budget for one attempt: the configured timeout
    /// factor, doubled per retry so a genuinely slow (but convergent)
    /// variant gets headroom a transient draw did not.
    fn run_budget(&self, attempt: u32) -> f64 {
        self.task.timeout_factor * (1u64 << attempt.min(20)) as f64 * self.baseline.total_cycles
    }

    /// Wall-clock deadline for one attempt (None: deadlines disabled),
    /// escalating in lockstep with the budget.
    fn run_deadline(&self, attempt: u32) -> Option<Duration> {
        self.task
            .deadline_ms
            .map(|ms| Duration::from_millis(ms.saturating_mul(1u64 << attempt.min(20))))
    }

    fn eval_inner(
        &self,
        lowered: &Config,
        vid: u64,
        attempt: u32,
        plan: Option<&prose_faults::TrialFaults>,
        clock: &mut StageClock,
        trial_counters: &mut Counters,
    ) -> VariantRecord {
        let task = self.task;
        let map = self.precision_map(lowered);
        let fraction_single = map.fraction_single(&task.atoms);
        let fingerprints: Vec<(String, u64)> = self
            .proc_vars
            .iter()
            .map(|(p, vars)| (p.clone(), map.fingerprint(vars)))
            .collect();

        let base = VariantRecord {
            config: lowered.clone(),
            outcome: Outcome {
                status: Status::TransformError,
                speedup: 0.0,
                error: f64::INFINITY,
            },
            fraction_single,
            per_proc: Vec::new(),
            wrappers: Vec::new(),
            detail: None,
            total_cycles: None,
            hotspot_cycles: None,
            failure: None,
            fault_kind: None,
            fault_seed: None,
            shadow: None,
        };

        // T2 + T3 via the task's variant path. Both paths return the
        // completed run plus the wrapper set and the variant's hotspot
        // procedure scope; failures come back as finished records.
        let fault = plan.and_then(|p| p.fault.clone());
        let path_result = match &self.templates {
            Some((vt, it)) if !self.fast_disabled.load(Ordering::Relaxed) => {
                self.run_fast(vt, it, &map, fault, attempt, clock, trial_counters, &base)
            }
            _ => self.run_faithful(&map, fault, attempt, clock, &base),
        };
        let (run, wrappers, hotspot_set, report) = match path_result {
            Ok(t) => t,
            Err(rec) => return *rec,
        };
        clock.add_ns("lower", run.lower_ns);
        clock.add_ns("exec", run.exec_ns);
        trial_counters.merge(&ops_counters(&run.ops, run.events));
        let mut shadow = report.as_ref().map(shadow_trial);

        // Correctness.
        let error = task
            .metric
            .compute(&self.baseline.outcome.records, &run.records);
        let Some(error) = error else {
            return VariantRecord {
                outcome: Outcome {
                    status: Status::RuntimeError,
                    speedup: 0.0,
                    error: f64::INFINITY,
                },
                wrappers,
                detail: Some("correctness metric unavailable (corrupted output)".into()),
                failure: Some(FailureKind::RuntimeOther),
                shadow,
                ..base
            };
        };

        // Performance: Eq. 1 median-of-n over noisy samples. Hotspot scope
        // mirrors GPTL's inclusive regions: wrappers called from inside a
        // hotspot procedure are part of the measured time; wrappers at the
        // hotspot's outer boundary are not (the Figure-5 vs Figure-7
        // distinction).
        let scoped_variant = match task.scope {
            PerfScope::Hotspot => run
                .timers
                .scoped_cycles(hotspot_set.iter().map(String::as_str)),
            PerfScope::WholeModel => run.total_cycles,
        };
        let measure = |n: usize| -> f64 {
            let base_samples = self.noise.samples(self.baseline.scoped(task.scope), 0, n);
            let mut var_samples = self.noise.samples(scoped_variant, vid | 1, n);
            if let Some(p) = plan {
                // Injected timing jitter perturbs each variant sample
                // independently; the streams are prefix-stable, so a
                // larger n re-observes the same draws plus fresh ones.
                for (v, j) in var_samples.iter_mut().zip(p.jitter_factors(n)) {
                    *v *= j;
                }
            }
            speedup(&base_samples, &var_samples)
        };
        let mut n = task.n_runs.max(1);
        let mut sp = measure(n);
        // Noise-tolerant re-evaluation: a speedup landing within
        // `retry_band` (relative) of the acceptance bar is re-measured
        // with an escalating sample count until it leaves the band or the
        // run budget is exhausted, so borderline accept/reject verdicts
        // stop flapping with the noise draw.
        if task.retry_band > 0.0 && task.min_speedup > 0.0 {
            while (sp - task.min_speedup).abs() <= task.retry_band * task.min_speedup
                && n < task.retry_max_runs
            {
                n = (n * 2 + 1).min(task.retry_max_runs);
                trial_counters.bump("speedup_reeval", 1);
                sp = measure(n);
            }
        }

        let mut status = if error <= task.error_threshold {
            Status::Pass
        } else {
            Status::FailAccuracy
        };

        // Guardrail gate: a trial that passes the scalar metric is still
        // demoted when the shadow run shows the variant's arithmetic
        // diverging beyond budget anywhere, or catastrophically cancelling.
        // The scalar metric samples what the model records; the shadow sees
        // every store.
        let mut failure = None;
        let mut detail = None;
        if status == Status::Pass {
            if let Some(rep) = &report {
                let budget = task.shadow_budget.unwrap_or(task.error_threshold);
                if rep.worst_rel > budget || rep.cancellations > 0 {
                    status = Status::FailAccuracy;
                    failure = Some(FailureKind::ShadowBudget);
                    detail = Some(shadow_demotion_detail(rep, budget));
                    if let Some(s) = &mut shadow {
                        s.demoted = true;
                    }
                    trial_counters.bump("shadow_demotions", 1);
                }
            }
        }

        let per_proc = collect_proc_samples(&run.timers, &fingerprints);
        VariantRecord {
            outcome: Outcome {
                status,
                speedup: sp,
                error,
            },
            per_proc,
            wrappers,
            detail,
            total_cycles: Some(run.total_cycles),
            hotspot_cycles: Some(
                run.timers
                    .scoped_cycles(hotspot_set.iter().map(String::as_str)),
            ),
            failure,
            shadow,
            ..base
        }
    }

    /// The faithful pipeline: clone + rewrite the AST, unparse → reparse →
    /// reanalyze ([`make_variant`]), then lower and run from scratch.
    fn run_faithful(
        &self,
        map: &PrecisionMap,
        fault: Option<prose_faults::InjectedFault>,
        attempt: u32,
        clock: &mut StageClock,
        base: &VariantRecord,
    ) -> PathResult {
        let task = self.task;
        let variant = match clock.time("transform", || {
            make_variant(&task.program, &task.index, map)
        }) {
            Ok(v) => v,
            Err(e) => {
                return Err(Box::new(VariantRecord {
                    detail: Some(format!("transform: {e}")),
                    failure: Some(FailureKind::Transform),
                    ..base.clone()
                }))
            }
        };

        let run_cfg = RunConfig {
            cost: task.cost.clone(),
            budget: Some(self.run_budget(attempt)),
            max_events: task.max_events,
            wrapper_names: variant.wrappers.iter().cloned().collect(),
            fault,
            shadow: task.shadow,
            deadline: self.run_deadline(attempt),
        };
        let t_run = Instant::now();
        let (res, report) = run_program_shadow(&variant.program, &variant.index, &run_cfg);
        let run = match res {
            Ok(o) => o,
            Err(e) => {
                // Aborted runs (timeouts especially) still did real work
                // before failing; charge it to the exec stage. The shadow
                // report survives the abort — that is where NaN/Inf
                // provenance lives.
                clock.add_ns("exec", t_run.elapsed().as_nanos() as u64);
                let status = match e {
                    RunError::Timeout { .. } | RunError::Deadline { .. } => Status::Timeout,
                    _ => Status::RuntimeError,
                };
                return Err(Box::new(VariantRecord {
                    outcome: Outcome {
                        status,
                        speedup: 0.0,
                        error: f64::INFINITY,
                    },
                    wrappers: variant.wrappers,
                    detail: Some(e.to_string()),
                    failure: Some(FailureKind::from_run_error(&e)),
                    shadow: report.as_ref().map(shadow_trial),
                    ..base.clone()
                }));
            }
        };
        let hotspot_set = hotspot_scope_with_wrappers(
            &variant.program,
            &variant.index,
            &task.hotspot_procs,
            &variant.wrappers,
        );
        Ok((run, variant.wrappers, hotspot_set, report))
    }

    /// The template fast path: replay the wrapper rewrite on the variant
    /// template ("transform"), specialize the pre-lowered IR and compile it
    /// ("lower"), and run the compiled code ("exec") — no text round trip,
    /// no full re-lower.
    #[allow(clippy::too_many_arguments)]
    fn run_fast(
        &self,
        vt: &VariantTemplate<'_>,
        it: &IrTemplate<'_>,
        map: &PrecisionMap,
        fault: Option<prose_faults::InjectedFault>,
        attempt: u32,
        clock: &mut StageClock,
        trial_counters: &mut Counters,
        base: &VariantRecord,
    ) -> PathResult {
        let task = self.task;
        let plan = clock.time("transform", || vt.instantiate(map));
        let wrappers = plan.wrapper_names();
        let hotspot_set = hotspot_scope_from_callers(&task.hotspot_procs, &plan.wrapper_callers());

        let VariantPlan {
            wrappers: planned,
            decisions,
        } = plan;
        let pairs: Vec<(String, Procedure)> =
            planned.into_iter().map(|w| (w.callee, w.ast)).collect();
        // "lower": specialize the IR and compile it to register code.
        let compiled = match clock.time("lower", || {
            it.instantiate(map, &pairs, &decisions)
                .map(|ir| compile(&ir, &task.cost, task.shadow))
        }) {
            Ok(c) => c,
            Err(e) => {
                return Err(Box::new(VariantRecord {
                    wrappers,
                    detail: Some(format!("transform: {e}")),
                    failure: Some(FailureKind::Transform),
                    ..base.clone()
                }))
            }
        };

        let run_cfg = RunConfig {
            cost: task.cost.clone(),
            budget: Some(self.run_budget(attempt)),
            max_events: task.max_events,
            // Wrapper classification is baked into the template-lowered IR;
            // run_ir ignores this field.
            wrapper_names: Default::default(),
            fault,
            shadow: task.shadow,
            deadline: self.run_deadline(attempt),
        };
        let t_run = Instant::now();
        let (res, report) = run_compiled(&compiled, &run_cfg);
        let run = match res {
            Ok(o) => o,
            Err(e) => {
                clock.add_ns("exec", t_run.elapsed().as_nanos() as u64);
                let status = match e {
                    RunError::Timeout { .. } | RunError::Deadline { .. } => Status::Timeout,
                    _ => Status::RuntimeError,
                };
                return Err(Box::new(VariantRecord {
                    outcome: Outcome {
                        status,
                        speedup: 0.0,
                        error: f64::INFINITY,
                    },
                    wrappers,
                    detail: Some(e.to_string()),
                    failure: Some(FailureKind::from_run_error(&e)),
                    shadow: report.as_ref().map(shadow_trial),
                    ..base.clone()
                }));
            }
        };

        if self.take_crosscheck() {
            trial_counters.bump("crosscheck_faithful", 1);
            if let Err(why) = self.crosscheck_faithful(map, &wrappers, &run, &run_cfg) {
                trial_counters.bump("crosscheck_desync", 1);
                if task.strict {
                    // --strict: a template fidelity bug must abort the
                    // experiment, not contaminate it. The typed payload
                    // rides through eval_one's containment untouched.
                    eprintln!(
                        "[prose] fast-path crosscheck divergence under --strict ({}): {why}",
                        FailureKind::TemplateDesync.name()
                    );
                    std::panic::panic_any(StrictDesync(why));
                }
                // Lenient (default): distrust the templates from here on,
                // count the desync, and re-answer this configuration via
                // the faithful pipeline. A fault is never in play here —
                // a planned fault would have aborted the fast run above.
                eprintln!(
                    "[prose] fast-path crosscheck divergence ({}): {why}; \
                     downgrading to the faithful pipeline",
                    FailureKind::TemplateDesync.name()
                );
                self.fast_disabled.store(true, Ordering::Relaxed);
                return self.run_faithful(map, None, attempt, clock, base);
            }
        }
        Ok((run, wrappers, hotspot_set, report))
    }

    /// Claim one faithful cross-check ticket, if any remain.
    fn take_crosscheck(&self) -> bool {
        self.crosschecks_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Re-run one configuration through the faithful unparse → reparse →
    /// re-lower pipeline and check the fast path produced bit-identical
    /// observables. A divergence is a fidelity bug in the templates, not a
    /// data point — the caller decides whether to abort (`--strict`) or
    /// downgrade to the faithful pipeline (lenient default).
    fn crosscheck_faithful(
        &self,
        map: &PrecisionMap,
        fast_wrappers: &[String],
        fast: &RunOutcome,
        run_cfg: &RunConfig,
    ) -> Result<(), String> {
        let task = self.task;
        let variant = make_variant(&task.program, &task.index, map)
            .map_err(|e| format!("faithful transform failed on a fast-path success: {e}"))?;
        if variant.wrappers != fast_wrappers {
            return Err("wrapper sets diverge between variant paths".into());
        }
        let cfg = RunConfig {
            wrapper_names: variant.wrappers.iter().cloned().collect(),
            // The crosscheck is a reference run; never fault-inject it,
            // and skip the shadow (the comparison is on primary outputs).
            fault: None,
            shadow: false,
            ..run_cfg.clone()
        };
        let faithful = run_program(&variant.program, &variant.index, &cfg)
            .map_err(|e| format!("faithful run failed on a fast-path success: {e}"))?;
        if faithful.records != fast.records {
            return Err("recorded outputs diverge between variant paths".into());
        }
        if faithful.total_cycles != fast.total_cycles {
            return Err("simulated cycles diverge between variant paths".into());
        }
        if faithful.ops != fast.ops {
            return Err("op counts diverge between variant paths".into());
        }
        Ok(())
    }
}

/// The hotspot procedure set for one variant: the target procedures plus
/// every synthesized wrapper whose call sites all lie inside the set
/// (computed to a fixed point, since wrappers may call through wrappers).
pub fn hotspot_scope_with_wrappers(
    program: &prose_fortran::Program,
    index: &prose_fortran::ProgramIndex,
    hotspot_procs: &[String],
    wrappers: &[String],
) -> Vec<String> {
    let mut set: Vec<String> = hotspot_procs.to_vec();
    if wrappers.is_empty() {
        return set;
    }
    let graph = FpFlowGraph::build(program, index);
    loop {
        let mut grew = false;
        for w in wrappers {
            if set.contains(w) {
                continue;
            }
            let callers: Vec<String> = graph
                .sites()
                .iter()
                .filter(|s| &s.callee == w)
                .map(|s| index.scope_info(s.caller).name.clone())
                .collect();
            if !callers.is_empty() && callers.iter().all(|c| set.contains(c)) {
                set.push(w.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    set
}

/// Fast-path equivalent of [`hotspot_scope_with_wrappers`]: the caller sets
/// come from the variant plan's decision streams instead of a flow-graph
/// walk over the rewritten program. The main program body appears under
/// [`prose_transform::MAIN_BODY_KEY`], which is never a hotspot procedure,
/// so boundary wrappers stay outside the scope exactly as on the faithful
/// path.
pub fn hotspot_scope_from_callers(
    hotspot_procs: &[String],
    wrapper_callers: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<String> {
    let mut set: Vec<String> = hotspot_procs.to_vec();
    loop {
        let mut grew = false;
        for (w, callers) in wrapper_callers {
            if set.contains(w) {
                continue;
            }
            if !callers.is_empty() && callers.iter().all(|c| set.contains(c)) {
                set.push(w.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    set
}

fn collect_proc_samples(timers: &Timers, fingerprints: &[(String, u64)]) -> Vec<ProcSample> {
    let fp: HashMap<&str, u64> = fingerprints.iter().map(|(p, f)| (p.as_str(), *f)).collect();
    fingerprints
        .iter()
        .filter_map(|(p, _)| {
            timers.get(p).map(|t| ProcSample {
                proc: p.clone(),
                cycles: t.cycles,
                calls: t.calls,
                fingerprint: fp[p.as_str()],
            })
        })
        .collect()
}

/// Rebuild a (reduced) variant record from a journaled trial. The outcome
/// and summary measurements survive the round trip; per-procedure samples
/// and wrapper names are not journaled and come back empty.
///
/// The pass/fail-accuracy verdict is **recomputed** from the journaled
/// error against the current task's threshold, so a journal written under
/// one threshold replays correctly under another (the measurements are
/// config properties; the verdict is a task property). Timeout and error
/// statuses are kept as recorded.
fn variant_from_trial(tr: &TrialRecord, error_threshold: f64) -> Option<VariantRecord> {
    let failure = tr.failure_kind.as_deref().and_then(FailureKind::from_name);
    let status = match status_from_name(&tr.status)? {
        // A shadow-guardrail demotion is sticky: the journaled scalar error
        // may be under the threshold (that is the whole point of the
        // gate), so the threshold recomputation below must not resurrect
        // the trial to Pass.
        _ if failure == Some(FailureKind::ShadowBudget) => Status::FailAccuracy,
        Status::Pass | Status::FailAccuracy => {
            if tr.error <= error_threshold {
                Status::Pass
            } else {
                Status::FailAccuracy
            }
        }
        other => other,
    };
    Some(VariantRecord {
        config: tr.config.clone(),
        outcome: Outcome {
            status,
            speedup: tr.speedup,
            error: tr.error,
        },
        fraction_single: tr.fraction_single,
        per_proc: Vec::new(),
        wrappers: Vec::new(),
        detail: Some("replayed from trial journal".into()),
        total_cycles: tr.total_cycles,
        hotspot_cycles: tr.hotspot_cycles,
        failure,
        fault_kind: tr.fault_kind.clone(),
        fault_seed: tr.fault_seed,
        shadow: tr.shadow.clone(),
    })
}

impl<'a> prose_search::Evaluator for DynamicEvaluator<'a> {
    fn evaluate(&mut self, lowered: &Config) -> Outcome {
        let rec = self.eval_one(lowered);
        let outcome = rec.outcome;
        lock(&self.records).push(rec);
        outcome
    }

    fn evaluate_batch(&mut self, batch: &[Config]) -> Vec<Outcome> {
        // One logical "node" per variant: the scoped-thread worker pool
        // substitutes the paper's PBS fan-out. Results come back (and are
        // journaled) in batch index order regardless of worker count.
        let recs = self.eval_batch_records(batch);
        let outcomes = recs.iter().map(|r| r.outcome).collect();
        lock(&self.records).extend(recs);
        outcomes
    }

    fn atom_count(&self) -> usize {
        self.task.atoms.len()
    }
}
