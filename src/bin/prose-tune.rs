//! `prose-tune` — command-line precision tuning for Fortran files.
//!
//! ```text
//! prose-tune model.f90 --procs heat_step,flux \
//!     --metric maxspace:t:0.01 --threshold 1e-5 \
//!     [--scope hotspot|whole] [--n-runs 1] [--noise 0.0] [--seed 42]
//!     [--budget 400] [--exclude result] [--emit-best best.f90]
//!     [--strategy dd|brute|random] [--samples 100]
//!     [--granularity variable|grouped]
//!     [--journal trials.jsonl] [--resume]
//!     [--variant-path fast|faithful] [--crosscheck K] [--strict]
//!     [--faults nan=P,timeout=P,abort=P,jitter=RSD,seed=S[,kill-after=K]]
//!     [--retry-band B] [--retry-runs N] [--wal-flush record|sync|N]
//!     [--shadow] [--shadow-budget X] [--validate-ensemble N] [--ensemble-seed S]
//!     [--workers N] [--deadline-ms MS] [--retry-attempts K]
//!     [--absint] [--certify cert.json]
//! ```
//!
//! The program must record its correctness quantities with
//! `call prose_record('<key>', x)` (scalar series) or
//! `call prose_record_array('<key>', a)` (field snapshots); pick the
//! matching `--metric`:
//!
//! * `scalar:<key>` — relative error per sample, L2 over the series;
//! * `field:<key>` — relative error per element of the last snapshot, L2;
//! * `maxspace:<key>[:floor]` — max relative error over elements per
//!   snapshot (denominators floored at `floor` × the snapshot max), L2
//!   over snapshots.

use prose::core::ensemble::{validate_ensemble, EnsembleParams};
use prose::core::metrics::CorrectnessMetric;
use prose::core::tuner::{
    config_to_map, tune, tune_brute_force, ModelSpec, PerfScope, SearchGranularity, VariantPath,
};
use std::process::ExitCode;

struct Args {
    file: String,
    procs: Vec<String>,
    metric: CorrectnessMetric,
    threshold: f64,
    scope: PerfScope,
    n_runs: usize,
    noise: f64,
    seed: u64,
    budget: Option<usize>,
    exclude: Vec<String>,
    emit_best: Option<String>,
    strategy: String,
    samples: usize,
    granularity: SearchGranularity,
    journal: Option<String>,
    variant_path: VariantPath,
    crosscheck: usize,
    resume: bool,
    strict: bool,
    faults: Option<prose::faults::FaultConfig>,
    retry_band: f64,
    retry_runs: usize,
    wal_flush: prose::trace::FlushPolicy,
    shadow: bool,
    shadow_budget: Option<f64>,
    ensemble_members: Option<u32>,
    ensemble_seed: u64,
    workers: usize,
    deadline_ms: Option<u64>,
    retry_attempts: u32,
    absint: bool,
    certify: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: prose-tune <file.f90> --procs p1,p2 --metric scalar:<key>|field:<key>|maxspace:<key>[:floor] --threshold X\n\
         options: --scope hotspot|whole (default hotspot), --n-runs N (1), --noise RSD (0),\n\
         --seed S (42), --budget K, --exclude v1,v2, --emit-best out.f90,\n\
         --strategy dd|brute|random (dd), --samples N (random strategy, default 100),\n\
         --granularity variable|grouped (dd strategy; grouped searches static\n\
         precision congruence classes first, then refines surviving classes),\n\
         --journal trials.jsonl (append every trial; reuse to skip re-evaluation),\n\
         --variant-path fast|faithful (fast: template-specialized IR per variant;\n\
         faithful: unparse/reparse/re-lower), --crosscheck K (fast path: re-run the\n\
         first K uncached variants faithfully and check bit-identical results; default 1),\n\
         --strict (abort on a fast/faithful crosscheck divergence instead of\n\
         downgrading to the faithful path), --resume (continue an interrupted search\n\
         from its --journal; replays journaled trials without re-running them),\n\
         --faults nan=P,timeout=P,abort=P,jitter=RSD,seed=S[,kill-after=K]\n\
         (deterministic fault injection for robustness testing),\n\
         --retry-band B (re-measure speedups within B of the acceptance bar with\n\
         escalating sample counts; 0 disables), --retry-runs N (escalation cap, 25),\n\
         --wal-flush record|sync|N (journal flush policy; default record),\n\
         --shadow (run every variant with an fp64 shadow; passing trials whose\n\
         shadow error exceeds the budget or that cancel catastrophically are\n\
         demoted to fail-accuracy), --shadow-budget X (per-metric shadow-error\n\
         budget; defaults to --threshold), --validate-ensemble N (after the\n\
         search, re-validate the final configuration and its runner-ups on N\n\
         held-out input perturbations and demote input-overfit configs),\n\
         --ensemble-seed S (perturbation base seed),\n\
         --workers N (worker-pool width for batch evaluation; default\n\
         $PROSE_WORKERS or 1; results are identical at any width),\n\
         --deadline-ms MS (per-variant wall-clock deadline; kills hung or\n\
         pathologically slow runs as failed-by-deadline; default\n\
         $PROSE_DEADLINE_MS or disabled; results are identical when it\n\
         never fires), --retry-attempts K (re-attempt trials that failed\n\
         by injected timeout or deadline up to K extra times with doubled\n\
         budget and deadline; default $PROSE_RETRY_ATTEMPTS or 0),\n\
         --absint (run the abstract-interpretation pre-pass: atoms whose static\n\
         round-off bound clears the error budget are pre-demoted to 32-bit and\n\
         atoms whose static range overflows f32 are pinned at 64-bit, both\n\
         without spending trials; only the undecided residue is delta-debugged),\n\
         --certify cert.json (after the search, emit a config certificate for the\n\
         final configuration: every finite static bound checked against an\n\
         fp64-shadow run of the same configuration; a violated bound is a\n\
         soundness bug in the static analysis and fails the run)"
    );
    std::process::exit(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut procs = Vec::new();
    let mut metric = None;
    let mut threshold = None;
    let mut scope = PerfScope::Hotspot;
    let mut n_runs = 1usize;
    let mut noise = 0.0f64;
    let mut seed = 42u64;
    let mut budget = None;
    let mut exclude = Vec::new();
    let mut emit_best = None;
    let mut strategy = "dd".to_string();
    let mut samples = 100usize;
    let mut granularity = SearchGranularity::default();
    let mut journal = None;
    let mut variant_path = VariantPath::default();
    let mut crosscheck = 1usize;
    let mut resume = false;
    let mut strict = false;
    let mut faults = None;
    let mut retry_band = 0.0f64;
    let mut retry_runs = 25usize;
    let mut wal_flush = prose::trace::FlushPolicy::default();
    let mut shadow = false;
    let mut shadow_budget = None;
    let mut ensemble_members = None;
    let mut ensemble_seed = EnsembleParams::default().seed;
    let mut workers = prose::core::tuner::default_workers();
    let mut deadline_ms = prose::core::tuner::default_deadline_ms();
    let mut retry_attempts = prose::core::tuner::default_retry_attempts();
    let mut absint = false;
    let mut certify = None;

    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        let mut next = || -> Option<String> {
            i += 1;
            argv.get(i).cloned()
        };
        match a.as_str() {
            "--procs" => procs = next()?.split(',').map(str::to_string).collect(),
            "--metric" => match next()?.parse::<CorrectnessMetric>() {
                Ok(m) => metric = Some(m),
                Err(e) => {
                    eprintln!("error: --metric: {e}");
                    return None;
                }
            },
            "--threshold" => threshold = next()?.parse().ok(),
            "--scope" => {
                scope = match next()?.as_str() {
                    "hotspot" => PerfScope::Hotspot,
                    "whole" => PerfScope::WholeModel,
                    _ => return None,
                }
            }
            "--n-runs" => n_runs = next()?.parse().ok()?,
            "--noise" => noise = next()?.parse().ok()?,
            "--seed" => seed = next()?.parse().ok()?,
            "--budget" => budget = Some(next()?.parse().ok()?),
            "--exclude" => exclude = next()?.split(',').map(str::to_string).collect(),
            "--emit-best" => emit_best = next(),
            "--strategy" => strategy = next()?,
            "--samples" => samples = next()?.parse().ok()?,
            "--granularity" => granularity = next()?.parse().ok()?,
            "--journal" => journal = next(),
            "--variant-path" => variant_path = next()?.parse().ok()?,
            "--crosscheck" => crosscheck = next()?.parse().ok()?,
            "--resume" => resume = true,
            "--strict" => strict = true,
            "--faults" => match prose::faults::FaultConfig::parse(&next()?) {
                Ok(f) => faults = Some(f),
                Err(e) => {
                    eprintln!("error: --faults: {e}");
                    return None;
                }
            },
            "--retry-band" => retry_band = next()?.parse().ok()?,
            "--retry-runs" => retry_runs = next()?.parse().ok()?,
            "--wal-flush" => wal_flush = next()?.parse().ok()?,
            "--shadow" => shadow = true,
            "--shadow-budget" => shadow_budget = Some(next()?.parse().ok()?),
            "--validate-ensemble" => ensemble_members = Some(next()?.parse().ok()?),
            "--ensemble-seed" => ensemble_seed = next()?.parse().ok()?,
            "--workers" => workers = next()?.parse::<usize>().ok().filter(|&n| n >= 1)?,
            "--deadline-ms" => deadline_ms = Some(next()?.parse::<u64>().ok().filter(|&n| n >= 1)?),
            "--retry-attempts" => retry_attempts = next()?.parse().ok()?,
            "--absint" => absint = true,
            "--certify" => certify = next(),
            _ if file.is_none() && !a.starts_with("--") => file = Some(a.clone()),
            _ => return None,
        }
        i += 1;
    }
    Some(Args {
        file: file?,
        procs,
        metric: metric?,
        threshold: threshold?,
        scope,
        n_runs,
        noise,
        seed,
        budget,
        exclude,
        emit_best,
        strategy,
        samples,
        granularity,
        journal,
        variant_path,
        crosscheck,
        resume,
        strict,
        faults,
        retry_band,
        retry_runs,
        wal_flush,
        shadow,
        shadow_budget,
        ensemble_members,
        ensemble_seed,
        workers,
        deadline_ms,
        retry_attempts,
        absint,
        certify,
    })
}

/// Append the graceful-shutdown marker record to `journal` and flush it to
/// disk. The marker is provenance, not a trial: preloading skips it because
/// its status is unknown to `variant_from_trial` and its empty config never
/// matches the search's atom count, so a subsequent `--resume` replays the
/// journal exactly as if the run had been interrupted between trials.
fn append_shutdown_marker(path: &std::path::Path, signum: i32) -> std::io::Result<u64> {
    use prose::trace::{FlushPolicy, Journal, TrialRecord};
    let next_seq = Journal::load(path)
        .ok()
        .and_then(|rs| rs.last().map(|r| r.seq + 1))
        .unwrap_or(0);
    let mut journal = Journal::open_append_with(path, FlushPolicy::Sync)?;
    journal.append(&TrialRecord {
        seq: next_seq,
        config: Vec::new(),
        status: "shutdown".to_string(),
        speedup: 0.0,
        error: 0.0,
        cached: true,
        wall_ms: 0.0,
        fraction_single: 0.0,
        wrappers: 0,
        total_cycles: None,
        hotspot_cycles: None,
        stages: Default::default(),
        counters: Default::default(),
        variant_path: String::new(),
        failure_kind: Some(format!("signal:{signum}")),
        fault_kind: None,
        fault_seed: None,
        shadow: None,
        member: None,
        search_granularity: String::new(),
        workers: 0,
        worker: None,
        batch: None,
        attempt: 0,
        job: None,
        static_verdict: None,
        crc: None,
    })?;
    journal.flush()?;
    Ok(next_seq)
}

/// Exit path for a latched SIGINT/SIGTERM: flush the WAL, journal the
/// shutdown marker, and exit with the conventional `128 + signum` code
/// (130 for SIGINT, 143 for SIGTERM) so callers can tell an interrupted
/// search from a failed one.
fn shutdown_exit(journal: Option<&std::path::Path>) -> ExitCode {
    let signum = prose::serve::signals::pending().unwrap_or(prose::serve::signals::SIGINT);
    match journal {
        Some(path) => match append_shutdown_marker(path, signum) {
            Ok(seq) => eprintln!(
                "interrupted by signal {signum}: journal {} flushed, shutdown marker seq {seq}; \
                 continue with --resume",
                path.display()
            ),
            Err(e) => eprintln!(
                "interrupted by signal {signum}: could not append shutdown marker to {}: {e}",
                path.display()
            ),
        },
        None => eprintln!("interrupted by signal {signum} (no --journal; nothing to checkpoint)"),
    }
    ExitCode::from(u8::try_from(128 + signum).unwrap_or(130))
}

/// Run `f`, translating a [`CancelRequested`](prose::core::CancelRequested)
/// unwind (raised by the evaluator when the signal watcher flips the cancel
/// token) into `Err(())`; any other panic propagates.
fn run_cancellable<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            if payload
                .downcast_ref::<prose::core::CancelRequested>()
                .is_some()
            {
                Err(())
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { usage() };
    if args.procs.is_empty() {
        usage();
    }
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let spec = ModelSpec {
        name: args.file.clone(),
        source,
        hotspot_module: String::new(),
        target_procs: args.procs.clone(),
        metric: args.metric.clone(),
        error_threshold: args.threshold,
        n_runs: args.n_runs,
        noise_rsd: args.noise,
        exclude: args.exclude.clone(),
    };
    let model = match spec.load() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}: {} search atoms in {:?}",
        args.file,
        model.atoms.len(),
        args.procs
    );
    for a in &model.atoms {
        println!("  {}", model.index.fp_var_path(*a));
    }

    let mut task = match model.task(args.scope, args.seed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    task.max_variants = args.budget;
    task.journal = args.journal.as_ref().map(Into::into);
    task.variant_path = args.variant_path;
    task.crosscheck = args.crosscheck;
    task.strict = args.strict;
    task.faults = args.faults.clone();
    task.retry_band = args.retry_band;
    task.retry_max_runs = args.retry_runs;
    task.wal_flush = args.wal_flush;
    task.shadow = args.shadow;
    task.shadow_budget = args.shadow_budget;
    task.granularity = args.granularity;
    task.absint = args.absint;
    task.workers = args.workers;
    task.deadline_ms = args.deadline_ms;
    task.retry_attempts = args.retry_attempts;

    // Graceful SIGINT/SIGTERM: latch the signal, flip the evaluator's
    // cancel token, and let the search unwind at the next evaluation
    // boundary — never mid-journal-append, so the WAL stays intact and a
    // later --resume replays every finished trial from cache.
    prose::serve::signals::install();
    let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    task.cancel = Some(cancel.clone());
    {
        let cancel = cancel.clone();
        std::thread::spawn(move || loop {
            if prose::serve::signals::pending().is_some() {
                cancel.store(true, std::sync::atomic::Ordering::SeqCst);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
    if task.workers > 1 {
        println!("parallel evaluation: {} workers", task.workers);
    }
    if let Some(ms) = task.deadline_ms {
        println!(
            "supervision: {ms} ms wall-clock deadline per variant, {} retry attempt(s)",
            task.retry_attempts
        );
    }

    // --resume: continue an interrupted search from its journal. The
    // search itself is deterministic, so replaying it against the
    // journal-preloaded cache reconstructs the monotone bar and
    // best-so-far without a single duplicate interpreter evaluation;
    // only configurations past the crash point run fresh.
    if args.resume {
        let Some(journal) = &task.journal else {
            eprintln!("error: --resume requires --journal");
            return ExitCode::FAILURE;
        };
        // Resume always goes through repair mode: a mid-file corrupted
        // record (torn write, bit rot) is quarantined instead of aborting
        // the resume, and a torn tail is truncated so this process's
        // appends cannot merge into a partial line.
        match prose::trace::Journal::load_repair_or_empty(journal) {
            Ok(report) => {
                let passes = report
                    .records
                    .iter()
                    .filter(|r| r.status == "pass" && !r.cached)
                    .count();
                let best = report
                    .records
                    .iter()
                    .filter(|r| r.status == "pass")
                    .map(|r| r.speedup)
                    .fold(f64::NAN, f64::max);
                let mut notes = String::new();
                if report.torn_tail > 0 {
                    notes.push_str(&format!("; dropped {} torn line(s)", report.torn_tail));
                }
                if report.quarantined > 0 {
                    notes.push_str(&format!(
                        "; quarantined {} damaged record(s) to {}",
                        report.quarantined,
                        report
                            .quarantine_path
                            .as_ref()
                            .map(|p| p.display().to_string())
                            .unwrap_or_default()
                    ));
                }
                println!(
                    "resuming from {}: {} trials ({} unique passing, best speedup {}{})",
                    journal.display(),
                    report.records.len(),
                    passes,
                    if best.is_nan() {
                        "n/a".to_string()
                    } else {
                        format!("{best:.3}")
                    },
                    notes,
                );
            }
            Err(e) => {
                eprintln!("error: --resume: cannot read {}: {e}", journal.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let outcome = match run_cancellable(|| match args.strategy.as_str() {
        "brute" => tune_brute_force(&task),
        "random" => {
            use prose::core::DynamicEvaluator;
            use prose::search::random::RandomSearch;
            match DynamicEvaluator::new(&task) {
                Ok(mut eval) => {
                    let search = RandomSearch::new(args.samples, args.seed).run(&mut eval);
                    let metrics = eval.metrics();
                    Ok(prose::core::tuner::TuningOutcome {
                        search,
                        baseline_hotspot_cycles: eval.baseline.hotspot_cycles,
                        baseline_total_cycles: eval.baseline.total_cycles,
                        hotspot_share: eval.baseline.hotspot_share(),
                        metrics,
                        variants: eval.into_records(),
                    })
                }
                Err(e) => Err(e),
            }
        }
        _ => tune(&task),
    }) {
        Ok(r) => r,
        Err(()) => return shutdown_exit(task.journal.as_deref()),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: baseline run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let s = outcome.search.status_summary();
    println!(
        "\nexplored {} variants: {:.0}% pass, {:.0}% fail, {:.0}% timeout, {:.0}% error",
        s.total,
        s.pct(s.pass),
        s.pct(s.fail),
        s.pct(s.timeout),
        s.pct(s.error)
    );
    println!(
        "baseline: hotspot {:.0} cycles / total {:.0} cycles ({:.0}% share)",
        outcome.baseline_hotspot_cycles,
        outcome.baseline_total_cycles,
        100.0 * outcome.hotspot_share
    );
    if let Some(journal) = &task.journal {
        println!(
            "journal: {} ({} preloaded, {} cache hits, {} evaluated)",
            journal.display(),
            outcome.metrics.get("cache_preloaded"),
            outcome.metrics.get("cache_hits"),
            outcome.metrics.get("cache_misses")
        );
    }
    if args.shadow {
        println!(
            "shadow guardrail: {} metric-passing variant(s) demoted for excess fp64-shadow error",
            outcome.metrics.get("shadow_demotions")
        );
    }
    if args.absint {
        println!(
            "static pre-pass: {} pre-demoted, {} pinned f64, {} undecided, \
             absint_analyses {}, absint_steps {}{}",
            outcome.metrics.get("absint_predemoted"),
            outcome.metrics.get("absint_pinned"),
            outcome.metrics.get("absint_undecided"),
            outcome.metrics.get("absint_analyses"),
            outcome.metrics.get("absint_steps"),
            if outcome.metrics.get("absint_joint_fallback") > 0 {
                " (joint re-check dropped the demotion set)"
            } else {
                ""
            }
        );
    }

    match &outcome.search.best {
        Some(best) => {
            println!(
                "best variant: {:.2}x speedup, error {:.3e}, {} of {} variables still 64-bit",
                best.outcome.speedup,
                best.outcome.error,
                best.config.iter().filter(|b| !**b).count(),
                best.config.len()
            );
            if outcome.search.one_minimal {
                let high: Vec<String> = outcome
                    .search
                    .final_config
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| !**b)
                    .map(|(i, _)| model.index.fp_var_path(task.atoms[i]))
                    .collect();
                println!("1-minimal 64-bit set: {high:?}");
            }
            if let Some(path) = &args.emit_best {
                let map = config_to_map(&model.index, &model.atoms, &best.config);
                match prose::transform::make_variant(&model.program, &model.index, &map) {
                    Ok(v) => {
                        if let Err(e) = std::fs::write(path, &v.text) {
                            eprintln!("error writing {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("wrote best variant to {path}");
                    }
                    Err(e) => {
                        eprintln!("error: transforming best variant: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        None => {
            println!("no variant satisfied the correctness threshold while beating the baseline");
        }
    }

    // --certify: bind the final configuration to the static analysis'
    // per-variable guarantees and check every finite bound against an
    // fp64-shadow run of the same configuration. A violated bound is a
    // soundness bug in the static analysis (the dynamic guardrails already
    // police accuracy) and fails the run.
    let mut cert_violations = 0usize;
    if let Some(path) = &args.certify {
        if outcome.search.best.is_none() {
            println!("\ncertificate: no passing variant; nothing to certify");
        } else {
            let cert = match prose::core::certify_config(
                &task,
                &args.file,
                &outcome.search.final_config,
            ) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: certify: {e}");
                    return ExitCode::FAILURE;
                }
            };
            cert_violations = cert.violations;
            println!(
                "\ncertificate: {} finite bound(s) checked, {} violation(s); \
                 {} unbounded, {} uncovered{}",
                cert.checks.len(),
                cert.violations,
                cert.unbounded.len(),
                cert.uncovered.len(),
                if cert.incomplete {
                    " (static analysis incomplete)"
                } else {
                    ""
                }
            );
            let mut worst: Vec<_> = cert.checks.iter().collect();
            worst.sort_by(|a, b| b.static_rel.total_cmp(&a.static_rel));
            for c in worst.iter().take(10) {
                println!(
                    "  bound {} ({}): static rel {:.3e}, observed {:.3e} over {} store(s)",
                    c.name, c.kind, c.static_rel, c.observed_rel, c.stores
                );
            }
            if worst.len() > 10 {
                println!(
                    "  ... and {} more bound(s) in the certificate",
                    worst.len() - 10
                );
            }
            for c in cert.checks.iter().filter(|c| !c.sound) {
                println!(
                    "  SOUNDNESS BUG {}: observed rel {:.3e} or hull [{:.3e}, {:.3e}] escapes \
                     static rel {:.3e} hull [{:.3e}, {:.3e}]",
                    c.name,
                    c.observed_rel,
                    c.observed_min,
                    c.observed_max,
                    c.static_rel,
                    c.static_lo,
                    c.static_hi
                );
            }
            let text = serde_json::to_string_pretty(&cert).expect("serialize certificate");
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("error: cannot write certificate {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote certificate to {path}");
        }
    }

    // --validate-ensemble: re-measure the final configuration (plus the
    // runner-up frontier) on held-out input perturbations and demote
    // input-overfit candidates.
    if let Some(members) = args.ensemble_members.filter(|m| *m > 0) {
        let params = EnsembleParams {
            members,
            seed: args.ensemble_seed,
            ..EnsembleParams::default()
        };
        let report = match run_cancellable(|| validate_ensemble(&task, &outcome, &params)) {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                eprintln!("error: ensemble validation failed: {e}");
                return ExitCode::FAILURE;
            }
            Err(()) => return shutdown_exit(task.journal.as_deref()),
        };
        println!(
            "\nensemble validation: {} member(s), seed {}, amplitude {:.1e}",
            params.members, params.seed, params.amplitude
        );
        for (i, cand) in report.candidates.iter().enumerate() {
            let role = if i == 0 { "final" } else { "runner-up" };
            println!(
                "  candidate {i} ({role}): {:.0}% lowered, tuning speedup {:.2}x",
                100.0 * cand.fraction_single,
                cand.tuning_speedup
            );
            for mr in &cand.members {
                println!(
                    "    member {}: {:?}, speedup {:.2}x, error {:.3e}",
                    mr.member,
                    mr.record.outcome.status,
                    mr.record.outcome.speedup,
                    mr.record.outcome.error
                );
            }
            if cand.validated {
                println!(
                    "    validated (min member speedup {:.2}x)",
                    cand.min_member_speedup().unwrap_or(f64::NAN)
                );
            } else {
                println!(
                    "    DEMOTED: input-overfit, failed member(s) {:?}",
                    cand.failed_members()
                );
            }
        }
        if report.final_demoted() {
            println!("ensemble verdict: the search's final configuration is input-overfit");
        }
        match report.winner {
            Some(i) => {
                let cand = &report.candidates[i];
                let high: Vec<String> = cand
                    .config
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| !**b)
                    .map(|(j, _)| model.index.fp_var_path(task.atoms[j]))
                    .collect();
                println!(
                    "ensemble verdict: ship candidate {i} ({:.0}% lowered); 64-bit set {high:?}",
                    100.0 * cand.fraction_single
                );
            }
            None => {
                println!(
                    "ensemble verdict: no candidate survived all {} member(s); keep full fp64",
                    params.members
                );
            }
        }
    }
    if cert_violations > 0 {
        eprintln!(
            "error: {cert_violations} certified bound(s) violated by the shadow run \
             (static-analysis soundness bug)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
