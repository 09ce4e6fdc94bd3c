//! Differential tests for the abstract-interpretation search pre-pass:
//! statically deciding atoms before delta debugging must prune real trials
//! without changing the quality of the final configuration.
//!
//! Both runs journal every trial, so "work" is compared on the journals'
//! `cached: false` records — the interpreter evaluations the memo could not
//! answer. The pre-pass additionally stamps every record it influenced with
//! the static-verdict summary, and the final configuration is bound to the
//! static analysis through a config certificate.

use prose::core::tuner::{tune, PerfScope, SearchGranularity, TuningOutcome};
use prose::core::{certify_config, crosscheck_journal, run_prepass, StaticVerdict};
use prose::models::{funarc, guardrail, mpas, ModelSize};
use prose::trace::{Journal, TrialRecord};
use std::path::PathBuf;

fn tmp_journal(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("prose-absint-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

struct Run {
    outcome: TuningOutcome,
    records: Vec<TrialRecord>,
}

impl Run {
    /// Interpreter evaluations the memo could not answer.
    fn uncached(&self) -> usize {
        self.records.iter().filter(|r| !r.cached).count()
    }
}

fn run(model: &prose::core::tuner::LoadedModel, scope: PerfScope, absint: bool, tag: &str) -> Run {
    run_on(model, scope, absint, 1, tag)
}

fn run_on(
    model: &prose::core::tuner::LoadedModel,
    scope: PerfScope,
    absint: bool,
    workers: usize,
    tag: &str,
) -> Run {
    let journal = tmp_journal(tag);
    let mut task = model.task(scope, 7).unwrap();
    task.granularity = SearchGranularity::Grouped;
    task.absint = absint;
    task.workers = workers;
    task.journal = Some(journal.clone());
    let outcome = tune(&task).unwrap();
    let records = Journal::load(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    Run { outcome, records }
}

/// funarc at its paper threshold: every atom is statically certified safe
/// at f32, so the pre-pass demotes all eight, the search degenerates to
/// validating the forced configuration, and the outcome matches the plain
/// search exactly.
#[test]
fn funarc_prepass_decides_every_atom_without_changing_the_answer() {
    let model = funarc::funarc(ModelSize::Small).load().unwrap();

    let task = {
        let mut t = model.task(PerfScope::WholeModel, 7).unwrap();
        t.absint = true;
        t
    };
    let pre = run_prepass(&task);
    assert_eq!(pre.verdicts.len(), 8);
    assert_eq!(pre.count(StaticVerdict::PreDemote), 8);
    assert_eq!(pre.count(StaticVerdict::PinF64), 0);
    assert!(!pre.joint_fallback);
    assert!(pre.stamp.starts_with("demote="));
    assert!(pre.stamp.ends_with("|undecided=0"));

    let plain = run(&model, PerfScope::WholeModel, false, "funarc-plain");
    let pruned = run(&model, PerfScope::WholeModel, true, "funarc-absint");
    assert!(
        pruned.uncached() <= plain.uncached(),
        "pre-pass must not cost extra interpreter runs: {} vs {}",
        pruned.uncached(),
        plain.uncached()
    );
    assert_eq!(
        pruned.outcome.search.final_config, plain.outcome.search.final_config,
        "an all-atoms demotion must land on the plain search's configuration"
    );
}

/// mpas_a at its paper threshold: the declared-precision baseline already
/// has `⊤` bounds on the time-stepping state, so the excess-over-baseline
/// criterion certifies the constant/dummy atoms while the state variables
/// stay in the search. The grouped search over the residue must evaluate
/// strictly fewer uncached trials and land on an equally good
/// configuration.
#[test]
fn mpas_prepass_prunes_the_grouped_search() {
    let model = mpas::mpas_a(ModelSize::Small).load().unwrap();

    let task = {
        let mut t = model.task(PerfScope::Hotspot, 7).unwrap();
        t.absint = true;
        t
    };
    let pre = run_prepass(&task);
    assert!(
        pre.count(StaticVerdict::PreDemote) >= 1,
        "the pre-pass must decide at least one atom statically: {}",
        pre.stamp
    );

    let plain = run(&model, PerfScope::Hotspot, false, "mpas-plain");
    let pruned = run(&model, PerfScope::Hotspot, true, "mpas-absint");
    assert!(
        pruned.uncached() < plain.uncached(),
        "pre-pruned grouped dd must run strictly fewer uncached trials: {} vs {}",
        pruned.uncached(),
        plain.uncached()
    );

    let err = |r: &Run| r.outcome.search.best.as_ref().map(|b| b.outcome.error);
    assert_eq!(
        err(&pruned),
        err(&plain),
        "pruning must not change the best error"
    );
    let singles = |r: &Run| r.outcome.search.final_config.iter().filter(|b| **b).count();
    assert_eq!(
        singles(&pruned),
        singles(&plain),
        "pruning must lower exactly as many variables"
    );
}

/// Every evaluation request made under the pre-pass carries the compact
/// static-verdict stamp in its journal record; runs without the pre-pass
/// journal `None` (byte-compatible with pre-absint journals).
#[test]
fn every_trial_journals_the_static_verdict() {
    let model = funarc::funarc(ModelSize::Small).load().unwrap();
    let pruned = run(&model, PerfScope::WholeModel, true, "funarc-stamp");
    assert!(!pruned.records.is_empty());
    for r in &pruned.records {
        let stamp = r
            .static_verdict
            .as_deref()
            .expect("every absint trial must be stamped");
        assert!(stamp.starts_with("demote="), "stamp: {stamp}");
    }

    let plain = run(&model, PerfScope::WholeModel, false, "funarc-nostamp");
    assert!(plain.records.iter().all(|r| r.static_verdict.is_none()));
}

/// The config certificate for the pre-pruned search's final configuration:
/// every finite static bound must hold against the fp64-shadow run of the
/// same configuration (zero violations), and a journal cross-check of the
/// certificate finds no counter-evidence either.
#[test]
fn final_config_certificate_has_no_static_bound_violations() {
    let model = funarc::funarc(ModelSize::Small).load().unwrap();
    let mut task = model.task(PerfScope::WholeModel, 7).unwrap();
    task.granularity = SearchGranularity::Grouped;
    task.absint = true;
    let journal = tmp_journal("funarc-cert");
    task.journal = Some(journal.clone());
    let outcome = tune(&task).unwrap();
    assert!(outcome.search.best.is_some());

    let cert = certify_config(&task, "funarc", &outcome.search.final_config).unwrap();
    assert!(
        !cert.checks.is_empty(),
        "funarc must produce finite static bounds to check"
    );
    assert_eq!(
        cert.violations,
        0,
        "static-analysis soundness bug: {:?}",
        cert.checks
            .iter()
            .filter(|c| !c.sound)
            .map(|c| &c.name)
            .collect::<Vec<_>>()
    );

    let records = Journal::load(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    let (_, _, violating) = crosscheck_journal(&cert, &records);
    assert!(
        violating.is_empty(),
        "journaled shadow evidence contradicts the certificate: {violating:?}"
    );
}

/// The pre-pass fans its independent analyses out on the worker pool. The
/// report — verdicts, stamp, budget, joint fallback, and the work counters
/// — must not depend on the pool width.
#[test]
fn prepass_report_is_identical_at_every_pool_width() {
    let models = [
        (funarc::funarc(ModelSize::Small), PerfScope::WholeModel),
        (mpas::mpas_a(ModelSize::Small), PerfScope::Hotspot),
        (
            guardrail::guardrail_smoke(ModelSize::Small),
            PerfScope::Hotspot,
        ),
    ];
    for (spec, scope) in models {
        let model = spec.load().unwrap();
        let mut task = model.task(scope, 7).unwrap();
        task.absint = true;
        let reports: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|workers| {
                task.workers = workers;
                run_prepass(&task)
            })
            .collect();
        let serial = &reports[0];
        assert!(
            serial.analyses > task.atoms.len() as u64,
            "{}: the declared map and every atom are analyzed: {}",
            spec.name,
            serial.analyses
        );
        assert!(serial.steps > 0, "{}: steps are counted", spec.name);
        for (pooled, workers) in reports[1..].iter().zip([2, 4]) {
            assert_eq!(pooled, serial, "{} at {workers} workers", spec.name);
        }
    }
}

/// Strip what legitimately varies with scheduling: wall clock, per-stage
/// timings, the pool-width stamp, worker provenance, and the CRC over them.
fn normalized(mut r: TrialRecord) -> TrialRecord {
    r.wall_ms = 0.0;
    r.stages.clear();
    r.workers = 0;
    r.worker = None;
    r.crc = None;
    r
}

/// A grouped absint tune journals the same trials, in the same order, with
/// the same static-verdict stamps and work counters, at 1 and 2 workers.
#[test]
fn absint_tune_journals_match_across_pool_widths() {
    let model = mpas::mpas_a(ModelSize::Small).load().unwrap();
    let serial = run_on(&model, PerfScope::Hotspot, true, 1, "mpas-w1");
    let pooled = run_on(&model, PerfScope::Hotspot, true, 2, "mpas-w2");
    assert_eq!(
        serial.outcome.search.final_config,
        pooled.outcome.search.final_config
    );
    for key in ["absint_analyses", "absint_steps", "absint_predemoted"] {
        assert!(serial.outcome.metrics.get(key) > 0, "{key} is counted");
        assert_eq!(
            serial.outcome.metrics.get(key),
            pooled.outcome.metrics.get(key),
            "{key}"
        );
    }
    assert_eq!(serial.records.len(), pooled.records.len());
    for (a, b) in serial.records.into_iter().zip(pooled.records) {
        assert_eq!((a.workers, b.workers), (1, 2), "the width is stamped");
        assert_eq!(normalized(a), normalized(b));
    }
}
