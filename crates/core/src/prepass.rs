//! The absint search pre-pass: static range & round-off verdicts per atom.
//!
//! Before the dynamic search runs a single trial, each atom is analyzed in
//! isolation with `prose_interp::analyze_ir` (the abstract interpreter over
//! the task's IR, lowered once per pass and patched per precision map):
//!
//! * **pre-demote** — lowering the atom alone keeps every variable's
//!   static error bound within the budget (the tighter of the correctness
//!   threshold and the shadow budget), so the atom is forced to 32-bit in
//!   every trial and removed from the search space. The comparison is
//!   *excess over the declared-precision baseline*: a bound that was
//!   already loose (even `∞`, as in a time-stepping recurrence whose state
//!   hull is `⊤`) at full precision is not held against the candidate —
//!   only damage the lowering itself introduces counts;
//! * **pin-f64** — the atom's static value range under the declared
//!   precisions provably exceeds `f32::MAX`, so lowering it is guaranteed
//!   to overflow; it is forced to stay 64-bit and removed from the search;
//! * **undecided** — everything else enters (grouped) delta debugging.
//!
//! Per-atom bounds compose unsoundly (two demotions can each clear the
//! budget alone but not together), so the candidate demotion set is
//! re-analyzed *jointly*; while the joint bound blows the budget, the
//! candidate with the loosest individual bound is dropped back into the
//! search and the joint check repeats — down to zero demotions. The tuner
//! additionally validates the forced configuration dynamically before
//! trusting it ([`crate::tuner::tune`]), so even an unsound static bound
//! can only cost trials, never correctness.

use crate::pool::map_ordered;
use crate::tuner::TuningTask;
use prose_analysis::BoundReport;
use prose_fortran::ast::FpPrecision;
use prose_fortran::sema::{FpVarId, ProgramIndex, ScopeKind};
use prose_fortran::PrecisionMap;
use prose_interp::{analyze_ir, IrTemplate, DEFAULT_MAX_STEPS};
use prose_search::{Config, Evaluator, Outcome};
use std::collections::HashMap;

/// Static verdict for one search atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticVerdict {
    /// Statically safe at f32: forced to 32-bit, no trials spent.
    PreDemote,
    /// Statically overflows at f32: forced to stay 64-bit, no trials spent.
    PinF64,
    /// The static bound cannot decide; the atom enters the search.
    Undecided,
}

impl StaticVerdict {
    /// Journal-facing name.
    pub fn name(self) -> &'static str {
        match self {
            StaticVerdict::PreDemote => "pre_demote",
            StaticVerdict::PinF64 => "pin_f64",
            StaticVerdict::Undecided => "undecided",
        }
    }
}

/// The pre-pass result: one verdict per atom, in atom order.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepassReport {
    /// Per-atom verdicts, aligned with `TuningTask::atoms`.
    pub verdicts: Vec<StaticVerdict>,
    /// The error budget the verdicts were judged against (the tighter of
    /// the correctness threshold and the shadow budget).
    pub budget: f64,
    /// True when the joint re-check of the demotion candidates blew the
    /// budget and at least one candidate was dropped back into the search.
    pub joint_fallback: bool,
    /// Compact journal stamp: `demote=a,b|pin=c|undecided=3`.
    pub stamp: String,
    /// Whole-program abstract analyses the pass ran.
    pub analyses: u64,
    /// Abstract steps summed over those analyses
    /// ([`BoundReport::steps`]): a deterministic measure of the pass's work.
    pub steps: u64,
}

impl PrepassReport {
    /// Atom indices left undecided, in atom order — the search space.
    pub fn residue(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == StaticVerdict::Undecided)
            .map(|(i, _)| i)
            .collect()
    }

    /// Full-width base configuration: pre-demoted atoms `true`, everything
    /// else `false`.
    pub fn forced(&self) -> Vec<bool> {
        self.verdicts
            .iter()
            .map(|v| *v == StaticVerdict::PreDemote)
            .collect()
    }

    /// Number of atoms the pass decided (demoted or pinned).
    pub fn decided(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| **v != StaticVerdict::Undecided)
            .count()
    }

    /// Count of one verdict kind.
    pub fn count(&self, v: StaticVerdict) -> usize {
        self.verdicts.iter().filter(|x| **x == v).count()
    }

    /// Expand a residue-space configuration to the full atom space.
    pub fn expand(&self, residue: &[usize], reduced: &[bool]) -> Vec<bool> {
        let mut full = self.forced();
        for (ri, &ai) in residue.iter().enumerate() {
            full[ai] = reduced[ri];
        }
        full
    }

    /// Demote every candidate back to undecided (the joint-fallback and
    /// dynamic-guard path).
    pub fn drop_demotions(&mut self, index: &ProgramIndex, atoms: &[FpVarId]) {
        for v in &mut self.verdicts {
            if *v == StaticVerdict::PreDemote {
                *v = StaticVerdict::Undecided;
            }
        }
        self.joint_fallback = true;
        self.stamp = stamp(index, atoms, &self.verdicts);
    }
}

/// Shadow-key-space name the IR walker reports the atom's bound under
/// (`proc::var`, `@main::var`, or `@global::var`).
pub fn atom_bound_key(index: &ProgramIndex, atom: FpVarId) -> String {
    let v = index.fp_var(atom);
    let info = index.scope_info(v.scope);
    match info.kind {
        ScopeKind::Main => format!("@main::{}", v.name),
        ScopeKind::Module => format!("@global::{}", v.name),
        ScopeKind::Procedure => format!("{}::{}", info.name, v.name),
    }
}

fn stamp(index: &ProgramIndex, atoms: &[FpVarId], verdicts: &[StaticVerdict]) -> String {
    let names = |want: StaticVerdict| -> String {
        atoms
            .iter()
            .zip(verdicts)
            .filter(|(_, v)| **v == want)
            .map(|(a, _)| index.fp_var(*a).name.clone())
            .collect::<Vec<_>>()
            .join(",")
    };
    let undecided = verdicts
        .iter()
        .filter(|v| **v == StaticVerdict::Undecided)
        .count();
    format!(
        "demote={}|pin={}|undecided={}",
        names(StaticVerdict::PreDemote),
        names(StaticVerdict::PinF64),
        undecided
    )
}

/// The error budget the static verdicts are judged against: a demotion is
/// only safe when the static bound clears both the correctness threshold
/// and (when armed) the shadow guardrail budget.
pub fn prepass_budget(task: &TuningTask) -> f64 {
    task.error_threshold
        .min(task.shadow_budget.unwrap_or(task.error_threshold))
}

/// Worst static bound a variant *worsened past the baseline*: the maximum
/// `rel_err` over every variable and recorded key whose bound under the
/// variant map strictly exceeds its bound under the declared map. Bounds
/// that were already loose at full precision — a time-stepping recurrence
/// whose state hull is `⊤` bounds to `∞` before anything is lowered — are
/// the program's fault, not the candidate's, and do not count against it.
/// `None` when the variant cannot be judged at all (analysis incomplete).
fn worst_excess_rel(rep: &BoundReport, base: Option<&BoundReport>) -> Option<f64> {
    if rep.incomplete {
        return None;
    }
    let Some(base) = base else {
        // No baseline to compare against (its analysis failed): fall back
        // to the absolute whole-program bound.
        return Some(rep.worst_rel);
    };
    let base_rel = |name: &str, records: bool| -> f64 {
        let pool = if records { &base.records } else { &base.vars };
        pool.iter()
            .find(|v| v.name == name)
            .map(|v| v.rel_err)
            .unwrap_or(0.0)
    };
    let mut worst = 0.0f64;
    for (pool, records) in [(&rep.vars, false), (&rep.records, true)] {
        for v in pool.iter() {
            if v.rel_err > base_rel(&v.name, records) {
                worst = worst.max(v.rel_err);
            }
        }
    }
    Some(worst)
}

/// The bound a demotion candidate (or candidate set member) is judged by:
/// the worst excess any bound shows over the baseline, joined with the
/// atom's *own* store bound under the lowered map. The own-bound term
/// closes the ⊤-masking hole: an atom feeding an already-unbounded
/// recurrence shows no *excess* (the state hull was `⊤` before it was
/// lowered), but its own `⊤` bound means the lowering is not certified
/// either — only atoms whose stores are themselves finitely bounded within
/// budget may be pre-demoted.
///
/// An atom with no tracked store at all (a read-only dummy: the walker
/// records stores, not bindings) has no own bound; its lowering can only
/// damage downstream stores, which the excess term already covers.
fn certified_bound(rep: &BoundReport, base: Option<&BoundReport>, key: &str) -> Option<f64> {
    let excess = worst_excess_rel(rep, base)?;
    let own = rep.var(key).map(|v| v.rel_err).unwrap_or(0.0);
    Some(excess.max(own))
}

/// Run the static pre-pass over every atom. Never fails: any analysis
/// error or exhausted abstract budget degrades the affected verdicts to
/// undecided, which only means the dynamic search keeps those atoms.
///
/// The declared-map analysis and the per-atom analyses are independent, so
/// they fan out on the task's worker pool ([`crate::pool::map_ordered`]);
/// the verdict logic then runs over their reports in atom order, and the
/// joint re-check stays serial. The report is identical at every width.
pub fn run_prepass(task: &TuningTask) -> PrepassReport {
    let budget = prepass_budget(task);
    let n = task.atoms.len();
    let mut verdicts = vec![StaticVerdict::Undecided; n];
    let mut analyses = 0u64;
    let mut steps = 0u64;
    let mut tally = |rep: &Option<BoundReport>| {
        if let Some(rep) = rep {
            analyses += 1;
            steps += rep.steps;
        }
    };

    // Every analysis of the pass patches one lowered template; a program
    // that fails to lower leaves every atom undecided.
    let template = IrTemplate::new(&task.program, &task.index, task.cost.inline_max_stmts).ok();
    let analyze = |map: &PrecisionMap| -> Option<BoundReport> {
        let ir = template
            .as_ref()?
            .instantiate(map, &[], &HashMap::new())
            .ok()?;
        Some(analyze_ir(&ir, DEFAULT_MAX_STEPS))
    };

    // The declared map first, then each atom lowered alone.
    let declared = PrecisionMap::declared(&task.index);
    let maps: Vec<PrecisionMap> = std::iter::once(declared.clone())
        .chain(task.atoms.iter().map(|&atom| {
            let mut map = declared.clone();
            map.set(atom, FpPrecision::Single);
            map
        }))
        .collect();
    let reports = map_ordered(&maps, task.workers, |map, _| analyze(map));
    reports.iter().for_each(&mut tally);
    let mut reports = reports.into_iter();

    // Declared-precision analysis: value ranges are precision-independent
    // up to rounding, so a *finite* hull beyond f32::MAX under the
    // declared map is proof that lowering the variable overflows. The
    // same report is the baseline the demotion criterion measures excess
    // damage against.
    let base = reports.next().flatten().filter(|b| !b.incomplete);
    if let Some(base) = &base {
        for (i, &atom) in task.atoms.iter().enumerate() {
            let key = atom_bound_key(&task.index, atom);
            if let Some(b) = base.var(&key) {
                let mag = b.lo.abs().max(b.hi.abs());
                if mag.is_finite() && mag > f32::MAX as f64 {
                    verdicts[i] = StaticVerdict::PinF64;
                }
            }
        }
    }

    // Per-atom demotion check: lower the atom alone and ask whether every
    // bound the lowering worsened still clears the budget. Keep each
    // candidate's individual bound — it orders the joint-refinement drops
    // below.
    let mut candidates: Vec<(usize, f64)> = Vec::new();
    for (i, rep) in reports.enumerate() {
        if verdicts[i] != StaticVerdict::Undecided {
            continue;
        }
        if let Some(rep) = rep {
            let key = atom_bound_key(&task.index, task.atoms[i]);
            if let Some(bound) = certified_bound(&rep, base.as_ref(), &key) {
                if bound <= budget {
                    candidates.push((i, bound));
                }
            }
        }
    }

    // Joint re-check: per-atom bounds do not compose (errors from two
    // demotions add), so a candidate set is only accepted when it clears
    // the budget *together*. On failure, greedily drop the candidate with
    // the loosest individual bound (the accumulator, typically) and
    // re-check — down to the empty set if need be.
    let mut joint_fallback = false;
    while !candidates.is_empty() {
        let mut map = declared.clone();
        for &(i, _) in &candidates {
            map.set(task.atoms[i], FpPrecision::Single);
        }
        let rep = analyze(&map);
        tally(&rep);
        let joint = rep.and_then(|rep| {
            candidates
                .iter()
                .map(|&(i, _)| {
                    let key = atom_bound_key(&task.index, task.atoms[i]);
                    certified_bound(&rep, base.as_ref(), &key)
                })
                .try_fold(0.0f64, |acc, b| b.map(|b| acc.max(b)))
        });
        match joint {
            Some(bound) if bound <= budget => {
                for &(i, _) in &candidates {
                    verdicts[i] = StaticVerdict::PreDemote;
                }
                break;
            }
            _ => {
                joint_fallback = true;
                let worst = candidates
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        a.1 .1
                            .partial_cmp(&b.1 .1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.1 .0.cmp(&b.1 .0))
                    })
                    .map(|(pos, _)| pos);
                match worst {
                    Some(pos) => {
                        candidates.remove(pos);
                    }
                    None => break,
                }
            }
        }
    }

    let stamp = stamp(&task.index, &task.atoms, &verdicts);
    PrepassReport {
        verdicts,
        budget,
        joint_fallback,
        stamp,
        analyses,
        steps,
    }
}

/// An [`Evaluator`] adapter exposing only the undecided residue to the
/// search: reduced configurations are expanded to the full atom space
/// (pre-demoted atoms forced `true`, pinned atoms forced `false`) before
/// delegating, so memoization keys and journal records stay full-width.
pub struct ReducedEvaluator<'e, E: Evaluator> {
    inner: &'e mut E,
    forced: Vec<bool>,
    residue: Vec<usize>,
}

impl<'e, E: Evaluator> ReducedEvaluator<'e, E> {
    pub fn new(inner: &'e mut E, pre: &PrepassReport) -> Self {
        ReducedEvaluator {
            inner,
            forced: pre.forced(),
            residue: pre.residue(),
        }
    }

    fn expand(&self, reduced: &Config) -> Config {
        let mut full = self.forced.clone();
        for (ri, &ai) in self.residue.iter().enumerate() {
            full[ai] = reduced[ri];
        }
        full
    }
}

impl<E: Evaluator> Evaluator for ReducedEvaluator<'_, E> {
    fn evaluate(&mut self, lowered: &Config) -> Outcome {
        self.inner.evaluate(&self.expand(lowered))
    }

    fn evaluate_batch(&mut self, batch: &[Config]) -> Vec<Outcome> {
        let full: Vec<Config> = batch.iter().map(|c| self.expand(c)).collect();
        self.inner.evaluate_batch(&full)
    }

    fn atom_count(&self) -> usize {
        self.residue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_analysis::VarBound;

    fn bound(name: &str, rel: f64) -> VarBound {
        VarBound {
            name: name.into(),
            lo: 0.0,
            hi: 1.0,
            abs_err: rel,
            rel_err: rel,
        }
    }

    fn report(vars: Vec<VarBound>) -> BoundReport {
        let worst = vars.iter().map(|v| v.rel_err).fold(0.0f64, f64::max);
        BoundReport {
            vars,
            records: Vec::new(),
            worst_rel: worst,
            cancellations: Vec::new(),
            incomplete: false,
            steps: 0,
        }
    }

    #[test]
    fn excess_ignores_bounds_the_baseline_already_had() {
        // The recurrence `s` is ⊤ at declared precision; the candidate map
        // does not worsen it, so only `t`'s genuinely new error counts.
        let base = report(vec![
            bound("work::s", f64::INFINITY),
            bound("work::t", 1e-9),
        ]);
        let rep = report(vec![
            bound("work::s", f64::INFINITY),
            bound("work::t", 1e-5),
        ]);
        assert_eq!(worst_excess_rel(&rep, Some(&base)), Some(1e-5));
    }

    #[test]
    fn excess_falls_back_to_absolute_bound_without_a_baseline() {
        let rep = report(vec![bound("work::t", 1e-5)]);
        assert_eq!(worst_excess_rel(&rep, None), Some(1e-5));
    }

    #[test]
    fn excess_refuses_to_judge_an_incomplete_analysis() {
        let mut rep = report(vec![bound("work::t", 1e-5)]);
        rep.incomplete = true;
        assert_eq!(worst_excess_rel(&rep, Some(&report(vec![]))), None);
    }

    #[test]
    fn certified_bound_joins_the_atoms_own_store_bound() {
        // No *excess* over the baseline (both ⊤ on the state var), but the
        // candidate atom's own bound is ⊤ too — the ⊤-masking hole: the
        // joined bound must stay ⊤ so the atom is not certified.
        let base = report(vec![bound("work::s", f64::INFINITY)]);
        let rep = report(vec![bound("work::s", f64::INFINITY)]);
        assert_eq!(
            certified_bound(&rep, Some(&base), "work::s"),
            Some(f64::INFINITY)
        );
        // A read-only dummy has no store bound at all: judged by excess
        // alone (zero here).
        assert_eq!(certified_bound(&rep, Some(&base), "work::dummy"), Some(0.0));
    }

    #[test]
    fn expand_reinstates_forced_atoms_around_the_residue() {
        let pre = PrepassReport {
            verdicts: vec![
                StaticVerdict::PreDemote,
                StaticVerdict::Undecided,
                StaticVerdict::PinF64,
                StaticVerdict::Undecided,
            ],
            budget: 1e-3,
            joint_fallback: false,
            stamp: String::new(),
            analyses: 0,
            steps: 0,
        };
        assert_eq!(pre.residue(), vec![1, 3]);
        assert_eq!(pre.forced(), vec![true, false, false, false]);
        assert_eq!(pre.decided(), 2);
        assert_eq!(
            pre.expand(&[1, 3], &[true, false]),
            vec![true, true, false, false]
        );
    }
}
