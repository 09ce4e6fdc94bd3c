//! Shadow-precision execution: fp64 reference values computed in lockstep
//! with the variant's mixed-precision arithmetic.
//!
//! When enabled ([`crate::run::RunConfig::shadow`]), the machine carries one
//! fp64 shadow value per scalar slot and per FP array element. Shadows follow
//! the *same control flow* as the primary computation (branches, loop trip
//! counts, and integer results always snap to the primary), but every FP
//! operation is replayed in f64 on the shadow operands. The divergence
//! between a variable's primary and shadow value is exactly the rounding
//! error the variant's precision choices introduced along the executed path —
//! the RAPTOR/Verificarlo-style diagnostic the guardrail gate consumes.
//!
//! Three families of signal are collected:
//!
//! * **Per-variable error**: maximum and final relative error observed at
//!   each store, keyed by procedure + slot.
//! * **Catastrophic cancellation**: an add/sub whose result loses at least
//!   [`CANCEL_LOST_BITS`] bits of magnitude against its operands *and* whose
//!   shadow disagrees by at least [`CANCEL_DIVERGENCE`] — benign cancellation
//!   (both precisions cancel identically) is deliberately not flagged.
//! * **NaN/Inf provenance**: the first op/proc/line that produced a
//!   non-finite value, with injected faults ([`prose_faults`]) attributed to
//!   the injection instead of being reported as genuine.
//!
//! Invariant: shadow bookkeeping never charges cycles, counts ops, bumps
//! events, or touches primary values — a shadow-on run is bit-identical to a
//! shadow-off run in everything except this report.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Exponent-drop threshold for cancellation: result at least 2^20 smaller
/// than the larger operand (≈ 20 bits of magnitude lost).
pub const CANCEL_LOST_BITS: f64 = 20.0;

/// Relative shadow divergence required before a cancellation is flagged.
pub const CANCEL_DIVERGENCE: f64 = 0.01;

/// Relative error with the same near-zero fallback as
/// `prose_core::metrics::rel_err`: below `1e-30` in the shadow, compare
/// absolutely.
pub fn shadow_rel(primary: f64, shadow: f64) -> f64 {
    let d = (primary - shadow).abs();
    if shadow.abs() >= 1e-30 {
        d / shadow.abs()
    } else {
        d
    }
}

/// Running error statistics for one variable (or recorded metric key).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VarErr {
    pub max_rel: f64,
    pub final_rel: f64,
    pub stores: u64,
    /// Smallest primary value stored (certificate hull; `+inf` until a store).
    pub min_primary: f64,
    /// Largest primary value stored (certificate hull; `-inf` until a store).
    pub max_primary: f64,
}

impl Default for VarErr {
    fn default() -> Self {
        VarErr {
            max_rel: 0.0,
            final_rel: 0.0,
            stores: 0,
            min_primary: f64::INFINITY,
            max_primary: f64::NEG_INFINITY,
        }
    }
}

impl VarErr {
    pub fn update(&mut self, primary: f64, shadow: f64) {
        let r = shadow_rel(primary, shadow);
        if r > self.max_rel {
            self.max_rel = r;
        }
        self.final_rel = r;
        self.stores += 1;
        self.min_primary = self.min_primary.min(primary);
        self.max_primary = self.max_primary.max(primary);
    }
}

/// Scope key for per-variable stats: procedure index, or `GLOBAL_SCOPE` for
/// module-level slots.
pub(crate) const GLOBAL_SCOPE: usize = usize::MAX;

/// Mutable shadow-tracking state owned by the machine.
#[derive(Debug, Default)]
pub(crate) struct ShadowState {
    /// (scope, slot index) → error stats.
    pub vars: HashMap<(usize, usize), VarErr>,
    /// Recorded metric key → error stats (`prose_record*`).
    pub records: BTreeMap<String, VarErr>,
    pub cancellations: u64,
    pub worst_cancellation: Option<CancellationEvent>,
    pub nonfinite: Option<NonFiniteOrigin>,
}

impl ShadowState {
    /// Fold one store's divergence into the `(scope, slot)` stats.
    pub fn note_var(&mut self, key: (usize, usize), primary: f64, shadow: f64) {
        self.vars.entry(key).or_default().update(primary, shadow);
    }

    /// Fold one `prose_record*` sample into the per-key stats.
    pub fn note_record(&mut self, key: &str, primary: f64, shadow: f64) {
        match self.records.get_mut(key) {
            Some(e) => e.update(primary, shadow),
            None => {
                let mut e = VarErr::default();
                e.update(primary, shadow);
                self.records.insert(key.to_string(), e);
            }
        }
    }

    /// The cancellation detector for a runtime FP add/sub with primary
    /// operands `x`, `y`, primary result `prim` and shadow result `sh`.
    pub fn note_cancellation(
        &mut self,
        x: f64,
        y: f64,
        prim: f64,
        sh: f64,
        proc: impl FnOnce() -> String,
        line: u32,
    ) {
        let m = x.abs().max(y.abs());
        if m <= 0.0 || !prim.is_finite() {
            return;
        }
        // Exponent drop: result at least CANCEL_LOST_BITS bits below the
        // larger operand.
        if prim.abs() >= m * CANCEL_LOST_BITS.exp2().recip() {
            return;
        }
        let rel = shadow_rel(prim, sh);
        if rel < CANCEL_DIVERGENCE {
            // Benign cancellation: the shadow cancelled the same way.
            return;
        }
        let lost_bits = if prim == 0.0 {
            f64::from(f64::MANTISSA_DIGITS)
        } else {
            (m / prim.abs()).log2()
        };
        self.cancellations += 1;
        let worse = self
            .worst_cancellation
            .as_ref()
            .is_none_or(|w| rel > w.rel_err);
        if worse {
            self.worst_cancellation = Some(CancellationEvent {
                proc: proc(),
                line,
                lost_bits,
                rel_err: rel,
            });
        }
    }

    /// Record provenance for the first non-finite value.
    pub fn note_nonfinite(&mut self, op: &str, proc: &str, line: u32, injected: bool) {
        if self.nonfinite.is_none() {
            self.nonfinite = Some(NonFiniteOrigin {
                op: op.to_string(),
                proc: proc.to_string(),
                line,
                injected,
            });
        }
    }

    /// Build the report, resolving `(scope, slot)` keys to display names.
    pub fn report(&self, name_of: impl Fn(usize, usize) -> String) -> ShadowReport {
        let shadow_of = |name: String, e: &VarErr| VarShadow {
            name,
            max_rel: e.max_rel,
            final_rel: e.final_rel,
            stores: e.stores,
            min_primary: Some(e.min_primary),
            max_primary: Some(e.max_primary),
        };
        let by_worst = |a: &VarShadow, b: &VarShadow| {
            b.max_rel.total_cmp(&a.max_rel).then(a.name.cmp(&b.name))
        };
        let mut vars: Vec<VarShadow> = self
            .vars
            .iter()
            .map(|(&(scope, slot), e)| shadow_of(name_of(scope, slot), e))
            .collect();
        vars.sort_by(by_worst);
        let mut records: Vec<VarShadow> = self
            .records
            .iter()
            .map(|(k, e)| shadow_of(k.clone(), e))
            .collect();
        records.sort_by(by_worst);
        let worst_rel = vars.first().map(|v| v.max_rel).unwrap_or(0.0);
        ShadowReport {
            vars,
            records,
            worst_rel,
            cancellations: self.cancellations,
            worst_cancellation: self.worst_cancellation.clone(),
            nonfinite: self.nonfinite.clone(),
        }
    }
}

/// One flagged catastrophic-cancellation site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CancellationEvent {
    pub proc: String,
    pub line: u32,
    /// Bits of magnitude lost: log2(max(|a|,|b|) / |result|).
    pub lost_bits: f64,
    /// Relative divergence between primary and shadow result.
    pub rel_err: f64,
}

/// Where the first non-finite value came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NonFiniteOrigin {
    /// Coarse op family (`arith`, `math`, `store`, `elem-store`, `convert`,
    /// `reduce`) or `injected` for a `prose-faults` injection.
    pub op: String,
    pub proc: String,
    pub line: u32,
    /// True when the non-finite value was injected by the fault plan and is
    /// therefore *not* a genuine numerical event of the variant.
    pub injected: bool,
}

/// Per-variable shadow error, resolved to a display name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarShadow {
    /// `proc::var` for locals, `@global::var` for module-level slots.
    pub name: String,
    pub max_rel: f64,
    pub final_rel: f64,
    pub stores: u64,
    /// Smallest primary value observed at a store; `None` only in reports
    /// deserialized from journals written before primary-hull tracking.
    #[serde(default)]
    pub min_primary: Option<f64>,
    /// Largest primary value observed at a store (`None` = no data).
    #[serde(default)]
    pub max_primary: Option<f64>,
}

/// The shadow-execution report for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShadowReport {
    /// Per-variable stats, worst `max_rel` first.
    pub vars: Vec<VarShadow>,
    /// Per-recorded-metric-key stats (`prose_record*`), worst first.
    pub records: Vec<VarShadow>,
    /// Largest `max_rel` across all variables.
    pub worst_rel: f64,
    pub cancellations: u64,
    pub worst_cancellation: Option<CancellationEvent>,
    pub nonfinite: Option<NonFiniteOrigin>,
}

impl ShadowReport {
    /// The variable with the worst shadow error, if any FP store happened.
    pub fn worst_var(&self) -> Option<&VarShadow> {
        self.vars.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_uses_absolute_fallback_near_zero() {
        assert_eq!(shadow_rel(2.0, 1.0), 1.0);
        assert_eq!(shadow_rel(1e-9, 0.0), 1e-9);
        assert!((shadow_rel(1.1, 1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn var_err_tracks_max_and_final() {
        let mut e = VarErr::default();
        e.update(1.5, 1.0); // rel 0.5
        e.update(1.1, 1.0); // rel 0.1
        assert_eq!(e.max_rel, 0.5);
        assert!((e.final_rel - 0.1).abs() < 1e-12);
        assert_eq!(e.stores, 2);
        assert_eq!(e.min_primary, 1.1);
        assert_eq!(e.max_primary, 1.5);
    }

    #[test]
    fn var_shadow_defaults_primary_hull_for_old_journals() {
        // Journals written before primary-hull tracking omit the fields;
        // they must deserialize to the "no data" sentinels.
        let old = r#"{"name":"fun::t1","max_rel":1e-6,"final_rel":1e-7,"stores":3}"#;
        let v: VarShadow = serde_json::from_str(old).unwrap();
        assert_eq!(v.min_primary, None);
        assert_eq!(v.max_primary, None);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let r = ShadowReport {
            vars: vec![VarShadow {
                name: "fun::t1".into(),
                max_rel: 1e-6,
                final_rel: 1e-7,
                stores: 3,
                min_primary: Some(0.25),
                max_primary: Some(1.5),
            }],
            records: vec![],
            worst_rel: 1e-6,
            cancellations: 1,
            worst_cancellation: Some(CancellationEvent {
                proc: "fun".into(),
                line: 7,
                lost_bits: 24.0,
                rel_err: 1.0,
            }),
            nonfinite: None,
        };
        let s = serde_json::to_string(&r).unwrap();
        let back: ShadowReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }
}
