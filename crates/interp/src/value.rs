//! Runtime values with explicit precision.
//!
//! Scalars track which precision they were computed in; real literals are
//! *kind-generic* ([`Num::Lit`]) and adopt the precision of whatever they
//! combine with, matching the kind-parameterized constants
//! (`1.0_wp`, `-fdefault-real-8` promotion) real model builds use — a
//! literal never forces a conversion.

use crate::ir::STy;
use prose_fortran::ast::FpPrecision;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A floating-point scalar carrying its precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fp {
    F32(f32),
    F64(f64),
}

impl Fp {
    pub fn precision(self) -> FpPrecision {
        match self {
            Fp::F32(_) => FpPrecision::Single,
            Fp::F64(_) => FpPrecision::Double,
        }
    }

    /// Widen/narrow to f64 for inspection (not a semantic conversion).
    pub fn as_f64(self) -> f64 {
        match self {
            Fp::F32(v) => v as f64,
            Fp::F64(v) => v,
        }
    }

    pub fn is_finite(self) -> bool {
        match self {
            Fp::F32(v) => v.is_finite(),
            Fp::F64(v) => v.is_finite(),
        }
    }

    pub fn is_nan(self) -> bool {
        match self {
            Fp::F32(v) => v.is_nan(),
            Fp::F64(v) => v.is_nan(),
        }
    }

    /// Convert to the given precision (the *semantic* conversion the cost
    /// model charges for when it crosses precisions).
    pub fn to_precision(self, p: FpPrecision) -> Fp {
        match (self, p) {
            (Fp::F32(v), FpPrecision::Double) => Fp::F64(v as f64),
            (Fp::F64(v), FpPrecision::Single) => Fp::F32(v as f32),
            (x, _) => x,
        }
    }

    pub fn zero(p: FpPrecision) -> Fp {
        match p {
            FpPrecision::Single => Fp::F32(0.0),
            FpPrecision::Double => Fp::F64(0.0),
        }
    }

    /// Build from an f64 value at the given precision.
    pub fn from_f64(v: f64, p: FpPrecision) -> Fp {
        match p {
            FpPrecision::Single => Fp::F32(v as f32),
            FpPrecision::Double => Fp::F64(v),
        }
    }
}

/// A numeric (or other) runtime value.
#[derive(Debug, Clone)]
pub enum Num {
    Int(i64),
    /// Kind-generic real literal (or pure-literal arithmetic result).
    Lit(f64),
    Fp(Fp),
    Bool(bool),
    /// Interned: shares the lowered IR's `Arc<str>` literals.
    Str(Arc<str>),
}

impl Num {
    /// Interpret as f64 for recording/metrics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Num::Int(v) => Some(*v as f64),
            Num::Lit(v) => Some(*v),
            Num::Fp(f) => Some(f.as_f64()),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Num::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Num::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The precision this value would contribute to an operation, if any.
    /// Literals and integers are kind-generic.
    pub fn fp_precision(&self) -> Option<FpPrecision> {
        match self {
            Num::Fp(f) => Some(f.precision()),
            _ => None,
        }
    }
}

/// Array payload: homogeneous, precision-tagged storage.
#[derive(Debug, Clone)]
pub enum ArrayData {
    F32(Vec<f32>),
    F64(Vec<f64>),
    Int(Vec<i64>),
    Bool(Vec<bool>),
}

impl ArrayData {
    pub fn len(&self) -> usize {
        match self {
            ArrayData::F32(v) => v.len(),
            ArrayData::F64(v) => v.len(),
            ArrayData::Int(v) => v.len(),
            ArrayData::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn fp_precision(&self) -> Option<FpPrecision> {
        match self {
            ArrayData::F32(_) => Some(FpPrecision::Single),
            ArrayData::F64(_) => Some(FpPrecision::Double),
            _ => None,
        }
    }

    /// The declared element type this storage holds.
    pub fn sty(&self) -> STy {
        match self {
            ArrayData::F32(_) => STy::Fp(FpPrecision::Single),
            ArrayData::F64(_) => STy::Fp(FpPrecision::Double),
            ArrayData::Int(_) => STy::Int,
            ArrayData::Bool(_) => STy::Bool,
        }
    }
}

/// A Fortran array: column-major storage with per-dimension bounds.
#[derive(Debug, Clone)]
pub struct ArrayVal {
    pub data: ArrayData,
    /// Inclusive (lower, upper) bounds per dimension.
    pub bounds: Vec<(i64, i64)>,
    /// fp64 shadow values, allocated only for FP arrays under shadow
    /// execution ([`crate::shadow`]); `None` in normal operation.
    pub shadow: Option<Vec<f64>>,
    /// Column-major stride of each dimension, cached at allocation.
    pub strides: Vec<usize>,
}

impl ArrayVal {
    pub fn new_fp(p: FpPrecision, bounds: Vec<(i64, i64)>) -> ArrayVal {
        let n = total_len(&bounds);
        let data = match p {
            FpPrecision::Single => ArrayData::F32(vec![0.0; n]),
            FpPrecision::Double => ArrayData::F64(vec![0.0; n]),
        };
        ArrayVal::with_data(data, bounds)
    }

    pub fn new_int(bounds: Vec<(i64, i64)>) -> ArrayVal {
        let n = total_len(&bounds);
        ArrayVal::with_data(ArrayData::Int(vec![0; n]), bounds)
    }

    pub fn new_bool(bounds: Vec<(i64, i64)>) -> ArrayVal {
        let n = total_len(&bounds);
        ArrayVal::with_data(ArrayData::Bool(vec![false; n]), bounds)
    }

    fn with_data(data: ArrayData, bounds: Vec<(i64, i64)>) -> ArrayVal {
        let mut strides = Vec::with_capacity(bounds.len());
        let mut stride: usize = 1;
        for (lo, hi) in &bounds {
            strides.push(stride);
            stride = stride.wrapping_mul((hi - lo + 1) as usize);
        }
        ArrayVal {
            data,
            bounds,
            shadow: None,
            strides,
        }
    }

    /// Allocate the fp64 shadow plane (shadow execution, FP arrays only).
    pub fn with_shadow(mut self) -> ArrayVal {
        if self.data.fp_precision().is_some() {
            self.shadow = Some(vec![0.0; self.data.len()]);
        }
        self
    }

    /// Shadow value at `off`, falling back to the primary value widened to
    /// f64 when no shadow plane exists.
    pub fn shadow_at(&self, off: usize) -> f64 {
        match &self.shadow {
            Some(s) => s[off],
            None => match &self.data {
                ArrayData::F32(v) => v[off] as f64,
                ArrayData::F64(v) => v[off],
                ArrayData::Int(v) => v[off] as f64,
                ArrayData::Bool(v) => f64::from(u8::from(v[off])),
            },
        }
    }

    /// Set the shadow value at `off` (no-op without a shadow plane).
    pub fn shadow_set(&mut self, off: usize, v: f64) {
        if let Some(s) = &mut self.shadow {
            s[off] = v;
        }
    }

    pub fn rank(&self) -> usize {
        self.bounds.len()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent of dimension `d` (1-based).
    pub fn extent(&self, d: usize) -> i64 {
        let (lo, hi) = self.bounds[d - 1];
        (hi - lo + 1).max(0)
    }

    /// Column-major linear offset for the given subscripts, or `None` when
    /// out of bounds.
    pub fn offset(&self, subs: &[i64]) -> Option<usize> {
        if subs.len() != self.bounds.len() {
            return None;
        }
        let mut off: usize = 0;
        let mut stride: usize = 1;
        for (s, (lo, hi)) in subs.iter().zip(&self.bounds) {
            if s < lo || s > hi {
                return None;
            }
            off += (s - lo) as usize * stride;
            stride *= (hi - lo + 1) as usize;
        }
        Some(off)
    }

    pub fn get_fp(&self, off: usize) -> Fp {
        match &self.data {
            ArrayData::F32(v) => Fp::F32(v[off]),
            ArrayData::F64(v) => Fp::F64(v[off]),
            _ => panic!("get_fp on non-FP array"),
        }
    }

    pub fn set_fp(&mut self, off: usize, value: Fp) {
        match &mut self.data {
            ArrayData::F32(v) => {
                v[off] = match value {
                    Fp::F32(x) => x,
                    Fp::F64(x) => x as f32,
                }
            }
            ArrayData::F64(v) => {
                v[off] = match value {
                    Fp::F64(x) => x,
                    Fp::F32(x) => x as f64,
                }
            }
            _ => panic!("set_fp on non-FP array"),
        }
    }

    /// Snapshot the contents widened to f64 (for recording).
    pub fn snapshot_f64(&self) -> Vec<f64> {
        match &self.data {
            ArrayData::F32(v) => v.iter().map(|x| *x as f64).collect(),
            ArrayData::F64(v) => v.clone(),
            ArrayData::Int(v) => v.iter().map(|x| *x as f64).collect(),
            ArrayData::Bool(v) => v.iter().map(|x| f64::from(u8::from(*x))).collect(),
        }
    }
}

pub fn total_len(bounds: &[(i64, i64)]) -> usize {
    bounds
        .iter()
        .map(|(lo, hi)| ((hi - lo + 1).max(0)) as usize)
        .product()
}

/// Shared, mutable array handle (Fortran argument association aliasing).
pub type ArrayRef = Rc<RefCell<ArrayVal>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_precision_and_conversion() {
        let x = Fp::F64(0.1);
        assert_eq!(x.precision(), FpPrecision::Double);
        let y = x.to_precision(FpPrecision::Single);
        assert_eq!(y.precision(), FpPrecision::Single);
        // Rounding really happened.
        assert_ne!(y.as_f64(), 0.1);
        assert_eq!(y.as_f64(), 0.1f32 as f64);
        // Idempotent when already at target precision.
        assert_eq!(y.to_precision(FpPrecision::Single), y);
    }

    #[test]
    fn fp_finite_checks() {
        assert!(Fp::F32(1.0).is_finite());
        assert!(!Fp::F64(f64::INFINITY).is_finite());
        assert!(Fp::F32(f32::NAN).is_nan());
    }

    #[test]
    fn array_offsets_are_column_major_with_bounds() {
        let a = ArrayVal::new_fp(FpPrecision::Double, vec![(1, 3), (0, 2)]);
        assert_eq!(a.len(), 9);
        assert_eq!(a.offset(&[1, 0]), Some(0));
        assert_eq!(a.offset(&[2, 0]), Some(1)); // first dim is contiguous
        assert_eq!(a.offset(&[1, 1]), Some(3));
        assert_eq!(a.offset(&[3, 2]), Some(8));
        assert_eq!(a.offset(&[4, 0]), None);
        assert_eq!(a.offset(&[0, 0]), None);
        assert_eq!(a.offset(&[1]), None);
    }

    #[test]
    fn array_set_get_rounds_to_storage_precision() {
        let mut a = ArrayVal::new_fp(FpPrecision::Single, vec![(1, 2)]);
        a.set_fp(0, Fp::F64(0.1));
        let got = a.get_fp(0);
        assert_eq!(got, Fp::F32(0.1f32));
    }

    #[test]
    fn extent_and_snapshot() {
        let mut a = ArrayVal::new_fp(FpPrecision::Double, vec![(0, 4)]);
        assert_eq!(a.extent(1), 5);
        a.set_fp(2, Fp::F64(7.0));
        assert_eq!(a.snapshot_f64(), vec![0.0, 0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn num_accessors() {
        assert_eq!(Num::Int(3).as_f64(), Some(3.0));
        assert_eq!(Num::Lit(2.5).as_f64(), Some(2.5));
        assert_eq!(Num::Fp(Fp::F32(1.5)).as_f64(), Some(1.5));
        assert_eq!(Num::Bool(true).as_bool(), Some(true));
        assert_eq!(Num::Int(3).as_int(), Some(3));
        assert_eq!(Num::Lit(1.0).fp_precision(), None);
        assert_eq!(
            Num::Fp(Fp::F64(1.0)).fp_precision(),
            Some(FpPrecision::Double)
        );
    }

    #[test]
    fn zero_length_dimension_yields_empty_array() {
        let a = ArrayVal::new_fp(FpPrecision::Double, vec![(1, 0)]);
        assert!(a.is_empty());
        assert_eq!(a.extent(1), 0);
    }
}
