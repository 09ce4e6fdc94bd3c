//! Scalar arithmetic shared by both executors: the operator semantics the
//! compiled executor ([`crate::exec`]) and the tree-walking oracle
//! ([`crate::oracle`]) must agree on bit for bit.

use crate::cost::OpClass;
use crate::value::Num;
use prose_fortran::ast::BinOp;

pub(crate) fn op_class(op: BinOp) -> OpClass {
    match op {
        BinOp::Div => OpClass::Div,
        BinOp::Pow => OpClass::Pow,
        _ => OpClass::Basic,
    }
}

pub(crate) fn compare(op: BinOp, x: f64, y: f64) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!(),
    }
}

pub(crate) fn apply_f64(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Pow => {
            if y == y.trunc() && y.abs() <= 64.0 {
                x.powi(y as i32)
            } else {
                x.powf(y)
            }
        }
        _ => unreachable!(),
    }
}

pub(crate) fn apply_f32(op: BinOp, x: f32, y: f32) -> f32 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Pow => {
            if y == y.trunc() && y.abs() <= 64.0 {
                x.powi(y as i32)
            } else {
                x.powf(y)
            }
        }
        _ => unreachable!(),
    }
}

/// `x ** n` for integers (Fortran semantics: negative exponents floor to 0
/// except for |base| == 1).
pub(crate) fn int_pow(x: i64, n: i64) -> i64 {
    if n >= 0 {
        let mut r: i64 = 1;
        for _ in 0..n.min(63) {
            r = r.wrapping_mul(x);
        }
        r
    } else {
        match x {
            1 => 1,
            -1 => {
                if n % 2 == 0 {
                    1
                } else {
                    -1
                }
            }
            _ => 0,
        }
    }
}

/// Integer binary arithmetic (`op_int`-charged by the caller). `None` for
/// a division by zero.
pub(crate) fn int_arith(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            x / y
        }
        BinOp::Pow => int_pow(x, y),
        _ => unreachable!(),
    })
}

/// `print` formatting of one item.
pub(crate) fn format_num(v: &Num) -> String {
    match v {
        Num::Int(i) => i.to_string(),
        Num::Lit(x) => format!("{x}"),
        Num::Fp(f) => format!("{}", f.as_f64()),
        Num::Bool(b) => if *b { "T" } else { "F" }.to_string(),
        Num::Str(s) => s.to_string(),
    }
}
