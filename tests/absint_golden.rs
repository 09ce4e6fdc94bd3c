//! Golden reports for the abstract IR walker: on every bundled model, under
//! the declared precisions, the uniform-32 map and a mixed map lowering
//! every other atom, [`analyze_ir`] must reproduce a pinned [`BoundReport`] exactly — every bound, every
//! cancellation site, the `incomplete` flag and the abstract step count.
//!
//! The walker is a hot path of the search pre-pass, so it is optimized;
//! optimizations must not change what it computes, nor how much abstract
//! work it accounts for (`steps` drives the budget and the unroll
//! allowances, so a drift there silently moves verdicts). The digest is
//! FNV over the report's `Debug` text: `Debug` of an `f64` round-trips, so
//! equal text means equal bits.
//!
//! To re-pin after a deliberate change to the analysis, run
//! `PROSE_PRINT_GOLDENS=1 cargo test --test absint_golden -- --nocapture`
//! and paste the printed table.
//!
//! [`BoundReport`]: prose::analysis::absint::BoundReport

use prose::analysis::absint::BoundReport;
use prose::core::tuner::{ModelSpec, PerfScope};
use prose::faults::content_hash;
use prose::fortran::ast::FpPrecision;
use prose::fortran::PrecisionMap;
use prose::interp::{analyze_ir, IrTemplate, DEFAULT_MAX_STEPS};
use prose::models::{all_models, guardrail::guardrail_smoke, mpas, ModelSize};
use std::collections::HashMap;

/// A budget small enough that every model's walk aborts part-way.
const STARVED_STEPS: u64 = 12_000;

/// `(model, map, steps, incomplete, digest)`, pinned before the walker
/// stopped cloning procedure bodies and loop states.
const GOLDENS: &[(&str, &str, u64, bool, u64)] = &[
    ("mpas_a", "declared", 152745, false, 0xf2c71c75182e333e),
    (
        "mpas_a",
        "declared@starved",
        12001,
        true,
        0xfab9bc669f9f6e90,
    ),
    ("mpas_a", "uniform32", 152745, false, 0x288bb43752e7a523),
    (
        "mpas_a",
        "uniform32@starved",
        12001,
        true,
        0x5aa9e9710280e172,
    ),
    ("mpas_a", "mixed", 207152, false, 0x833610c832a3e089),
    ("mpas_a", "mixed@starved", 12002, true, 0x78eeb414aef1bebb),
    ("adcirc", "declared", 580598, false, 0x8bf4f3b64fa7ca1d),
    (
        "adcirc",
        "declared@starved",
        12001,
        true,
        0x91dbb49fcf3898f2,
    ),
    ("adcirc", "uniform32", 580598, false, 0x2c8a9281680dd9d3),
    (
        "adcirc",
        "uniform32@starved",
        12001,
        true,
        0x358d6906ead1958e,
    ),
    ("adcirc", "mixed", 1129717, false, 0x442b50f39cddf94e),
    ("adcirc", "mixed@starved", 12001, true, 0x29c4bd3330013b43),
    ("mom6", "declared", 397451, false, 0x10cd1f18b0a0a626),
    ("mom6", "declared@starved", 12001, true, 0x22f9bad6efae47cb),
    ("mom6", "uniform32", 397451, false, 0x9cf83d93c6ba1bfa),
    ("mom6", "uniform32@starved", 12001, true, 0xc994126d4ca82e39),
    ("mom6", "mixed", 2000001, true, 0x50612866c57db9b6),
    ("mom6", "mixed@starved", 12001, true, 0xf8fd3ba7538c3ff6),
    ("funarc", "declared", 38744, false, 0xe86c27b9c0014dfe),
    (
        "funarc",
        "declared@starved",
        12001,
        true,
        0x2df8ccf829f7a31f,
    ),
    ("funarc", "uniform32", 38744, false, 0xdce7d48b7dce3514),
    (
        "funarc",
        "uniform32@starved",
        12001,
        true,
        0x555bfc5c5f5ddbf3,
    ),
    ("funarc", "mixed", 38744, false, 0x13286af56693966e),
    ("funarc", "mixed@starved", 12001, true, 0x3d75d95efbe62e98),
    (
        "guardrail_smoke",
        "declared",
        16798,
        false,
        0x834db6709a420a7f,
    ),
    (
        "guardrail_smoke",
        "declared@starved",
        12001,
        true,
        0x535a18267343a02c,
    ),
    (
        "guardrail_smoke",
        "uniform32",
        16798,
        false,
        0xeaf497db1ad0a395,
    ),
    (
        "guardrail_smoke",
        "uniform32@starved",
        12001,
        true,
        0xb7956e180db7631c,
    ),
    ("guardrail_smoke", "mixed", 16798, false, 0x44f635c95a3b1afc),
    (
        "guardrail_smoke",
        "mixed@starved",
        12001,
        true,
        0xe636de298284cae2,
    ),
    (
        "mpas_a@paper",
        "declared",
        758477,
        false,
        0x3193fa61a19de613,
    ),
    (
        "mpas_a@paper",
        "declared@starved",
        12001,
        true,
        0x283377e9c8feb2a8,
    ),
    (
        "mpas_a@paper",
        "uniform32",
        758477,
        false,
        0xaf1ba63187d7834b,
    ),
    (
        "mpas_a@paper",
        "uniform32@starved",
        12001,
        true,
        0x0f6f22228be35e49,
    ),
    ("mpas_a@paper", "mixed", 2000001, true, 0x6f7153062e08976d),
    (
        "mpas_a@paper",
        "mixed@starved",
        12001,
        true,
        0x62ec9bd8d46c3ec0,
    ),
];

/// Every bundled model: the four paper models plus the guardrail testbed at
/// test size, and MPAS-A at paper size (the benchmarked pre-pass).
fn models() -> Vec<(String, ModelSpec)> {
    let mut specs: Vec<_> = all_models(ModelSize::Small)
        .into_iter()
        .chain([guardrail_smoke(ModelSize::Small)])
        .map(|s| (s.name.clone(), s))
        .collect();
    let paper = mpas::mpas_a(ModelSize::Paper);
    specs.push((format!("{}@paper", paper.name), paper));
    specs
}

/// `(model, map, report)` for every model × map × budget.
fn reports() -> Vec<(String, String, BoundReport)> {
    let mut out = Vec::new();
    for (name, spec) in models() {
        let model = spec.load().unwrap();
        let task = model.task(PerfScope::WholeModel, 7).unwrap();
        let template =
            IrTemplate::new(&task.program, &task.index, task.cost.inline_max_stmts).unwrap();
        let maps = [
            ("declared", PrecisionMap::declared(&task.index)),
            (
                "uniform32",
                PrecisionMap::uniform(&task.index, &task.index.atoms(), FpPrecision::Single),
            ),
            // Every other atom lowered: mixed precisions and conversions.
            (
                "mixed",
                PrecisionMap::uniform(
                    &task.index,
                    &task
                        .index
                        .atoms()
                        .into_iter()
                        .step_by(2)
                        .collect::<Vec<_>>(),
                    FpPrecision::Single,
                ),
            ),
        ];
        for (map_name, map) in maps {
            let ir = template.instantiate(&map, &[], &HashMap::new()).unwrap();
            out.push((
                name.clone(),
                map_name.to_string(),
                analyze_ir(&ir, DEFAULT_MAX_STEPS),
            ));
            // A starved budget exercises the budget-abort path mid-walk.
            out.push((
                name.clone(),
                format!("{map_name}@starved"),
                analyze_ir(&ir, STARVED_STEPS),
            ));
        }
    }
    out
}

#[test]
fn walker_reports_match_the_pinned_goldens() {
    let print = std::env::var_os("PROSE_PRINT_GOLDENS").is_some();
    let reports = reports();
    for (name, map, rep) in &reports {
        let digest = content_hash(format!("{rep:?}").as_bytes());
        if print {
            println!(
                "    ({name:?}, {map:?}, {}, {}, {digest:#018x}),",
                rep.steps, rep.incomplete
            );
            continue;
        }
        let golden = GOLDENS
            .iter()
            .find(|g| g.0 == name && g.1 == map)
            .unwrap_or_else(|| panic!("no golden for {name} / {map}"));
        assert_eq!(rep.steps, golden.2, "{name} / {map}: abstract steps");
        assert_eq!(rep.incomplete, golden.3, "{name} / {map}: incomplete");
        assert_eq!(digest, golden.4, "{name} / {map}: report digest");
    }
    if !print {
        assert_eq!(reports.len(), GOLDENS.len(), "every golden is checked");
    }
}
