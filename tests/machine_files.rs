//! The shipped machine description files stay parseable and valid —
//! and the autotuner draws the right conclusions from them.

use hbsp::collectives::plan::Strategy;
use hbsp::collectives::tune;
use hbsp::core::topology;
use hbsp::core::TreeBuilder;

#[test]
fn campus_file_parses() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/machines/campus.hbsp"))
            .expect("campus.hbsp exists");
    let tree = topology::parse(&text).expect("valid machine");
    assert_eq!(tree.height(), 2);
    assert_eq!(tree.num_procs(), 8);
    assert_eq!(tree.leaf(tree.fastest_proc()).name(), "cs-ultra2");
    tree.validate().unwrap();
}

#[test]
fn grid3_file_parses() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/machines/grid3.hbsp"))
        .expect("grid3.hbsp exists");
    let tree = topology::parse(&text).expect("valid machine");
    assert_eq!(tree.height(), 3);
    assert_eq!(tree.num_procs(), 9);
    assert_eq!(tree.machines_on_level(2).unwrap(), 2, "two campuses");
    tree.validate().unwrap();
}

/// The tuner's machine-specific verdicts (the whole point of deriving
/// cost from the executable schedule): on the paper's campus machine a
/// mid-size broadcast should go hierarchical — confining traffic and
/// synchronization below the 60 000-cycle backbone — while on a
/// homogeneous flat machine hierarchy has nothing to offer and the
/// tuner must keep the flat plan.
#[test]
fn tuner_goes_hierarchical_on_campus_and_flat_on_flat() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/machines/campus.hbsp"))
            .expect("campus.hbsp exists");
    let campus = topology::parse(&text).expect("valid machine");
    assert_eq!(
        tune::best_strategy(&campus, 10_000).expect("rankable"),
        Strategy::Hierarchical,
        "campus backbone favours the hierarchical broadcast"
    );

    let flat = TreeBuilder::homogeneous(1.0, 2_000.0, 8).unwrap();
    assert_eq!(
        tune::best_strategy(&flat, 10_000).expect("rankable"),
        Strategy::Flat,
        "a homogeneous flat machine gains nothing from hierarchy"
    );
}

#[test]
fn files_round_trip_through_the_dsl() {
    for f in ["machines/campus.hbsp", "machines/grid3.hbsp"] {
        let text =
            std::fs::read_to_string(format!("{}/{}", env!("CARGO_MANIFEST_DIR"), f)).unwrap();
        let tree = topology::parse(&text).unwrap();
        let again = topology::parse(&topology::to_dsl(&tree)).unwrap();
        assert_eq!(tree.num_procs(), again.num_procs(), "{f}");
        assert_eq!(tree.height(), again.height(), "{f}");
    }
}

/// The shipped machine files satisfy every Table-1 invariant the linter
/// enforces (not just the fail-fast subset `validate()` checks).
#[test]
fn shipped_machines_lint_clean() {
    for f in ["machines/campus.hbsp", "machines/grid3.hbsp"] {
        let text =
            std::fs::read_to_string(format!("{}/{}", env!("CARGO_MANIFEST_DIR"), f)).unwrap();
        let parsed = topology::parse_unvalidated(&text).unwrap();
        let diags = hbsp::check::lint_with_spans(&parsed);
        assert!(diags.is_empty(), "{f}: {diags:?}");
    }
}

/// Each broken fixture trips exactly the Violation variant it was
/// written to demonstrate, with a source span where the violation is
/// anchored to a node.
#[test]
fn broken_fixtures_name_their_defect() {
    use hbsp::check::Violation;
    use hbsp::core::ModelError;

    let lint = |f: &str| {
        let text = std::fs::read_to_string(format!(
            "{}/machines/broken/{}",
            env!("CARGO_MANIFEST_DIR"),
            f
        ))
        .unwrap();
        let parsed = topology::parse_unvalidated(&text).unwrap();
        hbsp::check::lint_with_spans(&parsed)
    };

    let d = lint("bad_c_sum.hbsp");
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(
        matches!(d[0].violation, Violation::Machine(ModelError::FractionSum { sum, expected, .. })
            if (sum - 0.9).abs() < 1e-9 && expected == 1.0),
        "{d:?}"
    );
    assert!(d[0].span.is_some(), "fraction sums anchor to the cluster");

    let d = lint("non_unit_r.hbsp");
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(
        matches!(d[0].violation, Violation::Machine(ModelError::NoUnitR { min_r }) if min_r == 2.0),
        "{d:?}"
    );

    let d = lint("wrong_coordinator.hbsp");
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(
        matches!(
            d[0].violation,
            Violation::CoordinatorNotFastest { rep_r, min_r, .. } if rep_r == 3.0 && min_r == 1.0
        ),
        "{d:?}"
    );

    let d = lint("word_cost_overflow.hbsp");
    assert_eq!(d.len(), 2, "{d:?}");
    for (diag, r) in d.iter().zip([1e10, 2e10]) {
        assert!(
            matches!(diag.violation, Violation::Machine(ModelError::WordCostOverflow { r: got, g, .. })
                if got == r && g == 1e300),
            "{d:?}"
        );
        assert!(diag.span.is_some(), "an overflow anchors to the processor");
    }

    let d = lint("bad_k.hbsp");
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(
        d[0].violation,
        Violation::Machine(ModelError::HeightMismatch {
            declared: 2,
            actual: 1
        })
    );
}

/// The `undegradable.hbsp` fixture is the odd one out in `broken/`: it
/// is *lint-clean* (a fully valid machine) but cannot survive every
/// failure — its `solo` cluster has one processor, so that death
/// empties the cluster and degradation must refuse with a typed error
/// naming it.
#[test]
fn undegradable_fixture_is_valid_but_refuses_degradation() {
    use hbsp::core::DegradeError;
    use hbsp::prelude::*;

    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/machines/broken/undegradable.hbsp"
    ))
    .unwrap();
    let parsed = topology::parse_unvalidated(&text).unwrap();
    let diags = hbsp::check::lint_with_spans(&parsed);
    assert!(
        diags.is_empty(),
        "the fixture itself is lint-clean: {diags:?}"
    );
    let tree = topology::parse(&text).unwrap();

    // Losing `solo`'s only processor is unrecoverable...
    assert_eq!(
        tree.degrade(&[ProcId(2)]).unwrap_err(),
        DegradeError::ClusterEmptied {
            name: "solo".to_string()
        }
    );
    // ...while any death inside the two-processor `lan` degrades fine.
    let d = tree.degrade(&[ProcId(0)]).unwrap();
    d.tree.validate().unwrap();
    assert_eq!(d.tree.num_procs(), 2);
}

/// `topology::parse` (the validating entry point) refuses the same
/// files the linter flags, so nothing downstream ever sees them.
#[test]
fn validating_parse_rejects_broken_fixtures() {
    for f in ["bad_c_sum.hbsp", "bad_k.hbsp", "word_cost_overflow.hbsp"] {
        let text = std::fs::read_to_string(format!(
            "{}/machines/broken/{}",
            env!("CARGO_MANIFEST_DIR"),
            f
        ))
        .unwrap();
        assert!(topology::parse(&text).is_err(), "{f} must not parse");
    }
}
