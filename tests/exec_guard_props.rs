//! Property-based tests for the execution budgets ([`ExecLimits`]).
//!
//! Two invariants, checked over randomized workload sizes and budgets:
//!
//! * **abort is side-effect free** — a statement that trips any budget
//!   fails with `ResourceExhausted` and leaves the graph exactly as it
//!   was (the transaction layer rolls back to the statement boundary);
//! * **budgets are transparent** — with budgets generously above what the
//!   statement needs, the result is identical to running unguarded.

use proptest::prelude::*;

use cypher_core::{Dialect, Engine, EvalError, ExecLimits};
use cypher_graph::{isomorphic, PropertyGraph};

fn engine(limits: ExecLimits) -> Engine {
    Engine::builder(Dialect::Revised).limits(limits).build()
}

/// `n` nodes created via UNWIND — `n` rows materialized, `3n` write ops
/// (node + label + property each).
fn create_n(n: i64) -> String {
    format!("UNWIND range(1, {n}) AS i CREATE (:N {{v: i}})")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An over-budget write statement fails with `ResourceExhausted` and
    /// the graph is unchanged — whichever of the two budgets trips first.
    #[test]
    fn over_budget_write_fails_and_rolls_back(
        n in 2i64..40,
        rows_budget in any::<bool>(),
    ) {
        let limits = if rows_budget {
            // Strictly fewer rows than UNWIND materializes.
            ExecLimits { max_rows: Some((n - 1) as u64), ..ExecLimits::NONE }
        } else {
            // CREATE per row costs 3 write ops; allow less than the total.
            ExecLimits { max_writes: Some((n - 1) as u64), ..ExecLimits::NONE }
        };
        let mut g = PropertyGraph::new();
        let before = g.clone();
        let err = engine(limits).run(&mut g, &create_n(n)).unwrap_err();
        prop_assert!(
            matches!(err, EvalError::ResourceExhausted { .. }),
            "expected ResourceExhausted, got {err}"
        );
        prop_assert!(isomorphic(&g, &before), "budget abort left side effects");
        prop_assert_eq!(g.node_count(), 0);
    }

    /// With budgets comfortably above the statement's needs, guarded
    /// execution produces exactly the unguarded result.
    #[test]
    fn sufficient_budget_matches_unguarded(n in 1i64..40) {
        let generous = ExecLimits {
            max_rows: Some(10 * n as u64 + 100),
            max_writes: Some(10 * n as u64 + 100),
            timeout: Some(std::time::Duration::from_secs(60)),
        };
        let stmt = create_n(n);
        let mut unguarded = PropertyGraph::new();
        let free = engine(ExecLimits::NONE)
            .run(&mut unguarded, &stmt)
            .expect("unguarded run");
        let mut guarded = PropertyGraph::new();
        let bounded = engine(generous).run(&mut guarded, &stmt).expect("guarded run");
        prop_assert!(isomorphic(&unguarded, &guarded));
        prop_assert_eq!(free.stats, bounded.stats);
    }

    /// The row budget also bounds pure reads: a RETURN over more rows than
    /// allowed is refused (and trivially leaves the graph unchanged).
    #[test]
    fn row_budget_bounds_reads(n in 2i64..60) {
        let limits = ExecLimits {
            max_rows: Some((n - 1) as u64),
            ..ExecLimits::NONE
        };
        let mut g = PropertyGraph::new();
        let err = engine(limits)
            .run(&mut g, &format!("UNWIND range(1, {n}) AS i RETURN i"))
            .unwrap_err();
        prop_assert!(matches!(err, EvalError::ResourceExhausted { resource: "rows", .. }));
        prop_assert_eq!(g.node_count(), 0);
    }
}

/// A zero wall-clock budget trips on the first cooperative check, for any
/// statement shape.
#[test]
fn zero_timeout_always_trips() {
    let limits = ExecLimits {
        timeout: Some(std::time::Duration::ZERO),
        ..ExecLimits::NONE
    };
    for stmt in [
        "CREATE (:A)",
        "UNWIND range(1, 10) AS i RETURN i",
        "FOREACH (i IN range(1, 3) | CREATE (:B {v: i}))",
    ] {
        let mut g = PropertyGraph::new();
        let err = engine(limits).run(&mut g, stmt).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::ResourceExhausted {
                    resource: "time (ms)",
                    ..
                }
            ),
            "statement {stmt:?}: expected time budget trip, got {err}"
        );
        assert_eq!(g.node_count(), 0, "statement {stmt:?} left side effects");
    }
}

/// The write budget is checked between records in Cypher 9 and between
/// applied changes in the revised dialect, never between the items of one
/// record: a record whose third `SET` item is not storable fails with the
/// type error in both dialects, although its first two items already exceed
/// a one-write budget.
#[test]
fn write_budget_is_checked_after_the_record_in_both_dialects() {
    let limits = ExecLimits {
        max_writes: Some(1),
        ..ExecLimits::NONE
    };
    for dialect in [Dialect::Cypher9, Dialect::Revised] {
        let mut g = PropertyGraph::new();
        Engine::builder(dialect)
            .build()
            .run(&mut g, "CREATE (:A), (:A)")
            .expect("seed");
        let err = Engine::builder(dialect)
            .limits(limits)
            .build()
            .run(&mut g, "MATCH (n:A) SET n.a = 1, n.b = 2, n.c = {x: 1}")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "type error in SET: expected storable property value, got map",
            "{dialect:?}"
        );
    }
}
