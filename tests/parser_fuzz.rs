//! Parser robustness: arbitrary input must never panic — it either parses
//! or returns a positioned error. (The lexer and parser are hand-written;
//! this is the cheap insurance that recursive descent didn't leave an
//! `unwrap` on a user-controlled path.)

use std::time::{Duration, Instant};

use proptest::prelude::*;

use cypher_core::Engine;
use cypher_graph::PropertyGraph;
use cypher_parser::{parse, parse_script, print_query, validate, Dialect, MAX_EXPR_DEPTH};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary printable soup.
    #[test]
    fn arbitrary_text_never_panics(input in "[ -~\\n\\t]{0,120}") {
        let _ = parse(&input);
        let _ = parse_script(&input);
    }

    /// Token-shaped soup: concatenations of plausible Cypher fragments are
    /// far more likely to reach deep parser states.
    #[test]
    fn fragment_soup_never_panics(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "MATCH", "OPTIONAL", "RETURN", "WITH", "WHERE", "CREATE", "MERGE",
                "ALL", "SAME", "DELETE", "DETACH", "SET", "REMOVE", "UNWIND",
                "FOREACH", "UNION", "ORDER", "BY", "SKIP", "LIMIT", "AS", "IN",
                "ON", "INDEX", "DROP", "CASE", "WHEN", "THEN", "ELSE", "END",
                "(n)", "(n:L)", "(:L {a: 1})", "-[:T]->", "<-[r:T]-", "-[*1..2]->",
                "--", "-->", "n", "n.x", "$p", "1", "2.5", "'s'", "[1, 2]",
                "{a: 1}", "+", "-", "*", "/", "=", "<>", "<", ">=", "+=", ",",
                "AND", "OR", "NOT", "XOR", "IS", "NULL", "true", "false",
                "count(*)", "collect(x)", "reduce(a = 0, x IN xs | a + x)",
                "[x IN xs WHERE x | x]", "all(x IN xs WHERE x)", "|", ";",
                "(", ")", "[", "]", "{", "}", ":", ".", "..",
            ]),
            0..24,
        )
    ) {
        let input = parts.join(" ");
        if let Ok(ast) = parse(&input) {
            // Whatever parses must also survive validation (no panics) and
            // pretty-printing, and the printed form must re-parse.
            let _ = validate(&ast, Dialect::Cypher9);
            let _ = validate(&ast, Dialect::Revised);
            let printed = cypher_parser::print_query(&ast);
            parse(&printed).unwrap_or_else(|e| {
                panic!("printed form of {input:?} failed to re-parse: {printed:?}: {e}")
            });
        }
    }

    /// Errors point inside the input (or carry no span for structural
    /// errors).
    #[test]
    fn error_spans_are_in_bounds(input in "[ -~]{0,80}") {
        if let Err(e) = parse(&input) {
            if let Some(span) = e.span {
                prop_assert!(span.start <= input.len() + 1, "span {span:?} vs len {}", input.len());
                prop_assert!(span.start <= span.end);
            }
            // Rendering the error against the source must not panic.
            let _ = e.render(&input);
        }
    }
}

/// One nesting shape: `build(n)` nests `n` levels deep, counted as
/// [`MAX_EXPR_DEPTH`] counts them.
struct Shape {
    name: &'static str,
    build: fn(usize) -> String,
}

fn nest(open: &str, leaf: &str, close: &str, n: usize) -> String {
    format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "parentheses",
        build: |n| format!("RETURN {}", nest("(", "1", ")", n)),
    },
    Shape {
        name: "lists",
        build: |n| format!("RETURN {}", nest("[", "", "]", n)),
    },
    Shape {
        name: "maps",
        build: |n| format!("RETURN {}", nest("{a: ", "{}", "}", n - 1)),
    },
    Shape {
        name: "function calls",
        build: |n| format!("RETURN {}", nest("abs(", "1", ")", n - 1)),
    },
    Shape {
        name: "CASE",
        build: |n| {
            format!(
                "RETURN {}",
                nest("CASE WHEN true THEN ", "1", " END", n - 1)
            )
        },
    },
    Shape {
        name: "NOT",
        build: |n| format!("RETURN {}true", "NOT ".repeat(n - 1)),
    },
    Shape {
        name: "unary minus",
        build: |n| format!("RETURN {}1", "- ".repeat(n - 1)),
    },
    Shape {
        name: "power",
        build: |n| format!("RETURN {}1", "1 ^ ".repeat(n - 1)),
    },
    Shape {
        name: "left-deep +",
        build: |n| format!("RETURN 1{}", " + 1".repeat(n - 1)),
    },
    Shape {
        name: "left-deep AND",
        build: |n| format!("RETURN true{}", " AND true".repeat(n - 1)),
    },
    Shape {
        name: "comparison chain",
        build: |n| format!("RETURN 0{}", " <= 0".repeat(n - 1)),
    },
    Shape {
        name: "IS NULL chain",
        build: |n| format!("RETURN 1{}", " IS NULL".repeat(n - 1)),
    },
    Shape {
        name: "property chain",
        build: |n| format!("WITH {{}} AS m RETURN m{}", ".a".repeat(n - 1)),
    },
    Shape {
        name: "index chain",
        build: |n| format!("WITH [] AS l RETURN l{}", "[0]".repeat(n - 1)),
    },
    Shape {
        name: "comprehension",
        build: |n| format!("RETURN {}", nest("[x IN ", "[]", " | x]", n - 1)),
    },
    Shape {
        name: "reduce",
        build: |n| {
            format!(
                "RETURN {}",
                nest("reduce(s = [], x IN ", "[]", " | s)", n - 1)
            )
        },
    },
    Shape {
        name: "pattern-predicate property maps",
        build: |n| {
            format!(
                "MATCH (a) RETURN {}",
                nest("(a {p: ", "1", "})-->()", n - 1)
            )
        },
    },
    Shape {
        name: "FOREACH",
        build: |n| nest("FOREACH (x IN [1] | ", "CREATE ()", ")", n - 1),
    },
];

/// Runs `f` on a thread with a stack of `bytes`.
fn on_stack(bytes: usize, f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(bytes)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("test thread panicked");
}

/// Every pass over a statement nested exactly [`MAX_EXPR_DEPTH`] deep
/// returns; one level deeper, and 100 000 levels deep, the parser refuses
/// it quickly with a positioned error.
#[test]
fn nesting_is_bounded_at_max_expr_depth() {
    // The 2 MiB stack that `std` gives session and worker threads by
    // default.
    on_stack(2 << 20, || {
        for shape in SHAPES {
            let text = (shape.build)(MAX_EXPR_DEPTH);
            let q = parse(&text)
                .unwrap_or_else(|e| panic!("{} at the cap must parse: {e}", shape.name));
            let _ = validate(&q, Dialect::Cypher9);
            let _ = cypher_analysis::analyze(&text, &q, Dialect::Cypher9);
            let printed = print_query(&q);
            parse(&printed).unwrap_or_else(|e| {
                panic!("{}: printed form must re-parse: {e}\n{printed}", shape.name)
            });
            drop(q.clone());
            let engine = Engine::legacy();
            let mut graph = PropertyGraph::new();
            engine
                .run(&mut graph, "CREATE ()-[:T]->()")
                .expect("seed graph");
            engine
                .run(&mut graph, &text)
                .unwrap_or_else(|e| panic!("{} at the cap must run: {e}", shape.name));
            engine
                .explain(&graph, &text)
                .unwrap_or_else(|e| panic!("{} at the cap must explain: {e}", shape.name));

            for n in [MAX_EXPR_DEPTH + 1, 100_000] {
                let text = (shape.build)(n);
                let started = Instant::now();
                let err = parse(&text).expect_err(shape.name);
                assert!(err.span.is_some(), "{} at {n}: {err}", shape.name);
                assert!(
                    started.elapsed() < Duration::from_secs(1),
                    "{} at {n} took {:?}",
                    shape.name,
                    started.elapsed()
                );
            }
        }
    });
}

/// Nested lists and nested function calls at the cap parse and run in
/// half of that: neither `Parser::call` nor `eval` keeps the locals of
/// all its branches in the frame every nesting level recurses through.
#[test]
fn list_and_call_nests_at_the_cap_run_on_a_1_mib_stack() {
    on_stack(1 << 20, || {
        for name in ["lists", "function calls"] {
            let Some(shape) = SHAPES.iter().find(|s| s.name == name) else {
                panic!("no shape {name}");
            };
            let text = (shape.build)(MAX_EXPR_DEPTH);
            parse(&text).unwrap_or_else(|e| panic!("{name} at the cap must parse: {e}"));
            Engine::legacy()
                .run(&mut PropertyGraph::new(), &text)
                .unwrap_or_else(|e| panic!("{name} at the cap must run: {e}"));
        }
    });
}

/// A `(` is read as a pattern first and re-read as an expression, so a
/// nest of node-pattern maps used to double the work per level.
#[test]
fn nested_pattern_maps_parse_in_linear_time() {
    let nested = |n: usize| format!("RETURN {}", nest("({a: ", "1", "})", n));
    let started = Instant::now();
    parse(&nested(20)).expect("20 levels parse");
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "took {:?}",
        started.elapsed()
    );
    let err = parse(&nested(MAX_EXPR_DEPTH)).expect_err("beyond the cap");
    assert!(err.span.is_some());
}
