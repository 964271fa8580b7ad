//! Property tests for the JS substrate: totality of the pipeline and
//! semantic invariants checked against a reference evaluator.

use ajax_js::{parse_program, Interpreter, NullHost, Value};
use proptest::prelude::*;

fn eval(src: &str) -> Result<Value, ajax_js::JsError> {
    let mut interp = Interpreter::with_fuel(200_000);
    interp.eval(src, &mut NullHost)
}

/// A tiny generator of arithmetic expressions with a reference evaluation.
#[derive(Debug, Clone)]
enum Arith {
    Num(i32),
    Add(Box<Arith>, Box<Arith>),
    Sub(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
}

impl Arith {
    fn to_js(&self) -> String {
        match self {
            Arith::Num(n) => {
                if *n < 0 {
                    format!("({n})")
                } else {
                    n.to_string()
                }
            }
            Arith::Add(a, b) => format!("({} + {})", a.to_js(), b.to_js()),
            Arith::Sub(a, b) => format!("({} - {})", a.to_js(), b.to_js()),
            Arith::Mul(a, b) => format!("({} * {})", a.to_js(), b.to_js()),
        }
    }

    fn reference(&self) -> f64 {
        match self {
            Arith::Num(n) => f64::from(*n),
            Arith::Add(a, b) => a.reference() + b.reference(),
            Arith::Sub(a, b) => a.reference() - b.reference(),
            Arith::Mul(a, b) => a.reference() * b.reference(),
        }
    }
}

fn arith() -> impl Strategy<Value = Arith> {
    let leaf = (-1000i32..1000).prop_map(Arith::Num);
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Arith::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Arith::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Arith::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    /// Lexer + parser never panic on arbitrary input.
    #[test]
    fn parser_is_total(src in "\\PC*") {
        let _ = parse_program(&src);
    }

    /// Same, biased toward JS-shaped input.
    #[test]
    fn parser_total_on_jsish(src in "(var |function |if|\\(|\\)|\\{|\\}|;|=|\\+|[a-z]{1,4}|[0-9]{1,3}|'[a-z]*'| ){0,40}") {
        let _ = parse_program(&src);
    }

    /// The interpreter never panics even when parsing succeeds on weird
    /// programs; it returns a value or an error within its fuel budget.
    #[test]
    fn interpreter_is_total_on_jsish(src in "(var a=1;|a\\+\\+;|a=a\\+2;|if\\(a\\)a=0;|while\\(a>9\\)a=0;|f\\(\\);|function f\\(\\)\\{a=5;\\}){0,12}") {
        let _ = eval(&src);
    }

    /// Arithmetic agrees with a reference evaluator.
    #[test]
    fn arithmetic_matches_reference(expr in arith()) {
        let result = eval(&expr.to_js()).expect("arithmetic evaluates");
        let expected = expr.reference();
        match result {
            Value::Num(n) => prop_assert!(
                (n - expected).abs() < 1e-6,
                "{} => {n} != {expected}", expr.to_js()
            ),
            other => prop_assert!(false, "non-numeric result {other:?}"),
        }
    }

    /// String concatenation length is additive for plain ASCII strings.
    #[test]
    fn concat_lengths(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        let result = eval(&format!("('{a}' + '{b}').length")).unwrap();
        prop_assert_eq!(result, Value::Num((a.len() + b.len()) as f64));
    }

    /// Loops compute sums correctly (Gauss check).
    #[test]
    fn loop_sum(n in 0u32..200) {
        let result = eval(&format!(
            "var s = 0; for (var i = 1; i <= {n}; i++) s += i; s"
        )).unwrap();
        prop_assert_eq!(result, Value::Num(f64::from(n * (n + 1) / 2)));
    }

    /// Snapshot/restore is an exact inverse for arbitrary globals.
    #[test]
    fn snapshot_restore_roundtrip(values in proptest::collection::vec(-100i32..100, 1..6)) {
        let mut interp = Interpreter::new();
        for (i, v) in values.iter().enumerate() {
            interp.eval(&format!("var g{i} = {v};"), &mut NullHost).unwrap();
        }
        let snap = interp.snapshot_globals();
        for i in 0..values.len() {
            interp.eval(&format!("g{i} = g{i} * 3 + 1;"), &mut NullHost).unwrap();
        }
        interp.restore_globals(&snap);
        for (i, v) in values.iter().enumerate() {
            let got = interp.eval(&format!("g{i}"), &mut NullHost).unwrap();
            prop_assert_eq!(got, Value::Num(f64::from(*v)));
        }
    }

    /// Fuel always terminates unbounded loops with the right error kind.
    #[test]
    fn fuel_terminates(fuel in 100u64..5_000) {
        let mut interp = Interpreter::with_fuel(fuel);
        let err = interp
            .eval("while (true) { var x = 1; }", &mut NullHost)
            .unwrap_err();
        prop_assert_eq!(err.kind, ajax_js::JsErrorKind::FuelExhausted);
        prop_assert!(interp.steps() <= fuel + 2);
    }
}

/// `f(n)` recursing from the bottom of `k` nested parentheses:
/// `return (1 + (1 + … f(n - 1) …));`.
fn recursion_under_parens(k: usize) -> String {
    format!(
        "function f(n) {{ if (n < 1) {{ return 0; }} return {}f(n - 1){}; }}",
        "(1 + ".repeat(k),
        ")".repeat(k)
    )
}

/// Call depth and parse nesting are each bounded, and so is their product:
/// on a thread with the 2 MiB stack of a crawl worker or a test, every
/// nesting the parser accepts recurses into a typed error, never into the
/// guard page.
#[test]
fn nested_recursion_is_a_typed_error_not_a_stack_overflow() {
    let outcomes = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            (0..ajax_js::MAX_NESTING)
                .map(|k| {
                    let mut interp = Interpreter::new();
                    interp.load_program(&recursion_under_parens(k), &mut NullHost)?;
                    Ok(interp.eval("f(200)", &mut NullHost).err())
                })
                .collect::<Vec<Result<_, ajax_js::JsError>>>()
        })
        .expect("spawn")
        .join()
        .expect("no panic");
    for (k, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(err) => {
                let err = err.expect("200 calls are deeper than the call depth");
                assert_eq!(
                    err.kind,
                    ajax_js::JsErrorKind::StackOverflow,
                    "k = {k}: {err}"
                );
            }
            // The function and its statements take a few levels of their own.
            Err(e) => assert!(
                e.message.contains("nesting deeper") && k > ajax_js::MAX_NESTING - 8,
                "k = {k}: {e}"
            ),
        }
    }
    // Plain recursion still stops at the call depth.
    let err = eval("function f(n) { return f(n + 1); } f(0)").unwrap_err();
    assert!(err.message.contains("call depth exceeded 100"), "{err}");
}
