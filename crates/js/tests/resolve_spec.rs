//! Executable specification of the subset's one scope rule.
//!
//! The rule: a function's parameters and every `var` anywhere in its body
//! are that function's locals from its first statement on; every other
//! name, and every name at the top level of a script or handler, is global.
//! The parser binds each name once (`Binding`), and both the interpreter
//! and the effect analysis read that binding. Property tests hold the
//! bindings to a brute-force reading of the rule, and the analysis to what
//! the interpreter does with them, over generated scripts and handlers
//! with reads before `var`, `var` in branches not taken, `for`-init `var`,
//! parameters that shadow globals and nested declarations.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

use ajax_js::ast::{AssignTarget, Binding, Expr, FunctionDecl, Stmt};
use ajax_js::{
    parse_program, EffectAnalysis, EffectSummary, Interpreter, InvocationGraph, NullHost, Value,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(192);
    ProptestConfig::with_cases(cases)
}

/// SplitMix64: the test's only source of choices, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

// ---- generated programs ----------------------------------------------------

/// Every variable a generated program names. Each starts as a global
/// holding a sentinel string, so a read never fails and a write shows.
const NAMES: &[&str] = &["a", "b", "x", "y"];
/// Top-level functions, which the invocation graph knows.
const FUNCS: &[&str] = &["f0", "f1", "f2"];
/// Functions only ever declared inside another function's body. The graph
/// does not know them: a call to one is `calls_undefined`.
const NESTED: &[&str] = &["h0", "h1"];

fn gen_value(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => rng.pick(NAMES).to_string(),
        1 => format!("{} + 1", rng.pick(NAMES)),
        _ => rng.below(100).to_string(),
    }
}

fn gen_cond(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => "true".into(),
        1 => "false".into(),
        _ => rng.pick(NAMES).to_string(),
    }
}

/// One statement of a body `depth` levels from the bottom; `in_function`
/// allows `return` and nested declarations.
fn gen_stmt(rng: &mut Rng, depth: usize, in_function: bool, out: &mut String) {
    let arms = if depth == 0 { 5 } else { 10 };
    match rng.below(arms) {
        0 => out.push_str(&format!("var {} = {};", rng.pick(NAMES), gen_value(rng))),
        1 => out.push_str(&format!("var {};", rng.pick(NAMES))),
        2 => out.push_str(&format!("{} = {};", rng.pick(NAMES), gen_value(rng))),
        3 => match rng.below(3) {
            0 => out.push_str(&format!("{}++;", rng.pick(NAMES))),
            1 => out.push_str(&format!("{} += 2;", rng.pick(NAMES))),
            _ => out.push_str(&format!("{};", gen_value(rng))),
        },
        4 => {
            let callee = if rng.one_in(3) {
                rng.pick(NESTED)
            } else {
                rng.pick(FUNCS)
            };
            out.push_str(&format!("{callee}({});", gen_value(rng)));
        }
        5 | 6 => {
            out.push_str(&format!("if ({}) {{", gen_cond(rng)));
            gen_body(rng, depth - 1, in_function, out);
            out.push_str("} else {");
            gen_body(rng, depth - 1, in_function, out);
            out.push('}');
        }
        7 => {
            let i = rng.pick(NAMES);
            out.push_str(&format!("for (var {i} = 0; {i} < 2; {i}++) {{"));
            gen_body(rng, depth - 1, in_function, out);
            out.push('}');
        }
        8 => {
            out.push('{');
            gen_body(rng, depth - 1, in_function, out);
            out.push('}');
        }
        _ if in_function && rng.one_in(2) => {
            let name = rng.pick(NESTED);
            gen_function(rng, name, depth - 1, out);
        }
        _ if in_function => out.push_str(&format!("return {};", gen_value(rng))),
        _ => out.push(';'),
    }
}

fn gen_body(rng: &mut Rng, depth: usize, in_function: bool, out: &mut String) {
    for _ in 0..rng.below(4) {
        gen_stmt(rng, depth, in_function, out);
    }
}

/// `function name(params) { body }`; parameters come from [`NAMES`], so
/// they shadow globals, and may repeat.
fn gen_function(rng: &mut Rng, name: &str, depth: usize, out: &mut String) {
    let params: Vec<&str> = (0..rng.below(3)).map(|_| rng.pick(NAMES)).collect();
    out.push_str(&format!("function {name}({}) {{", params.join(", ")));
    gen_body(rng, depth, true, out);
    out.push('}');
}

/// A page script: the top-level functions, some top-level statements.
fn gen_script(rng: &mut Rng) -> String {
    let mut out = String::new();
    for f in FUNCS {
        gen_function(rng, f, 2, &mut out);
        out.push('\n');
    }
    gen_body(rng, 1, false, &mut out);
    out
}

/// A handler: a call, or statements at the top level.
fn gen_handler(rng: &mut Rng) -> String {
    let mut out = String::new();
    if rng.one_in(2) {
        out.push_str(&format!("{}({});", rng.pick(FUNCS), gen_value(rng)));
    } else {
        gen_body(rng, 2, false, &mut out);
    }
    out
}

// ---- the rule, by brute force ------------------------------------------------

/// Every binding in a statement list, with the name it binds, not looking
/// inside nested function declarations; those are collected in `nested`.
fn bindings<'a>(
    body: &'a [Stmt],
    out: &mut Vec<(&'a str, Binding)>,
    vars: &mut BTreeSet<&'a str>,
    nested: &mut Vec<&'a FunctionDecl>,
) {
    for stmt in body {
        match stmt {
            Stmt::VarDecl {
                name,
                binding,
                init,
                ..
            } => {
                out.push((name, *binding));
                vars.insert(name);
                init.iter().for_each(|e| expr_bindings(e, out));
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => expr_bindings(e, out),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                expr_bindings(cond, out);
                bindings(then_branch, out, vars, nested);
                bindings(else_branch, out, vars, nested);
            }
            Stmt::While { cond, body } => {
                expr_bindings(cond, out);
                bindings(body, out, vars, nested);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    bindings(std::slice::from_ref(init), out, vars, nested);
                }
                cond.iter()
                    .chain(update.iter())
                    .for_each(|e| expr_bindings(e, out));
                bindings(body, out, vars, nested);
            }
            Stmt::Block(body) => bindings(body, out, vars, nested),
            Stmt::Function(decl) => nested.push(decl),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Empty => {}
        }
    }
}

fn target_bindings<'a>(target: &'a AssignTarget, out: &mut Vec<(&'a str, Binding)>) {
    match target {
        AssignTarget::Ident { name, binding } => out.push((name, *binding)),
        AssignTarget::Member { object, .. } => expr_bindings(object, out),
        AssignTarget::Index { object, index } => {
            expr_bindings(object, out);
            expr_bindings(index, out);
        }
    }
}

fn expr_bindings<'a>(expr: &'a Expr, out: &mut Vec<(&'a str, Binding)>) {
    match expr {
        Expr::Ident { name, binding, .. } => out.push((name, *binding)),
        Expr::Assign { target, value, .. } => {
            target_bindings(target, out);
            expr_bindings(value, out);
        }
        Expr::PostIncDec { target, .. } => target_bindings(target, out),
        Expr::ArrayLit(items) | Expr::Call { args: items, .. } | Expr::New { args: items, .. } => {
            items.iter().for_each(|e| expr_bindings(e, out))
        }
        Expr::ObjectLit(entries) => entries.iter().for_each(|(_, e)| expr_bindings(e, out)),
        Expr::MethodCall { object, args, .. } => {
            expr_bindings(object, out);
            args.iter().for_each(|e| expr_bindings(e, out));
        }
        Expr::Index {
            object: a,
            index: b,
        }
        | Expr::Binary { lhs: a, rhs: b, .. }
        | Expr::And(a, b)
        | Expr::Or(a, b) => {
            expr_bindings(a, out);
            expr_bindings(b, out);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            expr_bindings(cond, out);
            expr_bindings(then_expr, out);
            expr_bindings(else_expr, out);
        }
        Expr::Unary { expr, .. } | Expr::Member { object: expr, .. } => expr_bindings(expr, out),
        Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Undefined => {}
    }
}

/// Checks one function against the rule, then its nested declarations.
fn check_function(decl: &FunctionDecl) -> Result<(), TestCaseError> {
    let (mut seen, mut vars, mut nested) = (Vec::new(), BTreeSet::new(), Vec::new());
    bindings(&decl.body, &mut seen, &mut vars, &mut nested);
    let own: BTreeSet<&str> = decl.params.iter().map(String::as_str).chain(vars).collect();
    prop_assert_eq!(
        decl.frame,
        own.len() + decl.params.len() - distinct(&decl.params)
    );
    let mut slot_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (name, binding) in seen {
        match binding {
            Binding::Global => prop_assert!(!own.contains(name), "{name} in {}", decl.name),
            Binding::Local(slot) => {
                prop_assert!(own.contains(name), "{name} in {}", decl.name);
                prop_assert!(slot < decl.frame);
                prop_assert_eq!(*slot_of.entry(name).or_insert(slot), slot, "{}", name);
            }
        }
    }
    // Distinct names, distinct slots; a parameter at its last position.
    let slots: BTreeSet<usize> = slot_of.values().copied().collect();
    prop_assert_eq!(slots.len(), slot_of.len());
    for (name, slot) in &slot_of {
        match decl.params.iter().rposition(|p| p == name) {
            Some(position) => prop_assert_eq!(*slot, position),
            None => prop_assert!(*slot >= decl.params.len()),
        }
    }
    nested.into_iter().try_for_each(check_function)
}

fn distinct(params: &[String]) -> usize {
    params.iter().collect::<BTreeSet<_>>().len()
}

/// Checks a whole program: the top level binds everything globally.
fn check_program(src: &str) -> Result<(), TestCaseError> {
    let program = parse_program(src).map_err(|e| TestCaseError::fail(format!("{e}: {src}")))?;
    let (mut seen, mut vars, mut functions) = (Vec::new(), BTreeSet::new(), Vec::new());
    bindings(&program.body, &mut seen, &mut vars, &mut functions);
    for (name, binding) in seen {
        prop_assert_eq!(binding, Binding::Global, "top-level {}", name);
    }
    functions.into_iter().try_for_each(check_function)
}

// ---- the analysis against execution --------------------------------------

/// Loads `script` over the sentinel globals, fires `handler`, and returns
/// the summary the analysis gives the handler with the globals the run
/// changed.
fn run(script: &str, handler: &str) -> (EffectSummary, BTreeSet<String>) {
    let graph = InvocationGraph::from_source(script).expect("generated script parses");
    let summary = EffectAnalysis::of(&graph)
        .snippet_summary_src(handler)
        .expect("generated handler parses");
    let mut interp = Interpreter::with_fuel(20_000);
    let setup: String = NAMES
        .iter()
        .map(|n| format!("var {n} = 'global {n}';"))
        .collect();
    interp
        .load_program(&setup, &mut NullHost)
        .expect("setup runs");
    // A script or handler may fail part-way (an undeclared callee, fuel,
    // call depth); whatever it wrote before that still counts.
    let _ = interp.load_program(script, &mut NullHost);
    // Compared as debug text: `NaN` is a value like any other here.
    let globals = |interp: &Interpreter| -> Vec<String> {
        NAMES
            .iter()
            .map(|n| format!("{:?}", interp.global(n)))
            .collect()
    };
    let before = globals(&interp);
    let _ = interp.eval(handler, &mut NullHost);
    let written = NAMES
        .iter()
        .zip(before.iter().zip(globals(&interp)))
        .filter(|(_, (before, after))| *before != after)
        .map(|(name, _)| name.to_string())
        .collect();
    (summary, written)
}

proptest! {
    #![proptest_config(cases())]

    /// Every name is bound as the rule says: local exactly when it is a
    /// parameter or a `var` of its own function (nested functions see only
    /// their own), one slot per name, parameters first.
    #[test]
    fn every_binding_is_the_brute_force_one(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        check_program(&gen_script(&mut rng))?;
        check_program(&gen_handler(&mut rng))?;
    }

    /// The globals a handler writes are in its summary's `writes_globals`
    /// (unless the summary is opaque or calls a function the graph does not
    /// know, which keeps it impure), and a handler the analysis calls pure
    /// changes no global.
    #[test]
    fn summaries_cover_what_execution_writes(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let script = gen_script(&mut rng);
        let handler = gen_handler(&mut rng);
        let (summary, written) = run(&script, &handler);
        if !summary.opaque && summary.calls_undefined.is_empty() {
            prop_assert!(
                written.is_subset(&summary.writes_globals),
                "wrote {written:?}, summary {:?}\n{script}\n{handler}",
                summary.writes_globals
            );
        }
        if summary.is_pure() {
            prop_assert!(written.is_empty(), "pure, wrote {written:?}\n{script}\n{handler}");
        }
    }
}

// ---- the three shapes on which the two used to disagree -------------------

/// The analysis names `x` as written exactly when running the handler
/// writes the global `x`.
fn assert_agrees_on_x(script: &str, handler: &str) {
    let (summary, written) = run(script, handler);
    assert_eq!(
        summary.writes_globals.contains("x"),
        written.contains("x"),
        "summary {:?}, wrote {written:?}",
        summary.writes_globals
    );
    assert_eq!(summary.is_pure(), written.is_empty());
}

#[test]
fn a_top_level_var_in_a_handler_is_a_global_write() {
    assert_agrees_on_x("", "var x = 1;");
    let (summary, written) = run("", "var x = 1;");
    assert!(written.contains("x") && !summary.is_pure());
}

#[test]
fn a_write_before_the_var_stays_local() {
    assert_agrees_on_x("function f() { x = 1; var x; }", "f()");
    let (summary, written) = run("function f() { x = 1; var x; }", "f()");
    assert!(written.is_empty() && summary.is_pure());
}

#[test]
fn a_var_in_a_branch_not_taken_is_still_local() {
    let script = "function g(c) { if (c) { var x = 2; } x = 3; }";
    assert_agrees_on_x(script, "g(false)");
    let (summary, written) = run(script, "g(false)");
    assert!(written.is_empty() && summary.is_pure());
}

#[test]
fn a_read_before_the_var_is_undefined_not_the_global() {
    let mut interp = Interpreter::new();
    let v = interp
        .eval(
            "var x = 'global'; function f() { var seen = x; var x = 1; return seen; } f()",
            &mut NullHost,
        )
        .unwrap();
    assert_eq!(v, Value::Undefined);
    assert_eq!(interp.global("x"), Some(&Value::str("global")));
}
