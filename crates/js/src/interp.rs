//! The AST-walking interpreter.

use crate::ast::*;
use crate::error::{JsError, JsErrorKind};
use crate::host::{Host, HostCtx};
use crate::parser::parse_program;
use crate::value::Value;
use std::collections::HashMap;
use std::rc::Rc;

/// Default fuel (steps) budget — enough for any sane page script, small
/// enough to terminate `while(true){}` quickly.
pub(crate) const DEFAULT_FUEL: u64 = 2_000_000;
/// Default maximum call depth.
pub(crate) const DEFAULT_MAX_DEPTH: usize = 100;

/// Native stack the interpreter's own recursion may take. Call depth and
/// parse nesting are each bounded, but their product is not: a function
/// recursing from the bottom of a deeply nested expression would run into
/// the guard page. Of the 2 MiB a crawl worker or a test thread has, this
/// leaves 512 KiB to the embedder's frames above the interpreter and to
/// host calls below it; a debug build needs ~1.4 MiB of it to reach
/// [`DEFAULT_MAX_DEPTH`] in `function f(n) { return f(n + 1); }`.
const STACK_BUDGET: usize = 3 << 19;

/// The native stack a level of the interpreter's recursion holds while the
/// level below it runs, per build profile. Measured by recording the
/// address of a local at each level while nesting statements, expressions
/// (operators, arguments, members, indexes, assignment targets) and calls
/// in one another, taking the largest distance from each kind of level to
/// the next, and rounding up to 256 bytes. Re-measure when the evaluator
/// changes shape; the stack-depth test in `tests/proptests.rs` aborts when
/// these are too small.
struct LevelBytes {
    /// `exec_stmt`, through a nested statement's `exec_block`.
    stmt: usize,
    /// `eval_expr`, through a nested call's `dispatch_call`.
    expr: usize,
    /// `call_function`'s body loop.
    call: usize,
}

#[cfg(debug_assertions)]
const LEVEL_BYTES: LevelBytes = LevelBytes {
    stmt: 4096,
    expr: 9472,
    call: 1024,
};
#[cfg(not(debug_assertions))]
const LEVEL_BYTES: LevelBytes = LevelBytes {
    stmt: 768,
    expr: 1024,
    call: 512,
};

/// A snapshot of interpreter global state, used by the crawler's rollback.
#[derive(Debug, Clone)]
pub struct GlobalsSnapshot {
    globals: HashMap<String, Value>,
    functions: Rc<HashMap<String, Rc<FunctionDecl>>>,
}

/// Statement-level control flow.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// The embedder's host, threaded through execution behind one thin
/// pointer: each level of the recursion passes it on.
struct Run<'a> {
    host: &'a mut dyn Host,
}

/// The interpreter. One instance per loaded page; globals persist across
/// event invocations (exactly like a browser tab), and can be snapshot /
/// restored for crawl rollback.
pub struct Interpreter {
    /// Shared with the snapshots taken since it last changed: a page
    /// declares its functions at load, and rollback restores the table by
    /// pointer. Declaring one later copies the table first.
    functions: Rc<HashMap<String, Rc<FunctionDecl>>>,
    globals: HashMap<String, Value>,
    /// The frames of the active calls, end to end: a call's
    /// [`Binding::Local`] slot `n` is `slots[base + n]`.
    slots: Vec<Value>,
    /// Where the innermost call's frame starts in `slots`.
    base: usize,
    /// The functions of the active calls, one per frame in `slots`,
    /// innermost last.
    stack: Vec<Rc<FunctionDecl>>,
    steps: u64,
    fuel_limit: u64,
    max_depth: usize,
    /// Native stack the active recursion takes, by [`LEVEL_BYTES`].
    stack_bytes: usize,
    /// Parse results of the snippets [`Self::eval`] has seen, keyed by
    /// source: a crawler fires the same `onclick` text once per state.
    snippets: HashMap<String, Result<Rc<Program>, JsError>>,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with default limits.
    pub fn new() -> Self {
        Self::with_fuel(DEFAULT_FUEL)
    }

    /// Creates an interpreter with a custom fuel budget.
    pub fn with_fuel(fuel_limit: u64) -> Self {
        Self {
            functions: Rc::default(),
            globals: HashMap::new(),
            slots: Vec::new(),
            base: 0,
            stack: Vec::new(),
            steps: 0,
            fuel_limit,
            max_depth: DEFAULT_MAX_DEPTH,
            stack_bytes: 0,
            snippets: HashMap::new(),
        }
    }

    /// Total steps executed so far (the virtual CPU-cost measure).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// True when a user function `name` has been declared.
    pub fn has_function(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// Reads a global variable.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Snapshots globals + function table (crawler rollback support).
    /// Values are deep-cloned so later array/dict mutation cannot leak into
    /// the snapshot.
    pub fn snapshot_globals(&self) -> GlobalsSnapshot {
        GlobalsSnapshot {
            globals: self
                .globals
                .iter()
                .map(|(k, v)| (k.clone(), v.deep_clone()))
                .collect(),
            functions: Rc::clone(&self.functions),
        }
    }

    /// Restores a snapshot taken by [`Self::snapshot_globals`]. The snapshot
    /// itself stays pristine (values are deep-cloned out again); the map
    /// and the names both sides have are kept, not allocated again.
    pub fn restore_globals(&mut self, snapshot: &GlobalsSnapshot) {
        self.globals
            .retain(|name, _| snapshot.globals.contains_key(name));
        for (name, value) in &snapshot.globals {
            match self.globals.get_mut(name) {
                Some(slot) => *slot = value.deep_clone(),
                None => {
                    self.globals.insert(name.clone(), value.deep_clone());
                }
            }
        }
        self.functions = Rc::clone(&snapshot.functions);
    }

    /// Parses `src`, hoists its function declarations and executes its
    /// top-level statements. This is the page-load path (`<script>` bodies).
    pub fn load_program(&mut self, src: &str, host: &mut dyn Host) -> Result<(), JsError> {
        self.run_program(&parse_program(src)?, host)
    }

    /// [`Self::load_program`] for a script the caller has already parsed.
    pub fn run_program(&mut self, program: &Program, host: &mut dyn Host) -> Result<(), JsError> {
        let mut run = Run { host };
        // Hoist all function declarations (including nested-in-blocks ones at
        // the top level) before executing statements.
        self.hoist(&program.body);
        for stmt in &program.body {
            match self.exec_stmt(stmt, &mut run)? {
                Flow::Normal => {}
                // `return`/`break` at top level are tolerated no-ops.
                _ => break,
            }
        }
        Ok(())
    }

    /// Evaluates an event-handler snippet (e.g. the value of an `onclick`
    /// attribute) and returns the value of its final expression statement.
    /// Each distinct `src` is parsed once per interpreter; a snippet that
    /// does not parse fails with the same error every time.
    pub fn eval(&mut self, src: &str, host: &mut dyn Host) -> Result<Value, JsError> {
        let program = match self.snippets.get(src) {
            Some(parsed) => parsed.clone(),
            None => {
                let parsed = parse_program(src).map(Rc::new);
                self.snippets.insert(src.to_string(), parsed.clone());
                parsed
            }
        }?;
        let mut run = Run { host };
        self.hoist(&program.body);
        let mut last = Value::Undefined;
        for stmt in &program.body {
            if let Stmt::Expr(expr) = stmt {
                last = self.eval_expr(expr, &mut run)?;
            } else {
                match self.exec_stmt(stmt, &mut run)? {
                    Flow::Normal => last = Value::Undefined,
                    Flow::Return(v) => return Ok(v),
                    _ => break,
                }
            }
        }
        Ok(last)
    }

    /// Calls a declared user function by name.
    #[cfg(test)]
    pub(crate) fn call(
        &mut self,
        name: &str,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> Result<Value, JsError> {
        let mut run = Run { host };
        self.call_function(name, args, 0, &mut run)
    }

    fn hoist(&mut self, body: &[Stmt]) {
        for stmt in body {
            if let Stmt::Function(decl) = stmt {
                self.declare(decl);
            }
        }
    }

    /// Binds `decl.name` to `decl`. Binding it again (a hoisted declaration
    /// reached by execution) leaves a table shared with snapshots shared.
    fn declare(&mut self, decl: &Rc<FunctionDecl>) {
        let bound = self.functions.get(&decl.name);
        if !bound.is_some_and(|bound| Rc::ptr_eq(bound, decl)) {
            Rc::make_mut(&mut self.functions).insert(decl.name.clone(), Rc::clone(decl));
        }
    }

    fn burn(&mut self, line: u32) -> Result<(), JsError> {
        self.steps += 1;
        if self.steps > self.fuel_limit {
            Err(JsError::at(
                JsErrorKind::FuelExhausted,
                format!("script exceeded {} steps", self.fuel_limit),
                line,
            ))
        } else {
            Ok(())
        }
    }

    /// Runs one level of recursion that takes `bytes` of native stack, or
    /// fails with [`JsErrorKind::StackOverflow`] when that would exceed
    /// [`STACK_BUDGET`].
    fn nested<T>(
        &mut self,
        bytes: usize,
        level: impl FnOnce(&mut Self) -> Result<T, JsError>,
    ) -> Result<T, JsError> {
        if self.stack_bytes + bytes > STACK_BUDGET {
            return Err(JsError::new(
                JsErrorKind::StackOverflow,
                format!(
                    "nesting exceeded the interpreter's {} KiB stack budget",
                    STACK_BUDGET >> 10
                ),
            ));
        }
        self.stack_bytes += bytes;
        let result = level(self);
        self.stack_bytes -= bytes;
        result
    }

    // ---- statements ------------------------------------------------------

    fn exec_stmt(&mut self, stmt: &Stmt, run: &mut Run<'_>) -> Result<Flow, JsError> {
        self.nested(LEVEL_BYTES.stmt, |this| this.exec_stmt_level(stmt, run))
    }

    fn exec_stmt_level(&mut self, stmt: &Stmt, run: &mut Run<'_>) -> Result<Flow, JsError> {
        self.burn(0)?;
        match stmt {
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Function(decl) => {
                self.declare(decl);
                Ok(Flow::Normal)
            }
            Stmt::VarDecl {
                name,
                binding,
                init,
            } => {
                let value = match init {
                    Some(expr) => self.eval_expr(expr, run)?,
                    None => Value::Undefined,
                };
                self.write_var(name, *binding, value);
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                self.eval_expr(expr, run)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(body) => self.exec_block(body, run),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_expr(cond, run)?.truthy() {
                    self.exec_block(then_branch, run)
                } else {
                    self.exec_block(else_branch, run)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval_expr(cond, run)?.truthy() {
                    match self.exec_block(body, run)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.exec_stmt(init, run)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval_expr(cond, run)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(body, run)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(update) = update {
                        self.eval_expr(update, run)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(expr) => self.eval_expr(expr, run)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn exec_block(&mut self, body: &[Stmt], run: &mut Run<'_>) -> Result<Flow, JsError> {
        self.hoist(body);
        for stmt in body {
            match self.exec_stmt(stmt, run)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    // ---- variables -------------------------------------------------------

    // Where a name lives was decided when it was parsed (`crate::resolve`).

    fn read_var(
        &mut self,
        name: &str,
        binding: Binding,
        line: u32,
        run: &mut Run<'_>,
    ) -> Result<Value, JsError> {
        if let Binding::Local(slot) = binding {
            return Ok(self.slots[self.base + slot].clone());
        }
        if let Some(v) = self.globals.get(name) {
            return Ok(v.clone());
        }
        if let Some(v) = run.host.get_global(name) {
            return Ok(v);
        }
        Err(JsError::at(
            JsErrorKind::Reference,
            format!("{name} is not defined"),
            line,
        ))
    }

    /// Assigns a variable; `var x = v` and `var x` (`v` undefined) too.
    fn write_var(&mut self, name: &str, binding: Binding, value: Value) {
        match binding {
            Binding::Local(slot) => self.slots[self.base + slot] = value,
            // Assignment to an undeclared name creates a global (JS semantics).
            Binding::Global => {
                self.globals.insert(name.to_string(), value);
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn eval_expr(&mut self, expr: &Expr, run: &mut Run<'_>) -> Result<Value, JsError> {
        self.nested(LEVEL_BYTES.expr, |this| this.eval_expr_level(expr, run))
    }

    fn eval_expr_level(&mut self, expr: &Expr, run: &mut Run<'_>) -> Result<Value, JsError> {
        self.burn(0)?;
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(Rc::clone(s))),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Undefined => Ok(Value::Undefined),
            Expr::ArrayLit(items) => {
                let values = self.eval_args(items, run)?;
                Ok(Value::array(values))
            }
            Expr::ObjectLit(entries) => {
                let mut evaluated = Vec::with_capacity(entries.len());
                for (key, expr) in entries {
                    evaluated.push((key.clone(), self.eval_expr(expr, run)?));
                }
                Ok(Value::dict(evaluated))
            }
            Expr::Index { object, index } => {
                let obj = self.eval_expr(object, run)?;
                let idx = self.eval_expr(index, run)?;
                self.get_index(&obj, &idx)
            }
            Expr::Ident {
                name,
                binding,
                line,
            } => self.read_var(name, *binding, *line, run),
            Expr::Unary { op, expr } => {
                let v = self.eval_expr(expr, run)?;
                Ok(match op {
                    UnOp::Neg => Value::Num(-v.to_number()),
                    UnOp::Not => Value::Bool(!v.truthy()),
                    UnOp::Typeof => Value::str(v.type_of()),
                })
            }
            Expr::And(lhs, rhs) => {
                let l = self.eval_expr(lhs, run)?;
                if l.truthy() {
                    self.eval_expr(rhs, run)
                } else {
                    Ok(l)
                }
            }
            Expr::Or(lhs, rhs) => {
                let l = self.eval_expr(lhs, run)?;
                if l.truthy() {
                    Ok(l)
                } else {
                    self.eval_expr(rhs, run)
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval_expr(lhs, run)?;
                let r = self.eval_expr(rhs, run)?;
                Ok(apply_binop(*op, &l, &r))
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                if self.eval_expr(cond, run)?.truthy() {
                    self.eval_expr(then_expr, run)
                } else {
                    self.eval_expr(else_expr, run)
                }
            }
            Expr::Assign { op, target, value } => {
                let rhs = self.eval_expr(value, run)?;
                let new_value = match op {
                    AssignOp::Assign => rhs,
                    other => {
                        let current = self.read_target(target, run)?;
                        let binop = match other {
                            AssignOp::Add => BinOp::Add,
                            AssignOp::Sub => BinOp::Sub,
                            AssignOp::Mul => BinOp::Mul,
                            AssignOp::Div => BinOp::Div,
                            AssignOp::Assign => unreachable!("handled above"),
                        };
                        apply_binop(binop, &current, &rhs)
                    }
                };
                self.write_target(target, new_value.clone(), run)?;
                Ok(new_value)
            }
            Expr::PostIncDec { target, inc } => {
                let old = self.read_target(target, run)?;
                let old_num = old.to_number();
                let delta = if *inc { 1.0 } else { -1.0 };
                self.write_target(target, Value::Num(old_num + delta), run)?;
                Ok(Value::Num(old_num))
            }
            Expr::Member { object, prop } => {
                let obj = self.eval_expr(object, run)?;
                self.get_member(&obj, prop, run)
            }
            Expr::Call { callee, args, line } => {
                let arg_values = self.eval_args(args, run)?;
                self.dispatch_call(callee, arg_values, *line, run)
            }
            Expr::MethodCall {
                object,
                method,
                args,
                line,
            } => {
                // `Math.floor(...)`-style namespace calls.
                if let Expr::Ident { name, .. } = object.as_ref() {
                    if name == "Math" {
                        let arg_values = self.eval_args(args, run)?;
                        return math_method(method, &arg_values, *line);
                    }
                }
                let obj = self.eval_expr(object, run)?;
                let arg_values = self.eval_args(args, run)?;
                match obj {
                    Value::Str(s) => string_method(&s, method, &arg_values, *line),
                    Value::Array(items) => array_method(&items, method, &arg_values, *line),
                    Value::Dict(entries) => dict_method(&entries, method, &arg_values, *line),
                    Value::Object(id) => {
                        let ctx = HostCtx {
                            function: self.stack.last().map(|decl| decl.name.as_str()),
                        };
                        run.host.call_method(id, method, &arg_values, &ctx)
                    }
                    other => Err(JsError::at(
                        JsErrorKind::Type,
                        format!("cannot call method {method} on {}", other.type_of()),
                        *line,
                    )),
                }
            }
            Expr::New { class, args, line } => {
                let arg_values = self.eval_args(args, run)?;
                run.host
                    .construct(class, &arg_values)
                    .map_err(|e| e_with_line(e, *line))
            }
        }
    }

    fn eval_args(&mut self, args: &[Expr], run: &mut Run<'_>) -> Result<Vec<Value>, JsError> {
        args.iter().map(|a| self.eval_expr(a, run)).collect()
    }

    fn read_target(&mut self, target: &AssignTarget, run: &mut Run<'_>) -> Result<Value, JsError> {
        match target {
            AssignTarget::Ident { name, binding } => self.read_var(name, *binding, 0, run),
            AssignTarget::Member { object, prop } => {
                let obj = self.eval_expr(object, run)?;
                self.get_member(&obj, prop, run)
            }
            AssignTarget::Index { object, index } => {
                let obj = self.eval_expr(object, run)?;
                let idx = self.eval_expr(index, run)?;
                self.get_index(&obj, &idx)
            }
        }
    }

    /// `object[index]` read.
    fn get_index(&mut self, obj: &Value, idx: &Value) -> Result<Value, JsError> {
        self.burn(0)?;
        match obj {
            Value::Array(items) => {
                let i = idx.to_number();
                if i.is_nan() || i < 0.0 {
                    return Ok(Value::Undefined);
                }
                Ok(items
                    .borrow()
                    .get(i as usize)
                    .cloned()
                    .unwrap_or(Value::Undefined))
            }
            Value::Dict(entries) => Ok(entries
                .borrow()
                .get(&idx.to_string_value())
                .cloned()
                .unwrap_or(Value::Undefined)),
            Value::Str(s) => {
                let i = idx.to_number();
                if i.is_nan() || i < 0.0 {
                    return Ok(Value::Undefined);
                }
                Ok(s.chars()
                    .nth(i as usize)
                    .map(|c| Value::str(c.to_string()))
                    .unwrap_or(Value::Undefined))
            }
            other => Err(JsError::type_error(format!(
                "cannot index {}",
                other.type_of()
            ))),
        }
    }

    /// `object[index] = value` write.
    fn set_index(&mut self, obj: &Value, idx: &Value, value: Value) -> Result<(), JsError> {
        self.burn(0)?;
        match obj {
            Value::Array(items) => {
                let i = idx.to_number();
                if i.is_nan() || !(0.0..=1e7).contains(&i) {
                    return Err(JsError::type_error("bad array index"));
                }
                let i = i as usize;
                let mut items = items.borrow_mut();
                if i >= items.len() {
                    items.resize(i + 1, Value::Undefined);
                }
                items[i] = value;
                Ok(())
            }
            Value::Dict(entries) => {
                entries.borrow_mut().insert(idx.to_string_value(), value);
                Ok(())
            }
            other => Err(JsError::type_error(format!(
                "cannot index-assign {}",
                other.type_of()
            ))),
        }
    }

    fn write_target(
        &mut self,
        target: &AssignTarget,
        value: Value,
        run: &mut Run<'_>,
    ) -> Result<(), JsError> {
        match target {
            AssignTarget::Ident { name, binding } => {
                self.write_var(name, *binding, value);
                Ok(())
            }
            AssignTarget::Member { object, prop } => {
                let obj = self.eval_expr(object, run)?;
                match obj {
                    Value::Object(id) => run.host.set_property(id, prop, value),
                    Value::Dict(entries) => {
                        entries.borrow_mut().insert(prop.clone(), value);
                        Ok(())
                    }
                    other => Err(JsError::type_error(format!(
                        "cannot set {prop} on {}",
                        other.type_of()
                    ))),
                }
            }
            AssignTarget::Index { object, index } => {
                let obj = self.eval_expr(object, run)?;
                let idx = self.eval_expr(index, run)?;
                self.set_index(&obj, &idx, value)
            }
        }
    }

    fn get_member(&mut self, obj: &Value, prop: &str, run: &mut Run<'_>) -> Result<Value, JsError> {
        match obj {
            Value::Str(s) => match prop {
                "length" => Ok(Value::Num(s.chars().count() as f64)),
                _ => Ok(Value::Undefined),
            },
            Value::Array(items) => match prop {
                "length" => Ok(Value::Num(items.borrow().len() as f64)),
                _ => Ok(Value::Undefined),
            },
            Value::Dict(entries) => Ok(entries
                .borrow()
                .get(prop)
                .cloned()
                .unwrap_or(Value::Undefined)),
            Value::Object(id) => run.host.get_property(*id, prop),
            other => Err(JsError::type_error(format!(
                "cannot read {prop} of {}",
                other.type_of()
            ))),
        }
    }

    fn dispatch_call(
        &mut self,
        callee: &str,
        args: Vec<Value>,
        line: u32,
        run: &mut Run<'_>,
    ) -> Result<Value, JsError> {
        // User functions shadow builtins.
        if self.functions.contains_key(callee) {
            return self.call_function(callee, args, line, run);
        }
        if let Some(v) = builtin_global(callee, &args) {
            return Ok(v);
        }
        Err(JsError::at(
            JsErrorKind::Reference,
            format!("{callee} is not a function"),
            line,
        ))
    }

    fn call_function(
        &mut self,
        name: &str,
        args: Vec<Value>,
        line: u32,
        run: &mut Run<'_>,
    ) -> Result<Value, JsError> {
        let decl = self.functions.get(name).cloned().ok_or_else(|| {
            JsError::at(
                JsErrorKind::Reference,
                format!("{name} is not a function"),
                line,
            )
        })?;
        if self.stack.len() >= self.max_depth {
            return Err(JsError::at(
                JsErrorKind::StackOverflow,
                format!("call depth exceeded {} in {name}", self.max_depth),
                line,
            ));
        }

        // Parameters fill the first slots; the rest start undefined.
        let base = self.slots.len();
        self.slots.extend(args.into_iter().take(decl.params.len()));
        self.slots.resize(base + decl.frame, Value::Undefined);
        let caller_base = std::mem::replace(&mut self.base, base);
        self.stack.push(Rc::clone(&decl));

        let result = self.nested(LEVEL_BYTES.call, |this| {
            for stmt in &decl.body {
                if let Flow::Return(v) = this.exec_stmt(stmt, run)? {
                    return Ok(v);
                }
            }
            Ok(Value::Undefined)
        });

        self.stack.pop();
        self.slots.truncate(base);
        self.base = caller_base;
        result
    }
}

fn e_with_line(mut e: JsError, line: u32) -> JsError {
    if e.line.is_none() {
        e.line = Some(line);
    }
    e
}

/// Applies a non-short-circuit binary operator with JS coercions.
fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    match op {
        BinOp::Add => {
            // String concatenation when either side is a string.
            if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) {
                Value::str(format!("{}{}", l.to_string_value(), r.to_string_value()))
            } else {
                Value::Num(l.to_number() + r.to_number())
            }
        }
        BinOp::Sub => Value::Num(l.to_number() - r.to_number()),
        BinOp::Mul => Value::Num(l.to_number() * r.to_number()),
        BinOp::Div => Value::Num(l.to_number() / r.to_number()),
        BinOp::Rem => Value::Num(l.to_number() % r.to_number()),
        BinOp::Eq => Value::Bool(l.loose_eq(r)),
        BinOp::NotEq => Value::Bool(!l.loose_eq(r)),
        BinOp::StrictEq => Value::Bool(l.strict_eq(r)),
        BinOp::StrictNotEq => Value::Bool(!l.strict_eq(r)),
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
            let result = if let (Value::Str(a), Value::Str(b)) = (l, r) {
                compare_ord(op, a.as_ref().cmp(b.as_ref()))
            } else {
                let (a, b) = (l.to_number(), r.to_number());
                if a.is_nan() || b.is_nan() {
                    false
                } else {
                    match op {
                        BinOp::Lt => a < b,
                        BinOp::Gt => a > b,
                        BinOp::Le => a <= b,
                        BinOp::Ge => a >= b,
                        _ => unreachable!(),
                    }
                }
            };
            Value::Bool(result)
        }
    }
}

fn compare_ord(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Lt => ord == Less,
        BinOp::Gt => ord == Greater,
        BinOp::Le => ord != Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!(),
    }
}

/// Built-in global functions available regardless of the host.
fn builtin_global(name: &str, args: &[Value]) -> Option<Value> {
    let arg = |i: usize| args.get(i).cloned().unwrap_or(Value::Undefined);
    Some(match name {
        "parseInt" => {
            let s = arg(0).to_string_value();
            let t = s.trim();
            let (sign, digits) = match t.strip_prefix('-') {
                Some(rest) => (-1.0, rest),
                None => (1.0, t.strip_prefix('+').unwrap_or(t)),
            };
            let num_part: String = digits.chars().take_while(|c| c.is_ascii_digit()).collect();
            if num_part.is_empty() {
                Value::Num(f64::NAN)
            } else {
                Value::Num(sign * num_part.parse::<f64>().unwrap_or(f64::NAN))
            }
        }
        "parseFloat" => {
            let s = arg(0).to_string_value();
            let t = s.trim();
            // Longest numeric prefix.
            let mut end = 0;
            for i in (1..=t.len()).rev() {
                if t[..i].parse::<f64>().is_ok() {
                    end = i;
                    break;
                }
            }
            if end == 0 {
                Value::Num(f64::NAN)
            } else {
                Value::Num(t[..end].parse().unwrap_or(f64::NAN))
            }
        }
        "String" => Value::str(arg(0).to_string_value()),
        "Number" => Value::Num(arg(0).to_number()),
        "isNaN" => Value::Bool(arg(0).to_number().is_nan()),
        _ => return None,
    })
}

/// `Math.*` namespace methods.
fn math_method(method: &str, args: &[Value], line: u32) -> Result<Value, JsError> {
    let a = args.first().map(Value::to_number).unwrap_or(f64::NAN);
    let b = args.get(1).map(Value::to_number).unwrap_or(f64::NAN);
    Ok(Value::Num(match method {
        "floor" => a.floor(),
        "ceil" => a.ceil(),
        "round" => (a + 0.5).floor(),
        "abs" => a.abs(),
        "sqrt" => a.sqrt(),
        "pow" => a.powf(b),
        "max" => args
            .iter()
            .map(Value::to_number)
            .fold(f64::NEG_INFINITY, f64::max),
        "min" => args
            .iter()
            .map(Value::to_number)
            .fold(f64::INFINITY, f64::min),
        _ => {
            return Err(JsError::at(
                JsErrorKind::Type,
                format!("Math.{method} is not supported"),
                line,
            ))
        }
    }))
}

/// Methods on string primitives.
fn string_method(s: &str, method: &str, args: &[Value], line: u32) -> Result<Value, JsError> {
    let arg_str = |i: usize| -> String {
        args.get(i)
            .map(Value::to_string_value)
            .unwrap_or_else(|| "undefined".into())
    };
    let arg_num = |i: usize| -> f64 { args.get(i).map(Value::to_number).unwrap_or(f64::NAN) };
    Ok(match method {
        "indexOf" => {
            let needle = arg_str(0);
            match s.find(&needle) {
                Some(byte_idx) => Value::Num(s[..byte_idx].chars().count() as f64),
                None => Value::Num(-1.0),
            }
        }
        "charAt" => {
            let idx = arg_num(0);
            if idx.is_nan() || idx < 0.0 {
                Value::str("")
            } else {
                s.chars()
                    .nth(idx as usize)
                    .map(|c| Value::str(c.to_string()))
                    .unwrap_or_else(|| Value::str(""))
            }
        }
        "substring" => {
            let len = s.chars().count() as f64;
            let clamp = |v: f64| -> usize {
                if v.is_nan() {
                    0
                } else {
                    v.clamp(0.0, len) as usize
                }
            };
            let mut start = clamp(arg_num(0));
            let mut end = if args.len() > 1 {
                clamp(arg_num(1))
            } else {
                len as usize
            };
            if start > end {
                std::mem::swap(&mut start, &mut end);
            }
            Value::str(s.chars().skip(start).take(end - start).collect::<String>())
        }
        "toLowerCase" => Value::str(s.to_lowercase()),
        "toUpperCase" => Value::str(s.to_uppercase()),
        "replace" => {
            let from = arg_str(0);
            let to = arg_str(1);
            Value::str(s.replacen(&from, &to, 1))
        }
        "trim" => Value::str(s.trim()),
        "startsWith" => Value::Bool(s.starts_with(&arg_str(0))),
        "endsWith" => Value::Bool(s.ends_with(&arg_str(0))),
        "includes" => Value::Bool(s.contains(&arg_str(0))),
        other => {
            return Err(JsError::at(
                JsErrorKind::Type,
                format!("string method {other} is not supported"),
                line,
            ))
        }
    })
}

/// Methods on script arrays.
fn array_method(
    items: &std::rc::Rc<std::cell::RefCell<Vec<Value>>>,
    method: &str,
    args: &[Value],
    line: u32,
) -> Result<Value, JsError> {
    Ok(match method {
        "push" => {
            let mut items = items.borrow_mut();
            for a in args {
                items.push(a.clone());
            }
            Value::Num(items.len() as f64)
        }
        "pop" => items.borrow_mut().pop().unwrap_or(Value::Undefined),
        "shift" => {
            let mut items = items.borrow_mut();
            if items.is_empty() {
                Value::Undefined
            } else {
                items.remove(0)
            }
        }
        "join" => {
            let sep = args
                .first()
                .map(Value::to_string_value)
                .unwrap_or_else(|| ",".into());
            Value::str(
                items
                    .borrow()
                    .iter()
                    .map(Value::to_string_value)
                    .collect::<Vec<_>>()
                    .join(&sep),
            )
        }
        "indexOf" => {
            let needle = args.first().cloned().unwrap_or(Value::Undefined);
            Value::Num(
                items
                    .borrow()
                    .iter()
                    .position(|v| v.strict_eq(&needle))
                    .map(|i| i as f64)
                    .unwrap_or(-1.0),
            )
        }
        "includes" => {
            let needle = args.first().cloned().unwrap_or(Value::Undefined);
            Value::Bool(items.borrow().iter().any(|v| v.strict_eq(&needle)))
        }
        "slice" => {
            let items = items.borrow();
            let len = items.len() as f64;
            let norm = |v: f64| -> usize {
                let v = if v < 0.0 {
                    (len + v).max(0.0)
                } else {
                    v.min(len)
                };
                v as usize
            };
            let start = norm(args.first().map(Value::to_number).unwrap_or(0.0));
            let end = norm(args.get(1).map(Value::to_number).unwrap_or(len));
            Value::array(items[start.min(items.len())..end.max(start).min(items.len())].to_vec())
        }
        "concat" => {
            let mut out = items.borrow().clone();
            for a in args {
                match a {
                    Value::Array(more) => out.extend(more.borrow().iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Value::array(out)
        }
        "reverse" => {
            items.borrow_mut().reverse();
            Value::Array(std::rc::Rc::clone(items))
        }
        other => {
            return Err(JsError::at(
                JsErrorKind::Type,
                format!("array method {other} is not supported"),
                line,
            ))
        }
    })
}

/// Methods on script objects.
fn dict_method(
    entries: &std::rc::Rc<std::cell::RefCell<std::collections::BTreeMap<String, Value>>>,
    method: &str,
    args: &[Value],
    line: u32,
) -> Result<Value, JsError> {
    Ok(match method {
        "hasOwnProperty" => {
            let key = args.first().map(Value::to_string_value).unwrap_or_default();
            Value::Bool(entries.borrow().contains_key(&key))
        }
        other => {
            return Err(JsError::at(
                JsErrorKind::Type,
                format!("object method {other} is not supported"),
                line,
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::NullHost;
    use crate::value::format_number;

    fn eval(src: &str) -> Value {
        let mut interp = Interpreter::new();
        interp.eval(src, &mut NullHost).unwrap()
    }

    fn eval_err(src: &str) -> JsError {
        let mut interp = Interpreter::new();
        interp.eval(src, &mut NullHost).unwrap_err()
    }

    #[test]
    fn repeated_snippets_reuse_their_parse() {
        let mut interp = Interpreter::new();
        interp
            .load_program(
                "var n = 0; function bump() { n = n + 1; return n; }",
                &mut NullHost,
            )
            .unwrap();
        let fire = |interp: &mut Interpreter, src: &str| {
            let before = interp.steps();
            let result = interp.eval(src, &mut NullHost);
            (result, interp.steps() - before)
        };
        // Same source, fresh execution each time, same step count.
        let (first, steps_first) = fire(&mut interp, "bump()");
        let (second, steps_second) = fire(&mut interp, "bump()");
        assert_eq!(first, Ok(Value::Num(1.0)));
        assert_eq!(second, Ok(Value::Num(2.0)));
        assert_eq!(steps_first, steps_second);
        // A snippet that does not parse fails the same way every time,
        // without burning a step.
        let (bad_first, steps_bad) = fire(&mut interp, "bump(");
        let (bad_second, _) = fire(&mut interp, "bump(");
        assert_eq!(bad_first.clone().unwrap_err().kind, JsErrorKind::Parse);
        assert_eq!(bad_first, bad_second);
        assert_eq!(steps_bad, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("1 + 2 * 3"), Value::Num(7.0));
        assert_eq!(eval("(1 + 2) * 3"), Value::Num(9.0));
        assert_eq!(eval("10 % 3"), Value::Num(1.0));
        assert_eq!(eval("-4 + 1"), Value::Num(-3.0));
        assert_eq!(eval("7 / 2"), Value::Num(3.5));
    }

    #[test]
    fn string_concat_coercion() {
        assert_eq!(eval("'p=' + 2"), Value::str("p=2"));
        assert_eq!(eval("1 + '2'"), Value::str("12"));
        assert_eq!(eval("'a' + true"), Value::str("atrue"));
        assert_eq!(eval("'a' + null"), Value::str("anull"));
    }

    #[test]
    fn variables_and_scope() {
        assert_eq!(
            eval("var x = 1; function f() { var x = 2; return x; } f() + x"),
            Value::Num(3.0)
        );
    }

    #[test]
    fn globals_visible_in_functions() {
        assert_eq!(
            eval("var page = 5; function get() { return page; } get()"),
            Value::Num(5.0)
        );
    }

    #[test]
    fn assignment_in_function_writes_global_when_undeclared_locally() {
        assert_eq!(
            eval("var p = 1; function bump() { p = p + 1; } bump(); bump(); p"),
            Value::Num(3.0)
        );
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            eval("var s = 0; for (var i = 1; i <= 4; i++) { s += i; } s"),
            Value::Num(10.0)
        );
        assert_eq!(
            eval("var n = 0; while (n < 10) { n++; if (n == 5) break; } n"),
            Value::Num(5.0)
        );
        assert_eq!(
            eval("var s = 0; for (var i = 0; i < 5; i++) { if (i % 2 == 0) continue; s += i; } s"),
            Value::Num(4.0)
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            eval("function fact(n) { if (n <= 1) return 1; return n * fact(n - 1); } fact(6)"),
            Value::Num(720.0)
        );
    }

    #[test]
    fn ternary_and_logical() {
        assert_eq!(eval("true ? 'a' : 'b'"), Value::str("a"));
        assert_eq!(eval("0 || 'fallback'"), Value::str("fallback"));
        assert_eq!(eval("'x' && 'y'"), Value::str("y"));
        assert_eq!(eval("!0"), Value::Bool(true));
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // The rhs references an undefined name; && must not evaluate it.
        assert_eq!(eval("false && bogus"), Value::Bool(false));
        assert_eq!(eval("true || bogus"), Value::Bool(true));
    }

    #[test]
    fn equality_semantics() {
        assert_eq!(eval("1 == '1'"), Value::Bool(true));
        assert_eq!(eval("1 === '1'"), Value::Bool(false));
        assert_eq!(eval("null == undefined"), Value::Bool(true));
        assert_eq!(eval("null === undefined"), Value::Bool(false));
        assert_eq!(eval("'a' < 'b'"), Value::Bool(true));
    }

    #[test]
    fn undefined_reference_is_error() {
        assert_eq!(eval_err("nope").kind, JsErrorKind::Reference);
        assert_eq!(eval_err("nope()").kind, JsErrorKind::Reference);
    }

    #[test]
    fn infinite_loop_burns_fuel() {
        let mut interp = Interpreter::with_fuel(10_000);
        let err = interp
            .eval("while (true) { var x = 1; }", &mut NullHost)
            .unwrap_err();
        assert_eq!(err.kind, JsErrorKind::FuelExhausted);
    }

    #[test]
    fn deep_recursion_overflows() {
        assert_eq!(
            eval_err("function f(n) { return f(n + 1); } f(0)").kind,
            JsErrorKind::StackOverflow
        );
    }

    #[test]
    fn globals_snapshot_restore() {
        let mut interp = Interpreter::new();
        interp.eval("var page = 1;", &mut NullHost).unwrap();
        let snap = interp.snapshot_globals();
        interp.eval("page = 99;", &mut NullHost).unwrap();
        assert_eq!(interp.global("page"), Some(&Value::Num(99.0)));
        interp.restore_globals(&snap);
        assert_eq!(interp.global("page"), Some(&Value::Num(1.0)));
    }

    #[test]
    fn builtins() {
        assert_eq!(eval("parseInt('42abc')"), Value::Num(42.0));
        assert_eq!(eval("parseInt('-7')"), Value::Num(-7.0));
        assert!(matches!(eval("parseInt('x')"), Value::Num(n) if n.is_nan()));
        assert_eq!(eval("parseFloat('3.5x')"), Value::Num(3.5));
        assert_eq!(eval("String(42)"), Value::str("42"));
        assert_eq!(eval("Number('8')"), Value::Num(8.0));
        assert_eq!(eval("isNaN('x')"), Value::Bool(true));
    }

    #[test]
    fn math_namespace() {
        assert_eq!(eval("Math.floor(2.7)"), Value::Num(2.0));
        assert_eq!(eval("Math.max(1, 5, 3)"), Value::Num(5.0));
        assert_eq!(eval("Math.abs(0 - 4)"), Value::Num(4.0));
    }

    #[test]
    fn string_methods() {
        assert_eq!(eval("'hello'.length"), Value::Num(5.0));
        assert_eq!(eval("'hello'.indexOf('ll')"), Value::Num(2.0));
        assert_eq!(eval("'hello'.substring(1, 3)"), Value::str("el"));
        assert_eq!(eval("'AbC'.toLowerCase()"), Value::str("abc"));
        assert_eq!(eval("'a-b-c'.replace('-', '+')"), Value::str("a+b-c"));
        assert_eq!(eval("'  x '.trim()"), Value::str("x"));
        assert_eq!(eval("'abc'.charAt(1)"), Value::str("b"));
    }

    #[test]
    fn user_functions_shadow_builtins() {
        assert_eq!(
            eval("function parseInt(x) { return 'shadowed'; } parseInt('42')"),
            Value::str("shadowed")
        );
    }

    #[test]
    fn postfix_increment_returns_old_value() {
        assert_eq!(eval("var i = 5; var j = i++; j * 10 + i"), Value::Num(56.0));
        assert_eq!(eval("var i = 5; i--; i"), Value::Num(4.0));
    }

    #[test]
    fn call_declared_function_directly() {
        let mut interp = Interpreter::new();
        interp
            .load_program("function add(a, b) { return a + b; }", &mut NullHost)
            .unwrap();
        let v = interp
            .call("add", vec![Value::Num(2.0), Value::Num(3.0)], &mut NullHost)
            .unwrap();
        assert_eq!(v, Value::Num(5.0));
    }

    #[test]
    fn missing_args_are_undefined() {
        assert_eq!(
            eval("function f(a, b) { return typeof b; } f(1)"),
            Value::str("undefined")
        );
    }

    #[test]
    fn steps_counted() {
        let mut interp = Interpreter::new();
        interp
            .eval(
                "var s = 0; for (var i = 0; i < 100; i++) s += i;",
                &mut NullHost,
            )
            .unwrap();
        assert!(
            interp.steps() > 300,
            "loop must burn steps, got {}",
            interp.steps()
        );
    }

    #[test]
    fn number_display_in_concat() {
        assert_eq!(eval("'' + 3"), Value::str("3"));
        assert_eq!(eval("'' + 3.25"), Value::str("3.25"));
        assert_eq!(format_number(2.0), "2");
    }

    #[test]
    fn typeof_operator() {
        assert_eq!(eval("typeof 'a'"), Value::str("string"));
        assert_eq!(eval("typeof 1"), Value::str("number"));
        assert_eq!(eval("typeof undefined"), Value::str("undefined"));
    }
}

#[cfg(test)]
mod collection_tests {
    use super::*;
    use crate::host::NullHost;

    fn eval(src: &str) -> Value {
        let mut interp = Interpreter::new();
        interp.eval(src, &mut NullHost).unwrap()
    }

    fn eval_err(src: &str) -> JsError {
        let mut interp = Interpreter::new();
        interp.eval(src, &mut NullHost).unwrap_err()
    }

    #[test]
    fn array_literal_and_index() {
        assert_eq!(eval("var a = [10, 20, 30]; a[1]"), Value::Num(20.0));
        assert_eq!(eval("[1,2,3].length"), Value::Num(3.0));
        assert_eq!(eval("var a = []; a.length"), Value::Num(0.0));
        assert_eq!(eval("[5][9]"), Value::Undefined);
    }

    #[test]
    fn array_mutation() {
        assert_eq!(
            eval("var a = [1]; a.push(2, 3); a.join('-')"),
            Value::str("1-2-3")
        );
        assert_eq!(eval("var a = [1,2]; a.pop(); a.length"), Value::Num(1.0));
        assert_eq!(eval("var a = [7,8]; a.shift()"), Value::Num(7.0));
        assert_eq!(eval("var a = [0]; a[3] = 9; a.length"), Value::Num(4.0));
        assert_eq!(eval("var a = [1,2]; a[0] = 5; a[0]"), Value::Num(5.0));
    }

    #[test]
    fn array_search_and_slice() {
        assert_eq!(eval("[4,5,6].indexOf(5)"), Value::Num(1.0));
        assert_eq!(eval("[4,5].indexOf(9)"), Value::Num(-1.0));
        assert_eq!(eval("[1,2,3].includes(3)"), Value::Bool(true));
        assert_eq!(eval("[1,2,3,4].slice(1,3).join(',')"), Value::str("2,3"));
        assert_eq!(eval("[1,2].concat([3],4).length"), Value::Num(4.0));
        assert_eq!(eval("[1,2,3].reverse()[0]"), Value::Num(3.0));
    }

    #[test]
    fn arrays_have_reference_semantics() {
        assert_eq!(
            eval("var a = [1]; var b = a; b.push(2); a.length"),
            Value::Num(2.0)
        );
        assert_eq!(eval("var a = [1]; var b = a; a == b"), Value::Bool(true));
        assert_eq!(
            eval("[1] == [1]"),
            Value::Bool(false),
            "distinct identities"
        );
    }

    #[test]
    fn object_literal_member_and_index() {
        assert_eq!(eval("var o = {a: 1, b: 'x'}; o.a"), Value::Num(1.0));
        assert_eq!(eval("var o = {a: 1}; o['a']"), Value::Num(1.0));
        assert_eq!(eval("var o = {}; o.k = 7; o.k"), Value::Num(7.0));
        assert_eq!(eval("var o = {}; o['k'] = 7; o.k"), Value::Num(7.0));
        assert_eq!(eval("var o = {a: 1}; o.missing"), Value::Undefined);
        assert_eq!(eval("({'quoted key': 2})['quoted key']"), Value::Num(2.0));
    }

    #[test]
    fn object_has_own_property() {
        assert_eq!(eval("({a: 1}).hasOwnProperty('a')"), Value::Bool(true));
        assert_eq!(eval("({a: 1}).hasOwnProperty('b')"), Value::Bool(false));
    }

    #[test]
    fn nested_structures() {
        assert_eq!(
            eval("var o = {pages: [1,2,3]}; o.pages[2]"),
            Value::Num(3.0)
        );
        assert_eq!(
            eval("var m = {a: {b: [0, {c: 42}]}}; m.a.b[1].c"),
            Value::Num(42.0)
        );
    }

    #[test]
    fn string_indexing() {
        assert_eq!(eval("'abc'[1]"), Value::str("b"));
        assert_eq!(eval("'abc'[5]"), Value::Undefined);
    }

    #[test]
    fn snapshot_isolates_collections() {
        let mut interp = Interpreter::new();
        interp.eval("var log = [1];", &mut NullHost).unwrap();
        let snap = interp.snapshot_globals();
        interp
            .eval("log.push(2); log.push(3);", &mut NullHost)
            .unwrap();
        assert_eq!(
            interp.eval("log.length", &mut NullHost).unwrap(),
            Value::Num(3.0)
        );
        interp.restore_globals(&snap);
        assert_eq!(
            interp.eval("log.length", &mut NullHost).unwrap(),
            Value::Num(1.0),
            "rollback must undo array mutation (crawler correctness)"
        );
        // And restoring twice still works (the snapshot wasn't consumed).
        interp.eval("log.push(9);", &mut NullHost).unwrap();
        interp.restore_globals(&snap);
        assert_eq!(
            interp.eval("log.length", &mut NullHost).unwrap(),
            Value::Num(1.0)
        );
    }

    #[test]
    fn array_in_loops() {
        assert_eq!(
            eval("var a = []; for (var i = 0; i < 5; i++) a.push(i * i); a.join(' ')"),
            Value::str("0 1 4 9 16")
        );
        assert_eq!(
            eval("var a = [3,1,2]; var s = 0; for (var i = 0; i < a.length; i++) s += a[i]; s"),
            Value::Num(6.0)
        );
    }

    #[test]
    fn index_errors() {
        assert_eq!(eval_err("null[0]").kind, JsErrorKind::Type);
        assert_eq!(eval_err("(5)[0]").kind, JsErrorKind::Type);
        assert_eq!(eval_err("var a=[1]; a.bogus()").kind, JsErrorKind::Type);
    }

    #[test]
    fn typeof_and_truthiness() {
        assert_eq!(eval("typeof []"), Value::str("object"));
        assert_eq!(eval("typeof {}"), Value::str("object"));
        assert_eq!(eval("[] ? 1 : 0"), Value::Num(1.0), "empty array is truthy");
    }

    #[test]
    fn array_string_coercion() {
        assert_eq!(eval("'' + [1,2]"), Value::str("1,2"));
        assert_eq!(eval("[] + ''"), Value::str(""));
    }

    #[test]
    fn postfix_increment_on_element() {
        assert_eq!(eval("var a = [5]; a[0]++; a[0]"), Value::Num(6.0));
        assert_eq!(eval("var o = {n: 1}; o.n++; o.n"), Value::Num(2.0));
    }
}
