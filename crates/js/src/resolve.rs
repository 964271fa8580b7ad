//! The one scope rule of the JavaScript subset.
//!
//! A function's parameters and every `var` anywhere in its body (branches,
//! loops, `for` initializers, blocks) are that function's locals from its
//! first statement on. Every other name is global, and so is every name at
//! the top level of a `<script>` block or a handler snippet, a top-level
//! `var` included. The subset has no closures: a nested function declaration
//! sees only its own frame.
//!
//! The parser applies the rule once per function body; the interpreter and
//! the effect analysis only read the [`Binding`]s it leaves in the tree.

use crate::ast::{AssignTarget, Binding, Expr, Stmt};
use std::collections::HashMap;

/// Binds every name in a function `body` with these `params` and returns
/// the frame size. Parameters take slots `0..params.len()` (a repeated name
/// binds to its last position, as a call fills them), then each distinct
/// `var` name takes the next slot. Nested function declarations were
/// resolved when they were parsed and are left alone.
pub(crate) fn resolve_function(params: &[String], body: &mut [Stmt]) -> usize {
    let mut slots: HashMap<String, usize> = params
        .iter()
        .enumerate()
        .map(|(slot, name)| (name.clone(), slot))
        .collect();
    let mut frame = params.len();
    declare_vars(body, &mut slots, &mut frame);
    let resolver = Resolver { slots };
    body.iter_mut().for_each(|s| resolver.stmt(s));
    frame
}

fn declare_vars(body: &[Stmt], slots: &mut HashMap<String, usize>, frame: &mut usize) {
    for stmt in body {
        match stmt {
            Stmt::VarDecl { name, .. } => {
                if !slots.contains_key(name) {
                    slots.insert(name.clone(), *frame);
                    *frame += 1;
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                declare_vars(then_branch, slots, frame);
                declare_vars(else_branch, slots, frame);
            }
            Stmt::While { body, .. } => declare_vars(body, slots, frame),
            Stmt::For { init, body, .. } => {
                if let Some(init) = init {
                    declare_vars(std::slice::from_ref(init), slots, frame);
                }
                declare_vars(body, slots, frame);
            }
            Stmt::Block(body) => declare_vars(body, slots, frame),
            Stmt::Expr(_)
            | Stmt::Return(_)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::Function(_)
            | Stmt::Empty => {}
        }
    }
}

struct Resolver {
    slots: HashMap<String, usize>,
}

impl Resolver {
    fn bind(&self, name: &str) -> Binding {
        self.slots
            .get(name)
            .map_or(Binding::Global, |&slot| Binding::Local(slot))
    }

    fn stmt(&self, stmt: &mut Stmt) {
        match stmt {
            Stmt::VarDecl {
                name,
                binding,
                init,
                ..
            } => {
                *binding = self.bind(name);
                if let Some(init) = init {
                    self.expr(init);
                }
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => self.expr(e),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                then_branch.iter_mut().for_each(|s| self.stmt(s));
                else_branch.iter_mut().for_each(|s| self.stmt(s));
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                body.iter_mut().for_each(|s| self.stmt(s));
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                cond.iter_mut()
                    .chain(update.iter_mut())
                    .for_each(|e| self.expr(e));
                body.iter_mut().for_each(|s| self.stmt(s));
            }
            Stmt::Block(body) => body.iter_mut().for_each(|s| self.stmt(s)),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Function(_) | Stmt::Empty => {
            }
        }
    }

    fn expr(&self, expr: &mut Expr) {
        match expr {
            Expr::Ident { name, binding, .. } => *binding = self.bind(name),
            Expr::Assign { target, value, .. } => {
                self.target(target);
                self.expr(value);
            }
            Expr::PostIncDec { target, .. } => self.target(target),
            Expr::ArrayLit(items) => items.iter_mut().for_each(|e| self.expr(e)),
            Expr::ObjectLit(entries) => entries.iter_mut().for_each(|(_, e)| self.expr(e)),
            Expr::Call { args, .. } | Expr::New { args, .. } => {
                args.iter_mut().for_each(|e| self.expr(e))
            }
            Expr::MethodCall { object, args, .. } => {
                self.expr(object);
                args.iter_mut().for_each(|e| self.expr(e));
            }
            Expr::Index { object, index } => {
                self.expr(object);
                self.expr(index);
            }
            Expr::Binary { lhs, rhs, .. } | Expr::And(lhs, rhs) | Expr::Or(lhs, rhs) => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond);
                self.expr(then_expr);
                self.expr(else_expr);
            }
            Expr::Unary { expr, .. } | Expr::Member { object: expr, .. } => self.expr(expr),
            Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Undefined => {}
        }
    }

    fn target(&self, target: &mut AssignTarget) {
        match target {
            AssignTarget::Ident { name, binding } => *binding = self.bind(name),
            AssignTarget::Member { object, .. } => self.expr(object),
            AssignTarget::Index { object, index } => {
                self.expr(object);
                self.expr(index);
            }
        }
    }
}
