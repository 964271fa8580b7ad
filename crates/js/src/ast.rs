//! Abstract syntax tree for the JavaScript subset.

use std::rc::Rc;

/// A parsed program: a `<script>` body or a handler snippet. Its function
/// declarations are hoisted by the interpreter; the remaining statements run
/// top to bottom. Every name its top level uses is [`Binding::Global`], a
/// top-level `var` included.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub body: Vec<Stmt>,
}

/// A function declaration, its names resolved (`crate::resolve`).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    /// Slots in a call's frame: the parameters, then each distinct `var`.
    pub frame: usize,
    pub(crate) line: u32,
}

/// Where a name lives, decided once when its function is parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// Slot `n` of the enclosing function's frame: a parameter or a `var`
    /// anywhere in that function's body.
    Local(usize),
    /// Every other name: the interpreter's globals, then the host.
    Global,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var name = init;`
    VarDecl {
        name: String,
        binding: Binding,
        init: Option<Expr>,
    },
    /// A bare expression statement.
    Expr(Expr),
    /// `if (cond) then else alt`
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) body`
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    /// `for (init; cond; update) body`
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        update: Option<Expr>,
        body: Vec<Stmt>,
    },
    /// `return expr;`
    Return(Option<Expr>),
    Break,
    Continue,
    /// `function f(a, b) { ... }`
    Function(Rc<FunctionDecl>),
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// `;`
    Empty,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    NotEq,
    StrictEq,
    StrictNotEq,
    Lt,
    Gt,
    Le,
    Ge,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
    Typeof,
}

/// Compound-assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Num(f64),
    Str(Rc<str>),
    Bool(bool),
    Null,
    Undefined,
    /// `[a, b, c]`
    ArrayLit(Vec<Expr>),
    /// `{ key: value, ... }`
    ObjectLit(Vec<(String, Expr)>),
    /// `object[index]`
    Index {
        object: Box<Expr>,
        index: Box<Expr>,
    },
    /// Variable reference.
    Ident {
        name: String,
        binding: Binding,
        line: u32,
    },
    /// `lhs op rhs` (short-circuit ops are separate).
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `lhs && rhs`
    And(Box<Expr>, Box<Expr>),
    /// `lhs || rhs`
    Or(Box<Expr>, Box<Expr>),
    /// `op expr`
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    /// `cond ? then : alt`
    Ternary {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
    },
    /// `name = value`, `name += value`, …
    Assign {
        op: AssignOp,
        target: AssignTarget,
        value: Box<Expr>,
    },
    /// `name++` / `name--` (postfix; evaluates to the *old* value).
    PostIncDec {
        target: AssignTarget,
        inc: bool,
    },
    /// `f(args)` — a user function or a builtin global.
    Call {
        callee: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `obj.method(args)`
    MethodCall {
        object: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `obj.prop`
    Member {
        object: Box<Expr>,
        prop: String,
    },
    /// `new Class(args)`
    New {
        class: String,
        args: Vec<Expr>,
        line: u32,
    },
}

/// The left-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignTarget {
    /// A plain variable.
    Ident { name: String, binding: Binding },
    /// `obj.prop` — routed to the host's `set_property` (host objects) or a
    /// dict entry (script objects).
    Member { object: Box<Expr>, prop: String },
    /// `obj[index]` — array element or dict entry.
    Index { object: Box<Expr>, index: Box<Expr> },
}
