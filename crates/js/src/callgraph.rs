//! The JavaScript invocation graph (thesis §4.1).
//!
//! "This structure contains a node for each Javascript function in the
//! program and its dependencies (i.e., invoked functions)." Functions that
//! fetch content from the server are **hot nodes**. The thesis builds this
//! understanding at runtime (stack inspection); this module derives the same
//! structure *statically* from the AST, which lets a crawler (or a human)
//! inspect a page's network behaviour before firing a single event — and
//! lets tests cross-check the runtime detector.

use crate::ast::{Expr, FunctionDecl, Program, Stmt};
use crate::effects::{local_effects_of_function, LocalEffects};
use crate::parser::parse_program;
use crate::JsError;
use std::collections::{BTreeMap, BTreeSet};

/// Static information about one declared function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionNode {
    pub name: String,
    pub params: Vec<String>,
    pub(crate) line: u32,
    /// Names of functions this one invokes directly (user or native).
    pub calls: BTreeSet<String>,
    /// True when the body itself constructs an `XMLHttpRequest` or invokes
    /// `open`/`send` on an object — a *direct* AJAX call site.
    pub direct_ajax: bool,
    /// Syntactic effects of the body (input to `effects::EffectAnalysis`).
    pub(crate) effects: LocalEffects,
}

/// A duplicate function definition: JS last-wins semantics are kept, but
/// the shadowing is recorded so the diagnostics pass can surface it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Redefinition {
    pub(crate) name: String,
    /// Line of the definition that was replaced.
    pub(crate) first_line: u32,
    /// Line of the definition that now wins.
    pub(crate) line: u32,
}

/// The invocation graph of a program (Fig 4.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvocationGraph {
    functions: BTreeMap<String, FunctionNode>,
    /// Functions invoked from top-level code (event invocations enter here
    /// too, since handler snippets run at top level).
    pub top_level_calls: BTreeSet<String>,
    /// Duplicate definitions observed within a script or across merged
    /// `<script>` blocks (the later definition wins, as at runtime).
    pub(crate) redefinitions: Vec<Redefinition>,
}

impl InvocationGraph {
    /// Builds the graph from source text.
    pub fn from_source(src: &str) -> Result<Self, JsError> {
        Ok(Self::from_program(&parse_program(src)?))
    }

    /// Builds the graph from a parsed program.
    pub fn from_program(program: &Program) -> Self {
        let mut graph = InvocationGraph::default();
        let mut top_level = CallCollector::default();
        for stmt in &program.body {
            match stmt {
                Stmt::Function(decl) => graph.add_function(decl),
                other => top_level.visit_stmt(other),
            }
        }
        graph.top_level_calls = top_level.calls;
        graph
    }

    fn add_function(&mut self, decl: &FunctionDecl) {
        let mut collector = CallCollector::default();
        for stmt in &decl.body {
            collector.visit_stmt(stmt);
        }
        if let Some(prev) = self.functions.get(&decl.name) {
            self.redefinitions.push(Redefinition {
                name: decl.name.clone(),
                first_line: prev.line,
                line: decl.line,
            });
        }
        self.functions.insert(
            decl.name.clone(),
            FunctionNode {
                name: decl.name.clone(),
                params: decl.params.clone(),
                line: decl.line,
                calls: collector.calls,
                direct_ajax: collector.direct_ajax,
                effects: local_effects_of_function(decl),
            },
        );
    }

    /// Merges another script's graph into this one (pages often have several
    /// `<script>` blocks). JS semantics are kept — a later definition of the
    /// same name wins — but each shadowing is recorded in `redefinitions`.
    pub fn merge(&mut self, other: InvocationGraph) {
        self.redefinitions.extend(other.redefinitions);
        for (name, node) in other.functions {
            if let Some(prev) = self.functions.get(&name) {
                self.redefinitions.push(Redefinition {
                    name: name.clone(),
                    first_line: prev.line,
                    line: node.line,
                });
            }
            self.functions.insert(name, node);
        }
        self.top_level_calls.extend(other.top_level_calls);
    }

    /// All function nodes, ordered by name.
    pub fn functions(&self) -> impl Iterator<Item = &FunctionNode> {
        self.functions.values()
    }

    /// Looks a function up.
    pub fn function(&self, name: &str) -> Option<&FunctionNode> {
        self.functions.get(name)
    }

    /// The **hot nodes**: functions whose body directly contains an AJAX
    /// call (the `getURLXMLResponseAndFillDiv` of the YouTube example).
    pub fn hot_nodes(&self) -> Vec<&str> {
        self.functions
            .values()
            .filter(|f| f.direct_ajax)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Functions that reach a hot node transitively — every event bound to
    /// one of these will cause server traffic (directly or indirectly).
    pub fn reaches_network(&self) -> BTreeSet<&str> {
        // Fixpoint over the call graph.
        let mut reaching: BTreeSet<&str> = self
            .functions
            .values()
            .filter(|f| f.direct_ajax)
            .map(|f| f.name.as_str())
            .collect();
        loop {
            let mut changed = false;
            for f in self.functions.values() {
                if reaching.contains(f.name.as_str()) {
                    continue;
                }
                if f.calls.iter().any(|c| reaching.contains(c.as_str())) {
                    reaching.insert(f.name.as_str());
                    changed = true;
                }
            }
            if !changed {
                return reaching;
            }
        }
    }

    /// Renders the graph in Graphviz dot format; hot nodes are doubled-boxed
    /// (handy to eyeball the Fig 4.1 structure of a real page).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph invocation {\n  rankdir=LR;\n");
        for f in self.functions.values() {
            let shape = if f.direct_ajax {
                "doubleoctagon"
            } else {
                "box"
            };
            out.push_str(&format!("  \"{}\" [shape={shape}];\n", f.name));
        }
        for f in self.functions.values() {
            for callee in &f.calls {
                if self.functions.contains_key(callee) {
                    out.push_str(&format!("  \"{}\" -> \"{callee}\";\n", f.name));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// AST walker collecting call names and direct AJAX use.
#[derive(Debug, Default)]
struct CallCollector {
    calls: BTreeSet<String>,
    direct_ajax: bool,
}

impl CallCollector {
    fn visit_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::VarDecl { init, .. } => {
                if let Some(e) = init {
                    self.visit_expr(e);
                }
            }
            Stmt::Expr(e) => self.visit_expr(e),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.visit_expr(cond);
                then_branch.iter().for_each(|s| self.visit_stmt(s));
                else_branch.iter().for_each(|s| self.visit_stmt(s));
            }
            Stmt::While { cond, body } => {
                self.visit_expr(cond);
                body.iter().for_each(|s| self.visit_stmt(s));
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(s) = init {
                    self.visit_stmt(s);
                }
                if let Some(e) = cond {
                    self.visit_expr(e);
                }
                if let Some(e) = update {
                    self.visit_expr(e);
                }
                body.iter().for_each(|s| self.visit_stmt(s));
            }
            Stmt::Return(Some(e)) => self.visit_expr(e),
            Stmt::Block(body) => body.iter().for_each(|s| self.visit_stmt(s)),
            // Nested function declarations are hoisted by the interpreter;
            // their bodies are analyzed when encountered at the top level.
            Stmt::Function(_) | Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Empty => {
            }
        }
    }

    fn visit_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Call { callee, args, .. } => {
                self.calls.insert(callee.clone());
                args.iter().for_each(|a| self.visit_expr(a));
            }
            Expr::MethodCall {
                object,
                method,
                args,
                ..
            } => {
                if method == "send" || method == "open" {
                    self.direct_ajax = true;
                }
                self.visit_expr(object);
                args.iter().for_each(|a| self.visit_expr(a));
            }
            Expr::New { class, args, .. } => {
                if class == "XMLHttpRequest" {
                    self.direct_ajax = true;
                }
                args.iter().for_each(|a| self.visit_expr(a));
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.visit_expr(lhs);
                self.visit_expr(rhs);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.visit_expr(a);
                self.visit_expr(b);
            }
            Expr::Unary { expr, .. } => self.visit_expr(expr),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.visit_expr(cond);
                self.visit_expr(then_expr);
                self.visit_expr(else_expr);
            }
            Expr::Assign { target, value, .. } => {
                self.visit_target(target);
                self.visit_expr(value);
            }
            Expr::PostIncDec { target, .. } => self.visit_target(target),
            Expr::Member { object, .. } => self.visit_expr(object),
            Expr::Index { object, index } => {
                self.visit_expr(object);
                self.visit_expr(index);
            }
            Expr::ArrayLit(items) => items.iter().for_each(|i| self.visit_expr(i)),
            Expr::ObjectLit(entries) => entries.iter().for_each(|(_, e)| self.visit_expr(e)),
            Expr::Num(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::Null
            | Expr::Undefined
            | Expr::Ident { .. } => {}
        }
    }

    fn visit_target(&mut self, target: &crate::ast::AssignTarget) {
        use crate::ast::AssignTarget;
        match target {
            AssignTarget::Ident { .. } => {}
            AssignTarget::Member { object, .. } => self.visit_expr(object),
            AssignTarget::Index { object, index } => {
                self.visit_expr(object);
                self.visit_expr(index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thesis' YouTube excerpt (§4.4.1), verbatim in structure.
    const YOUTUBE_SCRIPT: &str = r#"
        function showLoading(div_id) { var x = div_id; }
        function getUrlXMLResponseAndFillDiv(url, div_id) {
            getUrl(url, true);
        }
        function getUrl(url, async) {
            var xmlHttpReq = new XMLHttpRequest();
            xmlHttpReq.open("GET", url, async);
            xmlHttpReq.send(null);
        }
        function urchinTracker(a) { var t = a; }
        function nextPage() {
            showLoading('recent_comments');
            getUrlXMLResponseAndFillDiv('/c?p=2', 'recent_comments');
            urchinTracker('next');
        }
    "#;

    #[test]
    fn youtube_structure() {
        let g = InvocationGraph::from_source(YOUTUBE_SCRIPT).unwrap();
        assert_eq!(g.hot_nodes(), vec!["getUrl"], "getUrl performs the XHR");
        let reach = g.reaches_network();
        assert!(reach.contains("getUrl"));
        assert!(reach.contains("getUrlXMLResponseAndFillDiv"), "indirect");
        assert!(reach.contains("nextPage"), "two hops");
        assert!(!reach.contains("showLoading"));
        assert!(!reach.contains("urchinTracker"));
    }

    #[test]
    fn call_edges_recorded() {
        let g = InvocationGraph::from_source(YOUTUBE_SCRIPT).unwrap();
        let next = g.function("nextPage").unwrap();
        assert!(next.calls.contains("showLoading"));
        assert!(next.calls.contains("getUrlXMLResponseAndFillDiv"));
        assert!(next.calls.contains("urchinTracker"));
        assert!(!next.direct_ajax);
    }

    #[test]
    fn top_level_calls_collected() {
        let g = InvocationGraph::from_source("function f() {} f(); g(1 + h());").unwrap();
        assert!(g.top_level_calls.contains("f"));
        assert!(g.top_level_calls.contains("g"));
        assert!(g.top_level_calls.contains("h"));
    }

    #[test]
    fn calls_inside_control_flow_found() {
        let g = InvocationGraph::from_source(
            "function f(n) { if (n) { g(); } else { while (n) { h(); n--; } } \
             for (var i = x(); i < y(); i++) z(i ? a() : b()); return c(); }",
        )
        .unwrap();
        let f = g.function("f").unwrap();
        for callee in ["g", "h", "x", "y", "z", "a", "b", "c"] {
            assert!(f.calls.contains(callee), "missing {callee}");
        }
    }

    #[test]
    fn ajax_detection_variants() {
        let direct =
            InvocationGraph::from_source("function f() { var x = new XMLHttpRequest(); }").unwrap();
        assert_eq!(direct.hot_nodes(), vec!["f"]);

        let send_only =
            InvocationGraph::from_source("function g(req) { req.send(null); }").unwrap();
        assert_eq!(send_only.hot_nodes(), vec!["g"]);

        let none = InvocationGraph::from_source("function h() { look(); }").unwrap();
        assert!(none.hot_nodes().is_empty());
    }

    #[test]
    fn merge_combines_scripts() {
        let mut a = InvocationGraph::from_source("function one() { net.send(0); }").unwrap();
        let b = InvocationGraph::from_source("function two() { one(); }").unwrap();
        a.merge(b);
        assert_eq!(a.hot_nodes(), vec!["one"]);
        assert!(a.reaches_network().contains("two"));
    }

    #[test]
    fn dot_output_shape() {
        let g = InvocationGraph::from_source(YOUTUBE_SCRIPT).unwrap();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph invocation {"));
        assert!(dot.contains("\"getUrl\" [shape=doubleoctagon]"));
        assert!(dot.contains("\"nextPage\" -> \"getUrlXMLResponseAndFillDiv\""));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn cycles_terminate() {
        let g = InvocationGraph::from_source(
            "function a() { b(); } function b() { a(); net.send(1); }",
        )
        .unwrap();
        let reach = g.reaches_network();
        assert!(reach.contains("a") && reach.contains("b"));
    }
}
