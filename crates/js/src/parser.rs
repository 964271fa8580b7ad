//! Recursive-descent parser for the JavaScript subset.

use crate::ast::*;
use crate::error::{JsError, JsErrorKind};
use crate::lexer::{lex, Keyword, Punct, Token, TokenKind};
use crate::resolve::resolve_function;
use std::rc::Rc;

/// How deep a program may nest: the bound on the parser's own recursion
/// (blocks, function bodies, parentheses, literals, unary and assignment
/// chains) and on the height of every expression tree it returns, chains of
/// binary operators and member accesses included — the interpreter and the
/// static analyses recurse once per level. Deeper input is a syntax error.
///
/// One level of parentheses costs the parser about 4 KiB of stack in a
/// release build and 20 KiB in a debug build; 64 levels fit the 2 MiB of a
/// crawl worker (and of a test thread) with room to spare.
pub const MAX_NESTING: usize = 64;

/// Parses a full program (script body or event-handler snippet), every
/// name in it bound (`crate::resolve`).
pub fn parse_program(src: &str) -> Result<Program, JsError> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        height: 0,
    };
    let mut body = Vec::new();
    while !parser.at_eof() {
        body.push(parser.statement()?);
    }
    Ok(Program { body })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Recursion depth: statements and expressions being parsed right now.
    depth: usize,
    /// Height of the expression tree parsed last (a leaf is 1).
    height: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), JsError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(JsError::at(
                JsErrorKind::Parse,
                format!("expected {p:?}, found {:?}", self.peek()),
                self.line(),
            ))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &TokenKind::Keyword(k) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, JsError> {
        match self.advance() {
            TokenKind::Ident(name) => Ok(name),
            other => Err(JsError::at(
                JsErrorKind::Parse,
                format!("expected identifier, found {other:?}"),
                self.line(),
            )),
        }
    }

    fn too_deep(&self) -> JsError {
        JsError::at(
            JsErrorKind::Parse,
            format!("nesting deeper than {MAX_NESTING} levels"),
            self.line(),
        )
    }

    /// Runs one recursive production a level further down. An error leaves
    /// `depth` as it is: the parse is over.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T, JsError>) -> Result<T, JsError> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = parse(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    /// Accounts for an expression node whose tallest child has height
    /// `child`.
    fn grow(&mut self, child: usize) -> Result<(), JsError> {
        self.height = child + 1;
        if self.height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    /// Parses the right operand of a binary node whose left operand was
    /// parsed last, and accounts for the node.
    fn right_operand(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, JsError>,
    ) -> Result<Expr, JsError> {
        let lhs_height = self.height;
        let rhs = operand(self)?;
        self.grow(lhs_height.max(self.height))?;
        Ok(rhs)
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, JsError> {
        self.nested(Self::statement_body)
    }

    fn statement_body(&mut self) -> Result<Stmt, JsError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Punct(Punct::Semi) => {
                self.advance();
                Ok(Stmt::Empty)
            }
            TokenKind::Punct(Punct::LBrace) => {
                self.advance();
                let body = self.block_body()?;
                Ok(Stmt::Block(body))
            }
            TokenKind::Keyword(Keyword::Var) => {
                self.advance();
                let mut decls = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    let init = if self.eat_punct(Punct::Assign) {
                        Some(self.expression()?)
                    } else {
                        None
                    };
                    decls.push(Stmt::VarDecl {
                        name,
                        binding: Binding::Global,
                        init,
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.eat_punct(Punct::Semi);
                Ok(match <[Stmt; 1]>::try_from(decls) {
                    Ok([decl]) => decl,
                    Err(decls) => Stmt::Block(decls),
                })
            }
            TokenKind::Keyword(Keyword::Function) => {
                self.advance();
                let name = self.expect_ident()?;
                self.expect_punct(Punct::LParen)?;
                let mut params = Vec::new();
                if !self.eat_punct(Punct::RParen) {
                    loop {
                        params.push(self.expect_ident()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                }
                self.expect_punct(Punct::LBrace)?;
                let mut body = self.block_body()?;
                let frame = resolve_function(&params, &mut body);
                Ok(Stmt::Function(Rc::new(FunctionDecl {
                    name,
                    params,
                    body,
                    frame,
                    line,
                })))
            }
            TokenKind::Keyword(Keyword::If) => {
                self.advance();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let then_branch = self.branch_body()?;
                let else_branch = if self.eat_keyword(Keyword::Else) {
                    self.branch_body()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.advance();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.branch_body()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.advance();
                self.expect_punct(Punct::LParen)?;
                let init = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    self.advance();
                    None
                } else {
                    let stmt = self.statement()?;
                    // `statement` consumed the `;` for var/expr statements.
                    Some(Box::new(stmt))
                };
                let cond = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::Semi)?;
                let update = if self.peek() == &TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = self.branch_body()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.advance();
                let value = if matches!(
                    self.peek(),
                    TokenKind::Punct(Punct::Semi)
                        | TokenKind::Punct(Punct::RBrace)
                        | TokenKind::Eof
                ) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat_punct(Punct::Semi);
                Ok(Stmt::Return(value))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.advance();
                self.eat_punct(Punct::Semi);
                Ok(Stmt::Break)
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.advance();
                self.eat_punct(Punct::Semi);
                Ok(Stmt::Continue)
            }
            _ => {
                let expr = self.expression()?;
                self.eat_punct(Punct::Semi);
                Ok(Stmt::Expr(expr))
            }
        }
    }

    /// Body of `{ ... }` whose opening brace is already consumed.
    fn block_body(&mut self) -> Result<Vec<Stmt>, JsError> {
        let mut body = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) {
                return Ok(body);
            }
            if self.at_eof() {
                return Err(JsError::at(
                    JsErrorKind::Parse,
                    "unclosed block",
                    self.line(),
                ));
            }
            body.push(self.statement()?);
        }
    }

    /// Either a braced block or a single statement (if/while/for bodies).
    fn branch_body(&mut self) -> Result<Vec<Stmt>, JsError> {
        if self.eat_punct(Punct::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expression(&mut self) -> Result<Expr, JsError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, JsError> {
        self.nested(Self::assignment_body)
    }

    fn assignment_body(&mut self) -> Result<Expr, JsError> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusAssign) => Some(AssignOp::Add),
            TokenKind::Punct(Punct::MinusAssign) => Some(AssignOp::Sub),
            TokenKind::Punct(Punct::StarAssign) => Some(AssignOp::Mul),
            TokenKind::Punct(Punct::SlashAssign) => Some(AssignOp::Div),
            _ => None,
        };
        if let Some(op) = op {
            let line = self.line();
            self.advance();
            let value = self.right_operand(Self::assignment)?;
            let target = match lhs {
                Expr::Ident { name, binding, .. } => AssignTarget::Ident { name, binding },
                Expr::Member { object, prop } => AssignTarget::Member { object, prop },
                Expr::Index { object, index } => AssignTarget::Index { object, index },
                _ => {
                    return Err(JsError::at(
                        JsErrorKind::Parse,
                        "invalid assignment target",
                        line,
                    ))
                }
            };
            return Ok(Expr::Assign {
                op,
                target,
                value: Box::new(value),
            });
        }
        Ok(lhs)
    }

    fn ternary(&mut self) -> Result<Expr, JsError> {
        let cond = self.logical_or()?;
        if self.eat_punct(Punct::Question) {
            let mut tallest = self.height;
            let then_expr = self.assignment()?;
            tallest = tallest.max(self.height);
            self.expect_punct(Punct::Colon)?;
            let else_expr = self.assignment()?;
            self.grow(tallest.max(self.height))?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
            });
        }
        Ok(cond)
    }

    fn logical_or(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.logical_and()?;
        while self.eat_punct(Punct::OrOr) {
            let rhs = self.right_operand(Self::logical_and)?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.equality()?;
        while self.eat_punct(Punct::AndAnd) {
            let rhs = self.right_operand(Self::equality)?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.comparison()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct(Punct::EqEq) => BinOp::Eq,
                TokenKind::Punct(Punct::NotEq) => BinOp::NotEq,
                TokenKind::Punct(Punct::EqEqEq) => BinOp::StrictEq,
                TokenKind::Punct(Punct::NotEqEq) => BinOp::StrictNotEq,
                _ => break,
            };
            self.advance();
            let rhs = self.right_operand(Self::comparison)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct(Punct::Lt) => BinOp::Lt,
                TokenKind::Punct(Punct::Gt) => BinOp::Gt,
                TokenKind::Punct(Punct::Le) => BinOp::Le,
                TokenKind::Punct(Punct::Ge) => BinOp::Ge,
                _ => break,
            };
            self.advance();
            let rhs = self.right_operand(Self::additive)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct(Punct::Plus) => BinOp::Add,
                TokenKind::Punct(Punct::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.right_operand(Self::multiplicative)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct(Punct::Star) => BinOp::Mul,
                TokenKind::Punct(Punct::Slash) => BinOp::Div,
                TokenKind::Punct(Punct::Percent) => BinOp::Rem,
                _ => break,
            };
            self.advance();
            let rhs = self.right_operand(Self::unary)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, JsError> {
        if self.eat_punct(Punct::Minus) {
            let expr = self.nested(Self::unary)?;
            self.grow(self.height)?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(expr),
            });
        }
        if self.eat_punct(Punct::Not) {
            let expr = self.nested(Self::unary)?;
            self.grow(self.height)?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(expr),
            });
        }
        if self.eat_punct(Punct::Plus) {
            // Unary plus: numeric coercion; parse as 0 + expr is wrong for
            // strings, so keep a dedicated Neg(Neg(x))-free representation:
            let expr = self.nested(Self::unary)?;
            self.grow(self.height + 1)?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(expr),
                }),
            });
        }
        if self.eat_keyword(Keyword::Typeof) {
            let expr = self.nested(Self::unary)?;
            self.grow(self.height)?;
            return Ok(Expr::Unary {
                op: UnOp::Typeof,
                expr: Box::new(expr),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, JsError> {
        let mut expr = self.primary()?;
        loop {
            // Each round wraps `expr`, whose height is `self.height`.
            let object_height = self.height;
            if self.eat_punct(Punct::LBracket) {
                let index = self.right_operand(Self::expression)?;
                self.expect_punct(Punct::RBracket)?;
                expr = Expr::Index {
                    object: Box::new(expr),
                    index: Box::new(index),
                };
                continue;
            }
            if self.eat_punct(Punct::Dot) {
                let prop = self.expect_ident()?;
                if self.peek() == &TokenKind::Punct(Punct::LParen) {
                    let line = self.line();
                    self.advance();
                    let args = self.call_args()?;
                    self.grow(object_height.max(self.height))?;
                    expr = Expr::MethodCall {
                        object: Box::new(expr),
                        method: prop,
                        args,
                        line,
                    };
                } else {
                    self.grow(object_height)?;
                    expr = Expr::Member {
                        object: Box::new(expr),
                        prop,
                    };
                }
                continue;
            }
            // Postfix ++/--
            let inc = match self.peek() {
                TokenKind::Punct(Punct::PlusPlus) => Some(true),
                TokenKind::Punct(Punct::MinusMinus) => Some(false),
                _ => None,
            };
            if let Some(inc) = inc {
                let line = self.line();
                self.advance();
                let target = match expr {
                    Expr::Ident { name, binding, .. } => AssignTarget::Ident { name, binding },
                    Expr::Member { object, prop } => AssignTarget::Member { object, prop },
                    Expr::Index { object, index } => AssignTarget::Index { object, index },
                    _ => {
                        return Err(JsError::at(
                            JsErrorKind::Parse,
                            "invalid increment target",
                            line,
                        ))
                    }
                };
                self.grow(object_height)?;
                expr = Expr::PostIncDec { target, inc };
                continue;
            }
            break;
        }
        Ok(expr)
    }

    /// The arguments of a call whose `(` is consumed; leaves the height of
    /// the tallest one (0 for none) in `self.height`.
    fn call_args(&mut self) -> Result<Vec<Expr>, JsError> {
        let mut args = Vec::new();
        let mut tallest = 0;
        if !self.eat_punct(Punct::RParen) {
            loop {
                args.push(self.expression()?);
                tallest = tallest.max(self.height);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.height = tallest;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, JsError> {
        let line = self.line();
        self.height = 1; // A leaf, unless an arm below says otherwise.
        match self.advance() {
            TokenKind::Num(n) => Ok(Expr::Num(n)),
            TokenKind::Str(s) => Ok(Expr::Str(s.into())),
            TokenKind::Keyword(Keyword::True) => Ok(Expr::Bool(true)),
            TokenKind::Keyword(Keyword::False) => Ok(Expr::Bool(false)),
            TokenKind::Keyword(Keyword::Null) => Ok(Expr::Null),
            TokenKind::Keyword(Keyword::Undefined) => Ok(Expr::Undefined),
            TokenKind::Keyword(Keyword::New) => {
                let class = self.expect_ident()?;
                let args = if self.eat_punct(Punct::LParen) {
                    let args = self.call_args()?;
                    self.grow(self.height)?;
                    args
                } else {
                    Vec::new()
                };
                Ok(Expr::New { class, args, line })
            }
            TokenKind::Punct(Punct::LParen) => {
                let expr = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(expr)
            }
            TokenKind::Punct(Punct::LBracket) => {
                let mut items = Vec::new();
                let mut tallest = 0;
                if !self.eat_punct(Punct::RBracket) {
                    loop {
                        items.push(self.expression()?);
                        tallest = tallest.max(self.height);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    self.expect_punct(Punct::RBracket)?;
                }
                self.grow(tallest)?;
                Ok(Expr::ArrayLit(items))
            }
            TokenKind::Punct(Punct::LBrace) => {
                let mut entries = Vec::new();
                let mut tallest = 0;
                if !self.eat_punct(Punct::RBrace) {
                    loop {
                        let key = match self.advance() {
                            TokenKind::Ident(name) => name,
                            TokenKind::Str(s) => s,
                            TokenKind::Num(n) => crate::value::format_number(n),
                            other => {
                                return Err(JsError::at(
                                    JsErrorKind::Parse,
                                    format!("bad object key {other:?}"),
                                    line,
                                ))
                            }
                        };
                        self.expect_punct(Punct::Colon)?;
                        let value = self.expression()?;
                        tallest = tallest.max(self.height);
                        entries.push((key, value));
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    self.expect_punct(Punct::RBrace)?;
                }
                self.grow(tallest)?;
                Ok(Expr::ObjectLit(entries))
            }
            TokenKind::Ident(name) => {
                if self.peek() == &TokenKind::Punct(Punct::LParen) {
                    self.advance();
                    let args = self.call_args()?;
                    self.grow(self.height)?;
                    Ok(Expr::Call {
                        callee: name,
                        args,
                        line,
                    })
                } else {
                    Ok(Expr::Ident {
                        name,
                        binding: Binding::Global,
                        line,
                    })
                }
            }
            other => Err(JsError::at(
                JsErrorKind::Parse,
                format!("unexpected token {other:?}"),
                line,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_decl() {
        let p = parse_program("function f(a, b) { return a + b; }").unwrap();
        match &p.body[0] {
            Stmt::Function(f) => {
                assert_eq!(f.name, "f");
                assert_eq!(f.params, vec!["a", "b"]);
                assert_eq!(f.body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let p = parse_program("1 + 2 * 3").unwrap();
        match &p.body[0] {
            Stmt::Expr(Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            }) => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn member_chain_and_method_call() {
        let p = parse_program("xhr.open('GET', url, false)").unwrap();
        match &p.body[0] {
            Stmt::Expr(Expr::MethodCall { method, args, .. }) => {
                assert_eq!(method, "open");
                assert_eq!(args.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn member_assignment() {
        let p = parse_program("el.innerHTML = '<p>x</p>'").unwrap();
        match &p.body[0] {
            Stmt::Expr(Expr::Assign {
                target: AssignTarget::Member { prop, .. },
                ..
            }) => assert_eq!(prop, "innerHTML"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn new_expression() {
        let p = parse_program("var x = new XMLHttpRequest();").unwrap();
        match &p.body[0] {
            Stmt::VarDecl {
                init: Some(Expr::New { class, .. }),
                ..
            } => {
                assert_eq!(class, "XMLHttpRequest");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_loop_parses() {
        let p = parse_program("for (var i = 0; i < 10; i++) { f(i); }").unwrap();
        assert!(matches!(&p.body[0], Stmt::For { .. }));
    }

    #[test]
    fn if_else_chains() {
        let p = parse_program("if (a) b(); else if (c) d(); else e();").unwrap();
        match &p.body[0] {
            Stmt::If { else_branch, .. } => {
                assert!(matches!(&else_branch[0], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_var_declaration() {
        let p = parse_program("var a = 1, b = 2;").unwrap();
        match &p.body[0] {
            Stmt::Block(decls) => assert_eq!(decls.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary() {
        let p = parse_program("a ? b : c").unwrap();
        assert!(matches!(&p.body[0], Stmt::Expr(Expr::Ternary { .. })));
    }

    #[test]
    fn missing_paren_is_parse_error() {
        let err = parse_program("if (a { b(); }").unwrap_err();
        assert_eq!(err.kind, JsErrorKind::Parse);
    }

    #[test]
    fn postfix_on_member() {
        let p = parse_program("obj.count++").unwrap();
        assert!(matches!(
            &p.body[0],
            Stmt::Expr(Expr::PostIncDec {
                target: AssignTarget::Member { .. },
                inc: true
            })
        ));
    }

    /// `open`, repeated `n` times around a `1`, closed by `close`.
    fn nest(open: &str, n: usize, close: &str) -> String {
        format!("{}1{}", open.repeat(n), close.repeat(n))
    }

    fn too_deep(src: &str) -> bool {
        match parse_program(src) {
            Ok(_) => false,
            Err(e) => {
                assert_eq!(e.kind, JsErrorKind::Parse, "{e}");
                assert!(e.message.contains("nesting deeper"), "{e}");
                true
            }
        }
    }

    #[test]
    fn runaway_nesting_is_a_syntax_error_not_a_stack_overflow() {
        for (open, close) in [
            ("(", ")"),
            ("[", "]"),
            ("{a:", "}"),
            ("f(", ")"),
            ("- ", ""),
            ("!", ""),
            ("typeof ", ""),
            ("x = ", ""),
            ("1 ? 1 : ", ""),
            ("1 + ", ""),
            ("1 && ", ""),
            ("x[", "]"),
        ] {
            let src = format!("var x = {};", nest(open, 20_000, close));
            assert!(too_deep(&src), "{open}…{close}");
            // A few levels of the same construct are ordinary code.
            let src = format!("var x = {};", nest(open, 8, close));
            assert!(parse_program(&src).is_ok(), "{open}…{close}");
        }
        for (open, close) in [
            ("{", "}"),
            ("function f() {", "}"),
            ("if (a) {", "}"),
            ("if (a) b(); else ", ""),
            ("while (a) ", ""),
            ("for (;;) ", ""),
        ] {
            let body = |n: usize| format!("{}x = 1;{}", open.repeat(n), close.repeat(n));
            assert!(too_deep(&body(20_000)), "{open}…{close}");
            assert!(parse_program(&body(8)).is_ok(), "{open}…{close}");
        }
        assert!(too_deep(&format!("x{};", ".y".repeat(20_000))));
        assert!(too_deep(&format!("x{};", ".y()".repeat(20_000))));
        assert!(too_deep(&format!("x{};", "[0]".repeat(20_000))));
    }

    #[test]
    fn the_bound_is_on_tree_height_exactly() {
        // `1+1+…+1` with n terms is a left-deep tree of height n.
        let sum = |terms: usize| format!("1{}", "+1".repeat(terms - 1));
        assert!(parse_program(&sum(MAX_NESTING)).is_ok());
        assert!(too_deep(&sum(MAX_NESTING + 1)));
        // A chain keeps its height when it becomes an operand, an argument,
        // an element or an index of something else.
        for (open, close) in [
            ("f(", ")"),
            ("[", "]"),
            ("-(", ")"),
            ("a[", "]"),
            ("2*(", ")"),
        ] {
            let wrap = |terms: usize| format!("{open}{}{close}", sum(terms));
            assert!(parse_program(&wrap(MAX_NESTING - 1)).is_ok(), "{open}");
            assert!(too_deep(&wrap(MAX_NESTING)), "{open}");
        }
        // Siblings do not add up: only the tallest child counts.
        let wide = format!("f({})", vec![sum(MAX_NESTING - 1); 40].join(", "));
        assert!(parse_program(&wide).is_ok());
    }

    #[test]
    fn string_plus_parses_left_assoc() {
        let p = parse_program("'a' + b + 'c'").unwrap();
        match &p.body[0] {
            Stmt::Expr(Expr::Binary { lhs, .. }) => {
                assert!(matches!(**lhs, Expr::Binary { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
