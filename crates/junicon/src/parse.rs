//! Recursive-descent parser for the Unicon subset.
//!
//! Precedence (loosest to tightest), following Icon:
//!
//! ```text
//!   :=                      (assignment, right associative)
//!   &                       (product / conjunction)
//!   |                       (alternation)
//!   to .. by
//!   < <= > >= = ~= == ~== << <<= >> >>= ===   (comparisons)
//!   ||                      (concatenation)
//!   + -
//!   * / %
//!   ^                       (exponentiation, right associative)
//!   unary  - * ! @ ^ <> |<> |> not
//!   postfix  f(args) o::m(args) x[i] o.f e\n
//! ```

use crate::ast::{BinOp, ClassDecl, Expr, ProcDecl, Program, UnOp};
use crate::lex::{lex, Kw, LexError, Spanned, Tok};
use std::fmt;

/// Parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            at: e.at,
            msg: e.msg,
        }
    }
}

/// Deepest expression tree the parser builds: nested operands, brackets
/// and bodies, and links of one operator chain, all count. The parser and
/// every later pass recurse over that tree, so this is what keeps hostile
/// input from overflowing the stack (in a debug build a 2 MiB thread
/// survives about 80 levels of parenthesis). The metaparser bounds the
/// nesting of scoped annotations by the same number.
pub(crate) const MAX_DEPTH: usize = 64;

/// Parse a whole embedded region: procedure declarations and top-level
/// statements.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src)?;
    let mut prog = Program::default();
    while !p.at_end() {
        // allow stray semicolons between declarations
        if p.eat(&Tok::Semi) {
            continue;
        }
        if p.peek_kw(Kw::Def) || p.peek_kw(Kw::Procedure) || p.peek_kw(Kw::Method) {
            prog.procs.push(p.proc_decl()?);
        } else if p.peek_kw(Kw::Class) {
            prog.classes.push(p.class_decl()?);
        } else {
            prog.stmts.push(p.statement()?);
            // statement separator
            if !p.at_end() && !p.eat(&Tok::Semi) {
                // brace-terminated statements (blocks, if, while...) need no ';'
            }
        }
    }
    Ok(prog)
}

/// Parse a single expression (for REPL / tests).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    if !p.at_end() {
        return Err(p.error("trailing input after expression"));
    }
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// A bound on the depth of the tree under construction.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        let toks = lex(src)?;
        Ok(Parser {
            toks,
            pos: 0,
            depth: 0,
        })
    }

    /// One level deeper: a nested operand, or one more link of an operator
    /// chain. Fails past [`MAX_DEPTH`].
    fn deepen(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("expression deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `parse` one level down; what it deepened ends with it.
    fn nested(
        &mut self,
        parse: fn(&mut Parser) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let outer = self.depth;
        self.deepen()?;
        let parsed = parse(self);
        self.depth = outer;
        parsed
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek_kw(&self, kw: Kw) -> bool {
        matches!(self.peek(), Some(Tok::Keyword(k)) if *k == kw)
    }

    fn at(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| s.at)
            .unwrap_or(0)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.at(),
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---- declarations ----------------------------------------------------

    /// `def f(a,b) { body }` | `procedure f(a,b); body...; end` |
    /// `method f(a,b) { body }`
    fn proc_decl(&mut self) -> Result<ProcDecl, ParseError> {
        let braced = match self.bump() {
            Some(Tok::Keyword(Kw::Def)) | Some(Tok::Keyword(Kw::Method)) => true,
            Some(Tok::Keyword(Kw::Procedure)) => false,
            other => return Err(self.error(format!("expected def/procedure, found {other:?}"))),
        };
        let name = self.ident()?;
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                params.push(self.ident()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "',' or ')'")?;
            }
        }
        let mut body = Vec::new();
        if braced {
            self.expect(&Tok::LBrace, "'{'")?;
            while !self.eat(&Tok::RBrace) {
                if self.eat(&Tok::Semi) {
                    continue;
                }
                body.push(self.statement()?);
            }
        } else {
            // procedure ... end form, optional leading ';'
            while !self.eat_kw(Kw::End) {
                if self.eat(&Tok::Semi) {
                    continue;
                }
                if self.at_end() {
                    return Err(self.error("missing 'end' in procedure"));
                }
                body.push(self.statement()?);
            }
        }
        Ok(ProcDecl { name, params, body })
    }

    /// `class Name(f1, f2) { method m(..) {..} ... }` or
    /// `class Name(f1, f2) ... method decls ... end`.
    fn class_decl(&mut self) -> Result<ClassDecl, ParseError> {
        self.pos += 1; // 'class'
        let name = self.ident()?;
        self.expect(&Tok::LParen, "'(' after class name")?;
        let mut fields = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                fields.push(self.ident()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "',' or ')'")?;
            }
        }
        let braced = self.eat(&Tok::LBrace);
        let mut methods = Vec::new();
        loop {
            if braced {
                if self.eat(&Tok::RBrace) {
                    break;
                }
            } else if self.eat_kw(Kw::End) {
                break;
            }
            if self.eat(&Tok::Semi) {
                continue;
            }
            if self.peek_kw(Kw::Method) || self.peek_kw(Kw::Def) || self.peek_kw(Kw::Procedure) {
                methods.push(self.proc_decl()?);
            } else if self.at_end() {
                return Err(self.error("unterminated class declaration"));
            } else {
                return Err(self.error("expected method declaration in class body"));
            }
        }
        Ok(ClassDecl {
            name,
            fields,
            methods,
        })
    }

    // ---- statements -------------------------------------------------------

    /// Statement = declaration | suspend/return/fail/break/next | expr.
    fn statement(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw(Kw::Local)
            || self.eat_kw(Kw::Var)
            || self.eat_kw(Kw::Static)
            || self.eat_kw(Kw::Global)
        {
            let mut decls = Vec::new();
            loop {
                let name = self.ident()?;
                let init = if self.eat(&Tok::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                decls.push((name, init));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            return Ok(Expr::Decl(decls));
        }
        if self.eat_kw(Kw::Suspend) {
            return Ok(Expr::Suspend(Box::new(self.expr()?)));
        }
        if self.eat_kw(Kw::Return) {
            // `return` with no expression
            if self.at_end()
                || matches!(self.peek(), Some(Tok::Semi) | Some(Tok::RBrace))
                || self.peek_kw(Kw::End)
            {
                return Ok(Expr::Return(None));
            }
            return Ok(Expr::Return(Some(Box::new(self.expr()?))));
        }
        if self.eat_kw(Kw::Fail) {
            return Ok(Expr::Fail);
        }
        if self.eat_kw(Kw::Break) {
            return Ok(Expr::Break);
        }
        if self.eat_kw(Kw::Next) {
            return Ok(Expr::Next);
        }
        self.expr()
    }

    // ---- expressions -------------------------------------------------------

    /// Every bracketed expression, argument, statement and body is parsed
    /// through here: one level down from whatever encloses it.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::assign_expr)
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.product_expr()?;
        if self.eat(&Tok::Assign) {
            let rhs = self.nested(Parser::assign_expr)?; // right associative
            return Ok(Expr::Assign(Box::new(lhs), Box::new(rhs)));
        }
        if self.eat(&Tok::RevAssign) {
            let rhs = self.nested(Parser::assign_expr)?;
            return Ok(Expr::RevAssign(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn product_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.alt_expr()?;
        while self.eat(&Tok::Amp) {
            self.deepen()?;
            let rhs = self.alt_expr()?;
            lhs = Expr::Product(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn alt_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.scan_expr()?;
        while self.eat(&Tok::Bar) {
            self.deepen()?;
            let rhs = self.scan_expr()?;
            lhs = Expr::Alt(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn scan_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.range_expr()?;
        while self.eat(&Tok::Question) {
            self.deepen()?;
            let rhs = self.range_expr()?;
            lhs = Expr::Scan(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn range_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.cmp_expr()?;
        if self.eat_kw(Kw::To) {
            let hi = self.cmp_expr()?;
            let by = if self.eat_kw(Kw::By) {
                Some(Box::new(self.cmp_expr()?))
            } else {
                None
            };
            return Ok(Expr::To {
                from: Box::new(lhs),
                to: Box::new(hi),
                by,
            });
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.concat_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::Le) => BinOp::Le,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::Ge) => BinOp::Ge,
                Some(Tok::Eq) => BinOp::NumEq,
                Some(Tok::Ne) => BinOp::NumNe,
                Some(Tok::SEq) => BinOp::StrEq,
                Some(Tok::SNe) => BinOp::StrNe,
                Some(Tok::SLt) => BinOp::StrLt,
                Some(Tok::SLe) => BinOp::StrLe,
                Some(Tok::SGt) => BinOp::StrGt,
                Some(Tok::SGe) => BinOp::StrGe,
                Some(Tok::EqEqEq) => BinOp::Equiv,
                _ => break,
            };
            self.pos += 1;
            self.deepen()?;
            let rhs = self.concat_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn concat_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.add_expr()?;
        while self.eat(&Tok::BarBar) {
            self.deepen()?;
            let rhs = self.add_expr()?;
            lhs = Expr::Binary(BinOp::Concat, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.deepen()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.pow_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            self.deepen()?;
            let rhs = self.pow_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pow_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.unary_expr()?;
        if self.eat(&Tok::Caret) {
            let rhs = self.nested(Parser::pow_expr)?; // right associative
            return Ok(Expr::Binary(BinOp::Pow, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(Tok::Minus) => Some(UnOp::Neg),
            Some(Tok::Star) => Some(UnOp::Size),
            Some(Tok::Bang) => Some(UnOp::Promote),
            Some(Tok::At) => Some(UnOp::Activate),
            Some(Tok::Caret) => Some(UnOp::Refresh),
            Some(Tok::Diamond) => Some(UnOp::FirstClass),
            Some(Tok::BarDiamond) => Some(UnOp::CoExpr),
            Some(Tok::PipeOp) => Some(UnOp::Pipe),
            Some(Tok::Dot) => Some(UnOp::Deref),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let operand = self.nested(Parser::unary_expr)?;
            return Ok(Expr::Unary(op, Box::new(operand)));
        }
        if self.eat_kw(Kw::Not) {
            let operand = self.nested(Parser::unary_expr)?;
            return Ok(Expr::Not(Box::new(operand)));
        }
        if self.eat_kw(Kw::Create) {
            let operand = self.nested(Parser::unary_expr)?;
            return Ok(Expr::Create(Box::new(operand)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Some(Tok::LParen) => {
                    self.pos += 1;
                    let args = self.arg_list()?;
                    e = Expr::Call(Box::new(e), args);
                }
                Some(Tok::LBracket) => {
                    self.pos += 1;
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket, "']'")?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Some(Tok::Dot) => {
                    self.pos += 1;
                    let field = self.ident()?;
                    e = Expr::Field(Box::new(e), field);
                }
                Some(Tok::ColonColon) => {
                    self.pos += 1;
                    let method = self.ident()?;
                    self.expect(&Tok::LParen, "'(' after '::' method")?;
                    let args = self.arg_list()?;
                    e = Expr::NativeCall(Box::new(e), method, args);
                }
                Some(Tok::Backslash) => {
                    self.pos += 1;
                    let n = self.unary_expr()?;
                    e = Expr::Limit(Box::new(e), Box::new(n));
                }
                _ => break,
            }
            self.deepen()?;
        }
        Ok(e)
    }

    fn arg_list(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.eat(&Tok::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat(&Tok::RParen) {
                return Ok(args);
            }
            self.expect(&Tok::Comma, "',' or ')'")?;
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::BigInt(s)) => Ok(Expr::BigLit(s)),
            Some(Tok::Real(v)) => Ok(Expr::Real(v)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::Ident(s)) => Ok(Expr::Var(s)),
            Some(Tok::Keyword(Kw::Null)) => Ok(Expr::Null),
            Some(Tok::Amp) => {
                // &null / &fail / &keyword — only inside primary position
                // after bump of '&' we need an identifier
                match self.bump() {
                    // &null and &fail are the canonical Null/Fail nodes so
                    // that printing and parsing agree.
                    Some(Tok::Ident(name)) if name == "null" => Ok(Expr::Null),
                    Some(Tok::Ident(name)) if name == "fail" => Ok(Expr::Fail),
                    Some(Tok::Ident(name)) => Ok(Expr::KeywordAmp(name)),
                    Some(Tok::Keyword(Kw::Null)) => Ok(Expr::Null),
                    Some(Tok::Keyword(Kw::Fail)) => Ok(Expr::Fail),
                    other => {
                        Err(self.error(format!("expected keyword after '&', found {other:?}")))
                    }
                }
            }
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if !self.eat(&Tok::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if self.eat(&Tok::RBracket) {
                            break;
                        }
                        self.expect(&Tok::Comma, "',' or ']'")?;
                    }
                }
                Ok(Expr::List(items))
            }
            Some(Tok::LBrace) => {
                let mut stmts = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    if self.eat(&Tok::Semi) {
                        continue;
                    }
                    stmts.push(self.statement()?);
                }
                Ok(Expr::Block(stmts))
            }
            Some(Tok::Keyword(Kw::If)) => {
                let cond = self.expr()?;
                if !self.eat_kw(Kw::Then) {
                    return Err(self.error("expected 'then'"));
                }
                let then = self.statement()?;
                let els = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els,
                })
            }
            Some(Tok::Keyword(Kw::While)) => {
                let cond = self.expr()?;
                let body = if self.eat_kw(Kw::Do) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Expr::While {
                    cond: Box::new(cond),
                    body,
                })
            }
            Some(Tok::Keyword(Kw::Until)) => {
                let cond = self.expr()?;
                let body = if self.eat_kw(Kw::Do) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Expr::Until {
                    cond: Box::new(cond),
                    body,
                })
            }
            Some(Tok::Keyword(Kw::Every)) => {
                let source = self.expr()?;
                let body = if self.eat_kw(Kw::Do) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Expr::Every {
                    source: Box::new(source),
                    body,
                })
            }
            Some(Tok::Keyword(Kw::Repeat)) => {
                let body = self.statement()?;
                Ok(Expr::Repeat(Box::new(body)))
            }
            Some(Tok::Keyword(Kw::Fail)) => Ok(Expr::Fail),
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;

    #[test]
    fn precedence_product_looser_than_alternation() {
        // a & b | c  parses as  a & (b | c)
        let e = parse_expr("a & b | c").unwrap();
        match e {
            E::Product(_, rhs) => assert!(matches!(*rhs, E::Alt(_, _))),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            E::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, E::Binary(BinOp::Mul, _, _)))
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn pow_is_right_associative() {
        let e = parse_expr("2 ^ 3 ^ 2").unwrap();
        match e {
            E::Binary(BinOp::Pow, _, rhs) => {
                assert!(matches!(*rhs, E::Binary(BinOp::Pow, _, _)))
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn comparisons_chain_left() {
        // 1 <= x <= 10 parses as (1 <= x) <= 10 — exactly Icon's chaining.
        let e = parse_expr("1 <= x <= 10").unwrap();
        match e {
            E::Binary(BinOp::Le, lhs, _) => {
                assert!(matches!(*lhs, E::Binary(BinOp::Le, _, _)))
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn to_by_range() {
        let e = parse_expr("1 to 10 by 2").unwrap();
        match e {
            E::To { by: Some(_), .. } => {}
            other => panic!("got {other:?}"),
        }
        assert!(matches!(
            parse_expr("i to j").unwrap(),
            E::To { by: None, .. }
        ));
    }

    #[test]
    fn assignment_right_associative() {
        let e = parse_expr("a := b := 1").unwrap();
        match e {
            E::Assign(_, rhs) => assert!(matches!(*rhs, E::Assign(_, _))),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn unary_concurrency_operators() {
        assert!(matches!(
            parse_expr("<> f(x)").unwrap(),
            E::Unary(UnOp::FirstClass, _)
        ));
        assert!(matches!(
            parse_expr("|<> g()").unwrap(),
            E::Unary(UnOp::CoExpr, _)
        ));
        assert!(matches!(
            parse_expr("|> h(y)").unwrap(),
            E::Unary(UnOp::Pipe, _)
        ));
        assert!(matches!(
            parse_expr("@c").unwrap(),
            E::Unary(UnOp::Activate, _)
        ));
        assert!(matches!(
            parse_expr("^c").unwrap(),
            E::Unary(UnOp::Refresh, _)
        ));
        assert!(matches!(
            parse_expr("!xs").unwrap(),
            E::Unary(UnOp::Promote, _)
        ));
        assert!(matches!(
            parse_expr("*xs").unwrap(),
            E::Unary(UnOp::Size, _)
        ));
    }

    #[test]
    fn create_is_first_class_synonym() {
        assert!(matches!(parse_expr("create f()").unwrap(), E::Create(_)));
    }

    #[test]
    fn the_paper_pipeline_expression_parses() {
        // From Fig. 3's runPipeline body.
        let e = parse_expr("hashNumber( ! (|> wordToNumber( ! splitWords(readLines()))))").unwrap();
        // shape: Call(hashNumber, [Promote(Pipe(Call(wordToNumber, ...)))])
        match e {
            E::Call(callee, args) => {
                assert_eq!(*callee, E::var("hashNumber"));
                assert!(matches!(&args[0], E::Unary(UnOp::Promote, inner)
                    if matches!(&**inner, E::Unary(UnOp::Pipe, _))));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn native_call_disambiguation() {
        // line::split("\s+") — '::' marks native invocation.
        let e = parse_expr(r#"line::split("x")"#).unwrap();
        match e {
            E::NativeCall(obj, method, args) => {
                assert_eq!(*obj, E::var("line"));
                assert_eq!(method, "split");
                assert_eq!(args.len(), 1);
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn calls_index_field_chain() {
        let e = parse_expr("e(ex, ey).c[ei]").unwrap();
        match e {
            E::Index(base, _) => match *base {
                E::Field(call, ref name) => {
                    assert_eq!(name, "c");
                    assert!(matches!(*call, E::Call(_, _)));
                }
                other => panic!("got {other:?}"),
            },
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn limitation_operator() {
        let e = parse_expr("f(x) \\ 3").unwrap();
        assert!(matches!(e, E::Limit(_, _)));
    }

    #[test]
    fn control_constructs() {
        assert!(matches!(
            parse_expr("if x < 1 then 2 else 3").unwrap(),
            E::If { els: Some(_), .. }
        ));
        assert!(matches!(
            parse_expr("while x do f(x)").unwrap(),
            E::While { body: Some(_), .. }
        ));
        assert!(matches!(
            parse_expr("every x := 1 to 3 do put(l, x)").unwrap(),
            E::Every { body: Some(_), .. }
        ));
        assert!(matches!(
            parse_expr("until done").unwrap(),
            E::Until { body: None, .. }
        ));
    }

    #[test]
    fn list_literal_and_block() {
        assert_eq!(
            parse_expr("[1, 2, 3]").unwrap(),
            E::List(vec![E::Int(1), E::Int(2), E::Int(3)])
        );
        assert_eq!(parse_expr("[]").unwrap(), E::List(vec![]));
        let block = parse_expr("{ a := 1; b := 2; a + b }").unwrap();
        match block {
            E::Block(stmts) => assert_eq!(stmts.len(), 3),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn program_with_def_and_statements() {
        let prog = parse_program(
            "def squares(n) { suspend (1 to n) * (1 to n); }\n\
             total := 0;\n\
             every total := total + squares(3);",
        )
        .unwrap();
        assert_eq!(prog.procs.len(), 1);
        assert_eq!(prog.procs[0].name, "squares");
        assert_eq!(prog.procs[0].params, vec!["n"]);
        assert_eq!(prog.stmts.len(), 2);
    }

    #[test]
    fn procedure_end_form() {
        let prog = parse_program("procedure add(a, b)\n  return a + b\nend").unwrap();
        assert_eq!(prog.procs[0].name, "add");
        assert_eq!(prog.procs[0].body.len(), 1);
        assert!(matches!(prog.procs[0].body[0], E::Return(Some(_))));
    }

    #[test]
    fn local_declarations() {
        let prog = parse_program("def f() { local a, b := 2; return b; }").unwrap();
        match &prog.procs[0].body[0] {
            E::Decl(decls) => {
                assert_eq!(decls.len(), 2);
                assert_eq!(decls[0].0, "a");
                assert!(decls[0].1.is_none());
                assert!(decls[1].1.is_some());
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn keyword_amp_literals() {
        assert_eq!(parse_expr("&null").unwrap(), E::Null);
        assert_eq!(parse_expr("&fail").unwrap(), E::Fail);
        assert_eq!(parse_expr("&pos").unwrap(), E::KeywordAmp("pos".into()));
    }

    #[test]
    fn amp_is_product_in_infix_position() {
        let e = parse_expr("x & y").unwrap();
        assert!(matches!(e, E::Product(_, _)));
    }

    #[test]
    fn hostile_depth_is_an_error_not_a_stack_overflow() {
        // 100 000 levels on this 2 MiB test thread, by nesting and by chain.
        let n = 100_000;
        for src in [
            format!("{}x{}", "(".repeat(n), ")".repeat(n)),
            format!("{}x{}", "[".repeat(n), "]".repeat(n)),
            format!("{}x{}", "f(".repeat(n), ")".repeat(n)),
            format!("{}x", "if x then ".repeat(n)),
            format!("{}x", "- ".repeat(n)),
            format!("{}1", "x := ".repeat(n)),
            format!("{}1", "2 ^ ".repeat(n)),
            format!("{}1", "1 + ".repeat(n)),
            format!("x{}", ".f".repeat(n)),
        ] {
            let err = parse_expr(&src).unwrap_err();
            assert!(err.msg.contains("deeper than"), "{err}");
            assert!(err.at < src.len());
        }
        // A tree of exactly MAX_DEPTH levels still parses, and a level ends
        // with the statement that opened it.
        let n = MAX_DEPTH - 1;
        let deep = format!("{}x{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse_expr(&deep).unwrap(), Expr::var("x"));
        assert!(parse_expr(&format!("{}1", "1 + ".repeat(n))).is_ok());
        let long = format!("def f(x) {{ {} }}", "x := x + 1 * 2; ".repeat(10 * n));
        assert_eq!(parse_program(&long).unwrap().procs[0].body.len(), 10 * n);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("(1").is_err());
        assert!(parse_expr("if x then").is_err());
        assert!(parse_program("def f( { }").is_err());
    }

    #[test]
    fn mapreduce_figure4_parses() {
        // The chunk generator function from Fig. 4 (adapted to the subset).
        let src = r#"
            def chunk(e) {
                local chunk;
                chunk := [];
                while put(chunk, @e) do {
                    if *chunk >= 3 then { suspend chunk; chunk := []; };
                };
                if *chunk > 0 then { return chunk; };
            }
        "#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.procs[0].name, "chunk");
        assert_eq!(prog.procs[0].body.len(), 4); // decl, init, while, if
    }
}
