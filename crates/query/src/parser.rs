//! Text syntax for queries, MXQL and mappings.
//!
//! The concrete syntax follows the paper's examples:
//!
//! ```text
//! select s.hid, m
//! from Portal.estates s, Portal.contacts c, c.title@map m
//! where s.contact = c.title and e = c.title@elem
//!   and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>
//! ```
//!
//! The union-choice arrow `→` is written `->` (as in `a.title->name`), the
//! double arrow `⇒` of the what-provenance predicate is written `=>`, and
//! both Unicode arrows are accepted as well. Mappings are written
//! `foreach <query> exists <query>` (Section 4.3); see
//! [`parse_mapping_parts`].

use crate::ast::*;
use dtr_model::value::AtomicValue;
use std::fmt;

/// A parse error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Dot,
    Comma,
    Colon,
    LParen,
    RParen,
    At,
    Arrow,       // ->
    DoubleArrow, // =>
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Decode a full char so that the Unicode arrows lex correctly.
        // invariant: `i < bytes.len()` (loop condition) and `i` only ever
        // advances by whole-char widths, so the slice is non-empty and
        // starts on a char boundary — `next()` cannot return `None`.
        let c = input[i..].chars().next().expect("in-bounds index");
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '.' => {
                toks.push(Spanned {
                    tok: Tok::Dot,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                toks.push(Spanned {
                    tok: Tok::Comma,
                    offset: start,
                });
                i += 1;
            }
            ':' => {
                toks.push(Spanned {
                    tok: Tok::Colon,
                    offset: start,
                });
                i += 1;
            }
            '(' => {
                toks.push(Spanned {
                    tok: Tok::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                toks.push(Spanned {
                    tok: Tok::RParen,
                    offset: start,
                });
                i += 1;
            }
            '@' => {
                toks.push(Spanned {
                    tok: Tok::At,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Spanned {
                        tok: Tok::Arrow,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1).map(|b| b.is_ascii_digit()) == Some(true) {
                    let (tok, next) = lex_number(input, i)?;
                    toks.push(Spanned { tok, offset: start });
                    i = next;
                } else {
                    return Err(ParseError {
                        offset: start,
                        message: "unexpected `-`".into(),
                    });
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Spanned {
                        tok: Tok::DoubleArrow,
                        offset: start,
                    });
                    i += 2;
                } else {
                    toks.push(Spanned {
                        tok: Tok::Eq,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Spanned {
                        tok: Tok::Le,
                        offset: start,
                    });
                    i += 2;
                } else {
                    toks.push(Spanned {
                        tok: Tok::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Spanned {
                        tok: Tok::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    toks.push(Spanned {
                        tok: Tok::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Spanned {
                        tok: Tok::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(ParseError {
                        offset: start,
                        message: "unexpected `!`".into(),
                    });
                }
            }
            '\'' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ParseError {
                        offset: start,
                        message: "unterminated string literal".into(),
                    });
                }
                toks.push(Spanned {
                    tok: Tok::Str(input[i + 1..j].to_owned()),
                    offset: start,
                });
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let (tok, next) = lex_number(input, i)?;
                toks.push(Spanned { tok, offset: start });
                i = next;
            }
            _ if c.is_ascii_alphabetic() || c == '_' || c == '/' => {
                // `/`-initial identifiers support bare element paths.
                let mut j = i + 1;
                while j < bytes.len() {
                    let b = bytes[j] as char;
                    if b.is_ascii_alphanumeric() || b == '_' || b == '/' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Spanned {
                    tok: Tok::Ident(input[i..j].to_owned()),
                    offset: start,
                });
                i = j;
            }
            '\u{2192}' => {
                // Unicode `→`
                toks.push(Spanned {
                    tok: Tok::Arrow,
                    offset: start,
                });
                i += '\u{2192}'.len_utf8();
            }
            '\u{21d2}' => {
                // Unicode `⇒`
                toks.push(Spanned {
                    tok: Tok::DoubleArrow,
                    offset: start,
                });
                i += '\u{21d2}'.len_utf8();
            }
            other => {
                return Err(ParseError {
                    offset: start,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(toks)
}

fn lex_number(input: &str, start: usize) -> Result<(Tok, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut j = start;
    if bytes[j] == b'-' {
        j += 1;
    }
    while j < bytes.len() && bytes[j].is_ascii_digit() {
        j += 1;
    }
    let mut is_float = false;
    if j < bytes.len()
        && bytes[j] == b'.'
        && bytes.get(j + 1).map(|b| b.is_ascii_digit()) == Some(true)
    {
        is_float = true;
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
    }
    let text = &input[start..j];
    let tok = if is_float {
        Tok::Float(text.parse().map_err(|_| ParseError {
            offset: start,
            message: format!("invalid float literal `{text}`"),
        })?)
    } else {
        Tok::Int(text.parse().map_err(|_| ParseError {
            offset: start,
            message: format!("invalid integer literal `{text}`"),
        })?)
    };
    Ok((tok, j))
}

/// Maximum expression nesting the recursive-descent parser accepts. Each
/// nesting level (a function-call argument containing another call) is one
/// stack frame, so a hostile `f(f(f(…)))` input would otherwise overflow
/// the stack instead of returning a [`ParseError`].
const MAX_EXPR_DEPTH: usize = 128;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    input_len: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.input_len)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            Some(t) => Err(ParseError {
                offset: self.toks[self.pos - 1].offset,
                message: format!("expected {what}, found {t:?}"),
            }),
            None => Err(ParseError {
                offset: self.input_len,
                message: format!("expected {what}, found end of input"),
            }),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Ident(id)) if id.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.error(format!("expected keyword `{kw}`, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(id)) if id.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(id)) => Ok(id),
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    /// query := 'select' exprs 'from' bindings? ('where' conds)?
    fn query(&mut self) -> Result<Query, ParseError> {
        self.keyword("select")?;
        let mut select = Vec::new();
        loop {
            select.push(self.expr()?);
            if self.peek() == Some(&Tok::Comma) {
                self.next();
            } else {
                break;
            }
        }
        self.keyword("from")?;
        let mut from = Vec::new();
        // Example 5.6 has an empty from clause: `from where <...>`.
        if !self.at_keyword("where") && self.peek().is_some() && !self.at_terminator() {
            loop {
                let source = self.expr()?;
                let var = self.ident("binding variable")?;
                from.push(Binding { var, source });
                if self.peek() == Some(&Tok::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let mut conditions = Vec::new();
        if self.at_keyword("where") {
            self.next();
            loop {
                conditions.push(self.condition()?);
                if self.at_keyword("and") {
                    self.next();
                } else {
                    break;
                }
            }
        }
        // Extension tail: `order by expr [desc] (, expr [desc])*` and
        // `limit N`.
        let mut order_by = Vec::new();
        if self.at_keyword("order") {
            self.next();
            self.keyword("by")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.at_keyword("desc") {
                    self.next();
                    true
                } else {
                    if self.at_keyword("asc") {
                        self.next();
                    }
                    false
                };
                order_by.push(OrderKey { expr, descending });
                if self.peek() == Some(&Tok::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.at_keyword("limit") {
            self.next();
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => limit = Some(n as usize),
                other => return Err(self.error(format!("expected a limit count, found {other:?}"))),
            }
        }
        Ok(Query {
            select,
            from,
            conditions,
            order_by,
            limit,
        })
    }

    /// True when at a token that ends a query in a larger construct
    /// (`exists` inside a mapping).
    fn at_terminator(&self) -> bool {
        self.at_keyword("exists")
    }

    /// expr := primary step* ('@' ('map'|'elem'))?
    ///
    /// Recursion is bounded: deeper than [`MAX_EXPR_DEPTH`] nested calls is
    /// a parse error, never a stack overflow.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(self.error(format!(
                "expression nesting exceeds {MAX_EXPR_DEPTH} levels"
            )));
        }
        let result = self.expr_unbounded();
        self.depth -= 1;
        result
    }

    fn expr_unbounded(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Str(s)) => {
                self.next();
                Ok(Expr::Const(AtomicValue::str(s)))
            }
            Some(Tok::Int(i)) => {
                self.next();
                Ok(Expr::Const(AtomicValue::Int(i)))
            }
            Some(Tok::Float(x)) => {
                self.next();
                Ok(Expr::Const(AtomicValue::Float(x)))
            }
            Some(Tok::Ident(id)) => {
                // Function call?
                if self.peek2() == Some(&Tok::LParen) {
                    self.next();
                    self.next();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.next();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    return Ok(Expr::Call(id, args));
                }
                self.next();
                let mut path = PathExpr {
                    start: PathStart::Var(id),
                    steps: Vec::new(),
                };
                loop {
                    match self.peek() {
                        Some(Tok::Dot) => {
                            self.next();
                            let l = self.ident("projection label")?;
                            path.steps.push(Step::Project(l.into()));
                        }
                        Some(Tok::Arrow) => {
                            self.next();
                            let l = self.ident("choice label")?;
                            path.steps.push(Step::Choice(l.into()));
                        }
                        Some(Tok::At) => {
                            self.next();
                            let op = self.ident("`map` or `elem`")?;
                            return match op.as_str() {
                                "map" => Ok(Expr::MapOf(path)),
                                "elem" => Ok(Expr::ElemOf(path)),
                                other => {
                                    Err(self
                                        .error(format!("unknown annotation operator `@{other}`")))
                                }
                            };
                        }
                        _ => break,
                    }
                }
                Ok(Expr::Path(path))
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    /// cond := mapping_pred | expr op expr
    fn condition(&mut self) -> Result<Condition, ParseError> {
        if self.peek() == Some(&Tok::Lt) {
            // Try a mapping predicate with backtracking.
            let save = self.pos;
            match self.mapping_pred() {
                Ok(p) => return Ok(Condition::MapPred(p)),
                Err(_) => self.pos = save,
            }
        }
        let left = self.expr()?;
        let op = match self.next() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            other => {
                return Err(self.error(format!("expected comparison operator, found {other:?}")))
            }
        };
        let right = self.expr()?;
        Ok(Condition::Cmp(Comparison { left, op, right }))
    }

    /// mapping_pred := '<' term ':' term arr term arr term ':' term '>'
    fn mapping_pred(&mut self) -> Result<MappingPred, ParseError> {
        self.expect(Tok::Lt, "`<`")?;
        let src_db = self.term()?;
        self.expect(Tok::Colon, "`:`")?;
        let src_elem = self.term()?;
        let double = match self.next() {
            Some(Tok::Arrow) => false,
            Some(Tok::DoubleArrow) => true,
            other => return Err(self.error(format!("expected `->` or `=>`, found {other:?}"))),
        };
        let mapping = self.term()?;
        match (self.next(), double) {
            (Some(Tok::Arrow), false) | (Some(Tok::DoubleArrow), true) => {}
            (other, _) => {
                return Err(self.error(format!("mismatched predicate arrow, found {other:?}")))
            }
        }
        let tgt_db = self.term()?;
        self.expect(Tok::Colon, "`:`")?;
        let tgt_elem = self.term()?;
        self.expect(Tok::Gt, "`>`")?;
        Ok(MappingPred {
            src_db,
            src_elem,
            mapping,
            tgt_db,
            tgt_elem,
            double,
        })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.next() {
            Some(Tok::Ident(id)) => Ok(Term::Var(id)),
            Some(Tok::Str(s)) => Ok(Term::Const(AtomicValue::str(s))),
            other => Err(self.error(format!("expected variable or constant, found {other:?}"))),
        }
    }
}

/// Distinguishes schema-root starts from variable starts.
///
/// The lexer cannot tell `Portal` (a schema root) from `c` (a variable);
/// both are identifiers. After parsing, an identifier start is a variable
/// iff it is declared by an *earlier* `from` binding (Section 4.2 requires
/// `P_i` to use only variables `x_j` with `j < i`) or it occurs as a term of
/// a mapping predicate (such variables are "implicitly defined through their
/// position in the mapping predicate", Section 5). Everything else is a
/// schema root.
fn resolve_starts(q: &mut Query) {
    let mut pred_vars: Vec<String> = Vec::new();
    for c in &q.conditions {
        if let Condition::MapPred(p) = c {
            for v in p.variables() {
                if !pred_vars.iter().any(|x| x == v) {
                    pred_vars.push(v.to_owned());
                }
            }
        }
    }
    let binding_vars: Vec<String> = q.from.iter().map(|b| b.var.clone()).collect();
    for i in 0..q.from.len() {
        let known: Vec<&str> = binding_vars[..i]
            .iter()
            .map(|s| s.as_str())
            .chain(pred_vars.iter().map(|s| s.as_str()))
            .collect();
        fix_expr(&mut q.from[i].source, &known);
    }
    let all: Vec<&str> = binding_vars
        .iter()
        .map(|s| s.as_str())
        .chain(pred_vars.iter().map(|s| s.as_str()))
        .collect();
    for e in &mut q.select {
        fix_expr(e, &all);
    }
    for c in &mut q.conditions {
        if let Condition::Cmp(cmp) = c {
            fix_expr(&mut cmp.left, &all);
            fix_expr(&mut cmp.right, &all);
        }
    }
    for k in &mut q.order_by {
        fix_expr(&mut k.expr, &all);
    }
}

fn fix_expr(e: &mut Expr, known_vars: &[&str]) {
    match e {
        Expr::Path(p) | Expr::ElemOf(p) | Expr::MapOf(p) => {
            if let PathStart::Var(v) = &p.start {
                if !known_vars.contains(&v.as_str()) {
                    p.start = PathStart::Root(v.as_str().into());
                }
            }
        }
        Expr::Call(_, args) => {
            for a in args {
                fix_expr(a, known_vars);
            }
        }
        Expr::Const(_) => {}
    }
}

/// Parses a select-from-where query (plain or MXQL).
///
/// ```
/// use dtr_query::parser::parse_query;
///
/// let q = parse_query(
///     "select x.hid, m from Portal.estates x, x.value@map m",
/// )
/// .unwrap();
/// assert!(q.is_mxql());
/// assert_eq!(q.from.len(), 2);
/// ```
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let mut q = p.query()?;
    if p.peek().is_some() {
        return Err(p.error("trailing input after query"));
    }
    resolve_starts(&mut q);
    Ok(q)
}

/// Parses the two queries of a GLAV mapping body
/// `foreach <query> exists <query>` (Section 4.3) and returns
/// `(foreach, exists)`. The mapping abstraction itself lives in the
/// `dtr-mapping` crate.
pub fn parse_mapping_parts(input: &str) -> Result<(Query, Query), ParseError> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    p.keyword("foreach")?;
    let mut foreach = p.query()?;
    p.keyword("exists")?;
    let mut exists = p.query()?;
    if p.peek().is_some() {
        return Err(p.error("trailing input after mapping"));
    }
    resolve_starts(&mut foreach);
    resolve_starts(&mut exists);
    Ok((foreach, exists))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_query() {
        let q =
            parse_query("select e.hid, e.value from Portal.estates e where e.value > 500").unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].var, "e");
        assert_eq!(q.conditions.len(), 1);
        assert!(!q.is_mxql());
    }

    #[test]
    fn parse_mapping_m1_shape() {
        // Mapping m1 of Figure 1.
        let (f, e) = parse_mapping_parts(
            "foreach
               select h.hid, h.floors, h.price, n, a.phone
               from US.houses h, US.agents a, a.title->name n
               where h.aid = a.aid
             exists
               select e.hid, e.stories, e.value, c.title, c.phone
               from Portal.estates e, Portal.contacts c
               where e.contact = c.title",
        )
        .unwrap();
        assert_eq!(f.select.len(), 5);
        assert_eq!(f.from.len(), 3);
        assert_eq!(e.select.len(), 5);
        // The choice binding parsed as a Choice step.
        match &f.from[2].source {
            Expr::Path(p) => {
                assert_eq!(p.steps.last(), Some(&Step::Choice("name".into())));
            }
            other => panic!("unexpected binding source {other:?}"),
        }
    }

    #[test]
    fn parse_example_5_4() {
        // Example 5.4 (with the paper's `x.estate.hid` typo corrected).
        let q =
            parse_query("select x.hid, x.value, m from Portal.estates x, x.value@map m").unwrap();
        assert!(q.is_mxql());
        assert!(matches!(q.from[1].source, Expr::MapOf(_)));
    }

    #[test]
    fn parse_example_5_5() {
        let q = parse_query(
            "select s.hid, m
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>",
        )
        .unwrap();
        assert_eq!(q.conditions.len(), 3);
        match &q.conditions[2] {
            Condition::MapPred(p) => {
                assert!(!p.double);
                assert_eq!(p.mapping, Term::Var("m".into()));
                assert_eq!(
                    p.src_elem,
                    Term::Const(AtomicValue::str("US/agents/title/firm"))
                );
            }
            other => panic!("expected mapping predicate, got {other:?}"),
        }
        // `e` and the predicate-only variables are implicit.
        assert!(q.implicit_vars().contains(&"e"));
    }

    #[test]
    fn parse_example_5_6_empty_from() {
        let q = parse_query(
            "select e from where <db:e -> m -> 'Pdb':'/Portal/estates/estate/stories'>",
        )
        .unwrap();
        assert!(q.from.is_empty());
        assert_eq!(q.conditions.len(), 1);
    }

    #[test]
    fn parse_double_arrow() {
        let q = parse_query(
            "select c.title, es
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':es => m => 'Pdb':e>",
        )
        .unwrap();
        match &q.conditions[2] {
            Condition::MapPred(p) => assert!(p.double),
            other => panic!("expected mapping predicate, got {other:?}"),
        }
    }

    #[test]
    fn unicode_arrows_accepted() {
        let q = parse_query("select n from a.title\u{2192}name n").unwrap();
        match &q.from[0].source {
            Expr::Path(p) => assert_eq!(p.steps.last(), Some(&Step::Choice("name".into()))),
            other => panic!("{other:?}"),
        }
        let q2 = parse_query("select e from where <db:e \u{21d2} m \u{21d2} 'Pdb':e2>").unwrap();
        match &q2.conditions[0] {
            Condition::MapPred(p) => assert!(p.double),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_function_calls() {
        let q = parse_query(
            "select getElAnnot(c.title) from Portal.contacts c, getMapAnnot(c.title) mv",
        )
        .unwrap();
        assert!(
            matches!(&q.select[0], Expr::Call(name, args) if name == "getElAnnot" && args.len() == 1)
        );
        assert!(matches!(&q.from[1].source, Expr::Call(name, _) if name == "getMapAnnot"));
    }

    #[test]
    fn comparison_operators() {
        for (text, op) in [
            ("=", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ] {
            let q = parse_query(&format!(
                "select e.hid from Portal.estates e where e.value {text} 100"
            ))
            .unwrap();
            match &q.conditions[0] {
                Condition::Cmp(c) => assert_eq!(c.op, op),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn lt_condition_vs_mapping_pred_disambiguation() {
        // `e.value < 100` must not be swallowed by the predicate parser.
        let q = parse_query("select e.hid from Portal.estates e where e.value < 100").unwrap();
        assert!(matches!(&q.conditions[0], Condition::Cmp(c) if c.op == CmpOp::Lt));
    }

    #[test]
    fn numbers_and_strings() {
        let q = parse_query(
            "select e.hid from Portal.estates e where e.value >= 3.5 and e.hid = 'H522'",
        )
        .unwrap();
        match &q.conditions[0] {
            Condition::Cmp(c) => assert_eq!(c.right, Expr::Const(AtomicValue::Float(3.5))),
            other => panic!("{other:?}"),
        }
        match &q.conditions[1] {
            Condition::Cmp(c) => assert_eq!(c.right, Expr::Const(AtomicValue::str("H522"))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_numbers() {
        let q = parse_query("select e.hid from Portal.estates e where e.value > -5").unwrap();
        match &q.conditions[0] {
            Condition::Cmp(c) => assert_eq!(c.right, Expr::Const(AtomicValue::Int(-5))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_reported_with_offsets() {
        // `from` is consumed as an identifier, so the error is a missing
        // `from` keyword afterwards.
        assert!(parse_query("select from x").is_err());
        // An empty from clause is legal (Example 5.6)...
        assert!(parse_query("select a.b from").is_ok());
        // ...but a binding without a variable is not.
        let err = parse_query("select a.b from X.y").unwrap_err();
        assert!(err.offset >= 12);
        assert!(parse_query("select 'unterminated from x").is_err());
        assert!(parse_query("select a.b from X.y x extra garbage ! here").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let text = "select s.hid, m
from Portal.estates s, Portal.contacts c, c.title@map m
where s.contact = c.title and e = c.title@elem and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>";
        let q = parse_query(text).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn root_vs_variable_resolution() {
        let q =
            parse_query("select s.hid from Portal.estates s, s.rooms r where r.size > 2").unwrap();
        // `Portal` is a root, `s` in the second binding is a variable.
        match &q.from[0].source {
            Expr::Path(p) => assert_eq!(p.start, PathStart::Root("Portal".into())),
            other => panic!("{other:?}"),
        }
        match &q.from[1].source {
            Expr::Path(p) => assert_eq!(p.start, PathStart::Var("s".into())),
            other => panic!("{other:?}"),
        }
        // Select and where expressions resolve against all bindings.
        match &q.select[0] {
            Expr::Path(p) => assert_eq!(p.start, PathStart::Var("s".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicate_vars_stay_variables() {
        let q = parse_query("select e from where <db:e -> m -> 'Pdb':'/Portal/estates/stories'>")
            .unwrap();
        match &q.select[0] {
            Expr::Path(p) => assert_eq!(p.start, PathStart::Var("e".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_and_limit_parse_and_round_trip() {
        let q = parse_query(
            "select e.hid, e.value from Portal.estates e \
             where e.value > 100 order by e.value desc, e.hid limit 5",
        )
        .unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
        assert_eq!(q.limit, Some(5));
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
        // `asc` is accepted and means not-descending.
        let q3 = parse_query("select e.hid from Portal.estates e order by e.hid asc").unwrap();
        assert!(!q3.order_by[0].descending);
        // A bogus limit is rejected.
        assert!(parse_query("select e.hid from Portal.estates e limit x").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("SELECT e.hid FROM Portal.estates e WHERE e.hid = 'x'").unwrap();
        assert_eq!(q.select.len(), 1);
    }

    #[test]
    fn deep_call_nesting_is_an_error_not_a_stack_overflow() {
        // 10k nested calls would overflow the stack without the depth
        // bound; with it, the parser returns a structured error.
        let depth = 10_000;
        let mut text = String::from("select ");
        text.push_str(&"f(".repeat(depth));
        text.push('x');
        text.push_str(&")".repeat(depth));
        text.push_str(" from Portal.estates x");
        let err = parse_query(&text).unwrap_err();
        assert!(
            err.message.contains("nesting exceeds"),
            "unexpected message: {}",
            err.message
        );
        // The bound leaves reasonable real nesting untouched.
        let mut ok = String::from("select ");
        ok.push_str(&"f(".repeat(16));
        ok.push('x');
        ok.push_str(&")".repeat(16));
        ok.push_str(" from Portal.estates x");
        assert!(parse_query(&ok).is_ok());
    }
}
