//! Recursive-descent parser for Cypher.
//!
//! The parser accepts the *union* of the Cypher 9 grammar (Figures 2–5 of
//! the paper) and the revised grammar (Figure 10): `MERGE`, `MERGE ALL` and
//! `MERGE SAME` all parse, clause ordering is unrestricted, and both
//! directed and undirected relationship patterns are allowed everywhere.
//! Dialect-specific restrictions are enforced afterwards by
//! [`crate::validate()`], which produces the errors mandated by each grammar.
//!
//! Expressions are parsed by one binding-power loop, loosest first:
//! `OR < XOR < AND < NOT < comparisons < string/list predicates <
//! add/sub < mul/div/mod < pow < unary ± < postfix (property, index,
//! slice, label predicate)`.
//! Comparison chains (`a < b <= c`) desugar to conjunctions, following
//! openCypher. The same loop bounds nesting by [`MAX_EXPR_DEPTH`].

use std::collections::HashMap;

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::token::{Span, Tok, Token};

/// Parse a single Cypher statement (an optional trailing `;` is allowed).
pub fn parse(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        ..Parser::default()
    };
    let q = p.query()?;
    if p.at(&Tok::Semicolon) {
        p.bump();
    }
    p.expect_eof()?;
    Ok(q)
}

/// Parse a sequence of `;`-separated statements.
pub fn parse_script(input: &str) -> Result<Vec<Query>> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        ..Parser::default()
    };
    let mut out = Vec::new();
    while !p.at(&Tok::Eof) {
        out.push(p.query()?);
        if p.at(&Tok::Semicolon) {
            p.bump();
        } else {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// How deeply a statement may nest: the deepest level any node of its
/// expressions may sit at, the top of a clause's expression being level 1.
///
/// Every operand, argument, element and map value sits one level below
/// its parent, and a FOREACH body one level below the FOREACH. When an
/// operator takes the expression parsed so far as its left operand, that
/// expression moves one level down, so left-deep chains (`1 + 1 + …`,
/// `m.a.a…`, `x[0][0]…`) count in full. A parenthesis builds no node and
/// costs nothing, except a `(` right after another `(`: it is charged a
/// level in advance, so `((((x))))` cannot recurse for free, and its group
/// pays the level back by becoming the left operand of the next operator,
/// which is how printed text uses `((`. The parser's own recursion is
/// bounded with the trees, and the printed form of an accepted statement
/// counts no deeper than the statement.
///
/// A deeper statement is refused with a positioned [`ParseError`], so no
/// later pass (validation, analysis, printing, evaluation, cloning,
/// dropping) recurses past this depth. 64 leaves room on a 2 MiB thread
/// stack for every one of them even in an unoptimised build, so no thread
/// that parses or runs a statement needs a larger stack.
pub const MAX_EXPR_DEPTH: usize = 64;

// Binding powers, loosest first: an operator applies when its power is at
// least the minimum the caller of `expr_bp` passes.
const BP_OR: u8 = 1;
const BP_XOR: u8 = 2;
const BP_AND: u8 = 3;
const BP_NOT: u8 = 4;
const BP_CMP: u8 = 5;
const BP_PRED: u8 = 6;
const BP_ADD: u8 = 7;
const BP_MUL: u8 = 8;
const BP_POW: u8 = 9;
const BP_UNARY: u8 = 10;
const BP_POSTFIX: u8 = 11;

type MapEntries = Vec<(String, Expr)>;

#[derive(Default)]
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Level of the node being parsed (see [`MAX_EXPR_DEPTH`]); between
    /// clauses, the number of enclosing FOREACH bodies.
    depth: usize,
    /// Deepest level a node of the innermost expression being parsed has
    /// reached.
    peak: usize,
    /// `map_entries` by the token index of the `{`: the entries, the index
    /// after the `}`, and how many levels the values reach below the map.
    maps: HashMap<usize, Result<(MapEntries, usize, usize)>>,
}

impl Parser {
    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, off: usize) -> &Token {
        &self.tokens[(self.pos + off).min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, tok: &Tok) -> bool {
        &self.peek().tok == tok
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_kw(kw)
    }

    fn at_kw2(&self, kw1: &str, kw2: &str) -> bool {
        self.peek().is_kw(kw1) && self.peek_at(1).is_kw(kw2)
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.at(tok) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<Token> {
        if self.at(tok) {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!("expected '{tok}', found '{}'", self.peek().tok)))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kw}, found '{}'", self.peek().tok)))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at(&Tok::Eof) {
            Ok(())
        } else {
            Err(self.err_here(format!("unexpected trailing input '{}'", self.peek().tok)))
        }
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek().span)
    }

    /// End offset of the most recently consumed token.
    fn prev_end(&self) -> usize {
        self.tokens[self.pos.saturating_sub(1)].span.end
    }

    /// Identifier (plain or escaped) in name position.
    fn name(&mut self, what: &str) -> Result<String> {
        match &self.peek().tok {
            Tok::Ident(s) | Tok::EscapedIdent(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err_here(format!("expected {what}, found '{other}'"))),
        }
    }

    // ------------------------------------------------------------------
    // Queries and clauses
    // ------------------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let first = self.single_query()?;
        let mut unions = Vec::new();
        while self.at_kw("UNION") {
            self.bump();
            let kind = if self.eat_kw("ALL") {
                UnionKind::All
            } else {
                UnionKind::Distinct
            };
            unions.push((kind, self.single_query()?));
        }
        Ok(Query { first, unions })
    }

    fn single_query(&mut self) -> Result<SingleQuery> {
        let mut clauses = Vec::new();
        let mut clause_spans = Vec::new();
        loop {
            if self.at(&Tok::Eof) || self.at(&Tok::Semicolon) || self.at_kw("UNION") {
                break;
            }
            let start = self.peek().span.start;
            clauses.push(self.clause()?);
            clause_spans.push(Span::new(start, self.prev_end()));
        }
        if clauses.is_empty() {
            return Err(self.err_here("expected a clause"));
        }
        Ok(SingleQuery {
            clauses,
            clause_spans,
        })
    }

    fn clause(&mut self) -> Result<Clause> {
        if self.at_kw2("OPTIONAL", "MATCH") {
            self.bump();
            self.bump();
            return self.match_tail(true);
        }
        if self.at_kw("MATCH") {
            self.bump();
            return self.match_tail(false);
        }
        if self.at_kw("UNWIND") {
            self.bump();
            let expr = self.expr_bp(0)?;
            self.expect_kw("AS")?;
            let alias = self.name("alias")?;
            return Ok(Clause::Unwind { expr, alias });
        }
        if self.at_kw("WITH") {
            self.bump();
            let proj = self.projection(true)?;
            return Ok(Clause::With(proj));
        }
        if self.at_kw("RETURN") {
            self.bump();
            let proj = self.projection(false)?;
            return Ok(Clause::Return(proj));
        }
        if self.at_kw2("CREATE", "INDEX") || self.at_kw2("DROP", "INDEX") {
            let create = self.at_kw("CREATE");
            self.bump();
            self.bump();
            self.expect_kw("ON")?;
            self.expect(&Tok::Colon)?;
            let label = self.name("label")?;
            self.expect(&Tok::LParen)?;
            let key = self.name("property key")?;
            self.expect(&Tok::RParen)?;
            return Ok(if create {
                Clause::CreateIndex { label, key }
            } else {
                Clause::DropIndex { label, key }
            });
        }
        if self.at_kw("CREATE") {
            self.bump();
            let patterns = self.pattern_list()?;
            return Ok(Clause::Create { patterns });
        }
        if self.at_kw("MERGE") {
            self.bump();
            return self.merge_tail();
        }
        if self.at_kw("SET") {
            self.bump();
            let mut items = vec![self.set_item()?];
            while self.eat(&Tok::Comma) {
                items.push(self.set_item()?);
            }
            return Ok(Clause::Set { items });
        }
        if self.at_kw("REMOVE") {
            self.bump();
            let mut items = vec![self.remove_item()?];
            while self.eat(&Tok::Comma) {
                items.push(self.remove_item()?);
            }
            return Ok(Clause::Remove { items });
        }
        if self.at_kw2("DETACH", "DELETE") {
            self.bump();
            self.bump();
            return self.delete_tail(true);
        }
        if self.at_kw("DELETE") {
            self.bump();
            return self.delete_tail(false);
        }
        if self.at_kw("FOREACH") {
            self.bump();
            return self.foreach_tail();
        }
        Err(self.err_here(format!(
            "expected a clause keyword, found '{}'",
            self.peek().tok
        )))
    }

    fn match_tail(&mut self, optional: bool) -> Result<Clause> {
        let patterns = self.pattern_list()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr_bp(0)?)
        } else {
            None
        };
        Ok(Clause::Match {
            optional,
            patterns,
            where_clause,
        })
    }

    fn merge_tail(&mut self) -> Result<Clause> {
        let kind = if self.eat_kw("ALL") {
            MergeKind::All
        } else if self.eat_kw("SAME") {
            MergeKind::Same
        } else {
            MergeKind::Legacy
        };
        let patterns = self.pattern_list()?;
        let mut on_create = Vec::new();
        let mut on_match = Vec::new();
        while self.at_kw("ON") {
            self.bump();
            let target = if self.eat_kw("CREATE") {
                &mut on_create
            } else if self.eat_kw("MATCH") {
                &mut on_match
            } else {
                return Err(self.err_here("expected CREATE or MATCH after ON"));
            };
            self.expect_kw("SET")?;
            target.push(self.set_item()?);
            while self.eat(&Tok::Comma) {
                target.push(self.set_item()?);
            }
        }
        Ok(Clause::Merge {
            kind,
            patterns,
            on_create,
            on_match,
        })
    }

    fn delete_tail(&mut self, detach: bool) -> Result<Clause> {
        let mut exprs = vec![self.expr_bp(0)?];
        while self.eat(&Tok::Comma) {
            exprs.push(self.expr_bp(0)?);
        }
        Ok(Clause::Delete { detach, exprs })
    }

    fn foreach_tail(&mut self) -> Result<Clause> {
        self.expect(&Tok::LParen)?;
        let var = self.name("iteration variable")?;
        self.expect_kw("IN")?;
        let list = self.expr_bp(0)?;
        self.expect(&Tok::Pipe)?;
        // The body nests one level below the FOREACH.
        self.depth += 1;
        self.reach(self.depth)?;
        let mut body = Vec::new();
        while !self.at(&Tok::RParen) {
            body.push(self.clause()?);
        }
        self.depth -= 1;
        self.expect(&Tok::RParen)?;
        if body.is_empty() {
            return Err(self.err_here("FOREACH body must contain at least one update clause"));
        }
        Ok(Clause::Foreach { var, list, body })
    }

    // ------------------------------------------------------------------
    // Projections
    // ------------------------------------------------------------------

    fn projection(&mut self, is_with: bool) -> Result<Projection> {
        let distinct = self.eat_kw("DISTINCT");
        let items = if self.at(&Tok::Star) {
            self.bump();
            let mut extra = Vec::new();
            while self.eat(&Tok::Comma) {
                extra.push(self.projection_item()?);
            }
            ProjectionItems::Star { extra }
        } else {
            let mut items = vec![self.projection_item()?];
            while self.eat(&Tok::Comma) {
                items.push(self.projection_item()?);
            }
            ProjectionItems::Items(items)
        };
        let mut order_by = Vec::new();
        if self.at_kw2("ORDER", "BY") {
            self.bump();
            self.bump();
            loop {
                let expr = self.expr_bp(0)?;
                let descending = if self.eat_kw("DESC") || self.eat_kw("DESCENDING") {
                    true
                } else {
                    let _ = self.eat_kw("ASC") || self.eat_kw("ASCENDING");
                    false
                };
                order_by.push(SortItem { expr, descending });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let skip = if self.eat_kw("SKIP") {
            Some(self.expr_bp(0)?)
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            Some(self.expr_bp(0)?)
        } else {
            None
        };
        let where_clause = if is_with && self.eat_kw("WHERE") {
            Some(self.expr_bp(0)?)
        } else {
            None
        };
        Ok(Projection {
            distinct,
            items,
            order_by,
            skip,
            limit,
            where_clause,
        })
    }

    fn projection_item(&mut self) -> Result<ProjectionItem> {
        let expr = self.expr_bp(0)?;
        let alias = if self.eat_kw("AS") {
            Some(self.name("alias")?)
        } else {
            None
        };
        Ok(ProjectionItem { expr, alias })
    }

    // ------------------------------------------------------------------
    // SET / REMOVE items
    // ------------------------------------------------------------------

    fn set_item(&mut self) -> Result<SetItem> {
        let start_span = self.peek().span;
        let target = self.expr_bp(BP_POSTFIX)?;
        if let Expr::HasLabels(base, labels) = target {
            let Expr::Variable(var) = *base else {
                return Err(ParseError::new(
                    "SET label target must be a variable",
                    start_span,
                ));
            };
            return Ok(SetItem::Labels {
                target: var,
                labels,
            });
        }
        if self.eat(&Tok::PlusEq) {
            let Expr::Variable(var) = target else {
                return Err(ParseError::new(
                    "SET += target must be a variable",
                    start_span,
                ));
            };
            let value = self.expr_bp(0)?;
            return Ok(SetItem::MergeProps { target: var, value });
        }
        self.expect(&Tok::Eq)?;
        let value = self.expr_bp(0)?;
        match target {
            Expr::Property(base, key) => Ok(SetItem::Property {
                target: *base,
                key,
                value,
            }),
            Expr::Variable(var) => Ok(SetItem::Replace { target: var, value }),
            _ => Err(ParseError::new(
                "SET target must be a property expression or a variable",
                start_span,
            )),
        }
    }

    fn remove_item(&mut self) -> Result<RemoveItem> {
        let start_span = self.peek().span;
        let target = self.expr_bp(BP_POSTFIX)?;
        match target {
            Expr::HasLabels(base, labels) => {
                let Expr::Variable(var) = *base else {
                    return Err(ParseError::new(
                        "REMOVE label target must be a variable",
                        start_span,
                    ));
                };
                Ok(RemoveItem::Labels {
                    target: var,
                    labels,
                })
            }
            Expr::Property(base, key) => Ok(RemoveItem::Property { target: *base, key }),
            _ => Err(ParseError::new(
                "REMOVE item must be a property expression or variable:Label",
                start_span,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Patterns
    // ------------------------------------------------------------------

    fn pattern_list(&mut self) -> Result<Vec<PathPattern>> {
        let mut out = vec![self.path_pattern()?];
        while self.eat(&Tok::Comma) {
            out.push(self.path_pattern()?);
        }
        Ok(out)
    }

    fn path_pattern(&mut self) -> Result<PathPattern> {
        // `name = (…)…` — lookahead for IDENT '='.
        let var = if matches!(self.peek().tok, Tok::Ident(_) | Tok::EscapedIdent(_))
            && self.peek_at(1).tok == Tok::Eq
        {
            let v = self.name("path variable")?;
            self.bump(); // '='
            Some(v)
        } else {
            None
        };
        // shortestPath(…) / allShortestPaths(…) wrappers.
        let shortest = if self.peek().is_kw("shortestPath") && self.peek_at(1).tok == Tok::LParen {
            self.bump();
            self.bump();
            Some(ShortestKind::Single)
        } else if self.peek().is_kw("allShortestPaths") && self.peek_at(1).tok == Tok::LParen {
            self.bump();
            self.bump();
            Some(ShortestKind::All)
        } else {
            None
        };
        let start = self.node_pattern()?;
        let mut steps = Vec::new();
        while self.at(&Tok::Lt) || self.at(&Tok::Minus) {
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            steps.push((rel, node));
        }
        if shortest.is_some() {
            self.expect(&Tok::RParen)?;
            if steps.len() != 1 {
                return Err(
                    self.err_here("shortestPath takes a pattern with exactly one relationship")
                );
            }
        }
        Ok(PathPattern {
            var,
            shortest,
            start,
            steps,
        })
    }

    fn node_pattern(&mut self) -> Result<NodePattern> {
        self.expect(&Tok::LParen)?;
        let var = if matches!(self.peek().tok, Tok::Ident(_) | Tok::EscapedIdent(_)) {
            Some(self.name("node variable")?)
        } else {
            None
        };
        let mut labels = Vec::new();
        while self.at(&Tok::Colon) {
            self.bump();
            labels.push(self.name("label")?);
        }
        let props = if self.at(&Tok::LBrace) {
            self.map_entries()?
        } else {
            Vec::new()
        };
        self.expect(&Tok::RParen)?;
        Ok(NodePattern { var, labels, props })
    }

    /// Parse `-[…]->`, `<-[…]-`, `-[…]-`, and the abbreviated `-->`, `<--`,
    /// `--` forms.
    fn rel_pattern(&mut self) -> Result<RelPattern> {
        let left_arrow = self.eat(&Tok::Lt);
        self.expect(&Tok::Minus)?;

        let (var, types, length, props) = if self.at(&Tok::LBracket) {
            self.bump();
            let var = if matches!(self.peek().tok, Tok::Ident(_) | Tok::EscapedIdent(_)) {
                Some(self.name("relationship variable")?)
            } else {
                None
            };
            let mut types = Vec::new();
            if self.at(&Tok::Colon) {
                self.bump();
                types.push(self.name("relationship type")?);
                while self.eat(&Tok::Pipe) {
                    // Both `:A|B` and `:A|:B` are accepted.
                    let _ = self.eat(&Tok::Colon);
                    types.push(self.name("relationship type")?);
                }
            }
            let length = if self.eat(&Tok::Star) {
                let min = if let Tok::Int(i) = self.peek().tok {
                    self.bump();
                    Some(u32::try_from(i).map_err(|_| self.err_here("bad path length"))?)
                } else {
                    None
                };
                if self.eat(&Tok::DotDot) {
                    let max = if let Tok::Int(i) = self.peek().tok {
                        self.bump();
                        Some(u32::try_from(i).map_err(|_| self.err_here("bad path length"))?)
                    } else {
                        None
                    };
                    Some(VarLength { min, max })
                } else {
                    // `*n` alone means exactly n; bare `*` means 1..∞.
                    Some(VarLength { min, max: min })
                }
            } else {
                None
            };
            let props = if self.at(&Tok::LBrace) {
                self.map_entries()?
            } else {
                Vec::new()
            };
            self.expect(&Tok::RBracket)?;
            self.expect(&Tok::Minus)?;
            (var, types, length, props)
        } else {
            // Abbreviated `--`, `-->`, `<--`.
            self.expect(&Tok::Minus)?;
            (None, Vec::new(), None, Vec::new())
        };

        let right_arrow = self.eat(&Tok::Gt);
        let direction = match (left_arrow, right_arrow) {
            (true, true) => {
                return Err(self.err_here("relationship pattern cannot point both ways"))
            }
            (true, false) => RelDirection::Incoming,
            (false, true) => RelDirection::Outgoing,
            (false, false) => RelDirection::Undirected,
        };
        Ok(RelPattern {
            var,
            types,
            props,
            direction,
            length,
        })
    }

    /// `{key: value, …}`. Backtracking at `(` reads a node pattern's map
    /// twice (pattern, then expression), which doubles the work per level
    /// of a nest of such maps. So each `{` is parsed once, and a replay
    /// charges the levels its values reach below the current depth.
    fn map_entries(&mut self) -> Result<MapEntries> {
        let start = self.pos;
        if let Some(memo) = self.maps.get(&start) {
            let (entries, end, height) = memo.clone()?;
            self.reach(self.depth + height)?;
            self.pos = end;
            return Ok(entries);
        }
        let outer_peak = std::mem::replace(&mut self.peak, self.depth);
        let parsed = self.map_body();
        let height = self.peak - self.depth;
        self.peak = self.peak.max(outer_peak);
        let memo = parsed.map(|entries| (entries, self.pos, height));
        self.maps.insert(start, memo.clone());
        memo.map(|(entries, ..)| entries)
    }

    fn map_body(&mut self) -> Result<MapEntries> {
        self.expect(&Tok::LBrace)?;
        let mut entries = Vec::new();
        if !self.at(&Tok::RBrace) {
            loop {
                let key = self.name("map key")?;
                self.expect(&Tok::Colon)?;
                let value = self.expr_bp(0)?;
                entries.push((key, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(entries)
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Records that a node sits at `level`, refusing levels past
    /// [`MAX_EXPR_DEPTH`]. A refusal leaves `peak` past the bound, which
    /// tells the backtracking in [`Parser::group`] that it is final.
    fn reach(&mut self, level: usize) -> Result<()> {
        self.peak = self.peak.max(level);
        if self.peak > MAX_EXPR_DEPTH {
            return Err(self.err_here(format!(
                "expression nests more than {MAX_EXPR_DEPTH} levels deep"
            )));
        }
        Ok(())
    }

    /// Parse an expression whose operators bind at least as tightly as
    /// `min_bp`. This loop is the one place where precedence is decided
    /// and nesting is counted.
    fn expr_bp(&mut self, min_bp: u8) -> Result<Expr> {
        let parent = self.depth;
        let outer_peak = std::mem::take(&mut self.peak);
        let level = parent + 1;
        // A `(` right after `(` is charged a level now (see MAX_EXPR_DEPTH).
        let mut prepaid =
            self.at(&Tok::LParen) && self.tokens[self.pos.saturating_sub(1)].tok == Tok::LParen;
        self.depth = level + usize::from(prepaid);
        self.reach(self.depth)?;
        let mut lhs = if min_bp <= BP_NOT && self.eat_kw("NOT") {
            Expr::Unary(UnaryOp::Not, Box::new(self.expr_bp(BP_NOT)?))
        } else if min_bp <= BP_UNARY && (self.at(&Tok::Minus) || self.at(&Tok::Plus)) {
            let op = if self.bump().tok == Tok::Minus {
                UnaryOp::Neg
            } else {
                UnaryOp::Pos
            };
            Expr::Unary(op, Box::new(self.expr_bp(BP_UNARY)?))
        } else {
            self.atom()?
        };
        self.depth = level;
        // After an operator only operators at most as tight may follow
        // (this is what keeps `a IS NULL + 1` out).
        let mut max_bp = BP_POSTFIX;
        loop {
            let (bp, op) = match self.peek().tok {
                Tok::Dot | Tok::LBracket | Tok::Colon => (BP_POSTFIX, None),
                _ if self.at_kw("IS") => (BP_PRED, None),
                _ => match self.binary_op() {
                    Some((op, bp)) => (bp, Some(op)),
                    None => break,
                },
            };
            if bp < min_bp || bp > max_bp {
                break;
            }
            max_bp = bp;
            // The operator takes `lhs` as its left operand, one level down,
            // where a prepaid group already sits.
            if !std::mem::take(&mut prepaid) {
                self.reach(self.peak + 1)?;
            }
            let Some(op) = op else {
                lhs = self.postfix(lhs)?;
                continue;
            };
            self.bump();
            if matches!(op, BinOp::StartsWith | BinOp::EndsWith) {
                self.bump();
            }
            // `^` is right-associative: its right operand may hold a `^`.
            let rhs = self.expr_bp(if op == BinOp::Pow { bp } else { bp + 1 })?;
            lhs = if bp == BP_CMP {
                self.comparison_chain(Expr::Binary(op, Box::new(lhs), Box::new(rhs.clone())), rhs)?
            } else {
                Expr::Binary(op, Box::new(lhs), Box::new(rhs))
            };
        }
        self.depth = parent;
        self.peak = self.peak.max(outer_peak);
        Ok(lhs)
    }

    /// The binary operator at the cursor and its binding power.
    fn binary_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek().tok {
            Tok::Plus => (BinOp::Add, BP_ADD),
            Tok::Minus => (BinOp::Sub, BP_ADD),
            Tok::Star => (BinOp::Mul, BP_MUL),
            Tok::Slash => (BinOp::Div, BP_MUL),
            Tok::Percent => (BinOp::Mod, BP_MUL),
            Tok::Caret => (BinOp::Pow, BP_POW),
            Tok::Eq => (BinOp::Eq, BP_CMP),
            Tok::Neq => (BinOp::Ne, BP_CMP),
            Tok::Lt => (BinOp::Lt, BP_CMP),
            Tok::Le => (BinOp::Le, BP_CMP),
            Tok::Gt => (BinOp::Gt, BP_CMP),
            Tok::Ge => (BinOp::Ge, BP_CMP),
            _ if self.at_kw("OR") => (BinOp::Or, BP_OR),
            _ if self.at_kw("XOR") => (BinOp::Xor, BP_XOR),
            _ if self.at_kw("AND") => (BinOp::And, BP_AND),
            _ if self.at_kw2("STARTS", "WITH") => (BinOp::StartsWith, BP_PRED),
            _ if self.at_kw2("ENDS", "WITH") => (BinOp::EndsWith, BP_PRED),
            _ if self.at_kw("CONTAINS") => (BinOp::Contains, BP_PRED),
            _ if self.at_kw("IN") => (BinOp::In, BP_PRED),
            _ => return None,
        })
    }

    /// Comparison chains desugar to conjunctions: `a < b <= c` becomes
    /// `a < b AND b <= c` (openCypher semantics). Each further link pushes
    /// the chain one level down under a new AND, and its operands sit two
    /// levels below the expression.
    fn comparison_chain(&mut self, mut chain: Expr, mut prev: Expr) -> Result<Expr> {
        while let Some((op, BP_CMP)) = self.binary_op() {
            self.bump();
            self.reach(self.peak + 1)?;
            self.depth += 1;
            let next = self.expr_bp(BP_CMP + 1)?;
            self.depth -= 1;
            let link = Expr::Binary(
                op,
                Box::new(std::mem::replace(&mut prev, next.clone())),
                Box::new(next),
            );
            chain = Expr::Binary(BinOp::And, Box::new(chain), Box::new(link));
        }
        Ok(chain)
    }

    /// Apply the postfix operator at the cursor to `base`: `.key`, `[i]`,
    /// `[a..b]`, `:Label…` or `IS [NOT] NULL`.
    fn postfix(&mut self, base: Expr) -> Result<Expr> {
        let base = Box::new(base);
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: base,
                negated,
            });
        }
        if self.eat(&Tok::Dot) {
            return Ok(Expr::Property(base, self.name("property key")?));
        }
        if self.eat(&Tok::LBracket) {
            // Distinguish `[e]`, `[e..e]`, `[..e]`, `[e..]`, `[..]`.
            let from = if self.at(&Tok::DotDot) {
                None
            } else {
                Some(Box::new(self.expr_bp(0)?))
            };
            if !self.eat(&Tok::DotDot) {
                self.expect(&Tok::RBracket)?;
                // `from` is always present here: a leading `..` would have
                // taken the slice branch.
                let Some(idx) = from else {
                    return Err(self.err_here("expected an index expression"));
                };
                return Ok(Expr::Index(base, idx));
            }
            let to = if self.at(&Tok::RBracket) {
                None
            } else {
                Some(Box::new(self.expr_bp(0)?))
            };
            self.expect(&Tok::RBracket)?;
            return Ok(Expr::Slice { base, from, to });
        }
        let mut labels = Vec::new();
        while self.eat(&Tok::Colon) {
            labels.push(self.name("label")?);
        }
        Ok(Expr::HasLabels(base, labels))
    }

    fn atom(&mut self) -> Result<Expr> {
        // Literals spelled as keywords.
        if self.at_kw("true") {
            self.bump();
            return Ok(Expr::Literal(Lit::Bool(true)));
        }
        if self.at_kw("false") {
            self.bump();
            return Ok(Expr::Literal(Lit::Bool(false)));
        }
        if self.at_kw("null") {
            self.bump();
            return Ok(Expr::Literal(Lit::Null));
        }
        if self.at_kw("CASE") {
            return self.case_expr();
        }
        // count(*) and general function calls: IDENT '('.
        if matches!(self.peek().tok, Tok::Ident(_)) && self.peek_at(1).tok == Tok::LParen {
            return self.call();
        }
        match self.peek().tok.clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::Literal(Lit::Int(i)))
            }
            Tok::Float(f) => {
                self.bump();
                Ok(Expr::Literal(Lit::Float(f)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Lit::Str(s)))
            }
            Tok::Param(p) => {
                self.bump();
                Ok(Expr::Parameter(p))
            }
            Tok::Ident(_) | Tok::EscapedIdent(_) => Ok(Expr::Variable(self.name("variable")?)),
            Tok::LParen => self.group(),
            Tok::LBracket => self.list(),
            Tok::LBrace => Ok(Expr::Map(self.map_entries()?)),
            other => Err(self.err_here(format!("expected an expression, found '{other}'"))),
        }
    }

    /// A function call, `count(*)`, a quantifier or `reduce`. Compound
    /// atoms and each of these forms have functions of their own: an
    /// unoptimised build gives a function one frame for all its branches,
    /// and nesting recurses through `atom`.
    fn call(&mut self) -> Result<Expr> {
        let name = self.name("function name")?;
        self.bump(); // '('
        if name.eq_ignore_ascii_case("count") && self.at(&Tok::Star) {
            self.bump();
            self.expect(&Tok::RParen)?;
            return Ok(Expr::CountStar);
        }
        let binds = matches!(self.peek().tok, Tok::Ident(_) | Tok::EscapedIdent(_));
        // Quantifiers: all/any/none/single(x IN list WHERE pred).
        if let Some(kind) = QuantifierKind::from_name(&name) {
            if binds && self.peek_at(1).is_kw("IN") {
                return self.quantifier(kind);
            }
        }
        // reduce(acc = init, x IN list | body).
        if name.eq_ignore_ascii_case("reduce") && binds && self.peek_at(1).tok == Tok::Eq {
            return self.reduce();
        }
        self.call_args(name)
    }

    /// The rest of `kind(x IN list WHERE pred)` after the `(`.
    fn quantifier(&mut self, kind: QuantifierKind) -> Result<Expr> {
        let var = self.name("quantifier variable")?;
        self.expect_kw("IN")?;
        let list = self.expr_bp(0)?;
        self.expect_kw("WHERE")?;
        let pred = self.expr_bp(0)?;
        self.expect(&Tok::RParen)?;
        Ok(Expr::Quantifier {
            kind,
            var,
            list: Box::new(list),
            pred: Box::new(pred),
        })
    }

    /// The rest of `reduce(acc = init, x IN list | body)` after the `(`.
    fn reduce(&mut self) -> Result<Expr> {
        let acc = self.name("accumulator")?;
        self.expect(&Tok::Eq)?;
        let init = self.expr_bp(0)?;
        self.expect(&Tok::Comma)?;
        let var = self.name("iteration variable")?;
        self.expect_kw("IN")?;
        let list = self.expr_bp(0)?;
        self.expect(&Tok::Pipe)?;
        let body = self.expr_bp(0)?;
        self.expect(&Tok::RParen)?;
        Ok(Expr::Reduce {
            acc,
            init: Box::new(init),
            var,
            list: Box::new(list),
            body: Box::new(body),
        })
    }

    /// The `[DISTINCT] args)` of an ordinary call after the `(`.
    fn call_args(&mut self, name: String) -> Result<Expr> {
        let distinct = self.eat_kw("DISTINCT");
        let mut args = Vec::new();
        if !self.at(&Tok::RParen) {
            args.push(self.expr_bp(0)?);
            while self.eat(&Tok::Comma) {
                args.push(self.expr_bp(0)?);
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(Expr::FnCall {
            name,
            distinct,
            args,
        })
    }

    /// A parenthesised expression or a pattern predicate.
    fn group(&mut self) -> Result<Expr> {
        // A parenthesis opens either a parenthesized expression or a
        // pattern predicate `(a)-[:T]->(b)`. Try the pattern first and
        // backtrack on failure (the grammar keeps them apart by what
        // follows the closing parenthesis). Both readings count from the
        // same level, and the pattern never nests deeper than the
        // expression would, so a depth refusal is final.
        let saved = (self.pos, self.depth, self.peak);
        match self.try_pattern_predicate() {
            Ok(pattern) => return Ok(Expr::PatternPredicate(Box::new(pattern))),
            Err(e) if self.peak > MAX_EXPR_DEPTH => return Err(e),
            Err(_) => (self.pos, self.depth, self.peak) = saved,
        }
        self.bump();
        // A group builds no node: its contents sit at its own level.
        self.depth -= 1;
        let inner = self.expr_bp(0)?;
        self.depth += 1;
        self.expect(&Tok::RParen)?;
        Ok(inner)
    }

    /// A list literal or a list comprehension.
    fn list(&mut self) -> Result<Expr> {
        self.bump();
        // List comprehension: `[x IN list …]` (lookahead IDENT IN).
        if matches!(self.peek().tok, Tok::Ident(_) | Tok::EscapedIdent(_))
            && self.peek_at(1).is_kw("IN")
        {
            let var = self.name("comprehension variable")?;
            self.expect_kw("IN")?;
            let list = self.expr_bp(0)?;
            let filter = if self.eat_kw("WHERE") {
                Some(Box::new(self.expr_bp(0)?))
            } else {
                None
            };
            let body = if self.eat(&Tok::Pipe) {
                Some(Box::new(self.expr_bp(0)?))
            } else {
                None
            };
            self.expect(&Tok::RBracket)?;
            return Ok(Expr::ListComprehension {
                var,
                list: Box::new(list),
                filter,
                body,
            });
        }
        let mut items = Vec::new();
        if !self.at(&Tok::RBracket) {
            items.push(self.expr_bp(0)?);
            while self.eat(&Tok::Comma) {
                items.push(self.expr_bp(0)?);
            }
        }
        self.expect(&Tok::RBracket)?;
        Ok(Expr::List(items))
    }

    /// Attempt to parse a pattern predicate (node pattern + ≥1 step) from
    /// the current position. The caller restores the position on failure.
    fn try_pattern_predicate(&mut self) -> Result<PathPattern> {
        let start = self.node_pattern()?;
        let mut steps = Vec::new();
        while self.at(&Tok::Lt) || self.at(&Tok::Minus) {
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            steps.push((rel, node));
        }
        if steps.is_empty() {
            return Err(self.err_here("not a pattern predicate"));
        }
        Ok(PathPattern {
            var: None,
            shortest: None,
            start,
            steps,
        })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw("CASE")?;
        let input = if self.at_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.expr_bp(0)?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let when = self.expr_bp(0)?;
            self.expect_kw("THEN")?;
            let then = self.expr_bp(0)?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.err_here("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr_bp(0)?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            input,
            branches,
            else_branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(input: &str) -> Query {
        parse(input).unwrap_or_else(|e| panic!("parse failed: {}\n{}", e, e.render(input)))
    }

    fn clauses(input: &str) -> Vec<Clause> {
        q(input).first.clauses
    }

    #[test]
    fn parse_paper_query_1() {
        // §2, Query (1)
        let cs = clauses(
            "MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product) \
             WHERE p.name = \"laptop\" RETURN v",
        );
        assert_eq!(cs.len(), 2);
        let Clause::Match {
            optional,
            patterns,
            where_clause,
        } = &cs[0]
        else {
            panic!("expected MATCH");
        };
        assert!(!optional);
        assert!(where_clause.is_some());
        assert_eq!(patterns.len(), 1);
        let pat = &patterns[0];
        assert_eq!(pat.start.var.as_deref(), Some("p"));
        assert_eq!(pat.steps.len(), 2);
        assert_eq!(pat.steps[0].0.direction, RelDirection::Incoming);
        assert_eq!(pat.steps[0].0.types, vec!["OFFERS".to_string()]);
        assert_eq!(pat.steps[1].0.direction, RelDirection::Outgoing);
        assert_eq!(pat.steps[1].1.var.as_deref(), Some("q"));
    }

    #[test]
    fn parse_paper_query_2() {
        // §3, Query (2)
        let cs = clauses("MATCH (u:User{id:89}) CREATE (u)-[:ORDERED]->(:New_Product{id:0})");
        assert_eq!(cs.len(), 2);
        let Clause::Create { patterns } = &cs[1] else {
            panic!("expected CREATE")
        };
        assert_eq!(patterns[0].steps.len(), 1);
        assert_eq!(
            patterns[0].steps[0].1.labels,
            vec!["New_Product".to_string()]
        );
        assert_eq!(patterns[0].steps[0].1.props.len(), 1);
    }

    #[test]
    fn parse_paper_query_3_set_remove() {
        let cs = clauses(
            "MATCH (p:New_Product{id:0}) \
             SET p:Product, p.id=120, p.name=\"smartphone\" \
             REMOVE p:New_Product",
        );
        let Clause::Set { items } = &cs[1] else {
            panic!("expected SET")
        };
        assert_eq!(items.len(), 3);
        assert!(matches!(&items[0], SetItem::Labels { target, labels }
            if target == "p" && labels == &vec!["Product".to_string()]));
        assert!(matches!(&items[1], SetItem::Property { key, .. } if key == "id"));
        let Clause::Remove { items } = &cs[2] else {
            panic!("expected REMOVE")
        };
        assert!(matches!(&items[0], RemoveItem::Labels { labels, .. }
            if labels == &vec!["New_Product".to_string()]));
    }

    #[test]
    fn parse_detach_delete() {
        let cs = clauses("MATCH (p:Product{id:120}) DETACH DELETE p");
        assert!(matches!(&cs[1], Clause::Delete { detach: true, exprs } if exprs.len() == 1));
    }

    #[test]
    fn parse_legacy_merge_undirected() {
        let cs = clauses("MATCH (p:Product) MERGE (p)<-[:OFFERS]-(v:Vendor) RETURN p, v");
        let Clause::Merge { kind, patterns, .. } = &cs[1] else {
            panic!("expected MERGE")
        };
        assert_eq!(*kind, MergeKind::Legacy);
        assert_eq!(patterns.len(), 1);
    }

    #[test]
    fn parse_merge_all_and_same() {
        let cs = clauses("MERGE ALL (:User{id:cid})-[:ORDERED]->(:Product{id:pid})");
        assert!(matches!(
            &cs[0],
            Clause::Merge {
                kind: MergeKind::All,
                ..
            }
        ));
        let cs = clauses("MERGE SAME (a)-[:TO]->(b), (b)-[:TO]->(c)");
        let Clause::Merge { kind, patterns, .. } = &cs[0] else {
            panic!("expected MERGE")
        };
        assert_eq!(*kind, MergeKind::Same);
        assert_eq!(patterns.len(), 2);
    }

    #[test]
    fn merge_followed_by_all_variable() {
        // `MERGE (ALL)` must treat ALL as a keyword only when followed by a
        // pattern; here `ALL` is a node variable.
        let cs = clauses("MERGE (ALL)-[:T]->(b)");
        let Clause::Merge { kind, patterns, .. } = &cs[0] else {
            panic!("expected MERGE")
        };
        assert_eq!(*kind, MergeKind::Legacy);
        assert_eq!(patterns[0].start.var.as_deref(), Some("ALL"));
    }

    #[test]
    fn parse_foreach() {
        let cs = clauses("MATCH (n) FOREACH (x IN [1,2,3] | SET n.id = x CREATE (:Log))");
        let Clause::Foreach { var, body, .. } = &cs[1] else {
            panic!("expected FOREACH")
        };
        assert_eq!(var, "x");
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn parse_union() {
        let query = q("MATCH (a:User) RETURN a UNION ALL MATCH (a:Vendor) RETURN a");
        assert_eq!(query.unions.len(), 1);
        assert_eq!(query.unions[0].0, UnionKind::All);
    }

    #[test]
    fn parse_with_pipeline() {
        let cs = clauses(
            "MATCH (u:User) WITH DISTINCT u ORDER BY u.id DESC SKIP 1 LIMIT 2 \
             WHERE u.id > 10 RETURN u.name AS name",
        );
        let Clause::With(p) = &cs[1] else {
            panic!("expected WITH")
        };
        assert!(p.distinct);
        assert_eq!(p.order_by.len(), 1);
        assert!(p.order_by[0].descending);
        assert!(p.skip.is_some() && p.limit.is_some() && p.where_clause.is_some());
        let Clause::Return(r) = &cs[2] else {
            panic!("expected RETURN")
        };
        let ProjectionItems::Items(items) = &r.items else {
            panic!("expected items")
        };
        assert_eq!(items[0].alias.as_deref(), Some("name"));
    }

    #[test]
    fn parse_return_star_plus_items() {
        let cs = clauses("MATCH (n) RETURN *, count(*) AS c");
        let Clause::Return(p) = &cs[1] else { panic!() };
        let ProjectionItems::Star { extra } = &p.items else {
            panic!("expected star")
        };
        assert_eq!(extra.len(), 1);
        assert!(matches!(extra[0].expr, Expr::CountStar));
    }

    #[test]
    fn parse_unwind() {
        let cs = clauses("UNWIND [1,2] AS x RETURN x");
        assert!(matches!(&cs[0], Clause::Unwind { alias, .. } if alias == "x"));
    }

    #[test]
    fn expression_precedence() {
        let cs = clauses("RETURN 1 + 2 * 3 ^ 2");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        // 1 + (2 * (3 ^ 2))
        let Expr::Binary(BinOp::Add, _, rhs) = &items[0].expr else {
            panic!("expected +, got {:?}", items[0].expr)
        };
        let Expr::Binary(BinOp::Mul, _, rhs2) = rhs.as_ref() else {
            panic!("expected *")
        };
        assert!(matches!(rhs2.as_ref(), Expr::Binary(BinOp::Pow, _, _)));
    }

    #[test]
    fn pow_is_right_associative() {
        let cs = clauses("RETURN 2 ^ 3 ^ 2");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        let Expr::Binary(BinOp::Pow, _, rhs) = &items[0].expr else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary(BinOp::Pow, _, _)));
    }

    #[test]
    fn operators_apply_only_where_their_level_allows() {
        // Nothing tighter than a predicate may follow `IS NULL`.
        assert!(parse("RETURN a IS NULL + 1").is_err());
        assert!(parse("RETURN a IS NULL.k").is_err());
        // `NOT` is a prefix operator only where a conjunct may start;
        // elsewhere it is a name, here a function's.
        let cs = clauses("RETURN 1 = NOT (true)");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        let Expr::Binary(BinOp::Eq, _, rhs) = &items[0].expr else {
            panic!("expected =, got {:?}", items[0].expr)
        };
        assert!(matches!(rhs.as_ref(), Expr::FnCall { name, .. } if name == "NOT"));
        // Unary minus binds tighter than `^`.
        let cs = clauses("RETURN -2 ^ 2");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        let Expr::Binary(BinOp::Pow, lhs, _) = &items[0].expr else {
            panic!("expected ^, got {:?}", items[0].expr)
        };
        assert!(matches!(lhs.as_ref(), Expr::Unary(UnaryOp::Neg, _)));
    }

    #[test]
    fn comparison_chain_desugars_to_conjunction() {
        let cs = clauses("RETURN 1 < 2 <= 3");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        let Expr::Binary(BinOp::And, l, r) = &items[0].expr else {
            panic!("expected AND, got {:?}", items[0].expr)
        };
        assert!(matches!(l.as_ref(), Expr::Binary(BinOp::Lt, _, _)));
        assert!(matches!(r.as_ref(), Expr::Binary(BinOp::Le, _, _)));
    }

    #[test]
    fn unary_minus_vs_incoming_arrow() {
        // `a < -1` must parse as comparison with negation, not a pattern.
        let cs = clauses("MATCH (n) WHERE n.x < -1 RETURN n");
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &cs[0]
        else {
            panic!()
        };
        let Expr::Binary(BinOp::Lt, _, rhs) = w else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Unary(UnaryOp::Neg, _)));
    }

    #[test]
    fn predicates() {
        let cs = clauses(
            "MATCH (n) WHERE n.name STARTS WITH 'lap' AND n.id IN [1,2] \
             AND n.x IS NOT NULL AND NOT n:Archived RETURN n",
        );
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &cs[0]
        else {
            panic!()
        };
        let text = format!("{w:?}");
        assert!(text.contains("StartsWith"));
        assert!(text.contains("In"));
        assert!(text.contains("IsNull"));
        assert!(text.contains("HasLabels"));
    }

    #[test]
    fn list_index_and_slice() {
        let cs = clauses("RETURN xs[0], xs[1..3], xs[..2], xs[2..]");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        assert!(matches!(items[0].expr, Expr::Index(_, _)));
        assert!(matches!(items[1].expr, Expr::Slice { .. }));
        assert!(matches!(
            &items[2].expr,
            Expr::Slice {
                from: None,
                to: Some(_),
                ..
            }
        ));
        assert!(matches!(
            &items[3].expr,
            Expr::Slice {
                from: Some(_),
                to: None,
                ..
            }
        ));
    }

    #[test]
    fn case_expressions() {
        let cs = clauses("RETURN CASE WHEN x > 1 THEN 'big' ELSE 'small' END");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        assert!(matches!(&items[0].expr, Expr::Case { input: None, .. }));
        let cs = clauses("RETURN CASE x WHEN 1 THEN 'one' END");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        assert!(matches!(&items[0].expr, Expr::Case { input: Some(_), .. }));
    }

    #[test]
    fn variable_length_patterns() {
        let cs = clauses("MATCH (a)-[*]->(b), (c)-[*2]->(d), (e)-[r:T*1..3]->(f) RETURN a");
        let Clause::Match { patterns, .. } = &cs[0] else {
            panic!()
        };
        assert_eq!(
            patterns[0].steps[0].0.length,
            Some(VarLength {
                min: None,
                max: None
            })
        );
        assert_eq!(
            patterns[1].steps[0].0.length,
            Some(VarLength {
                min: Some(2),
                max: Some(2)
            })
        );
        assert_eq!(
            patterns[2].steps[0].0.length,
            Some(VarLength {
                min: Some(1),
                max: Some(3)
            })
        );
    }

    #[test]
    fn named_path_pattern() {
        let cs = clauses("MATCH p = (a)-->(b) RETURN p");
        let Clause::Match { patterns, .. } = &cs[0] else {
            panic!()
        };
        assert_eq!(patterns[0].var.as_deref(), Some("p"));
        assert_eq!(patterns[0].steps[0].0.direction, RelDirection::Outgoing);
    }

    #[test]
    fn abbreviated_rel_patterns() {
        let cs = clauses("MATCH (a)--(b), (c)<--(d) RETURN a");
        let Clause::Match { patterns, .. } = &cs[0] else {
            panic!()
        };
        assert_eq!(patterns[0].steps[0].0.direction, RelDirection::Undirected);
        assert_eq!(patterns[1].steps[0].0.direction, RelDirection::Incoming);
    }

    #[test]
    fn multiple_rel_types() {
        let cs = clauses("MATCH (a)-[r:OFFERS|ORDERED]->(b) RETURN r");
        let Clause::Match { patterns, .. } = &cs[0] else {
            panic!()
        };
        assert_eq!(patterns[0].steps[0].0.types.len(), 2);
    }

    #[test]
    fn set_replace_and_merge_props() {
        let cs = clauses("MATCH (n) SET n = {a: 1}, n += {b: 2}");
        let Clause::Set { items } = &cs[1] else {
            panic!()
        };
        assert!(matches!(&items[0], SetItem::Replace { .. }));
        assert!(matches!(&items[1], SetItem::MergeProps { .. }));
    }

    #[test]
    fn clause_spans_cover_the_source() {
        let src = "MATCH (n) RETURN n";
        let query = q(src);
        assert_eq!(query.first.clause_spans.len(), 2);
        let s0 = query.first.clause_span(0).unwrap();
        assert_eq!(&src[s0.start..s0.end], "MATCH (n)");
        let s1 = query.first.clause_span(1).unwrap();
        assert_eq!(&src[s1.start..s1.end], "RETURN n");
    }

    #[test]
    fn clause_spans_do_not_affect_equality() {
        // Same clauses, different surrounding whitespace → different spans,
        // equal ASTs (pretty-print round-trips rely on this).
        assert_eq!(q("MATCH (n)  RETURN n"), q("MATCH (n) RETURN n"));
    }

    #[test]
    fn error_messages_are_positioned() {
        let err = parse("MATCH (n RETURN n").unwrap_err();
        assert!(err.span.is_some());
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn both_way_arrow_rejected() {
        assert!(parse("MATCH (a)<-[r]->(b) RETURN a").is_err());
    }

    #[test]
    fn parse_script_multiple_statements() {
        let qs = parse_script("CREATE (:A); CREATE (:B); MATCH (n) RETURN n").unwrap();
        assert_eq!(qs.len(), 3);
    }

    #[test]
    fn keywords_usable_as_identifiers() {
        let cs = clauses("MATCH (match:Match) RETURN match");
        let Clause::Match { patterns, .. } = &cs[0] else {
            panic!()
        };
        assert_eq!(patterns[0].start.var.as_deref(), Some("match"));
    }

    #[test]
    fn escaped_identifiers() {
        let cs = clauses("MATCH (`weird var`:`odd label`) RETURN `weird var`");
        let Clause::Match { patterns, .. } = &cs[0] else {
            panic!()
        };
        assert_eq!(patterns[0].start.var.as_deref(), Some("weird var"));
        assert_eq!(patterns[0].start.labels[0], "odd label");
    }

    #[test]
    fn function_calls_and_distinct() {
        let cs = clauses("RETURN collect(DISTINCT n.id), coalesce(a, b, 1)");
        let Clause::Return(p) = &cs[0] else { panic!() };
        let ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        assert!(matches!(
            &items[0].expr,
            Expr::FnCall { distinct: true, .. }
        ));
        assert!(matches!(&items[1].expr, Expr::FnCall { name, args, .. }
                if name == "coalesce" && args.len() == 3));
    }

    #[test]
    fn delete_set_delete_return_sequence_parses() {
        // The §4.2 anomaly query must parse (validation is dialect-level).
        let cs = clauses(
            "MATCH (user)-[order:ORDERED]->(product) \
             DELETE user SET user.id = 999 DELETE order RETURN user",
        );
        assert_eq!(cs.len(), 5);
    }
}
