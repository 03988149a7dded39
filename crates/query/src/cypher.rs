//! Cypher-lite front-end.
//!
//! Supports the core read syntax the survey's "text to Cypher" discussion
//! targets:
//!
//! ```text
//! MATCH (f:Film)-[:directedBy]->(d), (f)-[:hasGenre]->(g {name: "Drama"})
//! WHERE f.releaseYear > 2000
//! RETURN f.name, d LIMIT 10
//! ```
//!
//! Patterns compile onto the same [`Query`] AST as SPARQL: labels become
//! `rdf:type` triples, `{name: "…"}` and `.name` become `rdfs:label`
//! lookups, every other property/relationship name resolves against a
//! configurable vocabulary namespace (defaulting to the synthetic
//! generators' namespace).

use kg::namespace as ns;
use kg::term::{Literal, Term};

use crate::ast::*;
use crate::error::QueryError;

type Result<T> = std::result::Result<T, QueryError>;

/// Namespace configuration for resolving Cypher names to IRIs.
#[derive(Debug, Clone)]
pub struct CypherConfig {
    /// Namespace for labels, relationship types, and property keys.
    pub vocab_ns: String,
}

impl Default for CypherConfig {
    fn default() -> Self {
        CypherConfig {
            vocab_ns: ns::SYNTH_VOCAB.to_string(),
        }
    }
}

/// Parse a Cypher-lite query with the default namespace config.
pub fn parse(input: &str) -> Result<Query> {
    parse_with(input, &CypherConfig::default())
}

/// Parse a Cypher-lite query with explicit namespaces.
pub fn parse_with(input: &str, config: &CypherConfig) -> Result<Query> {
    let mut p = CypherParser {
        chars: input.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        config: config.clone(),
        elems: Vec::new(),
        fresh: 0,
        projections: Vec::new(),
    };
    p.parse_query()
}

struct CypherParser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    config: CypherConfig,
    elems: Vec<PatternElem>,
    fresh: usize,
    projections: Vec<String>,
}

impl CypherParser {
    fn err(&self, m: impl Into<String>) -> QueryError {
        QueryError::Parse {
            line: self.line,
            column: self.col,
            message: m.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        let end = self.pos + s.chars().count();
        if end <= self.chars.len()
            && self.chars[self.pos..end]
                .iter()
                .zip(s.chars())
                .all(|(&a, b)| a.eq_ignore_ascii_case(&b))
        {
            for _ in 0..s.chars().count() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: char) -> Result<()> {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(self.err(format!("expected '{c}', found '{got}'"))),
            None => Err(self.err(format!("expected '{c}', found end of input"))),
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        self.skip_ws();
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if name.is_empty() {
            return Err(self.err("expected a name"));
        }
        Ok(name)
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("__c{}", self.fresh)
    }

    fn vocab_iri(&self, name: &str) -> String {
        format!("{}{}", self.config.vocab_ns, name)
    }

    fn prop_iri(&self, key: &str) -> String {
        if key == "name" {
            ns::RDFS_LABEL.to_string()
        } else {
            self.vocab_iri(key)
        }
    }

    fn parse_query(&mut self) -> Result<Query> {
        if !self.eat_str("MATCH") {
            return Err(self.err("expected MATCH"));
        }
        loop {
            self.parse_path_pattern()?;
            self.skip_ws();
            if self.peek() == Some(',') {
                self.bump();
                continue;
            }
            break;
        }
        if self.eat_str("WHERE") {
            let e = self.parse_where_expr()?;
            self.elems.push(PatternElem::Filter(e));
        }
        if !self.eat_str("RETURN") {
            return Err(self.err("expected RETURN"));
        }
        loop {
            let var = self.parse_name()?;
            self.skip_ws();
            if self.peek() == Some('.') {
                self.bump();
                let key = self.parse_name()?;
                let value_var = self.fresh_var();
                self.elems.push(PatternElem::Triple(TriplePatternAst {
                    s: NodeRef::var(var),
                    p: PropPath::Iri(self.prop_iri(&key)),
                    o: NodeRef::var(value_var.clone()),
                }));
                self.projections.push(value_var);
            } else {
                self.projections.push(var);
            }
            self.skip_ws();
            if self.peek() == Some(',') {
                self.bump();
                continue;
            }
            break;
        }
        let mut limit = None;
        if self.eat_str("LIMIT") {
            self.skip_ws();
            let mut num = String::new();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                num.push(self.bump().expect("peeked"));
            }
            limit = Some(
                num.parse()
                    .map_err(|_| self.err("expected a number after LIMIT"))?,
            );
        }
        self.skip_ws();
        if self.pos != self.chars.len() {
            return Err(self.err("trailing input after query"));
        }
        Ok(Query {
            kind: QueryKind::Select {
                vars: self.projections.clone(),
                distinct: false,
            },
            pattern: GroupPattern {
                elems: std::mem::take(&mut self.elems),
            },
            order_by: Vec::new(),
            limit,
            offset: 0,
            aggregate: None,
            group_by: Vec::new(),
        })
    }

    /// `(a:Label {k:"v"})-[:REL]->(b) …`
    fn parse_path_pattern(&mut self) -> Result<()> {
        let mut left = self.parse_node_pattern()?;
        loop {
            self.skip_ws();
            let (forward, has_edge) = if self.eat_str("-[") {
                (true, true)
            } else if self.eat_str("<-[") {
                (false, true)
            } else {
                (true, false)
            };
            if !has_edge {
                break;
            }
            self.skip_ws();
            let rel = if self.peek() == Some(':') {
                self.bump();
                Some(self.parse_name()?)
            } else {
                None
            };
            self.expect_char(']')?;
            let arrow_forward = if self.eat_str("->") {
                true
            } else if self.eat_str("-") {
                false
            } else {
                return Err(self.err("expected '->' or '-' after relationship"));
            };
            let right = self.parse_node_pattern()?;
            let (s, o) = if forward && arrow_forward {
                (left.clone(), right.clone())
            } else {
                (right.clone(), left.clone())
            };
            let p = match rel {
                Some(r) => PropPath::Iri(self.vocab_iri(&r)),
                None => PropPath::Var(self.fresh_var()),
            };
            self.elems.push(PatternElem::Triple(TriplePatternAst {
                s: NodeRef::var(s),
                p,
                o: NodeRef::var(o),
            }));
            left = right;
        }
        Ok(())
    }

    /// `(var? (:Label)? ({k: "v"})?)` → returns the variable name.
    fn parse_node_pattern(&mut self) -> Result<String> {
        self.expect_char('(')?;
        self.skip_ws();
        let var = if matches!(self.peek(), Some(c) if c.is_alphabetic() || c == '_') {
            self.parse_name()?
        } else {
            self.fresh_var()
        };
        self.skip_ws();
        if self.peek() == Some(':') {
            self.bump();
            let label = self.parse_name()?;
            self.elems.push(PatternElem::Triple(TriplePatternAst {
                s: NodeRef::var(var.clone()),
                p: PropPath::Iri(ns::RDF_TYPE.to_string()),
                o: NodeRef::iri(self.vocab_iri(&label)),
            }));
        }
        self.skip_ws();
        if self.peek() == Some('{') {
            self.bump();
            loop {
                let key = self.parse_name()?;
                self.expect_char(':')?;
                let value = self.parse_value()?;
                self.elems.push(PatternElem::Triple(TriplePatternAst {
                    s: NodeRef::var(var.clone()),
                    p: PropPath::Iri(self.prop_iri(&key)),
                    o: NodeRef::Const(value),
                }));
                self.skip_ws();
                if self.peek() == Some(',') {
                    self.bump();
                    continue;
                }
                break;
            }
            self.expect_char('}')?;
        }
        self.expect_char(')')?;
        Ok(var)
    }

    fn parse_value(&mut self) -> Result<Term> {
        self.skip_ws();
        match self.peek() {
            Some('"') | Some('\'') => {
                let quote = self.bump().expect("peeked");
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(c) if c == quote => break,
                        Some(c) => s.push(c),
                        None => return Err(self.err("unterminated string")),
                    }
                }
                Ok(Term::lit(s))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let mut num = String::new();
                if c == '-' {
                    num.push(self.bump().expect("peeked"));
                }
                let mut is_double = false;
                while let Some(d) = self.peek() {
                    if d.is_ascii_digit() {
                        num.push(d);
                        self.bump();
                    } else if d == '.' {
                        is_double = true;
                        num.push(d);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if is_double {
                    let v: f64 = num
                        .parse()
                        .map_err(|_| self.err(format!("bad number {num}")))?;
                    Ok(Term::Literal(Literal::double(v)))
                } else {
                    let v: i64 = num
                        .parse()
                        .map_err(|_| self.err(format!("bad number {num}")))?;
                    Ok(Term::int(v))
                }
            }
            _ => Err(self.err("expected a literal value")),
        }
    }

    /// `var.prop OP literal (AND …)*`
    fn parse_where_expr(&mut self) -> Result<Expr> {
        let mut left = self.parse_where_atom()?;
        while self.eat_str("AND") {
            let right = self.parse_where_atom()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_where_atom(&mut self) -> Result<Expr> {
        let var = self.parse_name()?;
        self.skip_ws();
        let subject_expr = if self.peek() == Some('.') {
            self.bump();
            let key = self.parse_name()?;
            let value_var = self.fresh_var();
            self.elems.push(PatternElem::Triple(TriplePatternAst {
                s: NodeRef::var(var),
                p: PropPath::Iri(self.prop_iri(&key)),
                o: NodeRef::var(value_var.clone()),
            }));
            Expr::Var(value_var)
        } else {
            Expr::Var(var)
        };
        self.skip_ws();
        let op = if self.eat_str("<>") {
            "!="
        } else if self.eat_str("<=") {
            "<="
        } else if self.eat_str(">=") {
            ">="
        } else if self.eat_str("=") {
            "="
        } else if self.eat_str("<") {
            "<"
        } else if self.eat_str(">") {
            ">"
        } else {
            return Err(self.err("expected a comparison operator"));
        };
        let value = self.parse_value()?;
        let rhs = Box::new(Expr::Const(value));
        let lhs = Box::new(subject_expr);
        Ok(match op {
            "=" => Expr::Eq(lhs, rhs),
            "!=" => Expr::Ne(lhs, rhs),
            "<" => Expr::Lt(lhs, rhs),
            "<=" => Expr::Le(lhs, rhs),
            ">" => Expr::Gt(lhs, rhs),
            _ => Expr::Ge(lhs, rhs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOptions;
    use crate::results::ResultSet;
    use kg::Graph;

    fn execute<'g>(g: &'g Graph, q: &Query) -> Result<ResultSet<'g>> {
        crate::exec::execute(g, q, &ExecOptions::default(), &obs::Span::disabled())
    }

    fn graph() -> Graph {
        kg::turtle::parse_turtle(&format!(
            r#"
            @prefix e: <http://llmkg.dev/entity/> .
            @prefix v: <{vocab}> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            e:f1 a v:Film ; v:directedBy e:d1 ; v:releaseYear 2005 ; rdfs:label "Inception" .
            e:f2 a v:Film ; v:directedBy e:d2 ; v:releaseYear 1999 ; rdfs:label "Old Film" .
            e:d1 a v:Director ; rdfs:label "Nolan" .
            e:d2 a v:Director ; rdfs:label "Elder" .
            "#,
            vocab = ns::SYNTH_VOCAB
        ))
        .expect("fixture parses")
    }

    #[test]
    fn match_label_and_relationship() {
        let q = parse("MATCH (f:Film)-[:directedBy]->(d) RETURN f, d").unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.vars, vec!["f", "d"]);
    }

    #[test]
    fn cypher_rides_the_compiled_executor() {
        // the front-end compiles onto the same slot-based executor, so
        // Cypher results carry the same work counters as SPARQL ones
        let q = parse("MATCH (f:Film)-[:directedBy]->(d) RETURN f, d").unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.stats.patterns_scanned, 2); // type triple + edge
        assert!(rs.stats.index_probes >= 2, "{:?}", rs.stats);
        assert!(rs.stats.intermediate_bindings >= rs.len(), "{:?}", rs.stats);
    }

    #[test]
    fn property_map_filters() {
        let q = parse(r#"MATCH (f:Film {name: "Inception"})-[:directedBy]->(d) RETURN d.name"#)
            .unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(
            rs.get(0, 0)
                .and_then(|t| t.as_literal())
                .map(|l| l.lexical.as_str()),
            Some("Nolan")
        );
    }

    #[test]
    fn where_numeric_comparison() {
        let q = parse("MATCH (f:Film) WHERE f.releaseYear > 2000 RETURN f.name").unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn reverse_arrow() {
        let q = parse("MATCH (d)<-[:directedBy]-(f:Film) RETURN d").unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn untyped_relationship_matches_any() {
        let q = parse("MATCH (f:Film)-[]->(x) RETURN x").unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert!(rs.len() >= 4, "{}", rs.len());
    }

    #[test]
    fn limit_applies() {
        let q = parse("MATCH (f:Film) RETURN f LIMIT 1").unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn comma_joins_patterns() {
        let q = parse(
            r#"MATCH (f:Film)-[:directedBy]->(d), (f2:Film)-[:directedBy]->(d) RETURN f, f2"#,
        )
        .unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.len(), 2); // (f1,f1) and (f2,f2)
    }

    #[test]
    fn parse_errors_report_position() {
        assert!(parse("MATCH (f:Film RETURN f").is_err());
        assert!(parse("RETURN x").is_err());
        assert!(parse("MATCH (f) RETURN f garbage").is_err());
    }

    #[test]
    fn where_and_conjunction() {
        let q =
            parse(r#"MATCH (f:Film) WHERE f.releaseYear > 1990 AND f.releaseYear < 2000 RETURN f"#)
                .unwrap();
        let g = graph();
        let rs = execute(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
    }
}
