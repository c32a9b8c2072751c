//! Property-based round-trip tests: generate random ASTs, render them to
//! SQL, re-parse, and require structural equality. This pins down both the
//! renderer (canonical parenthesization) and the parser's precedence rules.
//! The lexer and parser must also never panic on arbitrary input.
//!
//! Cases are drawn from fixed seeds with the offline `rand` shim, so a
//! failure names a reproducible case.

use gsql_parser::ast::*;
use gsql_parser::parse_statement;
use rand::prelude::*;

const CASES: u64 = 192;

/// Run `check` on [`CASES`] generators seeded from `seed`.
fn for_each_case(seed: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        check(case, &mut rng);
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// `n` characters drawn from `alphabet`.
fn string_of(rng: &mut StdRng, alphabet: &[u8], n: usize) -> String {
    (0..n).map(|_| *pick(rng, alphabet) as char).collect()
}

/// An identifier that is never a keyword: `[a-z][a-z0-9_]{0,6}xx`.
fn ident(rng: &mut StdRng) -> String {
    let first = string_of(rng, b"abcdefghijklmnopqrstuvwxyz", 1);
    let len = rng.gen_range(0..=6);
    let rest = string_of(rng, b"abcdefghijklmnopqrstuvwxyz0123456789_", len);
    format!("{first}{rest}xx")
}

fn literal(rng: &mut StdRng) -> Literal {
    match rng.gen_range(0..6) {
        0 => Literal::Null,
        1 => Literal::Int(rng.gen_range(i32::MIN..=i32::MAX) as i64),
        // Finite doubles with a short decimal representation survive
        // display -> parse exactly.
        2 => Literal::Float(rng.gen_range(-1000i32..1000) as f64 / rng.gen_range(1u32..100) as f64),
        3 => {
            let len = rng.gen_range(0..=12);
            Literal::String(string_of(
                rng,
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '",
                len,
            ))
        }
        4 => Literal::Bool(rng.gen_bool(0.5)),
        _ => Literal::Date(format!(
            "{:04}-{:02}-{:02}",
            rng.gen_range(1980u32..2030),
            rng.gen_range(1u32..13),
            rng.gen_range(1u32..29)
        )),
    }
}

/// An expression tree at most `depth` levels deep.
fn expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..3) {
            0 => Expr::Literal(literal(rng)),
            1 => Expr::Column { table: None, name: ident(rng) },
            _ => Expr::Column { table: Some(ident(rng)), name: ident(rng) },
        };
    }
    let sub = |rng: &mut StdRng| Box::new(expr(rng, depth - 1));
    match rng.gen_range(0..10) {
        0 | 1 => {
            use BinaryOp::*;
            let op = *pick(
                rng,
                &[Add, Sub, Mul, Div, Mod, Concat, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or],
            );
            Expr::Binary { left: sub(rng), op, right: sub(rng) }
        }
        2 => Expr::IsNull { expr: sub(rng), negated: rng.gen_bool(0.5) },
        3 => {
            let n = rng.gen_range(1..4);
            Expr::InList {
                expr: sub(rng),
                list: (0..n).map(|_| *sub(rng)).collect(),
                negated: rng.gen_bool(0.5),
            }
        }
        4 => Expr::Between {
            expr: sub(rng),
            low: sub(rng),
            high: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        5 => Expr::Unary { op: UnaryOp::Not, expr: sub(rng) },
        6 => Expr::Unary { op: UnaryOp::Neg, expr: sub(rng) },
        7 => {
            use TypeName::*;
            let ty = *pick(rng, &[Integer, Double, Varchar, Boolean, Date]);
            Expr::Cast { expr: sub(rng), ty }
        }
        8 => {
            let n = rng.gen_range(0..3);
            Expr::Function {
                name: ident(rng),
                args: (0..n).map(|_| *sub(rng)).collect(),
                distinct: false,
            }
        }
        _ => {
            let n = rng.gen_range(1..3);
            Expr::Case {
                operand: rng.gen_bool(0.5).then(|| sub(rng)),
                branches: (0..n).map(|_| (*sub(rng), *sub(rng))).collect(),
                else_expr: rng.gen_bool(0.5).then(|| sub(rng)),
            }
        }
    }
}

/// Normalize the one representational ambiguity: the parser folds `-5`
/// into a negative literal, while a generated AST may hold
/// `Unary(Neg, Literal(5))`. Everything else must match exactly.
fn normalize(e: &Expr) -> Expr {
    match e {
        Expr::Unary { op: UnaryOp::Neg, expr } => match normalize(expr) {
            Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
            Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
            inner => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) },
        },
        Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: Box::new(normalize(expr)) },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(normalize(left)),
            op: *op,
            right: Box::new(normalize(right)),
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(normalize(expr)), negated: *negated }
        }
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(normalize(expr)),
            list: list.iter().map(normalize).collect(),
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(normalize(expr)),
            low: Box::new(normalize(low)),
            high: Box::new(normalize(high)),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(normalize(expr)),
            pattern: Box::new(normalize(pattern)),
            negated: *negated,
        },
        Expr::Case { operand, branches, else_expr } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(normalize(o))),
            branches: branches.iter().map(|(w, t)| (normalize(w), normalize(t))).collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(normalize(e))),
        },
        Expr::Cast { expr, ty } => Expr::Cast { expr: Box::new(normalize(expr)), ty: *ty },
        Expr::Function { name, args, distinct } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(normalize).collect(),
            distinct: *distinct,
        },
        Expr::Reaches(r) => Expr::Reaches(Box::new(ReachesPredicate {
            source: normalize(&r.source),
            dest: normalize(&r.dest),
            edge_table: r.edge_table.clone(),
            alias: r.alias.clone(),
            src_col: r.src_col.clone(),
            dst_col: r.dst_col.clone(),
        })),
        other => other.clone(),
    }
}

fn normalize_stmt(stmt: &Statement) -> Statement {
    // Only the query shapes used in this file need normalization.
    let Statement::Query(q) = stmt else { return stmt.clone() };
    let body = match &q.body {
        SetExpr::Select(s) => SetExpr::Select(Box::new(Select {
            distinct: s.distinct,
            items: s
                .items
                .iter()
                .map(|it| match it {
                    SelectItem::Expr { expr, alias } => {
                        SelectItem::Expr { expr: normalize(expr), alias: alias.clone() }
                    }
                    SelectItem::CheapestSum { binding, weight, aliases } => {
                        SelectItem::CheapestSum {
                            binding: binding.clone(),
                            weight: normalize(weight),
                            aliases: aliases.clone(),
                        }
                    }
                    other => other.clone(),
                })
                .collect(),
            from: s.from.clone(),
            where_clause: s.where_clause.as_ref().map(normalize),
            group_by: s.group_by.iter().map(normalize).collect(),
            having: s.having.as_ref().map(normalize),
        })),
        other => other.clone(),
    };
    Statement::Query(Query {
        ctes: q.ctes.clone(),
        body,
        order_by: q
            .order_by
            .iter()
            .map(|o| OrderItem { expr: normalize(&o.expr), asc: o.asc })
            .collect(),
        limit: q.limit.as_ref().map(normalize),
        offset: q.offset.as_ref().map(normalize),
    })
}

fn assert_round_trip(case: u64, stmt: &Statement) {
    let rendered = stmt.to_string();
    let reparsed = parse_statement(&rendered)
        .unwrap_or_else(|e| panic!("case {case}: re-parse failed: {e}\nrendered: {rendered}"));
    assert_eq!(
        normalize_stmt(stmt),
        normalize_stmt(&reparsed),
        "case {case}: rendered: {rendered}"
    );
}

/// A `SELECT` of `items` with an optional `FROM`/`WHERE`.
fn select(items: Vec<SelectItem>, from: Vec<TableRef>, where_clause: Option<Expr>) -> Select {
    Select { distinct: false, items, from, where_clause, group_by: vec![], having: None }
}

fn query(select: Select) -> Statement {
    Statement::Query(Query {
        ctes: vec![],
        body: SetExpr::Select(Box::new(select)),
        order_by: vec![],
        limit: None,
        offset: None,
    })
}

#[test]
fn expressions_round_trip() {
    for_each_case(1, |case, rng| {
        let e = expr(rng, 4);
        assert_round_trip(
            case,
            &query(select(vec![SelectItem::Expr { expr: e, alias: None }], vec![], None)),
        );
    });
}

#[test]
fn where_and_reaches_round_trip() {
    for_each_case(2, |case, rng| {
        let alias = rng.gen_bool(0.5).then(|| "tv".to_string());
        let reaches = ReachesPredicate {
            source: Expr::Column { table: None, name: ident(rng) },
            dest: Expr::Column { table: None, name: ident(rng) },
            edge_table: TableRef::Base { name: ident(rng), alias: None },
            alias: alias.clone(),
            src_col: ident(rng),
            dst_col: ident(rng),
        };
        let item = SelectItem::CheapestSum {
            binding: alias,
            weight: expr(rng, 4),
            aliases: CheapestAlias::CostAndPath("c".into(), "p".into()),
        };
        let stmt = query(select(vec![item], vec![], Some(Expr::Reaches(Box::new(reaches)))));
        assert_round_trip(case, &stmt);
    });
}

#[test]
fn order_limit_round_trip() {
    for_each_case(3, |case, rng| {
        let mut body = select(
            vec![SelectItem::Wildcard],
            vec![TableRef::Base { name: "txx".into(), alias: None }],
            None,
        );
        body.distinct = true;
        let Statement::Query(mut q) = query(body) else { unreachable!() };
        let n = rng.gen_range(1..4);
        q.order_by = (0..n)
            .map(|_| OrderItem {
                expr: Expr::Column { table: None, name: ident(rng) },
                asc: rng.gen_bool(0.5),
            })
            .collect();
        let bound = |rng: &mut StdRng| {
            rng.gen_bool(0.5).then(|| Expr::Literal(Literal::Int(rng.gen_range(0i64..1000))))
        };
        q.limit = bound(rng);
        q.offset = bound(rng);
        assert_round_trip(case, &Statement::Query(q));
    });
}

/// Up to 60 arbitrary non-control characters, biased toward the ASCII
/// that SQL tokens are made of.
fn arbitrary_text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..=60);
    (0..len)
        .map(|_| loop {
            let c = match rng.gen_range(0..4) {
                0 => char::from_u32(rng.gen_range(0u32..0x11_0000)),
                _ => Some(rng.gen_range(0x20u8..0x7f) as char),
            };
            if let Some(c) = c.filter(|c| !c.is_control()) {
                break c;
            }
        })
        .collect()
}

/// Up to 24 SQL fragments in random order: statement-shaped input that
/// gets past the lexer into the parser's deeper rules.
fn token_soup(rng: &mut StdRng) -> String {
    const FRAGMENTS: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP BY",
        "HAVING",
        "ORDER BY",
        "LIMIT",
        "OFFSET",
        "JOIN",
        "LEFT",
        "ON",
        "AS",
        "WITH",
        "VALUES",
        "UNION",
        "ALL",
        "DISTINCT",
        "CHEAPEST SUM",
        "REACHES",
        "OVER",
        "EDGE",
        "UNNEST",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "CAST",
        "IN",
        "BETWEEN",
        "AND",
        "OR",
        "NOT",
        "IS",
        "NULL",
        "LIKE",
        "INSERT INTO",
        "CREATE TABLE",
        "CREATE PATH INDEX",
        "USING",
        "LANDMARKS",
        "SET",
        "SHOW",
        "EXPLAIN ANALYZE",
        "(",
        ")",
        ",",
        ";",
        ".",
        "*",
        "+",
        "-",
        "/",
        "%",
        "||",
        "=",
        "<>",
        "<",
        "<=",
        "?",
        ":",
        "'",
        "''",
        "'x'",
        "1",
        "2.5",
        "-7",
        "9223372036854775808",
        "DATE '2017-01-01'",
        "t",
        "e",
        "x",
    ];
    let n = rng.gen_range(0..=24);
    (0..n).map(|_| *pick(rng, FRAGMENTS)).collect::<Vec<_>>().join(" ")
}

/// The lexer never panics on arbitrary input, and error positions are
/// within the input.
#[test]
fn lexer_total_on_arbitrary_input() {
    for_each_case(4, |case, rng| {
        let src = if rng.gen_bool(0.5) { arbitrary_text(rng) } else { token_soup(rng) };
        match gsql_parser::Lexer::new(&src).tokenize() {
            Ok(tokens) => assert!(!tokens.is_empty(), "case {case}: {src:?}"),
            Err(e) => assert!(e.line >= 1 && e.column >= 1, "case {case}: {src:?}: {e}"),
        }
    });
}

/// The parser never panics on arbitrary statement-shaped input.
#[test]
fn parser_total_on_arbitrary_input() {
    for_each_case(5, |_, rng| {
        let prefix =
            *pick(rng, &["", "SELECT ", "INSERT ", "CREATE ", "SELECT", "INSERT", "CREATE"]);
        let body = if rng.gen_bool(0.5) { arbitrary_text(rng) } else { token_soup(rng) };
        let _ = parse_statement(&format!("{prefix}{body}"));
    });
}
