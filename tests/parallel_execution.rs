//! End-to-end parallel execution: for every query shape the engine
//! parallelizes (graph traversals, filters, hash joins, grouped
//! aggregation, distinct, limit),
//! sessions running with `threads ∈ {1, 2, 8}` must produce identical
//! result tables — `threads = 1` is the engine's exact sequential path, so
//! this pins the parallel runtime to sequential semantics.

use gsql::{Database, Value};
use rand::prelude::*;

/// A deterministic pseudo-random database: a layered graph with shortcut
/// edges, weights, and a `people` table for join shapes.
fn build_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE people (id INTEGER NOT NULL, grp INTEGER NOT NULL)").unwrap();
    // xorshift-ish deterministic edge set over 120 vertices.
    let mut x: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut edges = String::new();
    for i in 0..600 {
        let s = next() % 120;
        let d = next() % 120;
        let w = next() % 9 + 1;
        if i > 0 {
            edges.push_str(", ");
        }
        edges.push_str(&format!("({s}, {d}, {w})"));
    }
    db.execute(&format!("INSERT INTO e VALUES {edges}")).unwrap();
    let mut people = String::new();
    for id in 0..120 {
        if id > 0 {
            people.push_str(", ");
        }
        people.push_str(&format!("({id}, {})", id % 7));
    }
    db.execute(&format!("INSERT INTO people VALUES {people}")).unwrap();
    // Float measurements for aggregate-determinism shapes: values with
    // non-trivial binary fractions so any reordering of a float SUM/AVG
    // would change the bits.
    db.execute("CREATE TABLE m (k INTEGER NOT NULL, v DOUBLE NOT NULL)").unwrap();
    let mut rows = String::new();
    for i in 0..500 {
        if i > 0 {
            rows.push_str(", ");
        }
        rows.push_str(&format!("({}, {})", i % 11, (i as f64) * 0.1 + 0.003));
    }
    db.execute(&format!("INSERT INTO m VALUES {rows}")).unwrap();
    db
}

/// The query shapes under test: graph select (unweighted + weighted +
/// path-producing), graph join, cross join + filter, filter, grouped
/// aggregation, distinct, limit/offset, union.
fn queries() -> Vec<String> {
    let mut pair_rows = String::new();
    for i in 0..40 {
        if i > 0 {
            pair_rows.push_str(", ");
        }
        pair_rows.push_str(&format!("({}, {})", (i * 13) % 120, (i * 29 + 7) % 120));
    }
    vec![
        format!(
            "WITH pairs (s, d) AS (VALUES {pair_rows}) \
             SELECT pairs.s, pairs.d, CHEAPEST SUM(1) AS distance \
             FROM pairs WHERE pairs.s REACHES pairs.d OVER e EDGE (s, d)"
        ),
        format!(
            "WITH pairs (s, d) AS (VALUES {pair_rows}) \
             SELECT pairs.s, pairs.d, CHEAPEST SUM(f: f.w) AS cost \
             FROM pairs WHERE pairs.s REACHES pairs.d OVER e f EDGE (s, d)"
        ),
        "SELECT CHEAPEST SUM(1) AS (cost, path) WHERE 0 REACHES 77 OVER e EDGE (s, d)".to_string(),
        "SELECT p1.id, p2.id FROM people p1, people p2 \
         WHERE p1.grp = 0 AND p2.grp = 1 AND p1.id REACHES p2.id OVER e EDGE (s, d)"
            .to_string(),
        "SELECT p1.id, p2.id, p1.grp FROM people p1, people p2 WHERE p1.grp = p2.grp \
         AND p1.id < p2.id ORDER BY p1.id, p2.id"
            .to_string(),
        "SELECT people.id + people.grp FROM people WHERE people.id % 3 = people.grp".to_string(),
        "SELECT e.s % 13 AS g, COUNT(*) AS n, SUM(e.w) AS s, AVG(e.w) AS a \
         FROM e GROUP BY e.s % 13 ORDER BY g"
            .to_string(),
        "SELECT DISTINCT e.s % 10, e.w FROM e".to_string(),
        "SELECT e.s, e.d FROM e ORDER BY e.s, e.d LIMIT 25 OFFSET 100".to_string(),
        "SELECT e.s FROM e UNION SELECT e.d FROM e".to_string(),
    ]
}

#[test]
fn identical_tables_across_thread_counts() {
    let db = build_db();
    for sql in queries() {
        let s1 = db.session();
        s1.set("threads", "1").unwrap();
        let reference = s1.query(&sql).unwrap();
        for threads in ["2", "8"] {
            let s = db.session();
            s.set("threads", threads).unwrap();
            let t = s.query(&sql).unwrap();
            assert_eq!(t.row_count(), reference.row_count(), "threads {threads}: {sql}");
            assert_eq!(
                t.schema().to_string(),
                reference.schema().to_string(),
                "threads {threads}: {sql}"
            );
            for r in 0..reference.row_count() {
                assert_eq!(t.row(r), reference.row(r), "threads {threads} row {r}: {sql}");
            }
        }
    }
}

#[test]
fn graph_index_path_identical_across_thread_counts() {
    let db = build_db();
    db.execute("CREATE GRAPH INDEX ge ON e EDGE (s, d)").unwrap();
    for sql in queries() {
        let s1 = db.session();
        s1.set("threads", "1").unwrap();
        let reference = s1.query(&sql).unwrap();
        let s8 = db.session();
        s8.set("threads", "8").unwrap();
        let t = s8.query(&sql).unwrap();
        assert_eq!(t.row_count(), reference.row_count(), "{sql}");
        for r in 0..reference.row_count() {
            assert_eq!(t.row(r), reference.row(r), "row {r}: {sql}");
        }
    }
}

#[test]
fn set_threads_validation_and_show() {
    let db = Database::new();
    let session = db.session();

    let err = session.execute("SET threads = 0").unwrap_err();
    assert!(err.to_string().contains("positive integer"), "{err}");
    let err = session.execute("SET threads = lots").unwrap_err();
    assert!(err.to_string().contains("non-negative integer"), "{err}");
    // Failed SETs leave the session usable with its previous value.
    session.execute("SET threads = 3").unwrap();
    let t = session.query("SHOW threads").unwrap();
    assert_eq!(t.row(0)[0], Value::from("threads"));
    assert_eq!(t.row(0)[1], Value::from("3"));

    // threads appears in SHOW ALL alongside the existing settings.
    let all = session.query("SHOW ALL").unwrap();
    let names: Vec<String> = (0..all.row_count()).map(|i| all.row(i)[0].to_string()).collect();
    for expected in ["graph_index", "plan_cache_size", "row_limit", "threads"] {
        assert!(names.contains(&expected.to_string()), "SHOW ALL missing {expected}");
    }
}

#[test]
fn explain_analyze_reports_correct_rows_under_parallel_execution() {
    let db = build_db();
    let session = db.session();
    session.set("threads", "8").unwrap();

    // 600 edges scanned; the filter keeps w = 1 rows. Row counts in the
    // EXPLAIN ANALYZE output must match a direct count even though the
    // filter and scan run under the parallel runtime.
    let expected = db.query("SELECT * FROM e WHERE e.w = 1").unwrap().row_count();
    let plan = session.query("EXPLAIN ANALYZE SELECT * FROM e WHERE e.w = 1").unwrap();
    let text: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = text.join("\n");
    assert!(all.contains(&format!("rows={expected}")), "filter rows missing:\n{all}");
    assert!(all.contains("rows=600"), "scan rows missing:\n{all}");
    assert!(all.contains("Result:"), "total line missing:\n{all}");

    // A graph query under parallel traversal still reports per-operator
    // rows (the GraphSelect output row count).
    let reachable = session
        .query("SELECT CHEAPEST SUM(1) WHERE 0 REACHES 77 OVER e EDGE (s, d)")
        .unwrap()
        .row_count();
    let plan = session
        .query("EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) WHERE 0 REACHES 77 OVER e EDGE (s, d)")
        .unwrap();
    let all: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = all.join("\n");
    assert!(all.contains(&format!("rows={reachable}")), "graph rows missing:\n{all}");
}

/// Query shapes that exercise the morsel-driven pipeline engine
/// specifically: fused scan→filter→project chains, hash-join probes,
/// float aggregates, LIMIT short-circuits, and graph-fed relational plans.
fn pipeline_queries() -> Vec<String> {
    vec![
        // Fused filter→project chain.
        "SELECT people.id * 2 + people.grp FROM people WHERE people.id % 3 <> 1".to_string(),
        // Hash-join probe inside a pipeline, aggregated. (The explicit
        // JOIN ... ON form is the one that plans as an equi join; comma
        // joins stay cross-product + filter.)
        "SELECT p1.grp, COUNT(*) AS n FROM people p1 JOIN people p2 ON p1.grp = p2.grp \
         GROUP BY p1.grp ORDER BY p1.grp"
            .to_string(),
        // Probe feeding a fused filter and projection, fully materialized.
        "SELECT p1.id, p2.id + 1 FROM people p1 JOIN people p2 ON p1.grp = p2.grp \
         WHERE p1.id % 4 <> 2"
            .to_string(),
        // Float SUM/AVG with non-trivial binary fractions: any reordering
        // of the accumulation changes the bits.
        "SELECT m.k, SUM(m.v) AS s, AVG(m.v) AS a FROM m GROUP BY m.k ORDER BY m.k".to_string(),
        "SELECT SUM(m.v), AVG(m.v), COUNT(*) FROM m".to_string(),
        // DISTINCT aggregate across morsels (dedup happens at merge).
        "SELECT COUNT(DISTINCT e.w), SUM(DISTINCT e.w) FROM e".to_string(),
        // LIMIT short-circuit: producers stop once enough rows exist, and
        // the kept prefix must equal the sequential prefix.
        "SELECT e.s, e.d, e.w FROM e WHERE e.w > 2 LIMIT 17 OFFSET 5".to_string(),
        "SELECT people.id FROM people LIMIT 3".to_string(),
        // Mixed graph + relational: traversal output feeds a pipelined
        // filter/aggregate.
        "SELECT COUNT(*) AS n, SUM(c.cost) AS total FROM (\
            SELECT p1.id AS a, p2.id AS b, CHEAPEST SUM(1) AS cost \
            FROM people p1, people p2 \
            WHERE p1.grp = 0 AND p2.grp = 1 \
              AND p1.id REACHES p2.id OVER e EDGE (s, d)) c \
         WHERE c.cost < 5"
            .to_string(),
    ]
}

/// The determinism contract of the pipeline engine: morsel boundaries
/// depend only on the input size and `morsel_rows`, and partials merge in
/// morsel-index order — so every query (including float SUM/AVG, whose
/// accumulation order is observable in the result bits) is byte-identical
/// at threads 1, 2, 4 and 8. `morsel_rows = 7` forces dozens of morsels so
/// the merge path is actually exercised.
#[test]
fn pipelined_plans_identical_across_thread_counts() {
    let db = build_db();
    for sql in pipeline_queries() {
        let reference = {
            let s = db.session();
            s.set("threads", "1").unwrap();
            s.set("morsel_rows", "7").unwrap();
            s.query(&sql).unwrap()
        };
        for threads in ["2", "4", "8"] {
            let s = db.session();
            s.set("threads", threads).unwrap();
            s.set("morsel_rows", "7").unwrap();
            let t = s.query(&sql).unwrap();
            assert_eq!(t.row_count(), reference.row_count(), "threads {threads}: {sql}");
            for r in 0..reference.row_count() {
                assert_eq!(t.row(r), reference.row(r), "threads {threads} row {r}: {sql}");
            }
        }
    }
}

/// One row of a model table: two nullable integers.
type ModelRow = [Option<i64>; 2];

/// Random small tables with NULLs, for the model-checked operator suite.
fn random_model_tables(rng: &mut StdRng) -> (Vec<ModelRow>, Vec<ModelRow>) {
    let mut cell = |null_pct: u64, lo: i64, hi: i64| {
        if rng.gen_range(0..100) < null_pct {
            None
        } else {
            Some(rng.gen_range(lo..=hi))
        }
    };
    let na = cell(0, 0, 40).unwrap() as usize;
    let a = (0..na).map(|_| [cell(10, 0, 6), cell(15, -9, 9)]).collect();
    let nb = cell(0, 0, 25).unwrap() as usize;
    let b = (0..nb).map(|_| [cell(10, 0, 6), cell(15, -9, 9)]).collect();
    (a, b)
}

fn insert_rows(db: &Database, table: &str, rows: &[ModelRow]) {
    let lit = |v: Option<i64>| v.map_or("NULL".to_string(), |x| x.to_string());
    for chunk in rows.chunks(16) {
        let values: Vec<String> =
            chunk.iter().map(|[x, y]| format!("({}, {})", lit(*x), lit(*y))).collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", values.join(", "))).unwrap();
    }
}

fn v(x: Option<i64>) -> Value {
    x.map_or(Value::Null, Value::Int)
}

/// Each statement's expected rows, computed in plain Rust over the same
/// rows: scan order, left-major joins, first-seen groups, SQL NULL rules.
fn model_cases(
    a: &[ModelRow],
    b: &[ModelRow],
    limit: usize,
    offset: usize,
) -> Vec<(String, Vec<Vec<Value>>)> {
    let mut cases = Vec::new();
    cases.push((
        "SELECT a.k, a.v FROM a WHERE a.v > 2".to_string(),
        a.iter()
            .filter(|[_, x]| x.is_some_and(|x| x > 2))
            .map(|&[k, x]| vec![v(k), v(x)])
            .collect(),
    ));
    cases.push((
        "SELECT a.v * 2 + a.k AS y FROM a WHERE a.k <> 3".to_string(),
        a.iter()
            .filter(|[k, _]| k.is_some_and(|k| k != 3))
            .map(|&[k, x]| vec![v(x.zip(k).map(|(x, k)| x * 2 + k))])
            .collect(),
    ));
    let equi = |outer: bool| -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for &[k, x] in a {
            let before = out.len();
            for &[bk, w] in b {
                if k.is_some() && k == bk {
                    out.push(vec![v(k), v(x), v(w)]);
                }
            }
            if outer && out.len() == before {
                out.push(vec![v(k), v(x), Value::Null]);
            }
        }
        out
    };
    cases.push(("SELECT a.k, a.v, b.w FROM a JOIN b ON a.k = b.k".to_string(), equi(false)));
    cases.push(("SELECT a.k, a.v, b.w FROM a LEFT JOIN b ON a.k = b.k".to_string(), equi(true)));
    let mut less = Vec::new();
    let mut cross = Vec::new();
    for &[ak, x] in a {
        for &[bk, w] in b {
            if x.zip(w).is_some_and(|(x, w)| x < w) {
                less.push(vec![v(x), v(w)]);
            }
            cross.push(vec![v(ak), v(bk)]);
        }
    }
    cases.push(("SELECT a.v, b.w FROM a JOIN b ON a.v < b.w".to_string(), less));
    cases.push(("SELECT a.k, b.k FROM a, b".to_string(), cross));
    // GROUP BY: groups in first-seen order (the NULL key is one group).
    let mut keys: Vec<Option<i64>> = Vec::new();
    for &[k, _] in a {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let groups = keys
        .iter()
        .map(|&key| {
            let xs: Vec<i64> =
                a.iter().filter(|[k, _]| *k == key).filter_map(|[_, x]| *x).collect();
            let n = a.iter().filter(|[k, _]| *k == key).count() as i64;
            vec![
                v(key),
                Value::Int(n),
                Value::Int(xs.len() as i64),
                v((!xs.is_empty()).then(|| xs.iter().sum())),
                v(xs.iter().copied().min()),
                v(xs.iter().copied().max()),
            ]
        })
        .collect();
    cases.push((
        "SELECT a.k, COUNT(*), COUNT(a.v), SUM(a.v), MIN(a.v), MAX(a.v) FROM a GROUP BY a.k"
            .to_string(),
        groups,
    ));
    let twos: Vec<i64> = a.iter().filter(|[k, _]| *k == Some(2)).filter_map(|[_, x]| *x).collect();
    cases.push((
        "SELECT COUNT(*), SUM(a.v) FROM a WHERE a.k = 2".to_string(),
        vec![vec![
            Value::Int(a.iter().filter(|[k, _]| *k == Some(2)).count() as i64),
            v((!twos.is_empty()).then(|| twos.iter().sum())),
        ]],
    ));
    cases.push((
        format!("SELECT a.k, a.v FROM a WHERE a.v IS NOT NULL LIMIT {limit} OFFSET {offset}"),
        a.iter()
            .filter(|[_, x]| x.is_some())
            .skip(offset)
            .take(limit)
            .map(|&[k, x]| vec![v(k), v(x)])
            .collect(),
    ));
    cases
}

/// Filter, project, inner/left equi joins, a non-equi join, a cross join,
/// grouped and global aggregates and LIMIT/OFFSET, checked against a
/// plain-Rust model of the same random rows at threads {1, 4} ×
/// `morsel_rows` {7, 65536}: an independent reference for every streaming
/// operator.
#[test]
fn pipeline_matches_plain_rust_model() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0b5e);
    for case in 0..16 {
        let (a, b) = random_model_tables(&mut rng);
        let db = Database::new();
        db.execute("CREATE TABLE a (k INTEGER, v INTEGER)").unwrap();
        db.execute("CREATE TABLE b (k INTEGER, w INTEGER)").unwrap();
        insert_rows(&db, "a", &a);
        insert_rows(&db, "b", &b);
        let (limit, offset) = (rng.gen_range(0..12usize), rng.gen_range(0..20usize));
        for (sql, want) in model_cases(&a, &b, limit, offset) {
            for (threads, morsel_rows) in [("1", "7"), ("1", "65536"), ("4", "7"), ("4", "65536")] {
                let s = db.session();
                s.set("threads", threads).unwrap();
                s.set("morsel_rows", morsel_rows).unwrap();
                let got: Vec<Vec<Value>> = s.query(&sql).unwrap().rows().collect();
                assert_eq!(
                    got, want,
                    "case {case} threads {threads} morsel_rows {morsel_rows}: {sql}"
                );
            }
        }
    }
}

/// Integer-valued results are also invariant to the morsel size itself
/// (float accumulation order legitimately varies with boundaries, integer
/// sums never do).
#[test]
fn integer_results_invariant_to_morsel_size() {
    let db = build_db();
    let sqls = [
        "SELECT e.s % 13 AS g, COUNT(*) AS n, SUM(e.w) AS s FROM e GROUP BY e.s % 13 ORDER BY g",
        "SELECT e.s, e.d, e.w FROM e WHERE e.w > 2 LIMIT 17 OFFSET 5",
        "SELECT COUNT(DISTINCT e.w), SUM(DISTINCT e.w) FROM e",
        "SELECT p1.grp, COUNT(*) AS n FROM people p1, people p2 \
         WHERE p1.grp = p2.grp GROUP BY p1.grp ORDER BY p1.grp",
    ];
    for sql in sqls {
        let reference = {
            let s = db.session();
            s.set("morsel_rows", "7").unwrap();
            s.set("threads", "8").unwrap();
            s.query(sql).unwrap()
        };
        for morsel_rows in ["1", "64", "100000"] {
            let s = db.session();
            s.set("morsel_rows", morsel_rows).unwrap();
            s.set("threads", "8").unwrap();
            let t = s.query(sql).unwrap();
            assert_eq!(t.row_count(), reference.row_count(), "morsel_rows {morsel_rows}: {sql}");
            for r in 0..reference.row_count() {
                assert_eq!(t.row(r), reference.row(r), "morsel_rows {morsel_rows} row {r}: {sql}");
            }
        }
    }
}

/// LIMIT under concurrency: the morsel queue hands out a contiguous prefix
/// of morsels, so stopping production early can never skip a row that the
/// sequential prefix would contain.
#[test]
fn limit_short_circuit_is_exact_under_concurrency() {
    let db = build_db();
    // The reference is the same query without LIMIT/OFFSET.
    let all = db.session().query("SELECT e.s, e.d, e.w FROM e WHERE e.w >= 2").unwrap();
    for (limit, offset) in [(1usize, 0usize), (10, 0), (25, 100), (1000, 0), (50, 380)] {
        let s = db.session();
        s.set("morsel_rows", "7").unwrap();
        s.set("threads", "8").unwrap();
        let t = s
            .query(&format!(
                "SELECT e.s, e.d, e.w FROM e WHERE e.w >= 2 LIMIT {limit} OFFSET {offset}"
            ))
            .unwrap();
        let expected = all.row_count().saturating_sub(offset).min(limit);
        assert_eq!(t.row_count(), expected, "LIMIT {limit} OFFSET {offset}");
        for r in 0..t.row_count() {
            assert_eq!(t.row(r), all.row(offset + r), "LIMIT {limit} OFFSET {offset} row {r}");
        }
    }
}

/// `EXPLAIN` annotates pipeline membership; breakers (sort, distinct,
/// graph ops) materialize their input and are labelled as such.
#[test]
fn explain_annotates_pipelines_and_breakers() {
    let db = build_db();
    let session = db.session();
    let plan = session
        .query("EXPLAIN SELECT e.s % 13 AS g, COUNT(*) AS n FROM e GROUP BY e.s % 13 ORDER BY g")
        .unwrap();
    let text: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = text.join("\n");
    assert!(all.contains("[pipeline 0]"), "no pipeline annotation:\n{all}");
    assert!(all.contains("Sort"), "{all}");
    assert!(all.contains("[breaker]"), "no breaker annotation:\n{all}");
}

#[test]
fn threads_setting_is_session_local() {
    let db = build_db();
    let a = db.session();
    let b = db.session();
    a.set("threads", "1").unwrap();
    b.set("threads", "8").unwrap();
    assert_eq!(a.setting("threads").unwrap(), "1");
    assert_eq!(b.setting("threads").unwrap(), "8");
    // Both sessions agree on results regardless of their width.
    let sql = "SELECT DISTINCT e.w FROM e ORDER BY 1";
    // ORDER BY ordinal may not be supported; use column reference instead.
    let sql = if db.session().query(sql).is_ok() {
        sql.to_string()
    } else {
        "SELECT DISTINCT e.w FROM e ORDER BY e.w".to_string()
    };
    let ta = a.query(&sql).unwrap();
    let tb = b.query(&sql).unwrap();
    assert_eq!(ta.row_count(), tb.row_count());
    for i in 0..ta.row_count() {
        assert_eq!(ta.row(i), tb.row(i));
    }
}

/// The error each session surfaces for `sql`, at threads 1, 2 and 8.
fn errors_at_thread_counts(
    db: &Database,
    sql: &str,
    morsel_rows: &str,
    row_limit: &str,
) -> Vec<String> {
    ["1", "2", "8"]
        .iter()
        .map(|threads| {
            let s = db.session();
            s.set("threads", threads).unwrap();
            s.set("morsel_rows", morsel_rows).unwrap();
            s.set("row_limit", row_limit).unwrap();
            match s.query(sql) {
                Ok(t) => panic!("threads {threads} morsel_rows {morsel_rows}: {t:?} for {sql}"),
                Err(e) => e.to_string(),
            }
        })
        .collect()
}

/// A failing statement surfaces one error, whatever the thread count: the
/// first one met walking the morsels in index order (and, inside a morsel,
/// the fused operators innermost first) — what `threads = 1` reports. The
/// failing rows sit in several morsels at `morsel_rows = 7`, each with its
/// own message, so surfacing whichever worker failed first would show.
#[test]
fn errors_are_identical_at_every_thread_count() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INTEGER NOT NULL, s VARCHAR, r VARCHAR)").unwrap();
    // `s` fails to cast at x = 17, 67, 117, 167 (morsels 2, 9, 16, 23 at 7
    // rows per morsel), `r` at x = 40, 90, 140, 190.
    let rows: Vec<String> = (0..200)
        .map(|x| {
            let s = if x % 50 == 17 { format!("bad{x}") } else { x.to_string() };
            let r = if x % 50 == 40 { format!("r{x}") } else { x.to_string() };
            format!("({x}, '{s}', '{r}')")
        })
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    db.execute("CREATE TABLE big (x INTEGER NOT NULL, s VARCHAR)").unwrap();
    let rows: Vec<String> = (0..4000)
        .map(|x| if x % 500 == 17 { format!("({x}, 'bad{x}')") } else { format!("({x}, '{x}')") })
        .collect();
    db.execute(&format!("INSERT INTO big VALUES {}", rows.join(", "))).unwrap();

    // (statement, row_limit, expected error at morsel_rows 7, at 65536)
    let cases = [
        // Filter.
        ("SELECT t.x FROM t WHERE CAST(t.s AS INTEGER) >= 0", "0", "'bad17'", "'bad17'"),
        // Project.
        ("SELECT CAST(t.s AS INTEGER) + 1 FROM t", "0", "'bad17'", "'bad17'"),
        // Join probe: the probe-side key fails.
        (
            "SELECT t.x, u.x FROM t JOIN t u ON CAST(t.s AS INTEGER) = u.x",
            "0",
            "'bad17'",
            "'bad17'",
        ),
        // Join build: the build-side key fails in every 500-row chunk the
        // build splits `big` into (it is built before any morsel runs).
        (
            "SELECT t.x, big.x FROM t JOIN big ON t.x = CAST(big.s AS INTEGER)",
            "0",
            "'bad17'",
            "'bad17'",
        ),
        // Aggregate argument.
        (
            "SELECT t.x % 5, SUM(CAST(t.s AS INTEGER)) FROM t GROUP BY t.x % 5",
            "0",
            "'bad17'",
            "'bad17'",
        ),
        // Filter and project fail in different morsels: with small morsels
        // the project error in morsel 2 comes first; one big morsel filters
        // every row before projecting any.
        (
            "SELECT CAST(t.s AS INTEGER) FROM t WHERE CAST(t.r AS INTEGER) >= 0",
            "0",
            "'bad17'",
            "'r40'",
        ),
        // The row-limit guard on the probe output (20 matches per row).
        (
            "SELECT t.x, u.x FROM t JOIN t u ON t.x % 10 = u.x % 10",
            "1000",
            "InnerJoin on ((x % 10) = (x % 10)) produced more than 1000 rows",
            "InnerJoin on ((x % 10) = (x % 10)) produced more than 1000 rows",
        ),
        // Row limit against a probe error: seven-row morsels overrun 500
        // rows in morsel 3, before the failing row 40 (morsel 5); one big
        // morsel fails at row 40 before any count is checked.
        (
            "SELECT t.x, u.x FROM t JOIN t u ON t.x % 10 = u.x % 10 AND CAST(t.r AS INTEGER) >= 0",
            "500",
            "produced more than 500 rows",
            "'r40'",
        ),
    ];
    for (sql, row_limit, small, big) in cases {
        for (morsel_rows, expected) in [("7", small), ("65536", big)] {
            let errors = errors_at_thread_counts(&db, sql, morsel_rows, row_limit);
            assert!(
                errors[0].contains(expected),
                "morsel_rows {morsel_rows}: {errors:?} for {sql}"
            );
            assert!(
                errors.iter().all(|e| *e == errors[0]),
                "morsel_rows {morsel_rows}: {errors:?} for {sql}"
            );
        }
    }
}

/// A LIMIT sink ends the in-order walk once its prefix holds enough rows,
/// so an error in a later morsel never surfaces — and whether it does is
/// decided by the morsel sequence alone, never the thread count.
#[test]
fn limit_drops_errors_after_its_satisfied_prefix() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INTEGER NOT NULL)").unwrap();
    let rows: Vec<String> = (0..5000).map(|x| format!("({x})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    let sql = "SELECT t.x FROM t WHERE CASE WHEN t.x = 20 THEN 1/0 ELSE 1 END = 1 LIMIT 1";
    for threads in ["1", "2", "8"] {
        let s = db.session();
        s.set("threads", threads).unwrap();
        // Seven-row morsels: morsel 0 satisfies LIMIT 1; row 20 is in morsel 2.
        s.set("morsel_rows", "7").unwrap();
        let t = s.query(sql).unwrap();
        assert_eq!(t.rows().collect::<Vec<_>>(), vec![vec![Value::Int(0)]], "threads {threads}");
        // One morsel holds every row, row 20 included.
        s.set("morsel_rows", "65536").unwrap();
        let err = s.query(sql).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "threads {threads}: {err}");
    }
}
