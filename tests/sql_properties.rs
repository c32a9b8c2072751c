//! Property tests at the SQL surface: the whole pipeline (parse → bind →
//! optimize → relational and graph execution → materialize) against a
//! Bellman-Ford model, over random graphs drawn from fixed seeds (24 cases
//! per property, so a failure names a reproducible case).

use gsql::{Database, Value};
use rand::prelude::*;
use std::collections::{HashMap, HashSet};

const CASES: u64 = 24;

/// Random directed graph as an edge list over vertices 1..=n.
fn random_graph(rng: &mut StdRng) -> (i64, Vec<(i64, i64, i64)>) {
    let n = rng.gen_range(2i64..14);
    let m = rng.gen_range(1usize..40);
    let edges = (0..m)
        .map(|_| (rng.gen_range(1..=n), rng.gen_range(1..=n), rng.gen_range(1i64..9)))
        .collect();
    (n, edges)
}

/// Run `check` on [`CASES`] random graphs drawn from `seed`.
fn for_each_graph(seed: u64, mut check: impl FnMut(u64, &mut StdRng, i64, &[(i64, i64, i64)])) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (n, edges) = random_graph(&mut rng);
        check(case, &mut rng, n, &edges);
    }
}

fn build_db(edges: &[(i64, i64, i64)]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER, d INTEGER, w INTEGER)").unwrap();
    let rows: Vec<String> = edges.iter().map(|(s, d, w)| format!("({s}, {d}, {w})")).collect();
    db.execute(&format!("INSERT INTO e VALUES {}", rows.join(", "))).unwrap();
    db
}

/// Reference weighted distances via Bellman-Ford over the edge list;
/// respects the vertex-membership rule (endpoints must appear in an edge).
fn model_distance(
    n: i64,
    edges: &[(i64, i64, i64)],
    src: i64,
    dst: i64,
    unit: bool,
) -> Option<i64> {
    let is_vertex = |v: i64| edges.iter().any(|&(s, d, _)| s == v || d == v);
    if !is_vertex(src) || !is_vertex(dst) {
        return None;
    }
    let mut dist = vec![None::<i64>; (n + 1) as usize];
    dist[src as usize] = Some(0);
    for _ in 0..=n {
        for &(s, d, w) in edges {
            let w = if unit { 1 } else { w };
            if let Some(ds) = dist[s as usize] {
                if dist[d as usize].is_none_or(|old| ds + w < old) {
                    dist[d as usize] = Some(ds + w);
                }
            }
        }
    }
    dist[dst as usize]
}

/// `CHEAPEST SUM(1)` through SQL equals BFS distances of the model.
#[test]
fn sql_unweighted_distance_matches_model() {
    for_each_graph(1, |case, _, n, edges| {
        let db = build_db(edges);
        let session = db.session();
        let stmt =
            session.prepare("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)").unwrap();
        for src in 1..=n.min(5) {
            for dst in 1..=n.min(5) {
                let t = stmt.query(&session, &[Value::Int(src), Value::Int(dst)]).unwrap();
                let got = if t.is_empty() { None } else { t.row(0)[0].as_int() };
                let want = model_distance(n, edges, src, dst, true);
                assert_eq!(got, want, "case {case} pair ({src}, {dst}) over {edges:?}");
            }
        }
    });
}

/// Weighted `CHEAPEST SUM(e: w)` equals Bellman-Ford.
#[test]
fn sql_weighted_distance_matches_model() {
    for_each_graph(2, |case, _, n, edges| {
        let db = build_db(edges);
        let session = db.session();
        let stmt = session
            .prepare("SELECT CHEAPEST SUM(x: w) WHERE ? REACHES ? OVER e x EDGE (s, d)")
            .unwrap();
        for src in 1..=n.min(4) {
            for dst in 1..=n.min(4) {
                let t = stmt.query(&session, &[Value::Int(src), Value::Int(dst)]).unwrap();
                let got = if t.is_empty() { None } else { t.row(0)[0].as_int() };
                let want = model_distance(n, edges, src, dst, false);
                assert_eq!(got, want, "case {case} pair ({src}, {dst}) over {edges:?}");
            }
        }
    });
}

/// Batched pairs through the VALUES-CTE shape agree with the model, and
/// unreachable pairs are absent from the batch result.
#[test]
fn sql_batched_equals_singles() {
    for_each_graph(3, |case, rng, n, edges| {
        let db = build_db(edges);
        let pairs: Vec<(i64, i64)> = (0..rng.gen_range(1..10))
            .map(|_| (rng.gen_range(1..=n), rng.gen_range(1..=n)))
            .collect();
        let values: Vec<String> = pairs.iter().map(|(a, b)| format!("({a}, {b})")).collect();
        let batch = db
            .query(&format!(
                "WITH p (a, b) AS (VALUES {})
                 SELECT p.a, p.b, CHEAPEST SUM(1) AS c FROM p
                 WHERE p.a REACHES p.b OVER e EDGE (s, d)",
                values.join(", ")
            ))
            .unwrap();
        let got: HashMap<(i64, i64), i64> = batch
            .rows()
            .map(|row| {
                ((row[0].as_int().unwrap(), row[1].as_int().unwrap()), row[2].as_int().unwrap())
            })
            .collect();
        for &(a, b) in &pairs {
            let want = model_distance(n, edges, a, b, true);
            assert_eq!(got.get(&(a, b)).copied(), want, "case {case} pair ({a}, {b})");
        }
    });
}

/// Every path returned through SQL UNNEST chains source→dest and its
/// weights sum to the reported cost.
#[test]
fn sql_unnested_paths_are_valid() {
    for_each_graph(4, |case, _, n, edges| {
        let db = build_db(edges);
        let session = db.session();
        let stmt = session
            .prepare(
                "SELECT T.cost, R.s, R.d, R.w, R.ordinality FROM (
                   SELECT CHEAPEST SUM(x: w) AS (cost, path)
                   WHERE ? REACHES ? OVER e x EDGE (s, d)
                 ) T, UNNEST(T.path) WITH ORDINALITY AS R ORDER BY R.ordinality",
            )
            .unwrap();
        for src in 1..=n.min(4) {
            for dst in 1..=n.min(4) {
                if src == dst {
                    continue;
                }
                let t = stmt.query(&session, &[Value::Int(src), Value::Int(dst)]).unwrap();
                if t.is_empty() {
                    assert_eq!(model_distance(n, edges, src, dst, false), None, "case {case}");
                    continue;
                }
                let cost = t.row(0)[0].as_int().unwrap();
                assert_eq!(Some(cost), model_distance(n, edges, src, dst, false), "case {case}");
                let mut at = src;
                let mut acc = 0i64;
                for (i, row) in t.rows().enumerate() {
                    assert_eq!(row[4].as_int(), Some(i as i64 + 1), "case {case} ordinality");
                    assert_eq!(row[1].as_int(), Some(at), "case {case} chain at hop {i}");
                    at = row[2].as_int().unwrap();
                    acc += row[3].as_int().unwrap();
                }
                assert_eq!(at, dst, "case {case}");
                assert_eq!(acc, cost, "case {case}");
            }
        }
    });
}

/// Reachability (no CHEAPEST SUM) over a graph join selects exactly the
/// model's pairs.
#[test]
fn sql_reachability_filter_matches_model() {
    for_each_graph(5, |case, _, n, edges| {
        let db = build_db(edges);
        let values: Vec<String> = (1..=n).map(|i| format!("({i})")).collect();
        let t = db
            .query(&format!(
                "WITH v (id) AS (VALUES {})
                 SELECT a.id, b.id FROM v a, v b
                 WHERE a.id REACHES b.id OVER e EDGE (s, d)",
                values.join(", ")
            ))
            .unwrap();
        let got: HashSet<(i64, i64)> =
            t.rows().map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap())).collect();
        for a in 1..=n {
            for b in 1..=n {
                let want = model_distance(n, edges, a, b, true).is_some();
                assert_eq!(got.contains(&(a, b)), want, "case {case} pair ({a}, {b})");
            }
        }
    });
}
