//! The correctness reference: the benchmark's own CSR over the generated
//! edge rows, answered with plain BFS / Dijkstra from `gsql-graph`. It
//! shares no code with the engine's planner, graph construction, graph
//! index or path indexes, so it is independent of every layer being
//! measured.

use gsql_graph::{bfs, dijkstra_int, Csr};
use gsql_storage::{Table, Value};
use std::collections::HashMap;

/// A graph over integer vertex ids `0..=max_id` (a vertex's dense id is
/// its value), with its edge rows kept in table order.
pub struct RefGraph {
    csr: Csr,
    src: Vec<i64>,
    dst: Vec<i64>,
    /// Per-row integer weights, table order.
    weights: Vec<i64>,
    /// `weights` permuted into CSR slot order.
    slot_weights: Vec<i64>,
}

impl RefGraph {
    /// `weights` per edge row; every edge weighs 1 when `None`.
    pub fn new(src: Vec<i64>, dst: Vec<i64>, weights: Option<Vec<i64>>) -> RefGraph {
        let max_id = src.iter().chain(&dst).copied().max().unwrap_or(0);
        let s: Vec<u32> = src.iter().map(|&v| v as u32).collect();
        let d: Vec<u32> = dst.iter().map(|&v| v as u32).collect();
        let csr = Csr::from_edges(max_id as u32 + 1, &s, &d).expect("reference CSR");
        let weights = weights.unwrap_or_else(|| vec![1; src.len()]);
        let slot_weights = csr.permute_weights_int(&weights).expect("positive reference weights");
        RefGraph { csr, src, dst, weights, slot_weights }
    }

    fn in_range(&self, v: i64) -> bool {
        v >= 0 && v < self.csr.num_vertices() as i64
    }

    /// Shortest-path cost of every `(source, target)` pair (`None` when
    /// unreachable): hop counts when `weighted` is false, integer-weight
    /// costs otherwise. One traversal per distinct source, spread over
    /// `threads` scoped threads.
    pub fn costs(&self, pairs: &[(i64, i64)], weighted: bool, threads: usize) -> Vec<Option<i64>> {
        let mut by_source: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, &(s, _)) in pairs.iter().enumerate() {
            by_source.entry(s).or_default().push(i);
        }
        let mut groups: Vec<(i64, Vec<usize>)> = by_source.into_iter().collect();
        groups.sort_by_key(|g| g.0);
        let threads = threads.max(1);
        let chunk = groups.len().div_ceil(threads).max(1);
        let solved: Vec<Vec<(usize, Option<i64>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .chunks(chunk)
                .map(|part| scope.spawn(move || self.solve_groups(pairs, part, weighted)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("reference thread")).collect()
        });
        let mut out = vec![None; pairs.len()];
        for (i, cost) in solved.into_iter().flatten() {
            out[i] = cost;
        }
        out
    }

    fn solve_groups(
        &self,
        pairs: &[(i64, i64)],
        groups: &[(i64, Vec<usize>)],
        weighted: bool,
    ) -> Vec<(usize, Option<i64>)> {
        let mut out = Vec::new();
        for (source, idx) in groups {
            if !self.in_range(*source) {
                out.extend(idx.iter().map(|&i| (i, None)));
                continue;
            }
            let targets: Vec<u32> = idx
                .iter()
                .map(|&i| pairs[i].1)
                .filter(|&t| self.in_range(t))
                .map(|t| t as u32)
                .collect();
            let source = *source as u32;
            let dist: Vec<Option<i64>> = if weighted {
                let r = dijkstra_int(&self.csr, source, &targets, &self.slot_weights);
                r.dist.iter().map(|&d| (d != u64::MAX).then_some(d as i64)).collect()
            } else {
                let r = bfs(&self.csr, source, &targets);
                r.dist.iter().map(|&d| (d != u32::MAX).then_some(d as i64)).collect()
            };
            for &i in idx {
                let t = pairs[i].1;
                out.push((i, if self.in_range(t) { dist[t as usize] } else { None }));
            }
        }
        out
    }

    /// Whether `rows` (edge-row ids, source to target order) is a walk from
    /// `s` to `t` whose edge weights sum to `cost`.
    pub fn path_matches(&self, s: i64, t: i64, rows: &[u32], cost: i64) -> bool {
        let mut at = s;
        let mut sum = 0i64;
        for &r in rows {
            let r = r as usize;
            if r >= self.src.len() || self.src[r] != at {
                return false;
            }
            sum += self.weights[r];
            at = self.dst[r];
        }
        at == t && sum == cost
    }
}

/// One answer the engine gave, kept for checking after the timed region.
pub enum Check {
    /// A single-pair cost (`None` = no row, i.e. unreachable).
    Cost { s: i64, d: i64, weighted: bool, got: Option<i64> },
    /// A weighted single-pair `AS (cost, path)` answer: the cost and the
    /// path's edge-row ids.
    Path { s: i64, d: i64, got: Option<(i64, Vec<u32>)> },
    /// A multi-pair answer: one `(source, target, cost)` row per reachable
    /// input pair, in any order, kept as the [`digest`] of its rows so that
    /// thousands of matrices cost little memory.
    Batch { pairs: Pairs, weighted: bool, got: u64 },
}

/// The input pairs of a multi-pair statement.
pub enum Pairs {
    List(Vec<(i64, i64)>),
    /// Every source × every target.
    Matrix(Vec<i64>, Vec<i64>),
}

impl Pairs {
    pub fn expand(&self) -> Vec<(i64, i64)> {
        match self {
            Pairs::List(p) => p.clone(),
            Pairs::Matrix(src, dst) => {
                src.iter().flat_map(|&s| dst.iter().map(move |&d| (s, d))).collect()
            }
        }
    }
}

/// Order-independent fingerprint of a set of `(source, target, cost)` rows.
pub fn digest(mut rows: Vec<(i64, i64, i64)>) -> u64 {
    use std::hash::{Hash, Hasher};
    rows.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

impl Check {
    fn pairs(&self) -> Vec<((i64, i64), bool)> {
        match self {
            Check::Cost { s, d, weighted, .. } => vec![((*s, *d), *weighted)],
            Check::Path { s, d, .. } => vec![((*s, *d), true)],
            Check::Batch { pairs, weighted, .. } => {
                pairs.expand().into_iter().map(|p| (p, *weighted)).collect()
            }
        }
    }
}

/// How many checks disagree with the reference: a wrong cost, a missing
/// or extra row, or a returned path that is not an `s → d` walk whose
/// weights sum to its cost.
pub fn count_wrong(graph: &RefGraph, checks: &[Check], threads: usize) -> u64 {
    let mut want: [Vec<(i64, i64)>; 2] = [Vec::new(), Vec::new()];
    for c in checks {
        for (p, weighted) in c.pairs() {
            want[usize::from(weighted)].push(p);
        }
    }
    let costs = [graph.costs(&want[0], false, threads), graph.costs(&want[1], true, threads)];
    let mut next = [0usize, 0usize];
    let mut take = |weighted: bool| {
        let w = usize::from(weighted);
        next[w] += 1;
        costs[w][next[w] - 1]
    };
    let mut wrong = 0;
    for c in checks {
        let ok = match c {
            Check::Cost { weighted, got, .. } => take(*weighted) == *got,
            Check::Path { s, d, got } => {
                let expected = take(true);
                match got {
                    None => expected.is_none(),
                    Some((cost, rows)) => {
                        expected == Some(*cost) && graph.path_matches(*s, *d, rows, *cost)
                    }
                }
            }
            Check::Batch { pairs, weighted, got } => {
                let expected = pairs
                    .expand()
                    .into_iter()
                    .filter_map(|(s, d)| take(*weighted).map(|c| (s, d, c)))
                    .collect();
                digest(expected) == *got
            }
        };
        if !ok {
            wrong += 1;
        }
    }
    wrong
}

/// The single cost of a point answer (`None`: no row, unreachable).
pub fn cost_of(t: &Table) -> Option<i64> {
    (t.row_count() > 0).then(|| int(&t.row(0)[0]))
}

/// An INTEGER result value.
pub fn int(v: &Value) -> i64 {
    match v {
        Value::Int(x) => *x,
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// The `(cost, edge rows)` of an `AS (cost, path)` point answer.
pub fn path_of(t: &Table) -> Option<(i64, Vec<u32>)> {
    (t.row_count() > 0).then(|| {
        let row = t.row(0);
        match &row[1] {
            Value::Path(p) => (int(&row[0]), p.rows.clone()),
            other => panic!("expected a path, got {other:?}"),
        }
    })
}

/// The `(source, target, cost)` rows of a multi-pair answer.
pub fn batch_rows(t: &Table) -> Vec<(i64, i64, i64)> {
    (0..t.row_count())
        .map(|i| {
            let r = t.row(i);
            (int(&r[0]), int(&r[1]), int(&r[2]))
        })
        .collect()
}
