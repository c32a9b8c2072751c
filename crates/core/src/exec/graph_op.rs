//! Execution of the paper's graph operators.
//!
//! This is the engine-side counterpart of §3.1/§3.2:
//!
//! 1. the edge table expression is materialized;
//! 2. the vertex set `V = S ∪ D` is derived and every vertex value is
//!    translated into the dense domain `H = {0, …, |V|−1}`;
//! 3. a CSR is built over `H` (counting sort + prefix sum);
//! 4. the `X`/`Y` values are mapped into `H` — values that are not vertices
//!    are filtered out ("the values from X and Y are then joined with V,
//!    performing an initial filtering");
//! 5. the external library (gsql-graph) computes reachability and the
//!    requested shortest paths, batching all pairs with the same source
//!    into one traversal;
//! 6. the result set is materialized back: surviving input rows, one cost
//!    column per `CHEAPEST SUM`, and path columns holding row references
//!    into the edge snapshot (§3.3).

use crate::context::ExecContext;
use crate::error::{exec_err, Error};
use crate::exec::executor::Executor;
use crate::exec::expression::{eval_const, eval_to_column};
use crate::exec::vertex_dict::VertexDict;
use crate::optimize::spec_accel_eligible;
use crate::path_index::{BatchSearch, IndexFamily, PathIndexData};
use crate::plan::{BoundExpr, CheapestSpec, LogicalPlan, PlanSchema};
use gsql_graph::batch::CostValue;
use gsql_graph::{
    BatchComputer, Csr, GraphError, PairResult, TraversalKind, TraversalObserver, WeightSpec,
};
use gsql_obs::EngineMetrics;
use gsql_storage::{Column, ColumnBuilder, DataType, PathValue, Table, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

/// A graph materialized from an edge table: the snapshot (for path row
/// references), the CSR, and the value→dense-id dictionary.
///
/// This is also what a `CREATE GRAPH INDEX` caches (paper §6 future work):
/// "these indices will store the full graph, ready to be used when a query
/// matches the edge table that generated the graph".
#[derive(Debug)]
pub struct MaterializedGraph {
    /// Edge-table snapshot. Rows with NULL endpoints are excluded, so CSR
    /// edge-row ids index this table directly.
    pub edges: Arc<Table>,
    /// The CSR over dense vertex ids.
    pub csr: Csr,
    /// Vertex value → dense id.
    pub dict: VertexDict,
    /// Ordinal of the source key column in `edges`.
    pub src_key: usize,
    /// Ordinal of the destination key column in `edges`.
    pub dst_key: usize,
    /// Lazily built reverse CSR, used by the bidirectional-BFS fast path
    /// for indexed single-pair unweighted queries. Building it costs as
    /// much as the forward CSR, so it is only materialized for graphs that
    /// outlive one query (graph indices).
    reverse: std::sync::OnceLock<Csr>,
    /// Degree of parallelism the graph was built with; reused for the lazy
    /// reverse CSR (parallel construction is bit-identical to sequential,
    /// so this only affects speed).
    build_threads: usize,
}

impl MaterializedGraph {
    /// Map a vertex value to its dense id, if it is a vertex of the graph.
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        self.dict.lookup(v)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// The reverse CSR, built on first use and cached for the graph's
    /// lifetime.
    pub fn reverse(&self) -> &Csr {
        self.reverse
            .get_or_init(|| gsql_graph::reverse_csr_with_threads(&self.csr, self.build_threads))
    }

    /// Reassemble a graph from persisted parts (warm restart). The reverse
    /// CSR is installed eagerly — a restored path index must answer its
    /// first query without any build work.
    pub(crate) fn from_saved(
        edges: Arc<Table>,
        csr: Csr,
        reverse: Csr,
        dict: VertexDict,
        src_key: usize,
        dst_key: usize,
    ) -> MaterializedGraph {
        let slot = std::sync::OnceLock::new();
        slot.set(reverse).expect("fresh OnceLock");
        MaterializedGraph { edges, csr, dict, src_key, dst_key, reverse: slot, build_threads: 1 }
    }
}

/// The NULL-endpoint filter every materialized graph applies to its edge
/// snapshot, factored out so warm-start restoration recomputes **exactly**
/// the snapshot the index was built over.
pub(crate) fn null_filtered_edges(edges: Arc<Table>, src_key: usize, dst_key: usize) -> Arc<Table> {
    let src_col = edges.column(src_key);
    let dst_col = edges.column(dst_key);
    if src_col.null_count() == 0 && dst_col.null_count() == 0 {
        return edges;
    }
    let keep: Vec<usize> =
        (0..edges.row_count()).filter(|&i| !src_col.is_null(i) && !dst_col.is_null(i)).collect();
    Arc::new(edges.take(&keep))
}

/// [`build_graph_with_threads`] with the sequential build.
pub fn build_graph(edges: Arc<Table>, src_key: usize, dst_key: usize) -> Result<MaterializedGraph> {
    build_graph_with_threads(edges, src_key, dst_key, 1)
}

/// Build a [`MaterializedGraph`] from a materialized edge table.
///
/// This is the construction cost that the paper's evaluation shows
/// dominating single-pair query latency (§4) and that batching (Fig. 1b)
/// and graph indices (§6) amortize. The [`VertexDict`] assigns dense ids
/// in first-seen order in one sequential pass: `INTEGER` keys with a small
/// span go through a direct-indexed slot array without materializing a
/// [`Value`] per endpoint; every other key type goes through a hash map.
/// The CSR's counting sort + prefix sum then run over `threads` workers.
/// Both steps are bit-identical at every thread count.
pub fn build_graph_with_threads(
    edges: Arc<Table>,
    src_key: usize,
    dst_key: usize,
    threads: usize,
) -> Result<MaterializedGraph> {
    // Exclude edges with NULL endpoints so the snapshot's row ids equal the
    // CSR's edge-row ids.
    let edges = null_filtered_edges(edges, src_key, dst_key);
    let (dict, src_ids, dst_ids) = VertexDict::encode(edges.column(src_key), edges.column(dst_key));
    let csr = Csr::from_edges_with_threads(dict.len() as u32, &src_ids, &dst_ids, threads)
        .map_err(Error::Graph)?;
    Ok(MaterializedGraph {
        edges,
        csr,
        dict,
        src_key,
        dst_key,
        reverse: std::sync::OnceLock::new(),
        build_threads: threads.max(1),
    })
}

/// Validate a `CHEAPEST SUM` weight that is a constant: it scales the hop
/// count and must be strictly positive. Returns the scale, or `None` for a
/// per-edge weight. `CHEAPEST SUM(1)` is the paper's unweighted shortest
/// path.
fn prepare_spec(spec: &CheapestSpec, params: &[Value]) -> Result<Option<Value>> {
    if !spec.weight.is_constant() {
        return Ok(None);
    }
    let v = eval_const(&spec.weight, params)?;
    let positive = match &v {
        Value::Int(x) => *x > 0,
        Value::Double(x) => *x > 0.0 && x.is_finite(),
        _ => false,
    };
    if !positive {
        return Err(Error::Graph(GraphError::NonPositiveWeight {
            edge_row: 0,
            weight: v.to_string(),
        }));
    }
    Ok(Some(v))
}

/// Evaluate a per-edge weight over the edge snapshot.
fn edge_weights(spec: &CheapestSpec, edges: &Table, params: &[Value]) -> Result<WeightSpec> {
    let col = eval_to_column(&spec.weight, edges, params, spec.weight_ty)?;
    match &col {
        Column::Int(vals, validity) => {
            if let Some(row) = (0..vals.len()).find(|&i| !validity.get(i)) {
                return Err(Error::Graph(GraphError::NullWeight { edge_row: row as u32 }));
            }
            Ok(WeightSpec::Int(vals.clone()))
        }
        Column::Double(vals, validity) => {
            if let Some(row) = (0..vals.len()).find(|&i| !validity.get(i)) {
                return Err(Error::Graph(GraphError::NullWeight { edge_row: row as u32 }));
            }
            Ok(WeightSpec::Float(vals.clone()))
        }
        other => Err(exec_err!("CHEAPEST SUM weight must be numeric, found {}", other.data_type())),
    }
}

/// Bridges traversal reports onto the engine metrics registry, while
/// accumulating totals for the enclosing trace span. Called from the
/// traversal worker pool, so both sinks are relaxed atomics — nothing here
/// influences results.
struct MetricsObserver<'m> {
    metrics: Option<&'m EngineMetrics>,
    traversals: AtomicU64,
    settled: AtomicU64,
}

impl<'m> MetricsObserver<'m> {
    fn new(metrics: Option<&'m EngineMetrics>) -> MetricsObserver<'m> {
        MetricsObserver { metrics, traversals: AtomicU64::new(0), settled: AtomicU64::new(0) }
    }

    /// Record one traversal of `kind` (one of [`gsql_obs::ACCEL_KINDS`]).
    fn record(&self, kind: &str, settled: usize) {
        if let Some(m) = self.metrics {
            m.record_traversal(kind, settled as u64);
        }
        self.traversals.fetch_add(1, Ordering::Relaxed);
        self.settled.fetch_add(settled as u64, Ordering::Relaxed);
    }

    fn totals(&self) -> (u64, u64) {
        (self.traversals.load(Ordering::Relaxed), self.settled.load(Ordering::Relaxed))
    }
}

impl TraversalObserver for MetricsObserver<'_> {
    fn traversal(&self, kind: TraversalKind, settled: usize) {
        self.record(kind.as_str(), settled);
    }
}

/// Per-spec results for a batch of pairs.
struct SpecResults {
    results: Vec<PairResult>,
    scale: Option<Value>,
    want_path: bool,
    cost_ty: DataType,
}

impl SpecResults {
    fn cost_of(&self, pair_idx: usize) -> Result<Value> {
        let r = &self.results[pair_idx];
        let raw = r.cost.ok_or_else(|| exec_err!("cost requested for unreachable pair"))?;
        let v = match (&self.scale, raw) {
            (None, CostValue::Int(c)) => Value::Int(c),
            (None, CostValue::Float(c)) => Value::Double(c),
            (Some(Value::Int(k)), CostValue::Int(hops)) => {
                Value::Int(hops.checked_mul(*k).ok_or_else(|| exec_err!("cost overflow"))?)
            }
            (Some(Value::Double(k)), CostValue::Int(hops)) => Value::Double(hops as f64 * k),
            (Some(s), c) => {
                return Err(exec_err!("inconsistent scale {s} for cost {c:?}"));
            }
        };
        // Respect the declared cost type (e.g. `CHEAPEST SUM(1.5)` is
        // Double even though hops are integers).
        match (self.cost_ty, v) {
            (DataType::Double, Value::Int(x)) => Ok(Value::Double(x as f64)),
            (_, v) => Ok(v),
        }
    }

    fn path_of(&self, pair_idx: usize, edges: &Arc<Table>) -> Result<Value> {
        let r = &self.results[pair_idx];
        let rows = r.path.clone().ok_or_else(|| exec_err!("path requested but not computed"))?;
        Ok(Value::Path(PathValue { edges: Arc::clone(edges), rows }))
    }
}

/// The graph a graph operator runs over, and where it came from.
struct EdgeGraph {
    graph: Arc<MaterializedGraph>,
    /// The graph is a registry entry's and outlives the query.
    from_index: bool,
    /// The entry's accelerated data, for a path index.
    accel: Option<Arc<PathIndexData>>,
}

/// The one traversal routine: answers a graph operator's pair batch for
/// every spec (or as a plain reachability probe when there are none).
///
/// 1. Constant weights are validated once, before any traversal runs.
/// 2. The tier is picked. The accelerated tier runs when the graph carries
///    an accelerator that serves every spec: one pair goes to the
///    point-to-point search, more pairs to the many-to-many tier. The plain
///    tier ([`BatchComputer`]) runs otherwise.
/// 3. One `traversal` span and the traversal metrics are recorded here,
///    whichever tier ran. An accelerated span carries the `EXPLAIN
///    ANALYZE` detail as its `detail` attribute.
///
/// Costs are bit-identical across tiers and thread counts. The context
/// supplies the `?` parameters, the worker-pool width and the statement
/// deadline, polled between traversal groups so a timeout interrupts a
/// long batch mid-flight.
fn run_traversals(
    eg: &EdgeGraph,
    pairs: &[(u32, u32)],
    specs: &[CheapestSpec],
    ctx: &ExecContext<'_>,
) -> Result<(Vec<bool>, Vec<SpecResults>)> {
    let scales: Vec<Option<Value>> =
        specs.iter().map(|spec| prepare_spec(spec, ctx.params())).collect::<Result<_>>()?;
    let accel = eg.accel.as_deref().filter(|data| {
        !pairs.is_empty() && specs.iter().all(|s| spec_accel_eligible(s, data.weight_key))
    });
    let observer = MetricsObserver::new(ctx.metrics().map(Arc::as_ref));
    let span = ctx.span("traversal");
    let result = match accel {
        Some(data) => search_accelerated(data, pairs, ctx).map(|batch| {
            observer.record(batch.kind, batch.settled);
            span.attr("kind", batch.kind);
            span.attr("detail", batch.detail);
            accelerated_results(&batch.dist, specs, scales)
        }),
        None => search_plain(eg, pairs, specs, scales, ctx, &observer),
    };
    if span.is_recording() {
        let (traversals, settled) = observer.totals();
        span.attr("pairs", pairs.len());
        if accel.is_none() {
            span.attr("traversals", traversals as usize);
        }
        span.attr("settled", settled as usize);
    }
    result
}

/// The accelerated tier's search over the index's native weights. An
/// expired statement deadline surfaces as the statement's timeout error,
/// matching [`BatchComputer`].
fn search_accelerated(
    data: &PathIndexData,
    pairs: &[(u32, u32)],
    ctx: &ExecContext<'_>,
) -> Result<BatchSearch> {
    if let &[(s, d)] = pairs {
        let (dist, settled) = data.search(s, d);
        let detail = data.analyze_detail(settled);
        return Ok(BatchSearch { dist: vec![dist], settled, kind: data.kind_name(), detail });
    }
    data.search_batch(pairs, ctx.threads(), ctx.deadline_instant())
        .ok_or_else(|| ctx.timeout_error())
}

/// Per-spec results from the accelerated tier's distances. Eligibility
/// pins constant specs to hop indexes and column specs to the index's
/// weight column, so one search answers every spec.
fn accelerated_results(
    dist: &[Option<u64>],
    specs: &[CheapestSpec],
    scales: Vec<Option<Value>>,
) -> (Vec<bool>, Vec<SpecResults>) {
    let reachable = dist.iter().map(Option::is_some).collect();
    let results = specs
        .iter()
        .zip(scales)
        .map(|(spec, scale)| SpecResults {
            results: dist
                .iter()
                .map(|d| PairResult {
                    reachable: d.is_some(),
                    cost: d.map(|c| CostValue::Int(c as i64)),
                    path: None,
                })
                .collect(),
            scale,
            want_path: false,
            cost_ty: spec.weight_ty,
        })
        .collect();
    (reachable, results)
}

/// The plain tier: one BFS or Dijkstra per distinct source per spec, with
/// every traversal reported to `observer`. A single unweighted pair over a
/// registry graph takes the bidirectional BFS instead, whose reverse CSR
/// the cached graph amortizes across queries.
fn search_plain(
    eg: &EdgeGraph,
    pairs: &[(u32, u32)],
    specs: &[CheapestSpec],
    scales: Vec<Option<Value>>,
    ctx: &ExecContext<'_>,
    observer: &MetricsObserver<'_>,
) -> Result<(Vec<bool>, Vec<SpecResults>)> {
    let graph = &eg.graph;
    let computer = BatchComputer::new(&graph.csr)
        .with_threads(ctx.threads())
        .with_deadline(ctx.deadline_instant())
        .with_observer(Some(observer));
    let traverse = |weights: WeightSpec, want_path: bool| {
        if let (&[(s, d)], true, WeightSpec::Unweighted) = (pairs, eg.from_index, &weights) {
            let hit = gsql_graph::bidirectional_bfs(&graph.csr, graph.reverse(), s, d);
            let settled = hit.as_ref().map_or(0, |h| h.settled as usize);
            observer.traversal(TraversalKind::BidirBfs, settled);
            return Ok(vec![match hit {
                Some(hit) => PairResult {
                    reachable: true,
                    cost: Some(CostValue::Int(hit.dist as i64)),
                    path: want_path.then_some(hit.path),
                },
                None => PairResult { reachable: false, cost: None, path: None },
            }]);
        }
        computer.compute(pairs, &weights, want_path).map_err(|e| graph_err(ctx, e))
    };
    if specs.is_empty() {
        // Reachability only: BFS, paths discarded (paper §3.2).
        let results = traverse(WeightSpec::Unweighted, false)?;
        return Ok((results.iter().map(|r| r.reachable).collect(), Vec::new()));
    }
    let mut all = Vec::with_capacity(specs.len());
    for (spec, scale) in specs.iter().zip(scales) {
        let weights = match scale {
            Some(_) => WeightSpec::Unweighted,
            None => edge_weights(spec, &graph.edges, ctx.params())?,
        };
        all.push(SpecResults {
            results: traverse(weights, spec.want_path)?,
            scale,
            want_path: spec.want_path,
            cost_ty: spec.weight_ty,
        });
    }
    // Reachability is weight-independent (all weights finite and positive),
    // so the first spec's flags select the surviving rows.
    let reachable = all[0].results.iter().map(|r| r.reachable).collect();
    Ok((reachable, all))
}

/// Lift a graph-runtime error: an abandoned-deadline batch becomes the
/// statement's [`Error::Timeout`]; everything else stays a graph error.
fn graph_err(ctx: &ExecContext<'_>, e: GraphError) -> Error {
    match e {
        GraphError::DeadlineExceeded => ctx.timeout_error(),
        other => Error::Graph(other),
    }
}

/// Execute a `GraphSelect` or `GraphJoin` node.
pub fn execute(ex: &Executor<'_>, plan: &LogicalPlan) -> Result<Arc<Table>> {
    match plan {
        LogicalPlan::GraphSelect { input, edge, src_key, dst_key, source, dest, specs, schema } => {
            execute_graph_select(ex, input, edge, *src_key, *dst_key, source, dest, specs, schema)
        }
        LogicalPlan::GraphJoin {
            left,
            right,
            edge,
            src_key,
            dst_key,
            source,
            dest,
            specs,
            schema,
        } => execute_graph_join(
            ex, left, right, edge, *src_key, *dst_key, source, dest, specs, schema,
        ),
        other => Err(exec_err!("graph_op::execute on non-graph node {other:?}")),
    }
}

/// Obtain the graph for an edge plan: from the fresh registry entry an
/// [`LogicalPlan::IndexedGraph`] names — with the accelerated data of a
/// path index — or, for a plain scan or an index dropped since planning,
/// by building it now. Index use honours the context's index settings.
fn obtain_graph(
    ex: &Executor<'_>,
    edge: &LogicalPlan,
    src_key: usize,
    dst_key: usize,
) -> Result<EdgeGraph> {
    let ctx = ex.ctx();
    if let LogicalPlan::IndexedGraph { index, kind, .. } = edge {
        let family = IndexFamily::of(*kind);
        if let Some(registry) = ctx.indexes(family) {
            if let Some(built) = registry.fetch(ctx.catalog(), family, index, ctx.threads())? {
                let graph = Arc::clone(built.graph());
                return Ok(EdgeGraph { graph, from_index: true, accel: built.accel().cloned() });
            }
        }
    }
    let edges = ex.execute(edge)?;
    let span = ctx.span("graph_build");
    let graph = build_graph_with_threads(edges, src_key, dst_key, ctx.threads())?;
    span.attr("vertices", graph.num_vertices() as usize);
    span.attr("edges", graph.num_edges());
    span.attr("dict", graph.dict.form());
    Ok(EdgeGraph { graph: Arc::new(graph), from_index: false, accel: None })
}

#[allow(clippy::too_many_arguments)]
fn execute_graph_select(
    ex: &Executor<'_>,
    input: &LogicalPlan,
    edge: &LogicalPlan,
    src_key: usize,
    dst_key: usize,
    source: &BoundExpr,
    dest: &BoundExpr,
    specs: &[CheapestSpec],
    schema: &PlanSchema,
) -> Result<Arc<Table>> {
    // Materialize the input, then map X/Y into the dense domain, dropping
    // rows whose endpoints are not vertices (the "initial filtering" of
    // §3.1). The columns are typed by the edge key; for a bare column key
    // the evaluation is a column clone.
    let input_table = ex.execute(input)?;
    let eg = obtain_graph(ex, edge, src_key, dst_key)?;
    let key_ty = eg.graph.edges.schema().column(src_key).ty;
    let x_col = eval_to_column(source, &input_table, ex.ctx().params(), key_ty)?;
    let y_col = eval_to_column(dest, &input_table, ex.ctx().params(), key_ty)?;
    let graph = &eg.graph;
    let mut candidates: Vec<usize> = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for row in 0..input_table.row_count() {
        let (Some(sid), Some(did)) = (graph.lookup(&x_col.get(row)), graph.lookup(&y_col.get(row)))
        else {
            continue;
        };
        candidates.push(row);
        pairs.push((sid, did));
    }
    let (reachable, spec_results) = run_traversals(&eg, &pairs, specs, ex.ctx())?;

    let kept: Vec<usize> = (0..pairs.len()).filter(|&i| reachable[i]).collect();
    let kept_input_rows: Vec<usize> = kept.iter().map(|&i| candidates[i]).collect();

    let mut columns: Vec<Column> =
        input_table.columns().iter().map(|c| c.take(&kept_input_rows)).collect();
    append_spec_columns(&mut columns, &spec_results, &kept, &graph.edges)?;
    Table::from_columns(schema.to_storage_schema(), columns).map(Arc::new).map_err(Error::Storage)
}

#[allow(clippy::too_many_arguments)]
fn execute_graph_join(
    ex: &Executor<'_>,
    left: &LogicalPlan,
    right: &LogicalPlan,
    edge: &LogicalPlan,
    src_key: usize,
    dst_key: usize,
    source: &BoundExpr,
    dest: &BoundExpr,
    specs: &[CheapestSpec],
    schema: &PlanSchema,
) -> Result<Arc<Table>> {
    // GraphJoin is the batched many-to-many shape; a covering path index
    // serves the whole distinct-source × distinct-dest matrix through the
    // bucket-CH / multi-target-ALT tier of `run_traversals`.
    let ctx = ex.ctx();
    let left_table = ex.execute(left)?;
    let right_table = ex.execute(right)?;
    let eg = obtain_graph(ex, edge, src_key, dst_key)?;
    let key_ty = eg.graph.edges.schema().column(src_key).ty;
    let x_col = eval_to_column(source, &left_table, ctx.params(), key_ty)?;
    let y_col = eval_to_column(dest, &right_table, ctx.params(), key_ty)?;
    let graph = &eg.graph;

    // Distinct vertex ids on each side, with their row lists.
    let mut left_ids: Vec<(usize, u32)> = Vec::new();
    for row in 0..left_table.row_count() {
        if let Some(sid) = graph.lookup(&x_col.get(row)) {
            left_ids.push((row, sid));
        }
    }
    let mut right_ids: Vec<(usize, u32)> = Vec::new();
    for row in 0..right_table.row_count() {
        if let Some(did) = graph.lookup(&y_col.get(row)) {
            right_ids.push((row, did));
        }
    }
    let mut distinct_src: Vec<u32> = left_ids.iter().map(|&(_, s)| s).collect();
    distinct_src.sort_unstable();
    distinct_src.dedup();
    let mut distinct_dst: Vec<u32> = right_ids.iter().map(|&(_, d)| d).collect();
    distinct_dst.sort_unstable();
    distinct_dst.dedup();

    // One traversal per distinct source over all distinct destinations.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(distinct_src.len() * distinct_dst.len());
    for &s in &distinct_src {
        for &d in &distinct_dst {
            pairs.push((s, d));
        }
    }
    let (reachable, spec_results) = run_traversals(&eg, &pairs, specs, ctx)?;
    let pair_index: HashMap<(u32, u32), usize> =
        pairs.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();

    // Emit matching (left row, right row) pairs.
    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<usize> = Vec::new();
    let mut kept_pairs: Vec<usize> = Vec::new();
    for &(li, sid) in &left_ids {
        for &(ri, did) in &right_ids {
            let pi = pair_index[&(sid, did)];
            if reachable[pi] {
                left_rows.push(li);
                right_rows.push(ri);
                kept_pairs.push(pi);
            }
        }
    }

    let mut columns: Vec<Column> =
        left_table.columns().iter().map(|c| c.take(&left_rows)).collect();
    columns.extend(right_table.columns().iter().map(|c| c.take(&right_rows)));
    append_spec_columns(&mut columns, &spec_results, &kept_pairs, &graph.edges)?;
    Table::from_columns(schema.to_storage_schema(), columns).map(Arc::new).map_err(Error::Storage)
}

/// Append the cost (and path) columns for every spec.
fn append_spec_columns(
    columns: &mut Vec<Column>,
    spec_results: &[SpecResults],
    kept_pairs: &[usize],
    edges: &Arc<Table>,
) -> Result<()> {
    for sr in spec_results {
        let cost_ty = sr.cost_ty;
        let mut cost_builder = ColumnBuilder::new(cost_ty);
        for &pi in kept_pairs {
            cost_builder.push(sr.cost_of(pi)?).map_err(Error::Storage)?;
        }
        columns.push(cost_builder.finish());
        if sr.want_path {
            let mut path_builder = ColumnBuilder::new(DataType::Path);
            for &pi in kept_pairs {
                path_builder.push(sr.path_of(pi, edges)?).map_err(Error::Storage)?;
            }
            columns.push(path_builder.finish());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{ColumnDef, Schema};

    fn edge_table() -> Arc<Table> {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("src", DataType::Int),
            ColumnDef::new("dst", DataType::Int),
            ColumnDef::new("w", DataType::Int),
        ]));
        // 10 -> 20 -> 30, plus 10 -> 30 expensive direct edge
        for (s, d, w) in [(10, 20, 1), (20, 30, 1), (10, 30, 5)] {
            t.append_row(vec![Value::Int(s), Value::Int(d), Value::Int(w)]).unwrap();
        }
        t.append_row(vec![Value::Null, Value::Int(99), Value::Int(1)]).unwrap(); // NULL endpoint: must be dropped
        Arc::new(t)
    }

    #[test]
    fn build_graph_maps_values_and_drops_null_edges() {
        let g = build_graph(edge_table(), 0, 1).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 3); // 10, 20, 30 (99 row dropped)
        assert!(g.lookup(&Value::Int(10)).is_some());
        assert!(g.lookup(&Value::Int(99)).is_none());
        assert!(g.lookup(&Value::Null).is_none());
        // Snapshot excludes the NULL row so row ids line up with the CSR.
        assert_eq!(g.edges.row_count(), 3);
    }

    #[test]
    fn dictionary_round_trips_through_csr() {
        let g = build_graph(edge_table(), 0, 1).unwrap();
        let s10 = g.lookup(&Value::Int(10)).unwrap();
        let s30 = g.lookup(&Value::Int(30)).unwrap();
        let computer = BatchComputer::new(&g.csr);
        let r = computer.shortest_path(s10, s30, &WeightSpec::Unweighted).unwrap();
        assert!(r.reachable);
        assert_eq!(r.cost.unwrap().as_f64(), 1.0); // direct hop 10->30
    }

    #[test]
    fn weighted_cheapest_avoids_expensive_edge() {
        let g = build_graph(edge_table(), 0, 1).unwrap();
        let s10 = g.lookup(&Value::Int(10)).unwrap();
        let s30 = g.lookup(&Value::Int(30)).unwrap();
        let weights: Vec<i64> = vec![1, 1, 5];
        let computer = BatchComputer::new(&g.csr);
        let r = computer.shortest_path(s10, s30, &WeightSpec::Int(weights)).unwrap();
        assert_eq!(r.cost.unwrap().as_f64(), 2.0); // via 20
        assert_eq!(r.path.unwrap(), vec![0, 1]); // snapshot row ids
    }

    // ---- vertex dictionary: differential checks against a first-seen
    // reference computed here with a plain `HashMap<i64, u32>`.

    /// Deterministic xorshift stream for the random edge tables.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn int_edges(rows: &[(i64, i64)]) -> Arc<Table> {
        let schema = Schema::new(vec![
            ColumnDef::new("src", DataType::Int),
            ColumnDef::new("dst", DataType::Int),
        ]);
        let src = Column::from_ints(rows.iter().map(|r| r.0).collect());
        let dst = Column::from_ints(rows.iter().map(|r| r.1).collect());
        Arc::new(Table::from_columns(schema, vec![src, dst]).unwrap())
    }

    /// Build the graph of `rows` at several thread counts and check it
    /// against the reference: same ids for every key, the expected
    /// dictionary form, a CSR identical to one built from the reference
    /// ids, and a lossless round trip through the persisted value order.
    fn check_against_reference(rows: &[(i64, i64)], form: &str) -> MaterializedGraph {
        let mut ids: HashMap<i64, u32> = HashMap::new();
        let mut order = Vec::new();
        let mut id_of = |k: i64| {
            *ids.entry(k).or_insert_with(|| {
                order.push(k);
                order.len() as u32 - 1
            })
        };
        let (src, dst): (Vec<u32>, Vec<u32>) =
            rows.iter().map(|&(s, d)| (id_of(s), id_of(d))).unzip();
        let want = Csr::from_edges(ids.len() as u32, &src, &dst).unwrap();
        let mut last = None;
        for threads in [1, 3] {
            let g = build_graph_with_threads(int_edges(rows), 0, 1, threads).unwrap();
            assert_eq!(g.dict.form(), form, "rows {rows:?}");
            assert_eq!(g.num_vertices() as usize, ids.len());
            for (&k, &id) in &ids {
                assert_eq!(g.lookup(&Value::Int(k)), Some(id), "key {k}");
            }
            assert_eq!(g.csr.raw_parts(), want.raw_parts());
            let values = g.dict.values();
            assert_eq!(values, order.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>());
            let restored = VertexDict::from_values(values, rows.len()).unwrap();
            assert_eq!(restored.form(), form);
            for (&k, &id) in &ids {
                assert_eq!(restored.lookup(&Value::Int(k)), Some(id), "restored key {k}");
            }
            last = Some(g);
        }
        last.unwrap()
    }

    #[test]
    fn dictionary_matches_first_seen_reference_on_random_tables() {
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..40 {
            let rows_n = (next() % 300) as usize + 1;
            // Alternate dense spans (some negative, some pinned to either end
            // of the i64 range) with sparse 64-bit keys.
            let (base, span): (i64, u64) = match case % 5 {
                0 => (0, rows_n as u64),
                1 => (-(rows_n as i64), 2 * rows_n as u64),
                2 => (i64::MIN, rows_n as u64 / 2 + 1),
                3 => (i64::MAX - rows_n as i64, rows_n as u64 + 1),
                _ => (0, 0),
            };
            let mut key = || match span {
                0 => next() as i64,
                _ => base.wrapping_add((next() % span) as i64),
            };
            let mut rows: Vec<(i64, i64)> = (0..rows_n).map(|_| (key(), key())).collect();
            // Duplicate edges and self-loops.
            let dup = rows[rows_n / 2];
            rows.push(dup);
            rows.push((dup.0, dup.0));
            let form = if span == 0 { "generic" } else { "dense" };
            check_against_reference(&rows, form);
        }
    }

    #[test]
    fn dictionary_form_follows_the_key_span() {
        // Span exactly 2 × rows is dense; one more is generic.
        check_against_reference(&[(0, 3), (3, 1)], "dense");
        check_against_reference(&[(0, 4), (4, 1)], "generic");
        // i64::MIN and i64::MAX together: the span does not overflow.
        let g = check_against_reference(&[(i64::MIN, i64::MAX), (i64::MAX, 0)], "generic");
        assert_eq!(g.num_vertices(), 3);
        // Empty edge tables have no vertices in either representation.
        let g = check_against_reference(&[], "dense");
        assert!(g.dict.is_empty());
        assert_eq!(g.lookup(&Value::Int(0)), None);
        // Self-loops only.
        check_against_reference(&[(7, 7), (7, 7), (8, 8)], "dense");
    }

    #[test]
    fn dictionary_probes_follow_sql_equality() {
        let dense = check_against_reference(&[(-2, 0), (0, 3), (3, -2)], "dense");
        let sparse = check_against_reference(&[(-2, 0), (0, 3), (3, 1 << 40)], "generic");
        for g in [&dense, &sparse] {
            let three = g.lookup(&Value::Int(3));
            assert!(three.is_some());
            assert_eq!(g.lookup(&Value::Double(3.0)), three);
            assert_eq!(g.lookup(&Value::Double(-0.0)), g.lookup(&Value::Int(0)));
            assert_eq!(g.lookup(&Value::Double(-2.0)), g.lookup(&Value::Int(-2)));
            for miss in [
                Value::Null,
                Value::from("3"),
                Value::Bool(true),
                Value::Double(3.5),
                Value::Double(f64::NAN),
                Value::Double(f64::INFINITY),
                Value::Double(1e300),
                Value::Double(-1e300),
                Value::Int(2),
                Value::Int(-3),
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
            ] {
                assert_eq!(g.lookup(&miss), None, "{miss:?}");
            }
        }
    }

    #[test]
    fn non_integer_keys_use_the_generic_dictionary() {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("src", DataType::Double),
            ColumnDef::new("dst", DataType::Double),
        ]));
        // -0.0 and 0.0 are one vertex (they are `sql_eq`).
        for (s, d) in [(0.0, 1.5), (-0.0, 2.0), (1.5, 2.0)] {
            t.append_row(vec![Value::Double(s), Value::Double(d)]).unwrap();
        }
        let g = build_graph(Arc::new(t), 0, 1).unwrap();
        assert_eq!(g.dict.form(), "generic");
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.lookup(&Value::Int(0)), Some(0));
        assert_eq!(g.lookup(&Value::Double(-0.0)), Some(0));
        assert_eq!(g.lookup(&Value::Double(2.0)), g.lookup(&Value::Int(2)));

        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("src", DataType::Varchar),
            ColumnDef::new("dst", DataType::Varchar),
        ]));
        t.append_row(vec![Value::from("b"), Value::from("a")]).unwrap();
        let g = build_graph(Arc::new(t), 0, 1).unwrap();
        assert_eq!(g.dict.form(), "generic");
        assert_eq!(g.dict.values(), vec![Value::from("b"), Value::from("a")]);
        assert_eq!(g.lookup(&Value::from("a")), Some(1));
        assert_eq!(g.lookup(&Value::Int(1)), None);
        // A persisted dictionary with a repeated value is refused.
        assert!(VertexDict::from_values(vec![Value::from("a"), Value::from("a")], 1).is_none());
        assert!(VertexDict::from_values(vec![Value::Int(4), Value::Int(4)], 1).is_none());
    }
}
