//! Push-based, morsel-driven pipeline execution: the one implementation of
//! Filter, Project, Join, Aggregate and Limit.
//!
//! A plan rooted at one of those operators is decomposed into a
//! **pipeline** — a fused chain of streaming operators (filter, project,
//! join probe) over one source — terminated by a **sink** (table, limit or
//! aggregate). Workers pull fixed-size morsels (contiguous row ranges of
//! the source) from a shared [`MorselQueue`] and run each morsel through
//! the whole fused chain to completion in worker-local state; the sink's
//! per-morsel partials merge sequentially **in morsel-index order**. An
//! input that fits one morsel is the plain sequential operator.
//!
//! Pipelines break at the classic breakers: a join's build side is fully
//! executed and hashed before its probe pipeline starts; aggregates and
//! limits are sinks; sort, DISTINCT, UNION, UNNEST and the graph operators
//! stay materializing nodes (their *inputs* still execute as pipelines).
//!
//! Determinism contract: morsel boundaries depend only on the input size
//! and `morsel_rows` — never the worker count — and the merge consumes
//! partials in morsel-index order, so every result (including float
//! aggregates) is bit-identical at every thread count.
//!
//! Errors follow one rule, independent of the thread count. Every morsel
//! the queue hands out runs to completion, and any failure (or a row-limit
//! overrun) stops the queue, so the morsels that ran always form a
//! contiguous prefix that contains the lowest failing morsel. After the
//! workers join, the merge walks the morsels in index order — and, inside
//! a morsel, the fused operators innermost first — and surfaces the first
//! error it meets: the error a `threads = 1` run of the same morsel
//! sequence surfaces. The row-limit guard is checked in the same walk, on
//! each operator's cumulative output in morsel order. A Limit sink ends
//! the walk once its in-order prefix holds `offset + limit` rows, so an
//! error in a later morsel is dropped. Only timeouts abort immediately.
//!
//! Tracing: each pipeline records one `pipeline` span (label, morsel and
//! worker counts, queue wait). Under a verbose trace the fused operators
//! below the root also get one span each, nested top-down like the plan,
//! with the source and each join's build side executing inside the span
//! of the operator that consumes them, and each closes with its output
//! `rows` over the walked morsels. So a verbose trace lists the same
//! operators as `EXPLAIN ANALYZE`, which is rendered from it.

use crate::context::{row_limit_error, SpanGuard};
use crate::error::Error;
use crate::exec::expression::{eval, eval_filter_range, eval_to_column};
use crate::exec::join::{materialize_pairs, JoinProbe};
use crate::exec::{aggregate, Executor};
use crate::plan::{AggCall, BoundExpr, LogicalPlan, PlanSchema};
use gsql_obs::SpanId;
use gsql_parallel::{MorselQueue, Pool};
use gsql_storage::{Column, Table, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, Error>;

/// True when `plan` is a shape this module executes as a pipeline root.
fn fusable_root(plan: &LogicalPlan) -> bool {
    fusable_op(plan) || matches!(plan, LogicalPlan::Aggregate { .. } | LogicalPlan::Limit { .. })
}

/// True when `plan` can be a fused (streaming) member of a chain.
fn fusable_op(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } | LogicalPlan::Join { .. }
    )
}

/// What the pipeline's root does with the stream of morsel outputs.
enum SinkSpec<'p> {
    /// Concatenate morsel outputs into the root's output table.
    Table,
    /// Concatenate until `offset + limit` rows are produced, then stop
    /// upstream morsel production and slice.
    Limit { limit: Option<usize>, offset: usize },
    /// Fold each morsel into an aggregate partial; merge partials in
    /// morsel-index order.
    Agg { group: &'p [BoundExpr], aggs: &'p [AggCall], schema: &'p PlanSchema },
}

impl SinkSpec<'_> {
    /// Rows a Limit sink needs before later morsels can no longer matter.
    fn limit_target(&self) -> Option<usize> {
        match self {
            SinkSpec::Limit { limit: Some(l), offset } => Some(offset + l),
            _ => None,
        }
    }
}

/// One fused streaming operator, top-down position `chain[i]`.
struct FusedOp<'p> {
    node: &'p LogicalPlan,
    kind: OpKind<'p>,
    /// Output rows over the morsels finished so far, in any order — only a
    /// hint that stops the queue early once the row limit is certain to
    /// trip; the merge walk decides the error.
    rows_seen: AtomicUsize,
}

enum OpKind<'p> {
    Filter(&'p BoundExpr),
    Project {
        exprs: &'p [BoundExpr],
        schema: &'p PlanSchema,
    },
    /// Probe against a built join side; the build (right) side plan is
    /// executed as a breaker before the pipeline starts.
    Probe {
        probe: JoinProbe,
        schema: &'p PlanSchema,
    },
}

/// The static decomposition of a plan into sink + fused chain + source.
struct Decomposed<'p> {
    sink: SinkSpec<'p>,
    /// Chain nodes top-down (outermost first). For a Table sink the root
    /// itself is `chain[0]`; for Aggregate/Limit sinks the chain holds only
    /// nodes strictly below the root.
    chain: Vec<&'p LogicalPlan>,
    source: &'p LogicalPlan,
}

/// Split a [`fusable_root`] plan into sink, fused chain and source.
fn decompose(plan: &LogicalPlan) -> Decomposed<'_> {
    let (sink, mut node) = match plan {
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            (SinkSpec::Agg { group, aggs, schema }, &**input)
        }
        LogicalPlan::Limit { input, limit, offset } => {
            (SinkSpec::Limit { limit: *limit, offset: *offset }, &**input)
        }
        _ => (SinkSpec::Table, plan),
    };
    let mut chain = Vec::new();
    while fusable_op(node) {
        chain.push(node);
        node = match node {
            LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => input,
            LogicalPlan::Join { left, .. } => left,
            _ => unreachable!("fusable_op covers these shapes"),
        };
    }
    Decomposed { sink, chain, source: node }
}

/// A morsel's data as it flows through the fused chain: row subsets of the
/// pipeline source stay index-based (zero-copy until the sink), while
/// project/probe outputs are materialized morsel-local tables.
enum Batch {
    /// A contiguous source-row range (the morsel as grabbed).
    Range(Range<usize>),
    /// Ascending source-row indices (post-filter).
    Rows(Vec<usize>),
    /// A materialized morsel output (post-project/probe).
    Table(Table),
}

impl Batch {
    fn len(&self) -> usize {
        match self {
            Batch::Range(r) => r.len(),
            Batch::Rows(rows) => rows.len(),
            Batch::Table(t) => t.row_count(),
        }
    }
}

/// A sink-side partial for one morsel.
enum MorselOut {
    Batch(Batch),
    Agg(aggregate::AggPartial),
}

/// One morsel's run: the rows each fused op produced, innermost op first
/// (cut short at a failing op), and the sink partial or the error.
struct MorselRun {
    index: usize,
    rows: Vec<usize>,
    out: Result<MorselOut>,
}

/// Run one morsel through the fused chain (innermost op first), recording
/// each op's output row count in `op_rows`.
fn run_chain(
    source: &Table,
    morsel: Range<usize>,
    ops: &[FusedOp<'_>],
    params: &[Value],
    op_rows: &mut Vec<usize>,
) -> Result<Batch> {
    let mut batch = Batch::Range(morsel);
    for op in ops.iter().rev() {
        batch = match (&op.kind, batch) {
            (OpKind::Filter(pred), Batch::Range(r)) => {
                Batch::Rows(eval_filter_range(pred, source, r, params)?)
            }
            (OpKind::Filter(pred), Batch::Rows(rows)) => {
                let mut keep = Vec::new();
                for row in rows {
                    if eval(pred, source, row, params)? == Value::Bool(true) {
                        keep.push(row);
                    }
                }
                Batch::Rows(keep)
            }
            (OpKind::Filter(pred), Batch::Table(t)) => {
                let keep = eval_filter_range(pred, &t, 0..t.row_count(), params)?;
                if keep.len() == t.row_count() {
                    Batch::Table(t)
                } else {
                    Batch::Table(t.take(&keep))
                }
            }
            (OpKind::Project { exprs, schema }, batch) => {
                let local = match batch {
                    Batch::Range(r) => source.slice_rows(r),
                    Batch::Rows(rows) => source.take(&rows),
                    Batch::Table(t) => t,
                };
                let storage = schema.to_storage_schema();
                let mut columns = Vec::with_capacity(exprs.len());
                for (e, def) in exprs.iter().zip(storage.columns()) {
                    columns.push(eval_to_column(e, &local, params, def.ty)?);
                }
                Batch::Table(Table::from_columns(storage, columns).map_err(Error::Storage)?)
            }
            (OpKind::Probe { probe, schema }, batch) => {
                let mut pairs = Vec::new();
                let joined = match &batch {
                    Batch::Range(r) => {
                        probe.probe_rows(source, r.clone(), params, &mut pairs)?;
                        materialize_pairs(source, &probe.right, &pairs, schema)?
                    }
                    Batch::Rows(rows) => {
                        probe.probe_rows(source, rows.iter().copied(), params, &mut pairs)?;
                        materialize_pairs(source, &probe.right, &pairs, schema)?
                    }
                    Batch::Table(t) => {
                        probe.probe_rows(t, 0..t.row_count(), params, &mut pairs)?;
                        materialize_pairs(t, &probe.right, &pairs, schema)?
                    }
                };
                Batch::Table(joined)
            }
        };
        op_rows.push(batch.len());
    }
    Ok(batch)
}

/// Turn a chain's output batch into the sink's per-morsel partial.
fn sink_partial(
    sink: &SinkSpec<'_>,
    source: &Table,
    batch: Batch,
    params: &[Value],
) -> Result<MorselOut> {
    let SinkSpec::Agg { group, aggs, .. } = sink else { return Ok(MorselOut::Batch(batch)) };
    let partial = match &batch {
        Batch::Range(r) => aggregate::aggregate_morsel(source, r.clone(), group, aggs, params)?,
        Batch::Rows(rows) => {
            aggregate::aggregate_morsel(source, rows.iter().copied(), group, aggs, params)?
        }
        Batch::Table(t) => aggregate::aggregate_morsel(t, 0..t.row_count(), group, aggs, params)?,
    };
    Ok(MorselOut::Agg(partial))
}

/// Execute a [`fusable_root`] plan through the morsel pipeline.
pub(crate) fn execute(ex: &Executor<'_>, plan: &LogicalPlan) -> Result<Arc<Table>> {
    let ctx = ex.ctx();
    let dec = decompose(plan);

    // One span per fused op (the root's is already open in
    // `Executor::execute`), each paired with the span its inputs open
    // under. Innermost first, so the vector drops in reverse order of
    // opening.
    let mut members: Vec<(Option<SpanGuard<'_>>, SpanId)> = dec
        .chain
        .iter()
        .map(|&node| {
            let span = (!std::ptr::eq(node, plan)).then(|| ctx.op_span(node));
            (span, ctx.trace_parent())
        })
        .collect();
    members.reverse();

    // Execute the source (breaker boundary) inside the innermost op.
    let source = ex.execute(dec.source)?;

    // Build the join sides bottom-up (pre-order places the deepest join's
    // build side first).
    let pool = Pool::new(ctx.threads());
    let ops = build_fused_ops(ex, &dec, &pool, members.iter().map(|(_, scope)| *scope))?;

    // The morsel loop.
    let queue = MorselQueue::new(source.row_count(), ctx.morsel_rows());
    // All morsels exist the moment the queue does (it partitions a row
    // range), so a morsel's queue wait is grab time minus this instant.
    let queue_born = Instant::now();
    let metrics = ctx.metrics().map(Arc::as_ref);
    let workers = pool.threads().min(queue.morsel_count()).max(1);
    let params = ctx.params();
    let row_limit = ctx.settings().row_limit;
    let deadline = ctx.deadline();
    let produced = AtomicUsize::new(0);
    let limit_target = dec.sink.limit_target();
    let sink = &dec.sink;
    let source_ref: &Table = &source;
    let ops_ref: &[FusedOp<'_>] = &ops;
    let span = ctx.span("pipeline");

    type PipelineWorkerOut = (Vec<MorselRun>, Duration, Duration);
    let worker_results: Vec<Result<PipelineWorkerOut>> = pool.broadcast(workers, |_w| {
        let mut local: Vec<MorselRun> = Vec::new();
        let mut wait_total = Duration::ZERO;
        let mut wait_max = Duration::ZERO;
        while let Some(m) = queue.next() {
            let wait = queue_born.elapsed();
            wait_total += wait;
            wait_max = wait_max.max(wait);
            if let Some(reg) = metrics {
                reg.observe_queue_wait_us(wait.as_micros() as u64);
            }
            if let Some(d) = deadline {
                if d.expired() {
                    queue.stop();
                    return Err(Error::Timeout { limit_ms: d.limit_ms });
                }
            }
            let mut rows = Vec::with_capacity(ops_ref.len());
            let out = run_chain(source_ref, m.rows, ops_ref, params, &mut rows)
                .and_then(|batch| sink_partial(sink, source_ref, batch, params));
            // Stop handing out morsels once the walk is certain to end at
            // or before one already handed out: on an error, once the row
            // limit is overrun, or once a Limit sink has enough rows.
            let over_limit = row_limit.is_some_and(|limit| {
                rows.iter().zip(ops_ref.iter().rev()).any(|(&n, op)| {
                    (op.rows_seen.fetch_add(n, Ordering::Relaxed) + n) as u64 > limit
                })
            });
            let enough = match (&out, limit_target) {
                (Ok(MorselOut::Batch(b)), Some(target)) => {
                    produced.fetch_add(b.len(), Ordering::Relaxed) + b.len() >= target
                }
                _ => false,
            };
            if out.is_err() || over_limit || enough {
                queue.stop();
            }
            local.push(MorselRun { index: m.index, rows, out });
        }
        Ok((local, wait_total, wait_max))
    });

    // Per-worker morsel counts for the pipeline span, then the runs.
    let mut per_worker: Vec<usize> = Vec::with_capacity(worker_results.len());
    let mut runs: Vec<MorselRun> = Vec::new();
    let mut queue_wait = Duration::ZERO;
    let mut queue_wait_max = Duration::ZERO;
    for r in worker_results {
        let (local, wait_total, wait_max) = r?;
        per_worker.push(local.len());
        runs.extend(local);
        queue_wait += wait_total;
        queue_wait_max = queue_wait_max.max(wait_max);
    }
    let (out, op_rows) = merge(&dec, plan, &source, &ops, runs, row_limit)?;

    let morsels: usize = per_worker.iter().sum();
    if let Some(reg) = metrics {
        reg.record_pipeline(morsels as u64);
    }
    if span.is_recording() {
        span.attr("label", pipeline_label(&dec));
        span.attr("morsels", morsels);
        span.attr("workers", per_worker.len());
        span.attr("min_per_worker", per_worker.iter().copied().min().unwrap_or(0));
        span.attr("max_per_worker", per_worker.iter().copied().max().unwrap_or(0));
        span.attr("queue_wait_us", queue_wait.as_micros() as i64);
        span.attr("queue_wait_max_us", queue_wait_max.as_micros() as i64);
    }
    drop(span);
    for ((member, _), rows) in members.iter().rev().zip(op_rows) {
        if let Some(member) = member {
            member.attr("rows", rows);
        }
    }
    Ok(out)
}

/// Instantiate the fused operators for a decomposed chain, executing each
/// join's build (right) side as a breaker inside the join's span. `scopes`
/// holds the span each chain member's inputs open under, innermost first.
/// Build sides run deepest-join first, so spans open in execution
/// pre-order.
fn build_fused_ops<'p>(
    ex: &Executor<'_>,
    dec: &Decomposed<'p>,
    pool: &Pool,
    scopes: impl Iterator<Item = SpanId>,
) -> Result<Vec<FusedOp<'p>>> {
    let ctx = ex.ctx();
    let mut ops: Vec<FusedOp<'p>> = Vec::with_capacity(dec.chain.len());
    for (&node, scope) in dec.chain.iter().rev().zip(scopes) {
        let kind = match node {
            LogicalPlan::Filter { predicate, .. } => OpKind::Filter(predicate),
            LogicalPlan::Project { exprs, schema, .. } => OpKind::Project { exprs, schema },
            LogicalPlan::Join { left, right, kind, on, schema } => {
                let built = ctx.within(scope, || ex.execute(right))?;
                let n_left = left.schema().len();
                let probe =
                    JoinProbe::build(built, *kind, on.as_ref(), n_left, ctx.params(), pool)?;
                OpKind::Probe { probe, schema }
            }
            _ => unreachable!("chain holds fusable ops only"),
        };
        ops.push(FusedOp { node, kind, rows_seen: AtomicUsize::new(0) });
    }
    ops.reverse();
    Ok(ops)
}

/// Walk the morsel runs in morsel-index order into the root's output,
/// surfacing the first error and row-limit overrun met on the way (see the
/// module docs). Returns the output and each fused op's output rows
/// (top-down, like the chain) over the walked morsels.
fn merge(
    dec: &Decomposed<'_>,
    plan: &LogicalPlan,
    source: &Arc<Table>,
    ops: &[FusedOp<'_>],
    mut runs: Vec<MorselRun>,
    row_limit: Option<u64>,
) -> Result<(Arc<Table>, Vec<usize>)> {
    runs.sort_unstable_by_key(|run| run.index);
    let take_until = dec.sink.limit_target();
    let mut merger = match &dec.sink {
        SinkSpec::Agg { aggs, .. } => Some(aggregate::AggMerger::new(aggs)),
        _ => None,
    };
    let mut op_rows = vec![0usize; ops.len()];
    let mut batches: Vec<Batch> = Vec::new();
    let mut total = 0usize;
    for run in runs {
        if take_until.is_some_and(|cap| total >= cap) {
            break;
        }
        // `run.rows` is innermost op first; `ops` is top-down.
        for (i, n) in (0..ops.len()).rev().zip(run.rows) {
            op_rows[i] += n;
            if let Some(limit) = row_limit {
                if op_rows[i] as u64 > limit {
                    return Err(row_limit_error(&ops[i].node.node_label(), limit));
                }
            }
        }
        match run.out? {
            MorselOut::Agg(partial) => merger.as_mut().expect("agg sink").push(partial)?,
            MorselOut::Batch(batch) => {
                total += batch.len();
                batches.push(batch);
            }
        }
    }
    let out = match &dec.sink {
        SinkSpec::Agg { group, schema, .. } => {
            merger.expect("agg sink").finish(group.is_empty(), schema)?
        }
        SinkSpec::Table => concat_batches(plan, source, batches, &dec.chain)?,
        SinkSpec::Limit { limit, offset } => {
            let full = concat_batches(plan, source, batches, &dec.chain)?;
            let n = full.row_count();
            let start = (*offset).min(n);
            let end = match limit {
                Some(l) => (start + l).min(n),
                None => n,
            };
            if start == 0 && end == n {
                full
            } else {
                Arc::new(full.slice_rows(start..end))
            }
        }
    };
    Ok((out, op_rows))
}

/// Concatenate batches in morsel order. A chain that changes the row
/// shape (project or probe) yields materialized tables, spliced
/// column-at-a-time; otherwise the batches are source-row indices, merged
/// into one gather (with the keep-all fast path returning the source
/// snapshot).
fn concat_batches(
    plan: &LogicalPlan,
    source: &Arc<Table>,
    batches: Vec<Batch>,
    chain: &[&LogicalPlan],
) -> Result<Arc<Table>> {
    let mut indices: Vec<usize> = Vec::new();
    let mut tables: Vec<Table> = Vec::new();
    for batch in batches {
        match batch {
            Batch::Range(r) => indices.extend(r),
            Batch::Rows(rows) => indices.extend(rows),
            Batch::Table(t) => tables.push(t),
        }
    }
    if chain.iter().any(|n| matches!(n, LogicalPlan::Project { .. } | LogicalPlan::Join { .. })) {
        debug_assert!(indices.is_empty(), "a materializing chain produces table batches");
        // `Limit::schema()` delegates to its input, so `plan.schema()` is
        // the outermost fused op's output shape for every sink kind.
        let storage = plan.schema().to_storage_schema();
        let mut columns: Vec<Column> =
            storage.columns().iter().map(|d| Column::empty(d.ty)).collect();
        for t in &tables {
            for (c, src) in columns.iter_mut().zip(t.columns()) {
                c.extend_from(src).map_err(Error::Storage)?;
            }
        }
        return Table::from_columns(storage, columns).map(Arc::new).map_err(Error::Storage);
    }
    // Index batches: all rows reference the pipeline source.
    if indices.len() == source.row_count() {
        // Nothing filtered: reuse the source snapshot.
        return Ok(Arc::clone(source));
    }
    Ok(Arc::new(source.take(&indices)))
}

/// A short human label for the pipeline (`EXPLAIN ANALYZE` detail).
fn pipeline_label(dec: &Decomposed<'_>) -> String {
    let mut parts: Vec<String> = vec![short_label(dec.source)];
    for node in dec.chain.iter().rev() {
        parts.push(short_label(node));
    }
    match dec.sink {
        SinkSpec::Table => {}
        SinkSpec::Limit { .. } => parts.push("limit".to_string()),
        SinkSpec::Agg { .. } => parts.push("aggregate".to_string()),
    }
    parts.join(" -> ")
}

fn short_label(node: &LogicalPlan) -> String {
    match node {
        LogicalPlan::Scan { table, .. } => format!("scan {table}"),
        LogicalPlan::Filter { .. } => "filter".to_string(),
        LogicalPlan::Project { .. } => "project".to_string(),
        LogicalPlan::Join { .. } => "probe".to_string(),
        LogicalPlan::Aggregate { .. } => "aggregate".to_string(),
        other => other.node_label().split_whitespace().next().unwrap_or("op").to_lowercase(),
    }
}

/// `EXPLAIN` rendering with pipeline annotations: members of each pipeline
/// (sink, fused ops, leaf source) carry ` [pipeline N]`; materializing
/// internal nodes carry ` [breaker]`.
pub fn explain_with_pipelines(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    let mut next_id = 0usize;
    annotate(plan, &mut out, 0, &mut next_id);
    out
}

fn annotate(plan: &LogicalPlan, out: &mut String, depth: usize, next_id: &mut usize) {
    use std::fmt::Write as _;
    if fusable_root(plan) {
        let pid = *next_id;
        *next_id += 1;
        let dec = decompose(plan);
        // Root line (sink or outermost fused op).
        let _ = writeln!(out, "{}{} [pipeline {pid}]", "  ".repeat(depth), plan.node_label());
        let extra = usize::from(!matches!(dec.sink, SinkSpec::Table));
        for (i, node) in dec.chain.iter().enumerate() {
            if std::ptr::eq(*node, plan) {
                continue; // already rendered as the root line
            }
            let d = depth + i + extra;
            let _ = writeln!(out, "{}{} [pipeline {pid}]", "  ".repeat(d), node.node_label());
        }
        let source_depth = depth + dec.chain.len() + extra;
        if dec.source.children().is_empty() {
            let _ = writeln!(
                out,
                "{}{} [pipeline {pid}]",
                "  ".repeat(source_depth),
                dec.source.node_label()
            );
        } else {
            annotate(dec.source, out, source_depth, next_id);
        }
        // Build sides, deepest join first (execution pre-order).
        for (i, node) in dec.chain.iter().enumerate().rev() {
            if let LogicalPlan::Join { right, .. } = node {
                let d = depth + i + extra + 1;
                annotate(right, out, d, next_id);
            }
        }
    } else {
        let breaker = matches!(
            plan,
            LogicalPlan::Sort { .. }
                | LogicalPlan::Distinct { .. }
                | LogicalPlan::Union { .. }
                | LogicalPlan::Unnest { .. }
                | LogicalPlan::GraphSelect { .. }
                | LogicalPlan::GraphJoin { .. }
        );
        let suffix = if breaker { " [breaker]" } else { "" };
        let _ = writeln!(out, "{}{}{suffix}", "  ".repeat(depth), plan.node_label());
        for child in plan.children() {
            annotate(child, out, depth + 1, next_id);
        }
    }
}
