//! The traced side of the benchmark: pinned session settings, and one
//! statement driven through the engine's public layer entry points one at
//! a time (`parse_statement` → `Binder::bind_query` → `optimize_with` →
//! `Executor::execute`), plus direct timings of the graph layer
//! (`build_graph_with_threads`, `Csr::from_edges_with_threads`,
//! `permute_weights_int_with_threads`, `BatchComputer::compute`). Nothing
//! here changes engine state beyond what the statement itself does.

use crate::measure::{timed, us, Kind, Metric, Samples};
use gsql_core::bind::Binder;
use gsql_core::optimize::optimize_with;
use gsql_core::{
    build_graph_with_threads, Database, ExecContext, LogicalPlan, MaterializedGraph, Session,
    SessionSettings,
};
use gsql_graph::{BatchComputer, Csr, TraversalKind, TraversalObserver, WeightSpec};
use gsql_parser::{parse_statement, Statement};
use gsql_storage::{Table, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine threads (`SET threads`) in every workload: one per session or
/// server worker, independent of the machine and of `GSQL_THREADS`. On the
/// 2-vCPU reference machine a second pool thread made tail latencies hinge
/// on when the pool worker got scheduled; one thread per session leaves a
/// vCPU for the load generator and for outside noise.
pub const ENGINE_THREADS: usize = 1;

/// Threads of the benchmark's own reference check (outside timed regions).
pub const CHECK_THREADS: usize = 2;

/// Every session setting, pinned to an explicit value. Only `graph_index`
/// and `path_index` differ between workloads.
pub fn pinned_settings(graph_index: bool, path_index: bool) -> Vec<(String, String)> {
    let on = |b: bool| if b { "on" } else { "off" }.to_string();
    [
        ("graph_index", on(graph_index)),
        ("morsel_rows", "65536".to_string()),
        ("path_index", on(path_index)),
        ("pipeline", "on".to_string()),
        ("plan_cache_size", "64".to_string()),
        ("row_limit", "0".to_string()),
        ("slow_query_ms", "0".to_string()),
        ("threads", ENGINE_THREADS.to_string()),
        ("timeout_ms", "0".to_string()),
        ("trace", "off".to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The pinned settings as one `name=value` line.
pub fn settings_text(settings: &[(String, String)]) -> String {
    settings.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Apply pinned settings to a session.
pub fn pin(session: &Session<'_>, settings: &[(String, String)]) {
    for (name, value) in settings {
        session.set(name, value).expect("pinned setting");
    }
}

/// The same pinned settings as a [`SessionSettings`] value, for contexts
/// the benchmark builds itself.
pub fn session_settings(settings: &[(String, String)]) -> SessionSettings {
    let mut s = SessionSettings::default();
    for (name, value) in settings {
        s.set(name, value).expect("pinned setting");
    }
    s
}

/// An execution context equivalent to the one a session builds.
pub fn context<'a>(
    db: &'a Database,
    settings: &SessionSettings,
    params: &'a [Value],
) -> ExecContext<'a> {
    ExecContext::new(db.catalog(), params, Some(db.graph_indexes()))
        .with_path_indexes(db.path_indexes())
        .with_settings(settings.clone())
        .with_metrics(Some(Arc::clone(db.metrics())))
}

/// Fallback traversals (no path index involved) recorded so far.
pub fn fallback_traversals(db: &Database) -> u64 {
    ["bfs", "dijkstra", "bidir-bfs"].iter().map(|k| db.metrics().traversals_total(k)).sum()
}

/// One statement driven layer by layer.
pub struct Decomposed {
    pub parse: Duration,
    pub bind: Duration,
    pub optimize: Duration,
    pub execute: Duration,
    /// Wall time of the whole decomposed run, timers included.
    pub wall: Duration,
    pub table: Arc<Table>,
    /// Rows produced by every operator (when statistics were collected).
    pub operator_rows: usize,
}

fn parse_query(sql: &str) -> gsql_core::Result<gsql_parser::Query> {
    match parse_statement(sql)? {
        Statement::Query(q) => Ok(q),
        other => Err(gsql_core::Error::Unsupported(format!("expected a query, got {other:?}"))),
    }
}

/// Bind and optimize `sql` once, as `Session::prepare` does.
pub fn prepare_plan(db: &Database, settings: &SessionSettings, sql: &str) -> LogicalPlan {
    let q = parse_query(sql).expect("benchmark SQL parses");
    let ctx = context(db, settings, &[]);
    let plan = Binder::new(&ctx).bind_query(&q).expect("benchmark SQL binds");
    optimize_with(plan, &ctx)
}

/// Parse → bind → optimize → execute `sql`, timing each layer (the path
/// of a statement whose text misses the plan cache).
pub fn run_fresh(
    db: &Database,
    settings: &SessionSettings,
    sql: &str,
    params: &[Value],
    stats: bool,
) -> gsql_core::Result<Decomposed> {
    let t0 = Instant::now();
    let (q, parse) = timed(|| parse_query(sql));
    let q = q?;
    let mut ctx = context(db, settings, params);
    if stats {
        ctx = ctx.with_stats();
    }
    let (plan, bind) = timed(|| Binder::new(&ctx).bind_query(&q));
    let plan = plan?;
    let (plan, optimize) = timed(|| optimize_with(plan, &ctx));
    let (table, execute) = timed(|| gsql_core::exec::Executor::new(&ctx).execute(&plan));
    let operator_rows = ctx.take_stats().ops.iter().map(|o| o.rows).sum();
    Ok(Decomposed {
        parse,
        bind,
        optimize,
        execute,
        wall: t0.elapsed(),
        table: table?,
        operator_rows,
    })
}

/// Execute an already-bound plan with fresh parameters (the path of a
/// prepared statement whose plan is cached).
pub fn run_prepared(
    db: &Database,
    settings: &SessionSettings,
    plan: &LogicalPlan,
    params: &[Value],
    stats: bool,
) -> gsql_core::Result<Decomposed> {
    let t0 = Instant::now();
    let mut ctx = context(db, settings, params);
    if stats {
        ctx = ctx.with_stats();
    }
    let (table, execute) = timed(|| gsql_core::exec::Executor::new(&ctx).execute(plan));
    let operator_rows = ctx.take_stats().ops.iter().map(|o| o.rows).sum();
    Ok(Decomposed {
        parse: Duration::ZERO,
        bind: Duration::ZERO,
        optimize: Duration::ZERO,
        execute,
        wall: t0.elapsed(),
        table: table?,
        operator_rows,
    })
}

/// Parse `sql` (timed) and execute its already-bound plan: the path of a
/// statement sent as text whose plan is in the cache.
pub fn run_cached_text(
    db: &Database,
    settings: &SessionSettings,
    sql: &str,
    plan: &LogicalPlan,
    params: &[Value],
    stats: bool,
) -> gsql_core::Result<Decomposed> {
    let t0 = Instant::now();
    let (q, parse) = timed(|| parse_query(sql));
    q?;
    let mut d = run_prepared(db, settings, plan, params, stats)?;
    d.parse = parse;
    d.wall = t0.elapsed();
    Ok(d)
}

/// Counts traversals and settled vertices reported by `BatchComputer`.
#[derive(Default)]
struct SettledCounter(AtomicU64);

impl TraversalObserver for SettledCounter {
    fn traversal(&self, _kind: TraversalKind, settled: usize) {
        self.0.fetch_add(settled as u64, Ordering::Relaxed);
    }
}

/// Per-call timings of the graph layer, accumulated over the sampled
/// operations whose real path ran each call: a graph build only where the
/// statement (or the graph index it reads) rebuilt its graph, a traversal
/// only where it fell back to `BatchComputer`. A call no sampled operation
/// made reports 0.
#[derive(Default)]
pub struct GraphLayer {
    build_us: Samples,
    csr_us: Samples,
    dict_us: Samples,
    weights_us: Samples,
    traverse_us: Samples,
    settled: u64,
    pairs: u64,
}

impl GraphLayer {
    /// Build the graph of `edges` (source key column 0, destination key
    /// column 1) the way an unindexed `CHEAPEST SUM` or a graph-index
    /// rebuild does, and time its CSR step alone over the dense ids the
    /// dictionary assigned.
    pub fn build(&mut self, edges: Arc<Table>) -> MaterializedGraph {
        let (graph, build) = timed(|| build_graph_with_threads(edges, 0, 1, ENGINE_THREADS));
        let graph = graph.expect("graph builds");
        let dense = |col: usize| -> Vec<u32> {
            let c = graph.edges.column(col);
            (0..graph.edges.row_count()).map(|i| graph.lookup(&c.get(i)).expect("vertex")).collect()
        };
        let (src, dst) = (dense(0), dense(1));
        let (csr, csr_t) = timed(|| {
            Csr::from_edges_with_threads(graph.num_vertices(), &src, &dst, ENGINE_THREADS)
        });
        drop(csr.expect("csr builds"));
        self.build_us.push_us(build);
        self.csr_us.push_us(csr_t);
        self.dict_us.push_us(build.saturating_sub(csr_t));
        graph
    }

    /// Answer `pairs` over `graph` with `BatchComputer::compute`: weighted
    /// with paths when `weights` (per-row integer weights in the order of
    /// `graph.edges`) is given, otherwise as hop counts. The weight
    /// permutation into CSR order, which `compute` repeats inside, is
    /// also timed on its own.
    pub fn traverse(
        &mut self,
        graph: &MaterializedGraph,
        pairs: &[(i64, i64)],
        weights: Option<&[i64]>,
    ) {
        if let Some(w) = weights {
            let (permuted, t) =
                timed(|| graph.csr.permute_weights_int_with_threads(w, ENGINE_THREADS));
            drop(permuted.expect("positive weights"));
            self.weights_us.push_us(t);
        }
        let spec = weights.map_or(WeightSpec::Unweighted, |w| WeightSpec::Int(w.to_vec()));
        let dense_pairs: Vec<(u32, u32)> = pairs
            .iter()
            .filter_map(|&(s, d)| {
                Some((graph.lookup(&Value::Int(s))?, graph.lookup(&Value::Int(d))?))
            })
            .collect();
        let counter = SettledCounter::default();
        let computer = BatchComputer::new(&graph.csr)
            .with_threads(ENGINE_THREADS)
            .with_observer(Some(&counter));
        let (r, t) = timed(|| computer.compute(&dense_pairs, &spec, weights.is_some()));
        r.expect("traversal");
        self.traverse_us.push_us(t);
        self.settled += counter.0.load(Ordering::Relaxed);
        self.pairs += dense_pairs.len() as u64;
    }

    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let mean = |s: &Samples| s.mean().unwrap_or(0.0);
        out.push(Metric::new("exec.graph_build_us", "us", mean(&self.build_us)));
        out.push(Metric::new("exec.dict_us", "us", mean(&self.dict_us)));
        out.push(Metric::new("graph.csr_us", "us", mean(&self.csr_us)));
        out.push(Metric::new("graph.weights_us", "us", mean(&self.weights_us)));
        out.push(Metric::new("graph.traverse_us", "us", mean(&self.traverse_us)));
        let per_pair = self.settled as f64 / self.pairs.max(1) as f64;
        out.push(Metric::new("graph.settled_per_pair", "count", per_pair));
    }
}

/// Per-operation-type statement layers, accumulated over sampled
/// operations.
#[derive(Default)]
pub struct StatementLayers {
    per_kind: [KindLayers; 4],
}

#[derive(Default)]
struct KindLayers {
    parse_us: Samples,
    bind_us: Samples,
    optimize_us: Samples,
    execute_us: Samples,
    /// Layer time of the layers the real statement path runs.
    layer_us: f64,
    /// Wall time of the real statement path (what a client sees).
    wall_us: f64,
    /// The same statement through an untraced in-process `Session`.
    untraced: Samples,
    /// The decomposed run's own wall time.
    traced: Samples,
}

impl StatementLayers {
    /// Record one sampled statement: `d` is its decomposed run, `real` the
    /// wall time of the real (untraced) statement path, `in_process` the
    /// untraced in-process session time, and `cached` whether the real path
    /// skips bind/optimize (a plan-cache hit; it parses when `d.parse` is
    /// non-zero). Layer means cover only the statements that run the layer.
    pub fn record(
        &mut self,
        kind: Kind,
        d: &Decomposed,
        real: Duration,
        in_process: Duration,
        cached: bool,
    ) {
        let k = &mut self.per_kind[kind as usize];
        if !d.parse.is_zero() {
            k.parse_us.push_us(d.parse);
        }
        if !cached {
            k.bind_us.push_us(d.bind);
            k.optimize_us.push_us(d.optimize);
        }
        k.execute_us.push_us(d.execute);
        let front = if cached { d.parse } else { d.parse + d.bind + d.optimize };
        k.layer_us += us(front + d.execute);
        k.wall_us += us(real);
        k.untraced.push_us(in_process);
        k.traced.push_us(d.wall);
    }

    /// Record an INSERT: its parse time and the rest of its in-process
    /// execution (apply, WAL append, fsync), against the real path's wall
    /// time.
    pub fn record_write(&mut self, parse: Duration, execute: Duration, real: Duration) {
        let k = &mut self.per_kind[Kind::Write as usize];
        k.parse_us.push_us(parse);
        k.execute_us.push_us(execute);
        k.layer_us += us(parse + execute);
        k.wall_us += us(real);
    }

    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let pooled = |f: fn(&KindLayers) -> &Samples, kinds: &[Kind]| {
            let mut all = Samples::default();
            for &k in kinds {
                all.extend(f(&self.per_kind[k as usize]).clone());
            }
            all
        };
        let queries = [Kind::Point, Kind::Batch, Kind::Rel];
        let mean = |s: Samples| s.mean().unwrap_or(0.0);
        out.push(Metric::new("parser.parse_us", "us", mean(pooled(|k| &k.parse_us, &Kind::ALL))));
        out.push(Metric::new("bind.bind_us", "us", mean(pooled(|k| &k.bind_us, &queries))));
        out.push(Metric::new(
            "optimize.optimize_us",
            "us",
            mean(pooled(|k| &k.optimize_us, &queries)),
        ));
        for kind in Kind::ALL {
            let k = &self.per_kind[kind as usize];
            if k.wall_us == 0.0 {
                continue;
            }
            let n = k.execute_us.len() as f64;
            // An INSERT's execution is the storage layer's insert path.
            let execute = match kind {
                Kind::Write => "storage.insert_us".to_string(),
                _ => format!("exec.execute_us.{}", kind.name()),
            };
            out.push(Metric::new(execute, "us", mean(k.execute_us.clone())));
            out.push(Metric::new(
                format!("trace.coverage.{}", kind.name()),
                "ratio",
                k.layer_us / k.wall_us,
            ));
            out.push(Metric::new(
                format!("trace.untraced_us.{}", kind.name()),
                "us",
                (k.wall_us - k.layer_us) / n,
            ));
        }
        let traced = pooled(|k| &k.traced, &queries);
        let untraced = pooled(|k| &k.untraced, &queries);
        if let (Some(t), Some(u)) = (traced.quantile(0.5), untraced.quantile(0.5)) {
            out.push(Metric::new("trace.overhead", "ratio", t / u - 1.0));
        }
    }
}

/// Run `a` and `b` in an order that alternates with `i`, so that neither
/// systematically runs on colder caches or pays for a rebuild the other
/// one left behind.
pub fn alternate<A, B>(i: u64, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if i.is_multiple_of(2) {
        let x = a();
        (x, b())
    } else {
        let y = b();
        (a(), y)
    }
}

/// [`alternate`] for three runs: each goes first in a third of the samples.
pub fn rotate<A, B, C>(
    i: u64,
    a: impl FnOnce() -> A,
    b: impl FnOnce() -> B,
    c: impl FnOnce() -> C,
) -> (A, B, C) {
    match i % 3 {
        0 => {
            let x = a();
            let y = b();
            (x, y, c())
        }
        1 => {
            let y = b();
            let z = c();
            (a(), y, z)
        }
        _ => {
            let z = c();
            let x = a();
            (x, b(), z)
        }
    }
}
