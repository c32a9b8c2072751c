//! Per-query execution context and session settings.
//!
//! [`ExecContext`] bundles everything a single statement execution needs —
//! catalog, `?` parameter values, index registry, session settings,
//! deadline, metrics and the statement's trace collector — and is threaded
//! through binder → optimizer → executor instead of loose arguments. It is
//! the engine-side counterpart of a [`crate::Session`].
//!
//! The trace is the engine's one record of a statement's execution. Layers
//! open spans through [`ExecContext::span`], whose guard closes the span
//! when dropped, on error paths too. `EXPLAIN ANALYZE` and
//! [`ExecContext::take_stats`] read their operator and pipeline lines back
//! from a verbose trace ([`ExecStats`]); nothing else records them.

use crate::error::{bind_err, Error};
use crate::path_index::{IndexFamily, IndexRegistry};
use crate::plan::LogicalPlan;
use gsql_obs::{
    EngineMetrics, SpanId, SpanRecord, TraceCollector, TraceLevel, TraceValue, NO_SPAN,
};
use gsql_storage::{Catalog, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, Error>;

/// Session-scoped knobs that influence planning and execution.
///
/// Changed with `SET <option> = <value>`, inspected with `SHOW <option>` /
/// `SHOW ALL`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSettings {
    /// Use registered graph indexes during planning (`SET graph_index =
    /// on|off`). Default on.
    pub graph_index: bool,
    /// Use registered ALT path indexes during planning (`SET path_index =
    /// on|off`): eligible point-to-point shortest-path plans route through
    /// goal-directed bidirectional A*. Default: the `GSQL_PATH_INDEX`
    /// environment variable when set (`on`/`off`), otherwise on. Results
    /// are identical either way; only the work per query changes.
    pub path_index: bool,
    /// Guard against runaway intermediate results: error as soon as any
    /// operator produces more than this many rows (`SET row_limit = n`;
    /// `0` disables). Default unlimited.
    pub row_limit: Option<u64>,
    /// Capacity of the session's plan cache (`SET plan_cache_size = n`;
    /// `0` disables caching). Default 64.
    pub plan_cache_size: usize,
    /// Degree of parallelism for execution (`SET threads = n`, n ≥ 1).
    /// Source-parallel graph traversals, the parallel CSR build, the
    /// morsel pipelines (filter, project, join, aggregate, limit), sort and
    /// distinct all use this width; results and errors are the same at
    /// every width, and `1` runs everything on the calling thread. Default:
    /// the `GSQL_THREADS` environment variable when set, otherwise the
    /// number of available hardware threads.
    pub threads: usize,
    /// Per-statement wall-clock budget in milliseconds (`SET timeout_ms =
    /// n`; `0` disables). The deadline starts when statement execution
    /// begins and is checked before every operator and between per-source
    /// traversal groups, so a timed-out statement is interrupted mid-flight
    /// with [`crate::Error::Timeout`] instead of running to completion.
    /// Default unlimited.
    pub timeout_ms: Option<u64>,
    /// Rows per morsel (`SET morsel_rows = n`, n ≥ 1); every filter,
    /// project, join, aggregate and limit runs as a morsel pipeline. Morsel
    /// boundaries depend only on this value and the input size — never the
    /// worker count — so per-morsel partials merged in morsel-index order
    /// are bit-identical at every thread count. Default: the
    /// `GSQL_MORSEL_ROWS` environment variable when set, otherwise 65536.
    pub morsel_rows: usize,
    /// Structured query tracing (`SET trace = off|on|verbose`). `on`
    /// records one span per statement phase (parse → bind → optimize →
    /// execute), per pipeline and per traversal batch; `verbose` adds one
    /// span per operator. Tracing never changes plan shape or results —
    /// only observation. Default: the `GSQL_TRACE` environment variable
    /// when set, otherwise off.
    pub trace: TraceLevel,
    /// Slow-query threshold in milliseconds (`SET slow_query_ms = n`; `0`
    /// disables). A statement whose wall time meets the threshold emits one
    /// structured record into the database's slow-query ring (`/slowlog`).
    /// Default off.
    pub slow_query_ms: Option<u64>,
}

impl Default for SessionSettings {
    fn default() -> SessionSettings {
        SessionSettings {
            graph_index: true,
            path_index: default_path_index(),
            row_limit: None,
            plan_cache_size: 64,
            threads: gsql_parallel::default_threads(),
            timeout_ms: None,
            morsel_rows: gsql_parallel::default_morsel_rows(),
            trace: default_trace(),
            slow_query_ms: None,
        }
    }
}

/// Process-wide default for the `trace` setting: `GSQL_TRACE` when set to a
/// recognizable level, otherwise off. Cached after the first call (mirrors
/// [`default_path_index`]). CI runs a suite leg under `GSQL_TRACE=verbose` to
/// prove tracing never perturbs results.
fn default_trace() -> TraceLevel {
    static CACHE: std::sync::OnceLock<TraceLevel> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("GSQL_TRACE")
            .ok()
            .and_then(|v| TraceLevel::parse(v.trim()))
            .unwrap_or_default()
    })
}

/// Process-wide default for the `path_index` setting: `GSQL_PATH_INDEX`
/// when set to a recognizable boolean, otherwise on. Cached after the first
/// call (mirrors `gsql_parallel::default_threads`). CI uses the off value
/// to run the whole suite over the Dijkstra fallback path.
fn default_path_index() -> bool {
    static CACHE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        // Same case-insensitivity as `SET path_index` (parse_bool).
        let value = std::env::var("GSQL_PATH_INDEX")
            .map(|v| v.trim().to_ascii_lowercase())
            .unwrap_or_default();
        !matches!(value.as_str(), "off" | "false" | "0")
    })
}

impl SessionSettings {
    /// All option names, in `SHOW ALL` order — kept **sorted** so the
    /// listing is deterministic. A regression test destructures the struct
    /// exhaustively against this list: adding a setting without listing it
    /// here fails the build.
    pub const NAMES: [&'static str; 9] = [
        "graph_index",
        "morsel_rows",
        "path_index",
        "plan_cache_size",
        "row_limit",
        "slow_query_ms",
        "threads",
        "timeout_ms",
        "trace",
    ];

    /// Set an option from its SQL textual value. Errors on unknown options
    /// or unparsable values.
    pub fn set(&mut self, name: &str, value: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        match key.as_str() {
            "graph_index" => self.graph_index = parse_bool(name, value)?,
            "path_index" => self.path_index = parse_bool(name, value)?,
            "row_limit" => {
                let n = parse_u64(name, value)?;
                self.row_limit = if n == 0 { None } else { Some(n) };
            }
            "plan_cache_size" => self.plan_cache_size = parse_u64(name, value)? as usize,
            "threads" => {
                let n = parse_u64(name, value)?;
                if n == 0 {
                    return Err(bind_err!(
                        "setting 'threads' expects a positive integer (got 0); \
                         use 1 for sequential execution"
                    ));
                }
                if n > gsql_parallel::MAX_THREADS as u64 {
                    return Err(bind_err!(
                        "setting 'threads' is capped at {} (got {n})",
                        gsql_parallel::MAX_THREADS
                    ));
                }
                self.threads = n as usize;
            }
            "timeout_ms" => {
                let n = parse_u64(name, value)?;
                self.timeout_ms = if n == 0 { None } else { Some(n) };
            }
            // Compatibility alias, not a setting: the morsel pipeline is the
            // only executor, so `on` is accepted as a no-op.
            "pipeline" => {
                if !matches!(parse_bool(name, value), Ok(true)) {
                    return Err(bind_err!(
                        "setting 'pipeline' only accepts 'on' (got '{value}'): the barrier \
                         executor was removed and every plan runs as a morsel pipeline"
                    ));
                }
            }
            "trace" => {
                self.trace = TraceLevel::parse(value).ok_or_else(|| {
                    bind_err!("setting 'trace' expects off/on/verbose, got '{value}'")
                })?;
            }
            "slow_query_ms" => {
                let n = parse_u64(name, value)?;
                self.slow_query_ms = if n == 0 { None } else { Some(n) };
            }
            "morsel_rows" => {
                let n = parse_u64(name, value)?;
                if n == 0 {
                    return Err(bind_err!(
                        "setting 'morsel_rows' expects a positive integer (got 0)"
                    ));
                }
                self.morsel_rows = n as usize;
            }
            _ => return Err(bind_err!("unknown setting '{name}'")),
        }
        Ok(())
    }

    /// Read an option's current value as SQL text.
    pub fn get(&self, name: &str) -> Result<String> {
        let key = name.to_ascii_lowercase();
        match key.as_str() {
            "graph_index" => Ok(render_bool(self.graph_index)),
            "path_index" => Ok(render_bool(self.path_index)),
            "row_limit" => Ok(self.row_limit.unwrap_or(0).to_string()),
            "plan_cache_size" => Ok(self.plan_cache_size.to_string()),
            "threads" => Ok(self.threads.to_string()),
            "timeout_ms" => Ok(self.timeout_ms.unwrap_or(0).to_string()),
            "pipeline" => Ok(render_bool(true)), // the alias `set` accepts
            "trace" => Ok(self.trace.as_str().to_string()),
            "slow_query_ms" => Ok(self.slow_query_ms.unwrap_or(0).to_string()),
            "morsel_rows" => Ok(self.morsel_rows.to_string()),
            _ => Err(bind_err!("unknown setting '{name}'")),
        }
    }

    /// `(name, value)` pairs for every option (`SHOW ALL`).
    pub fn entries(&self) -> Vec<(&'static str, String)> {
        Self::NAMES.iter().map(|&n| (n, self.get(n).expect("known name"))).collect()
    }
}

fn parse_bool(name: &str, value: &str) -> Result<bool> {
    match value.to_ascii_lowercase().as_str() {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(bind_err!("setting '{name}' expects on/off, got '{other}'")),
    }
}

fn parse_u64(name: &str, value: &str) -> Result<u64> {
    value
        .parse::<u64>()
        .map_err(|_| bind_err!("setting '{name}' expects a non-negative integer, got '{value}'"))
}

fn render_bool(v: bool) -> String {
    if v { "on" } else { "off" }.to_string()
}

/// The wall-clock budget of one statement execution: the instant after
/// which the executor aborts with [`Error::Timeout`], plus the configured
/// limit for the error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// The instant execution must not run past.
    pub at: Instant,
    /// The configured budget in milliseconds (for error reporting).
    pub limit_ms: u64,
}

impl Deadline {
    /// A deadline `limit_ms` milliseconds from now.
    pub fn starting_now(limit_ms: u64) -> Deadline {
        Deadline { at: Instant::now() + Duration::from_millis(limit_ms), limit_ms }
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Execution statistics of one operator instance: one operator span of the
/// statement trace (see [`ExecStats`]).
#[derive(Debug, Clone)]
pub struct OpStats {
    /// The operator's one-line plan label (same text as `EXPLAIN`).
    pub label: String,
    /// Nesting depth in the executed plan tree.
    pub depth: usize,
    /// Output row count.
    pub rows: usize,
    /// Inclusive wall time (operator plus its inputs).
    pub elapsed: Duration,
    /// Operator-specific extra detail, e.g. the settled-vertex count of an
    /// ALT-accelerated graph operator (`settled=12 (alt)`): the `detail`
    /// of a `traversal` span directly inside the operator.
    pub detail: Option<String>,
}

/// Execution statistics of one morsel-driven pipeline: one `pipeline` span
/// of the statement trace.
#[derive(Debug, Clone)]
pub struct PipelineStat {
    /// The fused chain's human label, e.g. `scan people -> filter -> probe`.
    pub label: String,
    /// Total morsels processed by this pipeline.
    pub morsels: usize,
    /// Fewest morsels any participating worker processed.
    pub min_per_worker: usize,
    /// Most morsels any participating worker processed.
    pub max_per_worker: usize,
    /// Workers that participated (grabbed at least zero morsels — the
    /// broadcast width).
    pub workers: usize,
    /// Wall time of the morsel loop and the in-order merge.
    pub elapsed: Duration,
    /// Summed time morsels sat in the queue before a worker pulled them
    /// (queue creation to grab). Divide by `morsels` for the average.
    pub queue_wait: Duration,
    /// The single longest queue wait of any morsel.
    pub queue_wait_max: Duration,
}

/// Per-operator and per-pipeline statistics of one executed statement,
/// read from its verbose trace: every span that carries `rows` is an
/// operator, in execution (pre-)order, and every `pipeline` span a
/// pipeline, in completion order. Operators that were skipped at runtime —
/// e.g. an edge-table scan satisfied by a graph index — opened no span and
/// do not appear.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// One entry per executed operator.
    pub ops: Vec<OpStats>,
    /// One entry per executed pipeline, in completion order.
    pub pipelines: Vec<PipelineStat>,
}

impl ExecStats {
    /// The statistics of the spans below `root` ([`NO_SPAN`] = all). A
    /// span's parent always precedes it, so one pass in id order sees each
    /// operator before everything nested in it — execution pre-order.
    fn from_spans(spans: &[SpanRecord], root: SpanId) -> ExecStats {
        let mut stats = ExecStats::default();
        // Per span inside the subtree: the depth its children sit at, and
        // the innermost operator enclosing it (itself included).
        let mut scope: Vec<Option<(usize, Option<usize>)>> = Vec::with_capacity(spans.len());
        for span in spans {
            let outer = if span.parent == root {
                Some((0, None))
            } else {
                scope.get(span.parent as usize).copied().flatten()
            };
            let Some((depth, owner)) = outer else {
                scope.push(None);
                continue;
            };
            if let Some(rows) = span.int("rows") {
                scope.push(Some((depth + 1, Some(stats.ops.len()))));
                stats.ops.push(OpStats {
                    label: span.name.clone(),
                    depth,
                    rows: rows as usize,
                    elapsed: Duration::from_micros(span.dur_us),
                    detail: None,
                });
                continue;
            }
            scope.push(Some((depth, owner)));
            if span.name == "pipeline" {
                let count = |key: &str| span.int(key).unwrap_or(0) as usize;
                let us = |key: &str| Duration::from_micros(count(key) as u64);
                stats.pipelines.push(PipelineStat {
                    label: span.str("label").unwrap_or_default().to_string(),
                    morsels: count("morsels"),
                    min_per_worker: count("min_per_worker"),
                    max_per_worker: count("max_per_worker"),
                    workers: count("workers"),
                    elapsed: Duration::from_micros(span.dur_us),
                    queue_wait: us("queue_wait_us"),
                    queue_wait_max: us("queue_wait_max_us"),
                });
            } else if let (Some(detail), Some(op)) = (span.str("detail"), owner) {
                stats.ops[op].detail = Some(detail.to_string());
            }
        }
        stats
    }

    /// Render the annotated plan tree (`EXPLAIN ANALYZE` output): one line
    /// per executed operator with output rows and inclusive wall time,
    /// followed by one line per executed pipeline with morsel counts and
    /// per-worker distribution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let detail = match &op.detail {
                Some(d) => format!(", {d}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{}{} (rows={}, time={}{detail})",
                "  ".repeat(op.depth),
                op.label,
                op.rows,
                fmt_duration(op.elapsed),
            );
        }
        for (i, p) in self.pipelines.iter().enumerate() {
            let avg_wait =
                if p.morsels > 0 { p.queue_wait / p.morsels as u32 } else { Duration::ZERO };
            let _ = writeln!(
                out,
                "Pipeline {i}: {} (morsels={}, per-worker min={} max={} of {} worker(s), \
                 queue-wait avg={} max={}, time={})",
                p.label,
                p.morsels,
                p.min_per_worker,
                p.max_per_worker,
                p.workers,
                fmt_duration(avg_wait),
                fmt_duration(p.queue_wait_max),
                fmt_duration(p.elapsed),
            );
        }
        out
    }
}

/// Compact human duration (micros below 10ms, millis beyond).
fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 10_000 {
        format!("{us}us")
    } else {
        format!("{:.2}ms", us as f64 / 1000.0)
    }
}

/// Everything one statement execution needs, bundled.
///
/// A [`crate::Session`] builds one `ExecContext` per statement; the
/// context is handed to [`crate::bind::Binder`],
/// [`crate::optimize::optimize_with`] and [`crate::exec::Executor`].
#[derive(Debug)]
pub struct ExecContext<'a> {
    catalog: &'a Catalog,
    params: &'a [Value],
    indexes: Option<&'a IndexRegistry>,
    settings: SessionSettings,
    deadline: Option<Deadline>,
    /// The engine-wide metrics registry, when attached by a session. All
    /// hot-path instruments are relaxed atomics, so recording never
    /// perturbs results or thread-equivalence.
    metrics: Option<Arc<EngineMetrics>>,
    /// The per-statement trace collector, when `SET trace` is on or the
    /// statement is an `EXPLAIN ANALYZE`.
    trace: Option<Arc<TraceCollector>>,
    /// The span this context's spans nest under ([`NO_SPAN`] = none).
    trace_root: SpanId,
    /// The span new child spans attach under: the innermost open
    /// [`SpanGuard`], else `trace_root`. An atomic so the single-threaded
    /// plan walk can move it through a `&self` borrow.
    trace_parent: AtomicU32,
}

impl<'a> ExecContext<'a> {
    /// A context with default settings and no statistics collection.
    pub fn new(
        catalog: &'a Catalog,
        params: &'a [Value],
        indexes: Option<&'a IndexRegistry>,
    ) -> ExecContext<'a> {
        ExecContext {
            catalog,
            params,
            indexes,
            settings: SessionSettings::default(),
            deadline: None,
            metrics: None,
            trace: None,
            trace_root: NO_SPAN,
            trace_parent: AtomicU32::new(NO_SPAN),
        }
    }

    /// Attach the index registry. The registry holds graph and path
    /// indexes alike, so this sets the same field as the registry argument
    /// of [`ExecContext::new`].
    pub fn with_path_indexes(mut self, registry: &'a IndexRegistry) -> ExecContext<'a> {
        self.indexes = Some(registry);
        self
    }

    /// Replace the settings (builder style).
    pub fn with_settings(mut self, settings: SessionSettings) -> ExecContext<'a> {
        self.settings = settings;
        self
    }

    /// Record a verbose trace of execution, which [`ExecContext::take_stats`]
    /// reads (builder style). Replaces any attached collector.
    pub fn with_stats(self) -> ExecContext<'a> {
        self.with_trace(Some(Arc::new(TraceCollector::unbounded(TraceLevel::Verbose))), NO_SPAN)
    }

    /// Attach a wall-clock deadline (builder style). `None` leaves the
    /// statement unbounded.
    pub fn with_deadline(mut self, deadline: Option<Deadline>) -> ExecContext<'a> {
        self.deadline = deadline;
        self
    }

    /// Attach the engine metrics registry (builder style).
    pub fn with_metrics(mut self, metrics: Option<Arc<EngineMetrics>>) -> ExecContext<'a> {
        self.metrics = metrics;
        self
    }

    /// Attach a per-statement trace collector rooted at `parent` (builder
    /// style).
    pub fn with_trace(
        mut self,
        trace: Option<Arc<TraceCollector>>,
        parent: SpanId,
    ) -> ExecContext<'a> {
        self.trace = trace;
        self.trace_root = parent;
        self.trace_parent = AtomicU32::new(parent);
        self
    }

    /// The catalog to bind and scan against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Host parameter values for `?` placeholders.
    pub fn params(&self) -> &'a [Value] {
        self.params
    }

    /// The index registry, unless the setting of `family` disables it:
    /// [`SessionSettings::graph_index`] for graph indexes,
    /// [`SessionSettings::path_index`] for path indexes.
    pub fn indexes(&self, family: IndexFamily) -> Option<&'a IndexRegistry> {
        let enabled = match family {
            IndexFamily::Graph => self.settings.graph_index,
            IndexFamily::Path => self.settings.path_index,
        };
        self.indexes.filter(|_| enabled)
    }

    /// The session settings in effect.
    pub fn settings(&self) -> &SessionSettings {
        &self.settings
    }

    /// The statement deadline, when one is set.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// The raw deadline instant (what long-running runtimes poll).
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.deadline.map(|d| d.at)
    }

    /// Abort with [`Error::Timeout`] once the statement deadline passed.
    /// The executor calls this before every operator; operator bodies with
    /// long internal loops (graph traversal batches) poll the instant
    /// themselves at finer grain.
    pub fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(d) if d.expired() => Err(self.timeout_error()),
            _ => Ok(()),
        }
    }

    /// The timeout error for this statement's configured budget.
    pub(crate) fn timeout_error(&self) -> Error {
        Error::Timeout { limit_ms: self.deadline.map(|d| d.limit_ms).unwrap_or(0) }
    }

    /// The degree of parallelism for this statement's execution.
    pub fn threads(&self) -> usize {
        self.settings.threads.max(1)
    }

    /// Rows per morsel for pipelined execution (at least 1).
    pub fn morsel_rows(&self) -> usize {
        self.settings.morsel_rows.max(1)
    }

    /// The engine metrics registry, when a session attached one.
    pub(crate) fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// The span new child spans attach under ([`NO_SPAN`] = root).
    pub(crate) fn trace_parent(&self) -> SpanId {
        self.trace_parent.load(Ordering::Relaxed)
    }

    /// Open a span named `name` under the current parent; it is the parent
    /// of new spans until its guard drops. Inert when the statement is not
    /// traced.
    pub(crate) fn span(&self, name: &str) -> SpanGuard<'_> {
        let id = match &self.trace {
            Some(t) => t.begin(self.trace_parent(), name),
            None => NO_SPAN,
        };
        let prev =
            if id == NO_SPAN { NO_SPAN } else { self.trace_parent.swap(id, Ordering::Relaxed) };
        SpanGuard { ctx: self, id, prev }
    }

    /// Open the span of one plan operator, labelled like its `EXPLAIN`
    /// line, when the collector is verbose; inert otherwise.
    pub(crate) fn op_span(&self, plan: &LogicalPlan) -> SpanGuard<'_> {
        match &self.trace {
            Some(t) if t.level() == TraceLevel::Verbose => self.span(&plan.node_label()),
            _ => SpanGuard { ctx: self, id: NO_SPAN, prev: NO_SPAN },
        }
    }

    /// Run `f` with new spans attaching under `parent`.
    pub(crate) fn within<T>(&self, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let prev = self.trace_parent.swap(parent, Ordering::Relaxed);
        let out = f();
        self.trace_parent.store(prev, Ordering::Relaxed);
        out
    }

    /// The operator and pipeline statistics of the execution traced so far
    /// (empty unless the collector is verbose, as [`ExecContext::with_stats`]
    /// and `EXPLAIN ANALYZE` make it).
    pub fn take_stats(&self) -> ExecStats {
        match &self.trace {
            Some(t) => t.read(|spans| ExecStats::from_spans(spans, self.trace_root)),
            None => ExecStats::default(),
        }
    }

    /// Enforce the session row limit on one operator's output. The label is
    /// built lazily so the happy path never formats a plan node.
    pub(crate) fn check_row_limit(
        &self,
        rows: usize,
        operator: impl FnOnce() -> String,
    ) -> Result<()> {
        match self.settings.row_limit {
            Some(limit) if rows as u64 > limit => Err(row_limit_error(&operator(), limit)),
            _ => Ok(()),
        }
    }
}

/// An open span of the statement trace, from [`ExecContext::span`]. While
/// open it is the parent of new spans; dropping it closes the span and
/// restores the previous parent, on every exit path. Inert (every method a
/// no-op) when the statement is not traced.
#[must_use = "the span closes when the guard drops"]
pub(crate) struct SpanGuard<'c> {
    ctx: &'c ExecContext<'c>,
    /// [`NO_SPAN`] when inert.
    id: SpanId,
    /// The parent to restore on drop.
    prev: SpanId,
}

impl SpanGuard<'_> {
    /// True when the span is recorded; attribute values that cost work to
    /// compute are built only then.
    pub(crate) fn is_recording(&self) -> bool {
        self.id != NO_SPAN
    }

    /// Attach one attribute.
    pub(crate) fn attr(&self, key: &str, value: impl Into<TraceValue>) {
        if let (true, Some(t)) = (self.is_recording(), &self.ctx.trace) {
            t.attr(self.id, key, value.into());
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (true, Some(t)) = (self.is_recording(), &self.ctx.trace) {
            self.ctx.trace_parent.store(self.prev, Ordering::Relaxed);
            t.end(self.id);
        }
    }
}

/// The error of an operator whose output exceeds the session row limit.
/// It names the limit, not the count reached: a pipeline stops counting
/// where the limit is first exceeded, so the message is the same at every
/// thread count.
pub(crate) fn row_limit_error(operator: &str, limit: u64) -> Error {
    Error::Exec(format!(
        "row limit exceeded: operator {operator} produced more than {limit} rows \
         (SET row_limit = {limit}; 0 disables)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_set_get_roundtrip() {
        let mut s = SessionSettings::default();
        assert!(s.graph_index);
        s.set("graph_index", "off").unwrap();
        assert!(!s.graph_index);
        assert_eq!(s.get("graph_index").unwrap(), "off");
        s.set("GRAPH_INDEX", "on").unwrap();
        assert!(s.graph_index);

        s.set("path_index", "off").unwrap();
        assert!(!s.path_index);
        assert_eq!(s.get("path_index").unwrap(), "off");
        s.set("PATH_INDEX", "on").unwrap();
        assert!(s.path_index);
        assert!(s.set("path_index", "sideways").is_err());

        s.set("row_limit", "100").unwrap();
        assert_eq!(s.row_limit, Some(100));
        s.set("row_limit", "0").unwrap();
        assert_eq!(s.row_limit, None);
        assert_eq!(s.get("row_limit").unwrap(), "0");

        s.set("plan_cache_size", "8").unwrap();
        assert_eq!(s.plan_cache_size, 8);

        assert!(s.threads >= 1, "default threads must be positive");
        s.set("threads", "4").unwrap();
        assert_eq!(s.threads, 4);
        assert_eq!(s.get("threads").unwrap(), "4");
        s.set("THREADS", "1").unwrap();
        assert_eq!(s.threads, 1);
        let err = s.set("threads", "0").unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
        let err = s.set("threads", "many").unwrap_err();
        assert!(err.to_string().contains("non-negative integer"), "{err}");
        let err = s.set("threads", "9999999").unwrap_err();
        assert!(err.to_string().contains("capped"), "{err}");
        assert_eq!(s.threads, 1, "failed sets leave the value unchanged");

        s.set("timeout_ms", "250").unwrap();
        assert_eq!(s.timeout_ms, Some(250));
        assert_eq!(s.get("timeout_ms").unwrap(), "250");
        s.set("TIMEOUT_MS", "0").unwrap();
        assert_eq!(s.timeout_ms, None);
        assert_eq!(s.get("timeout_ms").unwrap(), "0");

        // `pipeline` is a compatibility alias: `on` is a no-op, anything
        // else names the removed barrier executor, and SHOW ALL omits it.
        let before = s.clone();
        s.set("PIPELINE", "on").unwrap();
        assert_eq!(s, before);
        assert_eq!(s.get("pipeline").unwrap(), "on");
        for value in ["off", "diagonal"] {
            let err = s.set("pipeline", value).unwrap_err();
            assert!(err.to_string().contains("barrier executor was removed"), "{err}");
        }
        assert!(!SessionSettings::NAMES.contains(&"pipeline"));

        assert!(s.morsel_rows >= 1, "default morsel_rows must be positive");
        s.set("morsel_rows", "7").unwrap();
        assert_eq!(s.morsel_rows, 7);
        assert_eq!(s.get("morsel_rows").unwrap(), "7");
        let err = s.set("morsel_rows", "0").unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
        assert_eq!(s.morsel_rows, 7, "failed sets leave the value unchanged");

        // (The default itself comes from GSQL_TRACE, so only the
        // round-trips are asserted here.)
        s.set("trace", "on").unwrap();
        assert_eq!(s.trace, TraceLevel::On);
        assert_eq!(s.get("trace").unwrap(), "on");
        s.set("TRACE", "verbose").unwrap();
        assert_eq!(s.trace, TraceLevel::Verbose);
        s.set("trace", "off").unwrap();
        assert_eq!(s.trace, TraceLevel::Off);
        let err = s.set("trace", "loud").unwrap_err();
        assert!(err.to_string().contains("off/on/verbose"), "{err}");

        s.set("slow_query_ms", "25").unwrap();
        assert_eq!(s.slow_query_ms, Some(25));
        assert_eq!(s.get("slow_query_ms").unwrap(), "25");
        s.set("SLOW_QUERY_MS", "0").unwrap();
        assert_eq!(s.slow_query_ms, None);
        assert_eq!(s.get("slow_query_ms").unwrap(), "0");

        assert!(s.set("nope", "1").is_err());
        assert!(s.get("nope").is_err());
        assert!(s.set("graph_index", "maybe").is_err());
        assert!(s.set("row_limit", "-3").is_err());
        assert_eq!(s.entries().len(), SessionSettings::NAMES.len());
    }

    /// Regression guard for `SHOW ALL`: every settings field must appear in
    /// [`SessionSettings::NAMES`], and the listing must be sorted.
    ///
    /// The destructuring below is **exhaustive on purpose** — adding a new
    /// setting field without updating it (and `FIELDS`, and `NAMES`) is a
    /// compile error, so a setting can never silently go missing from
    /// `SHOW ALL`.
    #[test]
    fn show_all_lists_every_setting_in_sorted_order() {
        let s = SessionSettings::default();
        let SessionSettings {
            graph_index: _,
            path_index: _,
            row_limit: _,
            plan_cache_size: _,
            threads: _,
            timeout_ms: _,
            morsel_rows: _,
            trace: _,
            slow_query_ms: _,
        } = s;
        const FIELDS: usize = 9;
        assert_eq!(
            SessionSettings::NAMES.len(),
            FIELDS,
            "a settings field is missing from SessionSettings::NAMES / SHOW ALL"
        );
        let mut sorted = SessionSettings::NAMES;
        sorted.sort_unstable();
        assert_eq!(sorted, SessionSettings::NAMES, "NAMES must stay sorted for SHOW ALL");
        // Every listed name is both readable and settable back to itself.
        let mut s = SessionSettings::default();
        for name in SessionSettings::NAMES {
            let value = s.get(name).unwrap_or_else(|_| panic!("SHOW {name} must work"));
            s.set(name, &value).unwrap_or_else(|_| panic!("SET {name} = {value} must round-trip"));
        }
    }

    #[test]
    fn deadline_expiry_and_check() {
        let d = Deadline::starting_now(3_600_000);
        assert!(!d.expired());
        let past = Deadline { at: Instant::now() - Duration::from_millis(1), limit_ms: 5 };
        assert!(past.expired());

        let catalog = Catalog::new();
        let ctx = ExecContext::new(&catalog, &[], None).with_deadline(Some(past));
        let err = ctx.check_deadline().unwrap_err();
        assert!(matches!(err, Error::Timeout { limit_ms: 5 }), "{err}");
        assert!(err.to_string().contains("5ms"), "{err}");
        let ctx = ExecContext::new(&catalog, &[], None);
        ctx.check_deadline().unwrap();
    }

    #[test]
    fn row_limit_guard() {
        let catalog = Catalog::new();
        let ctx = ExecContext::new(&catalog, &[], None)
            .with_settings(SessionSettings { row_limit: Some(2), ..SessionSettings::default() });
        assert!(ctx.check_row_limit(2, || "Scan".to_string()).is_ok());
        let err = ctx.check_row_limit(3, || "Scan".to_string()).unwrap_err();
        assert!(err.to_string().contains("operator Scan produced more than 2 rows"), "{err}");
    }

    #[test]
    fn stats_read_operators_and_pipelines_from_the_span_tree() {
        let catalog = Catalog::new();
        let ctx = ExecContext::new(&catalog, &[], None).with_stats();
        let t = Arc::clone(ctx.trace.as_ref().expect("with_stats attaches a collector"));
        {
            let filter = ctx.span("Filter x");
            {
                let scan = ctx.span("Scan t");
                scan.attr("rows", 10usize);
            }
            let pipeline = ctx.span("pipeline");
            for (key, value) in [
                ("morsels", 9),
                ("min_per_worker", 1),
                ("max_per_worker", 5),
                ("workers", 3),
                ("queue_wait_us", 45),
                ("queue_wait_max_us", 20),
            ] {
                pipeline.attr(key, value as i64);
            }
            pipeline.attr("label", "scan t -> filter");
            drop(pipeline);
            let traversal = ctx.span("traversal");
            traversal.attr("detail", "settled=7 (alt)");
            drop(traversal);
            filter.attr("rows", 3usize);
        }
        assert_eq!(ctx.trace_parent(), NO_SPAN, "dropped guards restore the parent");
        assert_eq!(t.span_count(), 4);
        let stats = ctx.take_stats();
        assert_eq!(stats.ops.len(), 2);
        assert_eq!((stats.ops[1].depth, stats.ops[1].rows), (1, 10));
        let text = stats.render();
        assert!(text.contains("Filter x (rows=3"), "{text}");
        assert!(text.contains("settled=7 (alt))"), "{text}");
        assert!(text.contains("\n  Scan t (rows=10"), "{text}");
        assert!(text.contains("Pipeline 0: scan t -> filter (morsels=9"), "{text}");
        assert!(text.contains("per-worker min=1 max=5 of 3 worker(s)"), "{text}");
        assert!(text.contains("queue-wait avg=5us max=20us"), "{text}");
    }

    #[test]
    fn untraced_context_records_nothing() {
        let catalog = Catalog::new();
        let ctx = ExecContext::new(&catalog, &[], None);
        let span = ctx.span("execute");
        assert!(!span.is_recording());
        span.attr("rows", 1usize);
        drop(span);
        assert!(ctx.take_stats().ops.is_empty());
    }
}
