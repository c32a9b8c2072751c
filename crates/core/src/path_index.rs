//! The index registry: graph indexes and path indexes — the paper's §6
//! future work, implemented.
//!
//! > "We are investigating how to expand our system with the option of
//! > creating special 'graph' indices. These indices will store the full
//! > graph, ready to be used when a query matches the edge table that
//! > generated the graph. Nevertheless, they also need to be amenable to
//! > the updates on the underlying tables."
//!
//! One [`IndexRegistry`] holds both SQL families. Every entry names an edge
//! configuration `(table, src, dst)`, an optional weight column and an
//! optional accelerator, and caches its built data against the catalog's
//! per-table **version counter**:
//!
//! * `CREATE GRAPH INDEX name ON table EDGE (s, d)` registers an entry with
//!   no accelerator. It caches the [`MaterializedGraph`] (snapshot +
//!   dictionary + CSR), so a matching query skips graph construction.
//! * `CREATE PATH INDEX name ON table EDGE (s, d) [WEIGHT col] USING
//!   {LANDMARKS(k) | CONTRACTION}` registers an entry with an accelerator.
//!   It caches a [`PathIndexData`]: the graph and its reverse CSR, the
//!   per-slot weight arrays of both directions (validated strictly
//!   positive and integral at build time), and one **acceleration index**
//!   ([`AccelIndex`]) — an ALT [`Landmarks`] set for goal-directed
//!   bidirectional A\*, or a [`ContractionHierarchy`] for bidirectional
//!   upward Dijkstra with stall-on-demand. Both kinds answer queries with
//!   costs **bit-identical** to plain Dijkstra, so the optimizer may pick
//!   freely ([`PathIndexKind`] carries the choice through planning,
//!   `EXPLAIN` and the executor).
//!
//! The two families keep separate name spaces ([`IndexFamily`]). Any DML
//! bumps the table version, and the next query that needs the entry
//! rebuilds it lazily. The registry's one **structural version**, bumped on
//! every create and drop, participates in
//! [`Database::schema_version`](crate::Database::schema_version), so cached
//! plans that decided for or against an index are invalidated.

use crate::error::{bind_err, Error};
use crate::exec::graph_op::{build_graph_with_threads, MaterializedGraph};
use gsql_accel::{
    alt_multi_target, ch_many_to_many, ch_query, AltMultiResult, ContractionHierarchy, Landmarks,
};
use gsql_parallel::Pool;
use gsql_storage::catalog::TableEntry;
use gsql_storage::{Catalog, Column, DataType};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

type Result<T> = std::result::Result<T, Error>;

/// Upper bound on the landmark count: beyond this the `O(k)` per-vertex
/// bound evaluation starts to cost more than the pruning saves, and the
/// index memory (`2·k·|V|·8` bytes) grows without benefit.
pub const MAX_LANDMARKS: u32 = 64;

/// Landmark count used when `GSQL_PATH_INDEX_KIND=landmarks` overrides a
/// `USING CONTRACTION` declaration (no `k` was declared to reuse).
const FORCED_LANDMARKS: u32 = 8;

/// The preprocessing tier of one path index. Carried from DDL through the
/// registry, the optimizer's choice, `EXPLAIN` labels and the executor's
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathIndexKind {
    /// ALT: `k` landmark distance vectors + goal-directed bidirectional A*.
    Landmarks(u32),
    /// Contraction hierarchy: shortcut overlay + bidirectional upward
    /// Dijkstra with stall-on-demand.
    Contraction,
}

impl PathIndexKind {
    /// Short plan-label form (`EXPLAIN` shows `PathIndex pi ON t (CH)`).
    pub fn label(&self) -> &'static str {
        match self {
            PathIndexKind::Landmarks(_) => "ALT",
            PathIndexKind::Contraction => "CH",
        }
    }
}

impl fmt::Display for PathIndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathIndexKind::Landmarks(k) => write!(f, "landmarks({k})"),
            PathIndexKind::Contraction => write!(f, "contraction"),
        }
    }
}

/// CI / experimentation override: `GSQL_PATH_INDEX_KIND=contraction` (or
/// `ch`) builds every path index as a contraction hierarchy regardless of
/// its `USING` clause; `landmarks` / `alt` forces ALT. Unset or anything
/// else honours the DDL. Cached after the first read (mirrors
/// `GSQL_PATH_INDEX` / `GSQL_THREADS`). Declared-kind *validation* (e.g.
/// the landmark-count range) still applies before the override.
fn forced_kind() -> Option<PathIndexKind> {
    static CACHE: OnceLock<Option<PathIndexKind>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let value = std::env::var("GSQL_PATH_INDEX_KIND")
            .map(|v| v.trim().to_ascii_lowercase())
            .unwrap_or_default();
        match value.as_str() {
            "contraction" | "ch" => Some(PathIndexKind::Contraction),
            "landmarks" | "alt" => Some(PathIndexKind::Landmarks(FORCED_LANDMARKS)),
            _ => None,
        }
    })
}

/// The kind actually built for a declared kind, after the
/// `GSQL_PATH_INDEX_KIND` override. A forced-landmarks override keeps a
/// declared landmark count.
fn effective_kind(declared: PathIndexKind) -> PathIndexKind {
    match (forced_kind(), declared) {
        (Some(PathIndexKind::Landmarks(_)), PathIndexKind::Landmarks(k)) => {
            PathIndexKind::Landmarks(k)
        }
        (Some(forced), _) => forced,
        (None, declared) => declared,
    }
}

/// The built acceleration structure of one path index.
#[derive(Debug)]
pub enum AccelIndex {
    /// An ALT landmark index.
    Alt(Landmarks),
    /// A contraction hierarchy.
    Ch(ContractionHierarchy),
}

/// Everything a query needs from one built path index.
#[derive(Debug)]
pub struct PathIndexData {
    /// The materialized graph (snapshot, CSR, dictionary). Its reverse CSR
    /// is forced at build time, so queries never pay for it.
    pub graph: Arc<MaterializedGraph>,
    /// The acceleration index (ALT landmarks or contraction hierarchy).
    pub accel: AccelIndex,
    /// Ordinal of the weight column in the edge table's schema; `None` for
    /// a hop-distance index.
    pub weight_key: Option<usize>,
    /// Weights in forward-CSR slot order (present iff `weight_key`).
    pub weights_fwd: Option<Vec<i64>>,
    /// Weights in reverse-CSR slot order (present iff `weight_key`).
    pub weights_bwd: Option<Vec<i64>>,
}

impl PathIndexData {
    /// The per-slot weight pair in the form [`gsql_accel::alt_bidirectional`]
    /// consumes (`None` = unit weights).
    pub fn weight_slices(&self) -> Option<(&[i64], &[i64])> {
        match (&self.weights_fwd, &self.weights_bwd) {
            (Some(f), Some(b)) => Some((f.as_slice(), b.as_slice())),
            _ => None,
        }
    }

    /// One accelerated point-to-point search over the index's native
    /// weights (hop distances for an unweighted index): `(exact cost,
    /// settled vertices)`. Dispatches on the built [`AccelIndex`]; either
    /// way the cost is bit-identical to plain Dijkstra.
    pub fn search(&self, source: u32, dest: u32) -> (Option<u64>, usize) {
        match &self.accel {
            AccelIndex::Alt(lm) => {
                let r = gsql_accel::alt_bidirectional(
                    &self.graph.csr,
                    self.graph.reverse(),
                    self.weight_slices(),
                    lm,
                    source,
                    dest,
                );
                (r.dist, r.settled)
            }
            AccelIndex::Ch(ch) => {
                let r = ch_query(ch, source, dest);
                (r.dist, r.settled)
            }
        }
    }

    /// One accelerated **batch** search: every `(source, dest)` pair
    /// answered over the index's native weights, bit-identical to per-pair
    /// Dijkstra at every thread count. Returns `None` when `deadline`
    /// expires between per-vertex search phases (the caller maps that to
    /// the statement timeout).
    ///
    /// A CH index answers the whole batch with the bucket-based
    /// many-to-many algorithm — one backward upward search per distinct
    /// target filling per-vertex buckets, one forward upward search per
    /// distinct source scanning them — so an `S × T` matrix costs `S + T`
    /// upward searches. An ALT index runs one multi-target goal-directed
    /// search per distinct source (the landmark bound aggregated over that
    /// source's target set). Both fan out over a pool of `threads`
    /// workers.
    pub fn search_batch(
        &self,
        pairs: &[(u32, u32)],
        threads: usize,
        deadline: Option<Instant>,
    ) -> Option<BatchSearch> {
        match &self.accel {
            AccelIndex::Ch(ch) => {
                let mut sources: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
                sources.sort_unstable();
                sources.dedup();
                let mut targets: Vec<u32> = pairs.iter().map(|&(_, d)| d).collect();
                targets.sort_unstable();
                targets.dedup();
                let m = ch_many_to_many(ch, &sources, &targets, threads, deadline)?;
                let dist = pairs
                    .iter()
                    .map(|&(s, d)| {
                        let si = sources.binary_search(&s).expect("source in distinct set");
                        let ti = targets.binary_search(&d).expect("target in distinct set");
                        let v = m.dist(si, ti, targets.len());
                        (v != gsql_accel::INF).then_some(v)
                    })
                    .collect();
                Some(BatchSearch {
                    dist,
                    settled: m.settled,
                    kind: "ch-m2m",
                    detail: format!("settled={} (ch-m2m, buckets={})", m.settled, m.bucket_entries),
                })
            }
            AccelIndex::Alt(lm) => {
                // Group pairs by source (input indices, like BatchComputer)
                // so each distinct source runs one multi-target search over
                // exactly its own target set.
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_unstable_by_key(|&i| pairs[i].0);
                let mut groups: Vec<(u32, std::ops::Range<usize>)> = Vec::new();
                let mut g = 0;
                while g < order.len() {
                    let source = pairs[order[g]].0;
                    let mut end = g;
                    while end < order.len() && pairs[order[end]].0 == source {
                        end += 1;
                    }
                    groups.push((source, g..end));
                    g = end;
                }
                let pool = Pool::new(threads);
                let expired = AtomicBool::new(false);
                let weights = self.weights_fwd.as_deref();
                let per_group: Vec<AltMultiResult> = pool.map(groups.len(), |gi| {
                    if let Some(deadline) = deadline {
                        if expired.load(Ordering::Relaxed) || Instant::now() >= deadline {
                            expired.store(true, Ordering::Relaxed);
                            return AltMultiResult { dist: Vec::new(), settled: 0 };
                        }
                    }
                    let (source, ref range) = groups[gi];
                    let targets: Vec<u32> =
                        order[range.clone()].iter().map(|&i| pairs[i].1).collect();
                    alt_multi_target(&self.graph.csr, weights, lm, source, &targets)
                });
                if expired.load(Ordering::Relaxed) {
                    return None;
                }
                let mut dist = vec![None; pairs.len()];
                let mut settled = 0usize;
                for ((_, range), r) in groups.iter().zip(per_group) {
                    settled += r.settled;
                    for (&i, &d) in order[range.clone()].iter().zip(&r.dist) {
                        dist[i] = (d != gsql_accel::INF).then_some(d);
                    }
                }
                Some(BatchSearch {
                    dist,
                    settled,
                    kind: "alt-multi",
                    detail: format!("settled={settled} (alt-multi, landmarks={})", lm.len()),
                })
            }
        }
    }

    /// The metrics label of the point-to-point tier this index serves
    /// queries with — one of [`gsql_obs::ACCEL_KINDS`].
    pub fn kind_name(&self) -> &'static str {
        match &self.accel {
            AccelIndex::Alt(_) => "alt",
            AccelIndex::Ch(_) => "ch",
        }
    }

    /// The `EXPLAIN ANALYZE` detail line for a query that settled
    /// `settled` vertices through this index.
    pub fn analyze_detail(&self, settled: usize) -> String {
        match &self.accel {
            AccelIndex::Alt(lm) => {
                format!("settled={settled} (alt, landmarks={})", lm.len())
            }
            AccelIndex::Ch(ch) => {
                format!("settled={settled} (ch, shortcuts={})", ch.shortcuts())
            }
        }
    }
}

/// The result of one [`PathIndexData::search_batch`] call.
#[derive(Debug)]
pub struct BatchSearch {
    /// Exact per-pair cost in input order; `None` when unreachable.
    pub dist: Vec<Option<u64>>,
    /// Vertices settled across every search of the batch.
    pub settled: usize,
    /// The metrics label of the many-to-many tier that ran — `"ch-m2m"`
    /// or `"alt-multi"` (one of [`gsql_obs::ACCEL_KINDS`]).
    pub kind: &'static str,
    /// The `EXPLAIN ANALYZE` detail line, tier included —
    /// `settled=N (ch-m2m, buckets=B)` or
    /// `settled=N (alt-multi, landmarks=k)`.
    pub detail: String,
}

/// The SQL family of an index. The families keep separate name spaces:
/// `CREATE GRAPH INDEX gi` and `CREATE PATH INDEX gi` may coexist, and
/// `DROP GRAPH INDEX` never drops a path index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexFamily {
    /// `CREATE GRAPH INDEX`: the cached graph, no accelerator.
    Graph,
    /// `CREATE PATH INDEX`: the cached graph plus an accelerator.
    Path,
}

impl IndexFamily {
    /// The family of an entry whose accelerator is `accel`.
    pub fn of(accel: Option<PathIndexKind>) -> IndexFamily {
        match accel {
            None => IndexFamily::Graph,
            Some(_) => IndexFamily::Path,
        }
    }

    fn noun(self) -> &'static str {
        match self {
            IndexFamily::Graph => "graph index",
            IndexFamily::Path => "path index",
        }
    }
}

/// The built data of one registry entry.
#[derive(Debug, Clone)]
pub(crate) enum BuiltIndex {
    /// A graph index: the materialized graph alone.
    Graph(Arc<MaterializedGraph>),
    /// A path index: the graph with its accelerator.
    Path(Arc<PathIndexData>),
}

impl BuiltIndex {
    /// The materialized graph.
    pub fn graph(&self) -> &Arc<MaterializedGraph> {
        match self {
            BuiltIndex::Graph(graph) => graph,
            BuiltIndex::Path(data) => &data.graph,
        }
    }

    /// The accelerated data, for a path index.
    pub fn accel(&self) -> Option<&Arc<PathIndexData>> {
        match self {
            BuiltIndex::Graph(_) => None,
            BuiltIndex::Path(data) => Some(data),
        }
    }
}

/// Planner-visible description of a registered index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexMeta {
    /// Index name (lowercased registry key).
    pub name: String,
    /// Ordinal of the weight column in the table schema, `None` for hops.
    pub weight_key: Option<usize>,
    /// The (effective) accelerator kind; `None` for a graph index.
    pub kind: Option<PathIndexKind>,
}

/// One row of `SHOW PATH INDEXES`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathIndexListing {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Kind (`landmarks(k)` / `contraction`).
    pub kind: String,
    /// `built` when the cached data matches the table's current version,
    /// `stale` when the next accelerated query will rebuild it.
    pub status: &'static str,
}

/// The definition of one index: everything a build reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IndexDef {
    /// Lowercased indexed table.
    pub table: String,
    /// Source key column, as declared.
    pub src_col: String,
    /// Destination key column, as declared.
    pub dst_col: String,
    /// Weight column, as declared (`None` = hop distances).
    pub weight_col: Option<String>,
    /// The effective accelerator kind (the declared kind after the
    /// `GSQL_PATH_INDEX_KIND` override); `None` for a graph index.
    pub accel: Option<PathIndexKind>,
}

/// The persisted form of one registry entry: the definition plus, for a
/// built path index, the data and the table version the build observed.
#[derive(Debug)]
pub(crate) struct IndexSnapshotEntry {
    /// Lowercased registry key.
    pub name: String,
    /// The definition.
    pub def: IndexDef,
    /// Ordinal of the weight column in the table schema.
    pub weight_key: Option<usize>,
    /// `(table version when built, the data)`; always `None` for a graph
    /// index, whose graph is cheap to rebuild lazily.
    pub built: Option<(u64, Arc<PathIndexData>)>,
}

/// One registered index.
#[derive(Debug)]
struct IndexEntry {
    def: IndexDef,
    weight_key: Option<usize>,
    /// `(table version when built, the data)`.
    cached: Option<(u64, BuiltIndex)>,
}

/// The registry's entries, keyed by family and lowercased name. Ordered,
/// so listings come out sorted by family, then name.
type Entries = BTreeMap<(IndexFamily, String), IndexEntry>;

/// Registry of graph and path indexes, keyed by family and lowercased
/// name.
///
/// Carries one structural version counter, bumped on every create or
/// drop and consumed by the session plan cache through
/// `Database::schema_version`.
#[derive(Debug, Default)]
pub struct IndexRegistry {
    inner: RwLock<Entries>,
    version: AtomicU64,
    /// Full accelerator builds performed by this process (path-index
    /// creates plus lazy rebuilds). A warm restart from a matching snapshot
    /// leaves this at zero — the restart benchmark and tests assert on it.
    builds: AtomicU64,
}

impl IndexRegistry {
    /// Empty registry.
    pub fn new() -> IndexRegistry {
        IndexRegistry::default()
    }

    /// Structural version (bumped on every create/drop).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// How many full acceleration-index builds this process has run
    /// (creates and lazy rebuilds). Graph-index builds and restoring built
    /// indexes from a snapshot do not count: the latter is the warm-start
    /// guarantee.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    fn read(&self) -> RwLockReadGuard<'_, Entries> {
        self.inner.read().expect("registry lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Entries> {
        self.inner.write().expect("registry lock poisoned")
    }

    /// Every index of either family covering `(table, src_col, dst_col)`,
    /// sorted by family, then name, so planning is deterministic (matching
    /// is case-insensitive). Several indexes may cover one edge
    /// configuration — e.g. a graph index, a hop path index and a weighted
    /// one — and the optimizer picks among them.
    pub fn find_indexes(&self, table: &str, src_col: &str, dst_col: &str) -> Vec<IndexMeta> {
        let table_key = table.to_ascii_lowercase();
        self.read()
            .iter()
            .filter(|(_, e)| {
                e.def.table == table_key
                    && e.def.src_col.eq_ignore_ascii_case(src_col)
                    && e.def.dst_col.eq_ignore_ascii_case(dst_col)
            })
            .map(|((_, name), e)| IndexMeta {
                name: name.clone(),
                weight_key: e.weight_key,
                kind: e.def.accel,
            })
            .collect()
    }

    /// Fetch the fresh data of the `family` index `name`, rebuilding a
    /// stale cache entry with `threads` workers (a session's `threads`
    /// setting; parallel builds are bit-identical). `None` when the index
    /// no longer exists — callers fall back to the unindexed path.
    pub(crate) fn fetch(
        &self,
        catalog: &Catalog,
        family: IndexFamily,
        name: &str,
        threads: usize,
    ) -> Result<Option<BuiltIndex>> {
        let key = (family, name.to_ascii_lowercase());
        let (def, table) = {
            let inner = self.read();
            let Some(entry) = inner.get(&key) else {
                return Ok(None);
            };
            let table = catalog.entry(&entry.def.table).map_err(Error::Storage)?;
            if let Some((version, built)) = &entry.cached {
                if *version == table.version {
                    return Ok(Some(built.clone()));
                }
            }
            (entry.def.clone(), table)
        };
        // Stale: rebuild outside the read lock from the table read above,
        // so the stamped version is exactly the version that was built.
        let built = self.build(&def, &table, threads)?;
        if let Some(e) = self.write().get_mut(&key) {
            // Skip the write-back if the index was concurrently dropped and
            // recreated with a different definition.
            if e.def == def {
                e.cached = Some((table.version, built.clone()));
            }
        }
        Ok(Some(built))
    }

    /// The fresh graph of the graph index `name`, rebuilding a stale cache
    /// entry with `threads` workers. `None` when no such index exists.
    pub fn graph_by_name(
        &self,
        catalog: &Catalog,
        name: &str,
        threads: usize,
    ) -> Result<Option<Arc<MaterializedGraph>>> {
        let built = self.fetch(catalog, IndexFamily::Graph, name, threads)?;
        Ok(built.map(|b| Arc::clone(b.graph())))
    }

    /// The fresh data of the path index `name`, rebuilding a stale cache
    /// entry with `threads` workers. `None` when no such index exists.
    pub fn data_by_name(
        &self,
        catalog: &Catalog,
        name: &str,
        threads: usize,
    ) -> Result<Option<Arc<PathIndexData>>> {
        let built = self.fetch(catalog, IndexFamily::Path, name, threads)?;
        Ok(built.and_then(|b| b.accel().cloned()))
    }

    fn build(&self, def: &IndexDef, table: &TableEntry, threads: usize) -> Result<BuiltIndex> {
        let built = build_index(def, table, threads)?;
        if def.accel.is_some() {
            self.builds.fetch_add(1, Ordering::AcqRel);
        }
        Ok(built)
    }

    /// Create an index and build it eagerly with `threads` workers: a graph
    /// index when `accel` is `None`, a path index otherwise. With
    /// `if_not_exists`, creating over an existing name of the same family
    /// is a no-op (returns `Ok` without building).
    #[allow(clippy::too_many_arguments)]
    pub fn create_index(
        &self,
        catalog: &Catalog,
        name: &str,
        table: &str,
        src_col: &str,
        dst_col: &str,
        weight_col: Option<&str>,
        accel: Option<PathIndexKind>,
        if_not_exists: bool,
        threads: usize,
    ) -> Result<()> {
        let family = IndexFamily::of(accel);
        let key = (family, name.to_ascii_lowercase());
        let duplicate = || match if_not_exists {
            true => Ok(()),
            false => Err(bind_err!("{} '{name}' already exists", family.noun())),
        };
        if let Some(PathIndexKind::Landmarks(k)) = accel {
            if k == 0 || k > MAX_LANDMARKS {
                return Err(bind_err!(
                    "LANDMARKS count must be between 1 and {MAX_LANDMARKS}, got {k}"
                ));
            }
        }
        // Reject duplicate names before paying for the build; the write
        // lock below re-checks to close the create/create race.
        if self.read().contains_key(&key) {
            return duplicate();
        }
        let entry = catalog.entry(table).map_err(Error::Storage)?;
        let schema = entry.table.schema();
        let column = |col: &str| {
            schema.index_of(col).ok_or_else(|| bind_err!("no column '{col}' in table '{table}'"))
        };
        let s_ty = schema.column(column(src_col)?).ty;
        let d_ty = schema.column(column(dst_col)?).ty;
        if s_ty != d_ty {
            return Err(bind_err!(
                "EDGE columns must have matching types, found {s_ty} and {d_ty}"
            ));
        }
        if !s_ty.is_vertex_key() {
            return Err(bind_err!("type {s_ty} cannot be used as a graph vertex key"));
        }
        let weight_key = match weight_col {
            None => None,
            Some(w) => {
                let idx = column(w)?;
                let ty = schema.column(idx).ty;
                if ty != DataType::Int {
                    return Err(bind_err!(
                        "PATH INDEX WEIGHT column must be INTEGER so accelerated costs stay \
                         exact, found {ty}; CAST the weight into an integer column"
                    ));
                }
                Some(idx)
            }
        };
        let def = IndexDef {
            table: table.to_ascii_lowercase(),
            src_col: src_col.to_string(),
            dst_col: dst_col.to_string(),
            weight_col: weight_col.map(str::to_string),
            accel: accel.map(effective_kind),
        };
        let built = self.build(&def, &entry, threads)?;

        let mut inner = self.write();
        if inner.contains_key(&key) {
            return duplicate();
        }
        inner.insert(key, IndexEntry { def, weight_key, cached: Some((entry.version, built)) });
        drop(inner);
        self.bump_version();
        Ok(())
    }

    /// Drop the `family` index `name`. With `if_exists`, dropping a missing
    /// name is a no-op.
    pub fn drop_index(&self, family: IndexFamily, name: &str, if_exists: bool) -> Result<()> {
        let removed = self.write().remove(&(family, name.to_ascii_lowercase()));
        if removed.is_some() {
            self.bump_version();
            Ok(())
        } else if if_exists {
            Ok(())
        } else {
            Err(bind_err!("{} '{name}' does not exist", family.noun()))
        }
    }

    /// Remove every index of either family defined over `table` (used by
    /// `DROP TABLE`).
    pub fn drop_indexes_for_table(&self, table: &str) {
        let key = table.to_ascii_lowercase();
        let mut inner = self.write();
        let before = inner.len();
        inner.retain(|_, e| e.def.table != key);
        let removed = before != inner.len();
        drop(inner);
        if removed {
            self.bump_version();
        }
    }

    /// Every `family` entry, sorted by name: what a snapshot checkpoint
    /// serializes. Path indexes carry their built data (when fresh or
    /// stale alike, stamped with the version it was built against), so a
    /// warm restart answers accelerated queries with zero rebuild work;
    /// graph indexes carry their definition only.
    pub(crate) fn snapshot_entries(&self, family: IndexFamily) -> Vec<IndexSnapshotEntry> {
        self.read()
            .iter()
            .filter(|((f, _), _)| *f == family)
            .map(|((_, name), e)| IndexSnapshotEntry {
                name: name.clone(),
                def: e.def.clone(),
                weight_key: e.weight_key,
                built: e.cached.as_ref().and_then(|(v, b)| Some((*v, Arc::clone(b.accel()?)))),
            })
            .collect()
    }

    /// Re-register an entry from a snapshot without building or bumping the
    /// structural version. `built` carries restored data stamped with the
    /// table version it matches; `None` leaves the entry for the usual
    /// lazy rebuild.
    pub(crate) fn restore_entry(&self, snap: IndexSnapshotEntry) {
        self.write().insert(
            (IndexFamily::of(snap.def.accel), snap.name),
            IndexEntry {
                def: snap.def,
                weight_key: snap.weight_key,
                cached: snap.built.map(|(v, data)| (v, BuiltIndex::Path(data))),
            },
        );
    }

    /// Add a structural version recorded in a snapshot section. A restore
    /// starts from zero, so the sections together restore the counter the
    /// snapshot was taken at.
    pub(crate) fn add_version(&self, version: u64) {
        self.version.fetch_add(version, Ordering::AcqRel);
    }

    /// Names of all indexes of either family, sorted and deduplicated.
    pub fn index_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().map(|(_, name)| name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// All path indexes with kind and freshness, sorted by name — the
    /// `SHOW PATH INDEXES` result. `stale` means the next accelerated query
    /// will rebuild the data lazily (the table mutated since the build).
    pub fn list(&self, catalog: &Catalog) -> Vec<PathIndexListing> {
        self.read()
            .iter()
            .filter_map(|((_, name), e)| {
                let kind = e.def.accel?;
                let status = match &e.cached {
                    Some((version, _)) => match catalog.entry(&e.def.table) {
                        Ok(current) if current.version == *version => "built",
                        _ => "stale",
                    },
                    None => "stale",
                };
                Some(PathIndexListing {
                    name: name.clone(),
                    table: e.def.table.clone(),
                    kind: kind.to_string(),
                    status,
                })
            })
            .collect()
    }
}

/// Build one entry's data from a pinned read of its table: the graph, and
/// for a path index the reverse CSR, the validated slot weights and the
/// acceleration structure of the requested kind.
fn build_index(def: &IndexDef, entry: &TableEntry, threads: usize) -> Result<BuiltIndex> {
    let schema = entry.table.schema();
    let column = |col: &str| {
        schema.index_of(col).ok_or_else(|| bind_err!("no column '{col}' in table '{}'", def.table))
    };
    let (src_key, dst_key) = (column(&def.src_col)?, column(&def.dst_col)?);
    let graph =
        Arc::new(build_graph_with_threads(Arc::clone(&entry.table), src_key, dst_key, threads)?);
    let Some(kind) = def.accel else {
        return Ok(BuiltIndex::Graph(graph));
    };
    let weight_key = def.weight_col.as_deref().map(column).transpose()?;
    let reverse = graph.reverse(); // force + cache the reverse CSR now

    let (weights_fwd, weights_bwd) = match weight_key {
        None => (None, None),
        Some(wk) => {
            // Read row-indexed weights off the NULL-filtered snapshot so
            // they line up with the CSR's edge-row ids.
            let col = graph.edges.column(wk);
            let raw: Vec<i64> = match col {
                Column::Int(vals, validity) => {
                    if let Some(row) = (0..vals.len()).find(|&i| !validity.get(i)) {
                        return Err(Error::Graph(gsql_graph::GraphError::NullWeight {
                            edge_row: row as u32,
                        }));
                    }
                    vals.clone()
                }
                other => {
                    return Err(bind_err!(
                        "PATH INDEX WEIGHT column must be INTEGER, found {}",
                        other.data_type()
                    ))
                }
            };
            let fwd =
                graph.csr.permute_weights_int_with_threads(&raw, threads).map_err(Error::Graph)?;
            let bwd =
                reverse.permute_weights_int_with_threads(&raw, threads).map_err(Error::Graph)?;
            (Some(fwd), Some(bwd))
        }
    };

    let accel = match kind {
        PathIndexKind::Landmarks(k) => AccelIndex::Alt(Landmarks::build(
            &graph.csr,
            reverse,
            match (&weights_fwd, &weights_bwd) {
                (Some(f), Some(b)) => Some((f.as_slice(), b.as_slice())),
                _ => None,
            },
            k as usize,
            threads,
        )),
        PathIndexKind::Contraction => {
            AccelIndex::Ch(ContractionHierarchy::build(&graph.csr, weights_fwd.as_deref(), threads))
        }
    };
    Ok(BuiltIndex::Path(Arc::new(PathIndexData {
        graph,
        accel,
        weight_key,
        weights_fwd,
        weights_bwd,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{ColumnDef, Schema, Value};

    fn setup() -> (Catalog, IndexRegistry) {
        let catalog = Catalog::new();
        catalog
            .create_table(
                "roads",
                Schema::new(vec![
                    ColumnDef::not_null("a", DataType::Int),
                    ColumnDef::not_null("b", DataType::Int),
                    ColumnDef::not_null("len", DataType::Int),
                ]),
            )
            .unwrap();
        catalog
            .update("roads", |t| {
                for (a, b, len) in [(1, 2, 5), (2, 3, 5), (1, 3, 20), (3, 4, 1)] {
                    t.append_row(vec![Value::Int(a), Value::Int(b), Value::Int(len)])?;
                }
                Ok(())
            })
            .unwrap();
        (catalog, IndexRegistry::new())
    }

    fn create(
        reg: &IndexRegistry,
        catalog: &Catalog,
        name: &str,
        weight: Option<&str>,
        kind: PathIndexKind,
    ) -> Result<()> {
        reg.create_index(catalog, name, "roads", "a", "b", weight, Some(kind), false, 2)
    }

    fn create_graph(reg: &IndexRegistry, catalog: &Catalog, name: &str) -> Result<()> {
        reg.create_index(catalog, name, "roads", "a", "b", None, None, false, 2)
    }

    #[test]
    fn create_build_and_query_data() {
        let (catalog, reg) = setup();
        for (name, kind) in
            [("pa", PathIndexKind::Landmarks(2)), ("pc", PathIndexKind::Contraction)]
        {
            create(&reg, &catalog, name, Some("len"), kind).unwrap();
            let meta =
                reg.find_indexes("ROADS", "A", "B").into_iter().find(|m| m.name == name).unwrap();
            assert_eq!(meta.weight_key, Some(2));
            let data = reg.data_by_name(&catalog, name, 2).unwrap().unwrap();
            assert_eq!(data.graph.num_edges(), 4);
            assert!(data.weight_slices().is_some());
            // Exact accelerated distance through the cheap 1→2→3 route.
            let s = data.graph.lookup(&Value::Int(1)).unwrap();
            let d = data.graph.lookup(&Value::Int(3)).unwrap();
            let (dist, _) = data.search(s, d);
            assert_eq!(dist, Some(10), "{name}");
            // Unchanged table: same Arc on the next fetch.
            let again = reg.data_by_name(&catalog, name, 2).unwrap().unwrap();
            assert!(Arc::ptr_eq(&data, &again));
        }
    }

    #[test]
    fn mutation_invalidates_and_rebuilds() {
        let (catalog, reg) = setup();
        create(&reg, &catalog, "pi", None, PathIndexKind::Landmarks(3)).unwrap();
        let d1 = reg.data_by_name(&catalog, "pi", 1).unwrap().unwrap();
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(4), Value::Int(5), Value::Int(2)]))
            .unwrap();
        let d2 = reg.data_by_name(&catalog, "pi", 1).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&d1, &d2));
        assert_eq!(d2.graph.num_edges(), 5);
        let d3 = reg.data_by_name(&catalog, "pi", 1).unwrap().unwrap();
        assert!(Arc::ptr_eq(&d2, &d3));
    }

    #[test]
    fn validation_errors() {
        let (catalog, reg) = setup();
        let lm = PathIndexKind::Landmarks(2);
        assert!(reg
            .create_index(&catalog, "pi", "nope", "a", "b", None, Some(lm), false, 1)
            .is_err());
        assert!(reg
            .create_index(&catalog, "pi", "roads", "zzz", "b", None, Some(lm), false, 1)
            .is_err());
        assert!(reg
            .create_index(&catalog, "pi", "roads", "a", "b", Some("zzz"), Some(lm), false, 1)
            .is_err());
        let zero = PathIndexKind::Landmarks(0);
        assert!(reg
            .create_index(&catalog, "pi", "roads", "a", "b", None, Some(zero), false, 1)
            .is_err());
        let over = PathIndexKind::Landmarks(MAX_LANDMARKS + 1);
        assert!(reg
            .create_index(&catalog, "pi", "roads", "a", "b", None, Some(over), false, 1)
            .is_err());
        create(&reg, &catalog, "pi", None, lm).unwrap();
        assert!(create(&reg, &catalog, "PI", None, lm).is_err());
        assert!(reg.drop_index(IndexFamily::Path, "missing", false).is_err());
        reg.drop_index(IndexFamily::Path, "pi", false).unwrap();
        assert!(reg.index_names().is_empty());
    }

    #[test]
    fn if_not_exists_and_if_exists_are_noops() {
        let (catalog, reg) = setup();
        create(&reg, &catalog, "pi", None, PathIndexKind::Contraction).unwrap();
        let v = reg.version();
        // Same name again: hard create errors, IF NOT EXISTS is a no-op
        // that leaves the registry version untouched (no plan invalidation).
        assert!(create(&reg, &catalog, "pi", None, PathIndexKind::Contraction).is_err());
        reg.create_index(
            &catalog,
            "PI",
            "roads",
            "a",
            "b",
            None,
            Some(PathIndexKind::Landmarks(2)),
            true,
            1,
        )
        .unwrap();
        assert_eq!(reg.version(), v);
        assert_eq!(reg.index_names(), vec!["pi".to_string()]);
        // IF EXISTS drop of a missing index succeeds without a bump.
        reg.drop_index(IndexFamily::Path, "ghost", true).unwrap();
        assert_eq!(reg.version(), v);
        reg.drop_index(IndexFamily::Path, "pi", true).unwrap();
        assert_eq!(reg.version(), v + 1);
    }

    #[test]
    fn listing_reports_kind_and_freshness() {
        let (catalog, reg) = setup();
        create(&reg, &catalog, "pa", Some("len"), PathIndexKind::Landmarks(2)).unwrap();
        create(&reg, &catalog, "pc", None, PathIndexKind::Contraction).unwrap();
        let rows = reg.list(&catalog);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "pa");
        assert_eq!(rows[0].table, "roads");
        assert_eq!(rows[0].status, "built");
        assert_eq!(rows[1].name, "pc");
        // Under GSQL_PATH_INDEX_KIND both entries may report the forced
        // kind; without it they report their declared kinds.
        if forced_kind().is_none() {
            assert_eq!(rows[0].kind, "landmarks(2)");
            assert_eq!(rows[1].kind, "contraction");
        }
        // Mutating the table flips both to stale; fetching rebuilds one.
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(8), Value::Int(9), Value::Int(1)]))
            .unwrap();
        let rows = reg.list(&catalog);
        assert!(rows.iter().all(|r| r.status == "stale"), "{rows:?}");
        reg.data_by_name(&catalog, "pa", 1).unwrap().unwrap();
        let rows = reg.list(&catalog);
        assert_eq!(rows[0].status, "built");
        assert_eq!(rows[1].status, "stale");
    }

    #[test]
    fn weight_column_must_be_integer() {
        let (catalog, reg) = setup();
        catalog
            .create_table(
                "fe",
                Schema::new(vec![
                    ColumnDef::not_null("s", DataType::Int),
                    ColumnDef::not_null("d", DataType::Int),
                    ColumnDef::not_null("w", DataType::Double),
                ]),
            )
            .unwrap();
        let err = reg
            .create_index(
                &catalog,
                "pi",
                "fe",
                "s",
                "d",
                Some("w"),
                Some(PathIndexKind::Landmarks(2)),
                false,
                1,
            )
            .unwrap_err();
        assert!(err.to_string().contains("INTEGER"), "{err}");
    }

    #[test]
    fn non_positive_weights_rejected_at_build() {
        let (catalog, reg) = setup();
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(9), Value::Int(10), Value::Int(0)]))
            .unwrap();
        for kind in [PathIndexKind::Landmarks(2), PathIndexKind::Contraction] {
            let err = create(&reg, &catalog, "pi", Some("len"), kind).unwrap_err();
            assert!(err.to_string().contains("strictly greater than 0"), "{err}");
        }
    }

    #[test]
    fn version_bumps_on_create_and_drop() {
        let (catalog, reg) = setup();
        assert_eq!(reg.version(), 0);
        create(&reg, &catalog, "pi", None, PathIndexKind::Landmarks(2)).unwrap();
        assert_eq!(reg.version(), 1);
        reg.drop_index(IndexFamily::Path, "pi", false).unwrap();
        assert_eq!(reg.version(), 2);
        create(&reg, &catalog, "pi", None, PathIndexKind::Contraction).unwrap();
        reg.drop_indexes_for_table("roads");
        assert_eq!(reg.version(), 4);
        reg.drop_indexes_for_table("roads");
        assert_eq!(reg.version(), 4);
    }

    // ---- graph-index entries (no accelerator)

    #[test]
    fn graph_entry_returns_the_same_arc_while_the_table_is_unchanged() {
        let (catalog, reg) = setup();
        create_graph(&reg, &catalog, "gi").unwrap();
        let g = reg.graph_by_name(&catalog, "gi", 2).unwrap().unwrap();
        assert_eq!(g.num_edges(), 4);
        let again = reg.graph_by_name(&catalog, "GI", 2).unwrap().unwrap();
        assert!(Arc::ptr_eq(&g, &again));
        // A graph entry carries no accelerator and costs no accelerator build.
        assert!(reg.data_by_name(&catalog, "gi", 2).unwrap().is_none());
        assert_eq!(reg.builds(), 0);
    }

    #[test]
    fn graph_entry_misses_for_other_columns() {
        let (catalog, reg) = setup();
        create_graph(&reg, &catalog, "GI").unwrap();
        let found = reg.find_indexes("ROADS", "A", "B");
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].name.as_str(), found[0].kind), ("gi", None));
        // Reversed direction is a different graph: no index covers it.
        assert!(reg.find_indexes("roads", "b", "a").is_empty());
        assert!(reg.find_indexes("other", "a", "b").is_empty());
    }

    #[test]
    fn graph_entry_rebuilds_after_mutation() {
        let (catalog, reg) = setup();
        create_graph(&reg, &catalog, "gi").unwrap();
        let g1 = reg.graph_by_name(&catalog, "gi", 2).unwrap().unwrap();
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(4), Value::Int(5), Value::Int(2)]))
            .unwrap();
        let g2 = reg.graph_by_name(&catalog, "gi", 2).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&g1, &g2));
        assert_eq!(g2.num_edges(), 5);
        // The rebuilt graph is cached again.
        let g3 = reg.graph_by_name(&catalog, "gi", 2).unwrap().unwrap();
        assert!(Arc::ptr_eq(&g2, &g3));
        // A dropped index yields None (the executor falls back to scanning).
        reg.drop_index(IndexFamily::Graph, "gi", false).unwrap();
        assert!(reg.graph_by_name(&catalog, "gi", 2).unwrap().is_none());
    }

    #[test]
    fn graph_entry_version_bumps_and_validation_errors() {
        let (catalog, reg) = setup();
        let graph = |name: &str, table: &str, src: &str| {
            reg.create_index(&catalog, name, table, src, "b", None, None, false, 1)
        };
        assert!(graph("gi", "nope", "a").is_err());
        assert!(graph("gi", "roads", "zzz").is_err());
        assert_eq!(reg.version(), 0);
        graph("gi", "roads", "a").unwrap();
        assert_eq!(reg.version(), 1);
        // Duplicate names are rejected case-insensitively, before any build
        // (the bad table would otherwise be reported first).
        let err = graph("GI", "nope", "a").unwrap_err();
        assert!(err.to_string().contains("graph index 'GI' already exists"), "{err}");
        assert!(reg.drop_index(IndexFamily::Graph, "missing", false).is_err());
        reg.drop_index(IndexFamily::Graph, "gi", false).unwrap();
        assert_eq!(reg.version(), 2);
        assert!(reg.drop_index(IndexFamily::Graph, "gi", false).is_err());
        assert_eq!(reg.version(), 2);
        assert!(reg.index_names().is_empty());
    }

    #[test]
    fn graph_and_path_families_keep_separate_name_spaces() {
        let (catalog, reg) = setup();
        create_graph(&reg, &catalog, "gi").unwrap();
        create(&reg, &catalog, "gi", None, PathIndexKind::Contraction).unwrap();
        assert_eq!(reg.version(), 2);
        assert_eq!(reg.index_names(), vec!["gi".to_string()]);
        assert_eq!(reg.list(&catalog).len(), 1, "SHOW PATH INDEXES lists the path entry only");
        assert_eq!(reg.builds(), 1, "only the accelerated entry counts as a build");
        reg.drop_index(IndexFamily::Graph, "gi", false).unwrap();
        assert!(reg.graph_by_name(&catalog, "gi", 1).unwrap().is_none());
        assert!(reg.data_by_name(&catalog, "gi", 1).unwrap().is_some());
        // DROP TABLE sweeps both families with a single version bump.
        create_graph(&reg, &catalog, "gi").unwrap();
        reg.drop_indexes_for_table("roads");
        assert_eq!(reg.version(), 5);
        assert!(reg.index_names().is_empty());
    }
}
