//! `snb-serve-rw`: SNB SF 0.3 in a durable database, served over HTTP by
//! `gsql-server` (2 workers) to two closed-loop client connections. The
//! base tables are checkpointed in set-up and reopened, so `setup_s`
//! includes recovery. `friends` has a graph index. Reads are Q13 points,
//! 8-pair batched Q13 and an IS3-style friends-of-person lookup; one
//! client also sends a literal single-row `INSERT` about every 5th
//! operation and a `CHECKPOINT` every 100 writes. The engine's only flush
//! policy applies: every WAL append is fsynced.
//!
//! Each insert adds a friendship from an existing person to a fresh id
//! that is not a person, so no read answer depends on how reads and
//! writes interleave: every read is checked exactly against the base
//! graph, and the reopened directory must hold the base rows plus every
//! acknowledged insert.

use crate::layers::{
    self, fallback_traversals, settings_text, GraphLayer, StatementLayers, CHECK_THREADS,
    ENGINE_THREADS,
};
use crate::measure::{dir_bytes, median, pair, timed, us, Deck, Kind, Metric, Samples};
use crate::reference::{cost_of, count_wrong, digest, int, Check, Pairs};
use crate::snb_adhoc::SnbEdges;
use crate::{cold_setup, end_to_end, Args, Outcome, Phase};
use gsql_bench::queries::{batched_q13, Q13};
use gsql_core::Database;
use gsql_datagen::{SnbDataset, SnbParams};
use gsql_server::json::{self, Json};
use gsql_server::{client, serve, ServerConfig, ServerHandle};
use gsql_storage::Value;
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "snb-serve-rw";
const SCALE_FACTOR: f64 = 0.3;
const BATCH_PAIRS: usize = 8;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const WRITE_EVERY: u64 = 5;
const CHECKPOINT_EVERY: u64 = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Durable databases live under the checkout, one directory per set-up.
const DATA_ROOT: &str = ".perfbench_data";

const REL: &str = "SELECT p.id, p.firstName, p.lastName FROM friends f \
                   JOIN persons p ON f.dst = p.id WHERE f.src = ? ORDER BY p.id";

enum Op {
    Point(i64, i64),
    Batch(Vec<(i64, i64)>),
    Rel(i64),
    /// Insert `src → dst` (`dst` is a fresh non-person id).
    Write(i64, i64),
    Checkpoint,
}

impl Op {
    fn kind(&self) -> Option<Kind> {
        match self {
            Op::Point(..) => Some(Kind::Point),
            Op::Batch(_) => Some(Kind::Batch),
            Op::Rel(_) => Some(Kind::Rel),
            Op::Write(..) => Some(Kind::Write),
            Op::Checkpoint => None,
        }
    }

    fn pairs(&self) -> Vec<(i64, i64)> {
        match self {
            Op::Point(s, d) => vec![(*s, *d)],
            Op::Batch(p) => p.clone(),
            _ => Vec::new(),
        }
    }

    /// The SQL text and parameters the client sends.
    fn request(&self) -> (String, Vec<i64>) {
        match self {
            Op::Point(s, d) => (Q13.to_string(), vec![*s, *d]),
            Op::Batch(p) => (batched_q13(p), Vec::new()),
            Op::Rel(s) => (REL.to_string(), vec![*s]),
            Op::Write(s, d) => (insert_sql(*s, *d), Vec::new()),
            Op::Checkpoint => ("CHECKPOINT".to_string(), Vec::new()),
        }
    }
}

/// Literal `INSERT` text: parameterized `INSERT` fails today with a
/// `TypeMismatch` storage error, so the writer inlines its values.
fn insert_sql(src: i64, dst: i64) -> String {
    format!("INSERT INTO friends VALUES ({src}, {dst}, DATE '2012-06-01', 1.5)")
}

/// The read mix: 60% points, 25% batches, 15% relational lookups.
fn read_op(rng: &mut SmallRng, deck: &mut Deck<u8>, n: i64) -> Op {
    match deck.deal(rng) {
        0 => {
            let (s, d) = pair(rng, n);
            Op::Point(s, d)
        }
        1 => Op::Batch((0..BATCH_PAIRS).map(|_| pair(rng, n)).collect()),
        _ => Op::Rel(rng.gen_range(1..=n)),
    }
}

/// Schedules operations for one client: reads, plus (on the writer) an
/// insert every WRITE_EVERY operations and a checkpoint every
/// CHECKPOINT_EVERY inserts.
struct Schedule {
    rng: SmallRng,
    deck: Deck<u8>,
    n: i64,
    writer: bool,
    issued: u64,
    writes: u64,
    checkpoint_due: bool,
    /// Next fresh (non-person) destination id.
    next_fresh: i64,
}

impl Schedule {
    fn new(seed: u64, client: usize, n: i64, writer: bool, next_fresh: i64) -> Schedule {
        let rng = SmallRng::seed_from_u64(seed ^ (0x5e77e + client as u64 * 0x9e37_79b9));
        let deck = Deck::new(&[(0, 12), (1, 5), (2, 3)]);
        Schedule { rng, deck, n, writer, issued: 0, writes: 0, checkpoint_due: false, next_fresh }
    }

    fn next(&mut self) -> Op {
        if std::mem::take(&mut self.checkpoint_due) {
            return Op::Checkpoint;
        }
        self.issued += 1;
        if self.writer && self.issued.is_multiple_of(WRITE_EVERY) {
            self.writes += 1;
            self.checkpoint_due = self.writes.is_multiple_of(CHECKPOINT_EVERY);
            self.next_fresh += 1;
            return Op::Write(self.rng.gen_range(1..=self.n), self.next_fresh);
        }
        read_op(&mut self.rng, &mut self.deck, self.n)
    }
}

/// Everything the reference needs about the base data.
struct Base {
    n: i64,
    edges: SnbEdges,
    /// Person id → (firstName, lastName).
    names: HashMap<i64, (String, String)>,
    /// Source → sorted destinations.
    out: HashMap<i64, Vec<i64>>,
    /// Logical bytes of the base rows.
    user_bytes: u64,
}

impl Base {
    fn of(data: &SnbDataset) -> Base {
        let edges = SnbEdges::of(data);
        let p = &data.persons;
        let ids = p.column(0).as_int_slice().expect("ids").0;
        let text = |c: usize| p.column(c).as_str_slice().expect("text").0;
        let (first, last, gender) = (text(1), text(2), text(3));
        let names = (0..ids.len()).map(|i| (ids[i], (first[i].clone(), last[i].clone()))).collect();
        let mut out: HashMap<i64, Vec<i64>> = HashMap::new();
        for (&s, &d) in edges.src.iter().zip(&edges.dst) {
            out.entry(s).or_default().push(d);
        }
        for v in out.values_mut() {
            v.sort_unstable();
        }
        // INTEGER and DOUBLE are 8 bytes, DATE 4, VARCHAR its UTF-8 length.
        let person_bytes: usize =
            (0..ids.len()).map(|i| 8 + first[i].len() + last[i].len() + gender[i].len() + 4).sum();
        let user_bytes = (person_bytes + edges.src.len() * FRIEND_ROW_BYTES) as u64;
        Base { n: data.num_persons as i64, edges, names, out, user_bytes }
    }

    /// The expected IS3 rows of `src`: `(id, firstName, lastName)` by id.
    fn rel_rows(&self, src: i64) -> Vec<PersonRow> {
        let dsts = self.out.get(&src).map(Vec::as_slice).unwrap_or(&[]);
        dsts.iter()
            .map(|d| {
                let (f, l) = &self.names[d];
                (*d, f.clone(), l.clone())
            })
            .collect()
    }
}

/// One IS3 answer row: `(id, firstName, lastName)`.
type PersonRow = (i64, String, String);

/// Logical bytes of one `friends` row (src, dst, creationDate, weight).
const FRIEND_ROW_BYTES: usize = 8 + 8 + 4 + 8;

/// What one client (or the traced phase) saw.
#[derive(Default)]
struct Seen {
    phase: Phase,
    checks: Vec<Check>,
    /// (src, rows) of every relational answer.
    rel: Vec<(i64, Vec<PersonRow>)>,
    /// Inserts the server acknowledged.
    acked: Vec<(i64, i64)>,
    checkpoint_ms: Samples,
    /// Client-observed latency of every completed request, microseconds.
    client_us: f64,
}

fn request_body(sql: &str, params: &[i64]) -> String {
    Json::Object(vec![
        ("sql".to_string(), Json::from(sql)),
        ("params".to_string(), Json::Array(params.iter().map(|&p| Json::Int(p)).collect())),
    ])
    .encode()
}

fn rows_of(doc: &Json) -> Option<&[Json]> {
    doc.get("rows").and_then(Json::as_array)
}

fn int_rows(doc: &Json, width: usize) -> Option<Vec<Vec<i64>>> {
    rows_of(doc)?
        .iter()
        .map(|r| {
            let r = r.as_array()?;
            (r.len() == width).then(|| r.iter().map(Json::as_i64).collect::<Option<Vec<_>>>())?
        })
        .collect()
}

/// Send one operation and turn a 200 answer into its checks. `Err` carries
/// a description of a failed request (a refused one is HTTP 503).
fn send(addr: SocketAddr, op: &Op, seen: &mut Seen) -> Result<(), String> {
    let (sql, params) = op.request();
    let t0 = Instant::now();
    let resp = client::post(addr, "/query", &request_body(&sql, &params))
        .map_err(|e| format!("transport: {e}"))?;
    let latency = t0.elapsed();
    if resp.status != 200 {
        return Err(format!("HTTP {}: {}", resp.status, resp.body));
    }
    let doc = json::parse(&resp.body).map_err(|e| format!("bad JSON: {e:?}"))?;
    let malformed = || format!("unexpected answer: {}", resp.body);
    match op {
        Op::Point(s, d) => {
            let rows = int_rows(&doc, 1).ok_or_else(malformed)?;
            seen.checks.push(Check::Cost {
                s: *s,
                d: *d,
                weighted: false,
                got: rows.first().map(|r| r[0]),
            });
        }
        Op::Batch(pairs) => {
            let rows = int_rows(&doc, 3).ok_or_else(malformed)?;
            let got = rows.iter().map(|r| (r[0], r[1], r[2])).collect();
            let pairs = Pairs::List(pairs.clone());
            seen.checks.push(Check::Batch { pairs, weighted: false, got: digest(got) });
        }
        Op::Rel(s) => {
            let rows = rows_of(&doc).ok_or_else(malformed)?;
            let parsed: Option<Vec<PersonRow>> = rows
                .iter()
                .map(|r| {
                    let r = r.as_array()?;
                    Some((
                        r.first()?.as_i64()?,
                        r.get(1)?.as_str()?.to_string(),
                        r.get(2)?.as_str()?.to_string(),
                    ))
                })
                .collect();
            seen.rel.push((*s, parsed.ok_or_else(malformed)?));
        }
        Op::Write(s, d) => {
            if doc.get("affected").and_then(Json::as_i64) != Some(1) {
                return Err(malformed());
            }
            seen.acked.push((*s, *d));
        }
        Op::Checkpoint => {
            seen.checkpoint_ms.push(latency);
            seen.client_us += us(latency);
            seen.phase.record(None, latency, 0);
            return Ok(());
        }
    }
    seen.client_us += us(latency);
    seen.phase.record(op.kind(), latency, op.pairs().len());
    Ok(())
}

/// One closed-loop client until `deadline`.
fn client_loop(
    addr: SocketAddr,
    mut schedule: Schedule,
    start: Instant,
    deadline: Instant,
) -> Seen {
    let mut seen = Seen::default();
    while Instant::now() < deadline {
        let op = schedule.next();
        if let Err(why) = send(addr, &op, &mut seen) {
            eprintln!("{WORKLOAD}: operation failed: {why}");
            seen.phase.failed += 1;
        }
    }
    seen.phase.elapsed = start.elapsed();
    seen
}

/// One set-up: generate, open a fresh durable directory, load, index,
/// checkpoint, close, reopen (recovery) and start serving.
struct Setup {
    db: Arc<Database>,
    server: ServerHandle,
    dir: PathBuf,
    /// total, datagen, load, graph index, checkpoint, reopen (seconds).
    times: [f64; 6],
}

fn set_up(rep: usize, settings: &[(String, String)]) -> (Setup, SnbDataset) {
    let t0 = Instant::now();
    // The dataset is the canonical SF 0.3 graph; the seed drives the schedule.
    let data = SnbDataset::generate(SnbParams::new(SCALE_FACTOR));
    let datagen = t0.elapsed();
    let dir = Path::new(DATA_ROOT).join(format!("{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("data directory");
    let db = Database::open(&dir).expect("durable open");
    let session = db.session();
    let (_, load) = timed(|| {
        data.load_into(&db).expect("load base tables");
        layers::pin(&session, settings);
    });
    let (_, graph_index) = timed(|| {
        session
            .execute("CREATE GRAPH INDEX friends_graph ON friends EDGE (src, dst)")
            .expect("graph index")
    });
    drop(session);
    let (_, checkpoint) = timed(|| db.checkpoint().expect("checkpoint"));
    drop(db);
    let (db, open) = timed(|| Database::open(&dir).expect("reopen"));
    let db = Arc::new(db);
    let config = ServerConfig {
        workers: WORKERS,
        queue_depth: 64,
        settings: settings.to_vec(),
        ..ServerConfig::default()
    };
    let server = serve(Arc::clone(&db), config).expect("server starts");
    let times =
        [t0.elapsed(), datagen, load, graph_index, checkpoint, open].map(|d| d.as_secs_f64());
    (Setup { db, server, dir, times }, data)
}

/// Exact deltas of `/metrics` samples over the measured phase.
struct Exposition(HashMap<String, f64>);

impl Exposition {
    fn fetch(addr: SocketAddr) -> Exposition {
        let body = client::get(addr, "/metrics").map(|r| r.body).unwrap_or_default();
        let mut map: HashMap<String, f64> = HashMap::new();
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            // Sum across label sets: the benchmark reads family totals.
            let family = name.split('{').next().unwrap_or(name).to_string();
            *map.entry(family).or_default() += value;
        }
        Exposition(map)
    }

    fn delta(&self, before: &Exposition, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0) - before.0.get(name).copied().unwrap_or(0.0)
    }

    /// Exact mean of a histogram over the interval, from `_sum` / `_count`.
    fn mean(&self, before: &Exposition, name: &str) -> f64 {
        let count = self.delta(before, &format!("{name}_count"));
        self.delta(before, &format!("{name}_sum")) / count.max(1.0)
    }
}

pub fn run(args: &Args) -> Outcome {
    let settings = layers::pinned_settings(true, false);
    let mut times = Vec::new();
    let mut kept: Option<(Setup, SnbDataset)> = None;
    let mut first_done = None;
    for rep in 0..SETUPS {
        if let Some((old, _)) = kept.take() {
            old.server.shutdown();
            drop(old.db);
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let (setup, data) = set_up(rep, &settings);
        times.push(setup.times);
        kept = Some((setup, data));
        first_done.get_or_insert_with(Instant::now);
    }
    let med = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>()).unwrap();
    let (Setup { db, server, dir, .. }, data) = kept.expect("a set-up");
    let base = Base::of(&data);
    drop(data);
    let addr = server.addr();
    let mut info = vec![
        ("settings".to_string(), settings_text(&settings)),
        ("flush_policy".to_string(), "fsync per WAL append".to_string()),
        ("clients".to_string(), format!("{CLIENTS} closed-loop, {WORKERS} server workers")),
        (
            "data".to_string(),
            format!("SNB SF {SCALE_FACTOR}: {} persons, {} edges", base.n, base.edges.src.len()),
        ),
    ];

    let phase_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let before = Exposition::fetch(addr);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase_s);
    let mut seen = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let schedule = Schedule::new(args.seed, c, base.n, c == 0, base.n);
                scope.spawn(move || client_loop(addr, schedule, start, deadline))
            })
            .collect();
        let mut all = Seen::default();
        for h in handles {
            let s = h.join().expect("client thread");
            all.phase.merge(s.phase);
            all.checks.extend(s.checks);
            all.rel.extend(s.rel);
            all.acked.extend(s.acked);
            all.checkpoint_ms.extend(s.checkpoint_ms);
            all.client_us += s.client_us;
        }
        all
    });
    let after = Exposition::fetch(addr);
    let rss = crate::measure::peak_rss_mb();
    let phase = std::mem::take(&mut seen.phase);
    let mut attempted = phase.ops() + phase.failed;
    let mut traced_failed = 0;
    let mut metrics = vec![
        cold_setup(args, first_done.expect("a set-up")),
        Metric::new("setup.graph_index_s", "s", med(3)),
        Metric::new("setup.checkpoint_s", "s", med(4)),
        Metric::new("storage.open_s", "s", med(5)),
    ];

    if args.trace {
        let hits = after.delta(&before, "gsql_plan_cache_hits_total");
        let lookups = hits + after.delta(&before, "gsql_plan_cache_misses_total");
        metrics.push(Metric::new("session.plan_cache_hit_ratio", "ratio", hits / lookups.max(1.0)));
        metrics.push(Metric::new("setup.datagen_s", "s", med(1)));
        metrics.push(Metric::new("setup.load_s", "s", med(2)));
        let appends = after.delta(&before, "gsql_wal_appends_total");
        let wal_bytes = after.delta(&before, "gsql_wal_bytes_total");
        metrics.push(Metric::new("storage.wal_bytes_per_write", "B", wal_bytes / appends.max(1.0)));
        metrics.push(Metric::new(
            "server.queue_wait_us",
            "us",
            after.mean(&before, "gsql_http_queue_wait_microseconds"),
        ));
        let engine_us = after.mean(&before, "gsql_query_duration_microseconds");
        let client_us = seen.client_us / phase.ops().max(1) as f64;
        metrics.push(Metric::new("server.overhead_us", "us", client_us - engine_us));
        metrics.push(Metric::new(
            "server.refused",
            "count",
            after.delta(&before, "gsql_http_refused_total"),
        ));
        let (layer_metrics, sampled, sample_failures) =
            traced_phase(&db, addr, &settings, &base, args, &mut seen);
        attempted += sampled;
        traced_failed = sample_failures;
        metrics.extend(layer_metrics);
    }

    // Durable check: stop serving, reopen the directory, and require the
    // base rows plus every acknowledged insert, and correct reads.
    let report = server.shutdown();
    let mut durable_ok = report.dropped() == 0;
    drop(db);
    let (reopened_ok, reopen_checks) = reopen_check(&dir, &base, &seen.acked, args.seed);
    durable_ok &= reopened_ok;
    seen.checks.extend(reopen_checks);
    let store_bytes = dir_bytes(&dir) as f64;
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(DATA_ROOT);

    let reference = base.edges.reference();
    let mut wrong = count_wrong(&reference, &seen.checks, CHECK_THREADS);
    wrong += seen.rel.iter().filter(|(s, rows)| *rows != base.rel_rows(*s)).count() as u64;
    let failed = phase.failed + traced_failed + wrong;
    info.push((
        "checks".to_string(),
        format!(
            "{} answers, {wrong} wrong; {} acknowledged inserts; reopen check {}",
            seen.checks.len() + seen.rel.len(),
            seen.acked.len(),
            if durable_ok { "passed" } else { "FAILED" }
        ),
    ));
    let mut all = end_to_end(WORKLOAD, med(0), &phase, attempted, failed, rss, &mut info);
    let user_bytes = base.user_bytes + (seen.acked.len() * FRIEND_ROW_BYTES) as u64;
    all.push(Metric::new("store_bytes_per_user_byte", "ratio", store_bytes / user_bytes as f64));
    if let Some(ms) = seen.checkpoint_ms.quantile(0.5) {
        info.push((
            "checkpoints".to_string(),
            format!("{} in the measured phase, median {ms:.1} ms", seen.checkpoint_ms.len()),
        ));
    }
    all.extend(metrics);
    Outcome {
        attempted,
        failed,
        correct: wrong == 0 && durable_ok && attempted > 0,
        metrics: all,
        info,
    }
}

/// Reopen the data directory: `friends` must hold exactly the base rows
/// plus every acknowledged insert, and path reads must still answer.
fn reopen_check(dir: &Path, base: &Base, acked: &[(i64, i64)], seed: u64) -> (bool, Vec<Check>) {
    let db = match Database::open(dir) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("{WORKLOAD}: reopen failed: {e}");
            return (false, Vec::new());
        }
    };
    let session = db.session();
    let count = session.query("SELECT COUNT(*) FROM friends").map(|t| t.row(0)[0].clone());
    let expected_rows = (base.edges.src.len() + acked.len()) as i64;
    let mut ok = matches!(count, Ok(Value::Int(c)) if c == expected_rows);
    let fresh = session.query_with_params(
        "SELECT src, dst FROM friends WHERE dst > ? ORDER BY dst",
        &[Value::Int(base.n)],
    );
    let mut want = acked.to_vec();
    want.sort_by_key(|&(_, d)| d);
    ok &= match fresh {
        Ok(t) => {
            let got: Vec<(i64, i64)> = (0..t.row_count())
                .map(|i| {
                    let r = t.row(i);
                    (int(&r[0]), int(&r[1]))
                })
                .collect();
            got == want
        }
        Err(_) => false,
    };
    if !ok {
        eprintln!(
            "{WORKLOAD}: reopened friends table does not match base rows + acknowledged inserts"
        );
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x2e0);
    let mut checks = Vec::new();
    for _ in 0..16 {
        let (s, d) = pair(&mut rng, base.n);
        match session.query_with_params(Q13, &[Value::Int(s), Value::Int(d)]) {
            Ok(t) => checks.push(Check::Cost { s, d, weighted: false, got: cost_of(&t) }),
            Err(e) => {
                eprintln!("{WORKLOAD}: read after reopen failed: {e}");
                ok = false;
            }
        }
    }
    (ok, checks)
}

/// Sample operations one at a time (the server otherwise idle) and drive
/// each through the layers, next to its real HTTP execution and an
/// untraced in-process execution.
fn traced_phase(
    db: &Arc<Database>,
    addr: SocketAddr,
    settings: &[(String, String)],
    base: &Base,
    args: &Args,
    seen: &mut Seen,
) -> (Vec<Metric>, u64, u64) {
    let ss = layers::session_settings(settings);
    let session = db.shared_session();
    layers::pin(&session, settings);
    let q13_plan = layers::prepare_plan(db, &ss, Q13);
    let rel_plan = layers::prepare_plan(db, &ss, REL);
    // Continue the writer's fresh ids past the measured phase.
    let fresh = seen.acked.iter().map(|&(_, d)| d).max().unwrap_or(base.n) + 1_000_000;
    let mut schedule = Schedule::new(args.seed ^ 0x77ace, 0, base.n, true, fresh);
    // In-process inserts take ids from a range of their own.
    let mut local_fresh = fresh + 1_000_000;
    let mut statements = StatementLayers::default();
    let mut graph = GraphLayer::default();
    let mut examined = (0usize, 0usize);
    let (mut points, mut fallbacks, mut sampled, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut graph_stale = false;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    while Instant::now() < deadline {
        let op = schedule.next();
        sampled += 1;
        let (sql, params) = op.request();
        let params: Vec<Value> = params.into_iter().map(Value::Int).collect();
        match &op {
            Op::Point(..) | Op::Batch(_) | Op::Rel(_) => {
                let kind = op.kind().expect("typed");
                if std::mem::take(&mut graph_stale) {
                    // The first path read after an insert rebuilds the graph
                    // index the insert invalidated. Time that build on its
                    // own (exec.graph_build_us), then let an untimed read
                    // rebuild the index, so the three runs below see one
                    // state.
                    let friends = db.catalog().get("friends").expect("friends");
                    drop(graph.build(friends));
                    let warm = [Value::Int(1), Value::Int(2)];
                    if let Err(e) = session.query_with_params(Q13, &warm) {
                        eprintln!("{WORKLOAD}: warm-up read failed: {e}");
                    }
                }
                let real = || {
                    let before = fallback_traversals(db);
                    let (sent, t) = timed(|| send(addr, &op, seen));
                    (sent, t, fallback_traversals(db) > before)
                };
                let in_process = || timed(|| session.query_with_params(&sql, &params));
                let decomposed = || match &op {
                    Op::Point(..) => {
                        layers::run_cached_text(db, &ss, &sql, &q13_plan, &params, false)
                    }
                    Op::Rel(_) => layers::run_cached_text(db, &ss, &sql, &rel_plan, &params, true),
                    _ => layers::run_fresh(db, &ss, &sql, &params, false),
                };
                let ((sent, real_t, fell_back), (r, in_process_t), d) =
                    layers::rotate(sampled, real, in_process, decomposed);
                let failure = match (sent, r, d) {
                    (Ok(()), Ok(_), Ok(d)) => Ok(d),
                    (Err(why), _, _) => Err(why),
                    (_, Err(e), _) | (_, _, Err(e)) => Err(e.to_string()),
                };
                let d = match failure {
                    Ok(d) => d,
                    Err(why) => {
                        eprintln!("{WORKLOAD}: sampled operation failed: {why}");
                        failed += 1;
                        continue;
                    }
                };
                if let Op::Rel(_) = op {
                    examined.0 += d.operator_rows;
                    examined.1 += d.table.row_count();
                }
                if let Op::Point(s, t) = &op {
                    let got = cost_of(&d.table);
                    seen.checks.push(Check::Cost { s: *s, d: *t, weighted: false, got });
                    points += 1;
                    fallbacks += u64::from(fell_back);
                }
                statements.record(kind, &d, real_t, in_process_t, !matches!(op, Op::Batch(_)));
                if fell_back {
                    // Q13 is unweighted: hop counts over the indexed graph.
                    let indexed = db.graph_indexes().graph_by_name(
                        db.catalog(),
                        "friends_graph",
                        ENGINE_THREADS,
                    );
                    if let Ok(Some(g)) = indexed {
                        graph.traverse(&g, &op.pairs(), None);
                    }
                }
            }
            Op::Write(s, _) => {
                let (sent, real) = timed(|| send(addr, &op, seen));
                if let Err(why) = sent {
                    eprintln!("{WORKLOAD}: sampled operation failed: {why}");
                    failed += 1;
                    continue;
                }
                // The same kind of insert in process: its parse share, then
                // the statement (apply + WAL append + fsync).
                local_fresh += 1;
                let sql = insert_sql(*s, local_fresh);
                let (_, parse) =
                    timed(|| gsql_parser::parse_statement(&sql).expect("insert parses"));
                let (r, exec) = timed(|| session.execute(&sql));
                if let Err(e) = r {
                    eprintln!("{WORKLOAD}: in-process insert failed: {e}");
                    failed += 1;
                    continue;
                }
                seen.acked.push((*s, local_fresh));
                graph_stale = true;
                statements.record_write(parse, exec.saturating_sub(parse), real);
            }
            Op::Checkpoint => {
                if let Err(why) = send(addr, &op, seen) {
                    eprintln!("{WORKLOAD}: sampled checkpoint failed: {why}");
                    failed += 1;
                }
            }
        }
    }
    let mut checkpoints = Vec::new();
    for _ in 0..3 {
        match timed(|| db.checkpoint()) {
            (Ok(_), t) => checkpoints.push(t.as_secs_f64() * 1e3),
            (Err(e), _) => {
                eprintln!("{WORKLOAD}: checkpoint failed: {e}");
                failed += 1;
            }
        }
    }
    let mut out = Vec::new();
    statements.metrics(&mut out);
    graph.metrics(&mut out);
    out.push(Metric::new("accel.fallback_share", "ratio", fallbacks as f64 / points.max(1) as f64));
    out.push(Metric::new(
        "exec.rows_examined_per_row",
        "ratio",
        examined.0 as f64 / examined.1.max(1) as f64,
    ));
    out.push(Metric::new("storage.checkpoint_ms", "ms", median(&checkpoints).unwrap_or(0.0)));
    (out, sampled, failed)
}
