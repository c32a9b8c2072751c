//! `road-indexed`: a 100 × 100 weighted grid road network whose graph
//! construction is cached, so accelerated search, the plan cache and
//! matrix parse/bind dominate. `roads` carries a graph index and a
//! `CONTRACTION` path index; an identical copy, `roads_alt`, carries
//! `LANDMARKS(16)`. One in-process session, closed loop, sends prepared CH,
//! ALT and path-returning point statements (the last fall back to Dijkstra
//! over the graph index) and 16 × 16 source × target matrices.

use crate::layers::{
    self, fallback_traversals, settings_text, GraphLayer, StatementLayers, CHECK_THREADS,
    ENGINE_THREADS,
};
use crate::measure::{median, pair, timed, Deck, Kind, Metric, Samples};
use crate::reference::{batch_rows, cost_of, count_wrong, digest, path_of, Check, Pairs, RefGraph};
use crate::{closed_loop, cold_setup, end_to_end, Args, Outcome, Phase};
use gsql_core::{Database, PathIndexData, PreparedStatement, Session};
use gsql_storage::{Table, Value};
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "road-indexed";
const WIDTH: u32 = 100;
const HEIGHT: u32 = 100;
const MAX_MINUTES: i64 = 10;
const MATRIX_SIDE: usize = 16;
/// The grid is fixed; the run's seed drives the schedule.
const GRID_SEED: u64 = 2017;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const CH_POINT: &str =
    "SELECT CHEAPEST SUM(r: minutes) AS cost WHERE ? REACHES ? OVER roads r EDGE (src, dst)";
const ALT_POINT: &str =
    "SELECT CHEAPEST SUM(r: minutes) AS cost WHERE ? REACHES ? OVER roads_alt r EDGE (src, dst)";
const PATH_POINT: &str = "SELECT CHEAPEST SUM(r: minutes) AS (cost, path) \
                          WHERE ? REACHES ? OVER roads r EDGE (src, dst)";

fn matrix_sql(sources: &[i64], targets: &[i64]) -> String {
    let values = |v: &[i64]| v.iter().map(|x| format!("({x})")).collect::<Vec<_>>().join(", ");
    format!(
        "WITH s (v) AS (VALUES {}), t (v) AS (VALUES {}) \
         SELECT s.v, t.v, CHEAPEST SUM(r: minutes) AS cost \
         FROM s, t WHERE s.v REACHES t.v OVER roads r EDGE (src, dst)",
        values(sources),
        values(targets)
    )
}

enum Op {
    Ch(i64, i64),
    Alt(i64, i64),
    Path(i64, i64),
    Matrix(Vec<i64>, Vec<i64>),
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Matrix(..) => Kind::Batch,
            _ => Kind::Point,
        }
    }

    fn pair_count(&self) -> usize {
        match self {
            Op::Matrix(src, dst) => src.len() * dst.len(),
            _ => 1,
        }
    }

    fn pairs(&self) -> Vec<(i64, i64)> {
        match self {
            Op::Ch(s, d) | Op::Alt(s, d) | Op::Path(s, d) => vec![(*s, *d)],
            Op::Matrix(src, dst) => {
                src.iter().flat_map(|&s| dst.iter().map(move |&d| (s, d))).collect()
            }
        }
    }
}

/// The schedule: 30% CH points, 25% ALT points, 20% path-returning
/// points, 25% matrices.
struct Schedule {
    rng: SmallRng,
    deck: Deck<u8>,
}

impl Schedule {
    fn new(seed: u64) -> Schedule {
        let deck = Deck::new(&[(0, 6), (1, 5), (2, 4), (3, 5)]);
        Schedule { rng: SmallRng::seed_from_u64(seed ^ 0x70ad), deck }
    }

    fn next(&mut self) -> Op {
        let n = i64::from(WIDTH * HEIGHT);
        let pick = self.deck.deal(&mut self.rng);
        let rng = &mut self.rng;
        let (s, d) = pair(rng, n);
        match pick {
            0 => Op::Ch(s, d),
            1 => Op::Alt(s, d),
            2 => Op::Path(s, d),
            _ => {
                let side = |rng: &mut SmallRng| -> Vec<i64> {
                    let mut v: Vec<i64> = Vec::with_capacity(MATRIX_SIDE);
                    while v.len() < MATRIX_SIDE {
                        let x = rng.gen_range(1..=n);
                        if !v.contains(&x) {
                            v.push(x);
                        }
                    }
                    v
                };
                Op::Matrix(side(rng), side(rng))
            }
        }
    }
}

fn check_of(op: &Op, t: &Table) -> Check {
    match op {
        Op::Ch(s, d) | Op::Alt(s, d) => {
            Check::Cost { s: *s, d: *d, weighted: true, got: cost_of(t) }
        }
        Op::Path(s, d) => Check::Path { s: *s, d: *d, got: path_of(t) },
        Op::Matrix(src, dst) => Check::Batch {
            pairs: Pairs::Matrix(src.clone(), dst.clone()),
            weighted: true,
            got: digest(batch_rows(t)),
        },
    }
}

struct Statements {
    ch: PreparedStatement,
    alt: PreparedStatement,
    path: PreparedStatement,
}

fn prepare(session: &Session<'_>, settings: &[(String, String)]) -> Statements {
    layers::pin(session, settings);
    Statements {
        ch: session.prepare(CH_POINT).expect("CH point prepares"),
        alt: session.prepare(ALT_POINT).expect("ALT point prepares"),
        path: session.prepare(PATH_POINT).expect("path point prepares"),
    }
}

fn execute(session: &Session<'_>, st: &Statements, op: &Op) -> gsql_core::Result<Arc<Table>> {
    let params = |s: i64, d: i64| [Value::Int(s), Value::Int(d)];
    match op {
        Op::Ch(s, d) => st.ch.query(session, &params(*s, *d)),
        Op::Alt(s, d) => st.alt.query(session, &params(*s, *d)),
        Op::Path(s, d) => st.path.query(session, &params(*s, *d)),
        Op::Matrix(src, dst) => session.query(&matrix_sql(src, dst)),
    }
}

/// One set-up: generate, load, build every index, prepare.
struct Setup {
    db: Database,
    roads: Table,
    total: f64,
    datagen: f64,
    load: f64,
    graph_index: f64,
    ch_build: f64,
    alt_build: f64,
}

fn set_up(settings: &[(String, String)]) -> Setup {
    let t0 = Instant::now();
    let roads = gsql_datagen::road::grid_network(WIDTH, HEIGHT, MAX_MINUTES, GRID_SEED);
    let datagen = t0.elapsed().as_secs_f64();
    let db = Database::new();
    let session = db.session();
    let (_, load) = timed(|| {
        db.catalog().register_table("roads", roads.clone()).expect("register roads");
        db.catalog().register_table("roads_alt", roads.clone()).expect("register roads_alt");
        layers::pin(&session, settings);
    });
    let (_, graph_index) = timed(|| {
        session
            .execute("CREATE GRAPH INDEX roads_graph ON roads EDGE (src, dst)")
            .expect("graph index")
    });
    let (_, ch) = timed(|| {
        session
            .execute("CREATE PATH INDEX roads_ch ON roads EDGE (src, dst) WEIGHT minutes USING CONTRACTION")
            .expect("CH index")
    });
    let (_, alt) = timed(|| {
        session
            .execute(
                "CREATE PATH INDEX roads_lm ON roads_alt EDGE (src, dst) WEIGHT minutes \
                 USING LANDMARKS(16)",
            )
            .expect("ALT index")
    });
    prepare(&session, settings);
    drop(session);
    Setup {
        total: t0.elapsed().as_secs_f64(),
        db,
        roads,
        datagen,
        load: load.as_secs_f64(),
        graph_index: graph_index.as_secs_f64(),
        ch_build: ch.as_secs_f64(),
        alt_build: alt.as_secs_f64(),
    }
}

fn measured_phase(
    session: &Session<'_>,
    st: &Statements,
    schedule: &mut Schedule,
    seconds: f64,
    checks: &mut Vec<Check>,
) -> Phase {
    closed_loop(WORKLOAD, seconds, || {
        let op = schedule.next();
        let (result, latency) = timed(|| execute(session, st, &op));
        let table = result.map_err(|e| e.to_string())?;
        checks.push(check_of(&op, &table));
        Ok((op.kind(), op.pair_count(), latency))
    })
}

pub fn run(args: &Args) -> Outcome {
    let settings = layers::pinned_settings(true, true);
    // Set up SETUPS times, keeping only the last database alive.
    let mut setups: Vec<[f64; 6]> = Vec::new();
    let mut kept = None;
    let mut first_done = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let s = set_up(&settings);
        setups.push([s.total, s.datagen, s.load, s.graph_index, s.ch_build, s.alt_build]);
        kept = Some(s);
        first_done.get_or_insert_with(Instant::now);
    }
    let med = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>()).unwrap();
    let setup_s = med(0);
    let build_metrics = vec![
        Metric::new("setup.datagen_s", "s", med(1)),
        Metric::new("setup.load_s", "s", med(2)),
        Metric::new("setup.graph_index_s", "s", med(3)),
        Metric::new("accel.ch_build_s", "s", med(4)),
        Metric::new("accel.alt_build_s", "s", med(5)),
    ];
    let Setup { db, roads, .. } = kept.expect("a set-up");

    let session = db.session();
    let st = prepare(&session, &settings);
    let mut schedule = Schedule::new(args.seed);
    let mut checks = Vec::new();
    let mut info = vec![
        ("settings".to_string(), settings_text(&settings)),
        (
            "data".to_string(),
            format!("{WIDTH}x{HEIGHT} grid, {} directed roads", roads.row_count()),
        ),
    ];
    let before = session.cache_stats();
    let phase_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let phase = measured_phase(&session, &st, &mut schedule, phase_s, &mut checks);
    let after = session.cache_stats();
    let rss = crate::measure::peak_rss_mb();

    let mut metrics = vec![cold_setup(args, first_done.expect("a set-up"))];
    let (mut traced_ops, mut traced_failed) = (0, 0);
    if args.trace {
        let hits = (after.hits - before.hits) as f64;
        let lookups = hits + (after.misses - before.misses) as f64;
        metrics.push(Metric::new("session.plan_cache_hit_ratio", "ratio", hits / lookups.max(1.0)));
        metrics.extend(build_metrics);
        let (layer_metrics, sampled, sample_failures) = traced_phase(
            &db,
            &session,
            &st,
            &settings,
            &mut schedule,
            args.seconds / 2.0,
            &mut checks,
        );
        metrics.extend(layer_metrics);
        traced_ops = sampled;
        traced_failed = sample_failures;
    }
    let ints = |c: usize| roads.column(c).as_int_slice().expect("int column").0.to_vec();
    let reference = RefGraph::new(ints(0), ints(1), Some(ints(2)));
    let wrong = count_wrong(&reference, &checks, CHECK_THREADS);
    let attempted = phase.ops() + phase.failed + traced_ops;
    let failed = phase.failed + traced_failed + wrong;
    info.push(("checks".to_string(), format!("{} answers, {wrong} wrong", checks.len())));
    let mut all = end_to_end(WORKLOAD, setup_s, &phase, attempted, failed, rss, &mut info);
    all.extend(metrics);
    Outcome { attempted, failed, correct: wrong == 0 && attempted > 0, metrics: all, info }
}

/// Time of one accelerated search tier, and the vertices it settled.
#[derive(Default)]
struct AccelTier {
    search_us: Samples,
    settled: u64,
    pairs: u64,
}

impl AccelTier {
    fn metrics(&self, name: &str, out: &mut Vec<Metric>) {
        out.push(Metric::new(
            format!("accel.{name}.search_us"),
            "us",
            self.search_us.mean().unwrap_or(0.0),
        ));
        out.push(Metric::new(
            format!("accel.{name}.settled_per_pair"),
            "count",
            self.settled as f64 / self.pairs.max(1) as f64,
        ));
    }
}

fn dense(index: &PathIndexData, v: i64) -> u32 {
    index.graph.lookup(&Value::Int(v)).expect("grid vertex")
}

#[allow(clippy::too_many_arguments)]
fn traced_phase(
    db: &Database,
    session: &Session<'_>,
    st: &Statements,
    settings: &[(String, String)],
    schedule: &mut Schedule,
    seconds: f64,
    checks: &mut Vec<Check>,
) -> (Vec<Metric>, u64, u64) {
    let ss = layers::session_settings(settings);
    let plans = [CH_POINT, ALT_POINT, PATH_POINT].map(|sql| layers::prepare_plan(db, &ss, sql));
    let index = |name: &str| {
        db.path_indexes()
            .data_by_name(db.catalog(), name, ENGINE_THREADS)
            .expect("index")
            .expect("exists")
    };
    let (ch_index, alt_index) = (index("roads_ch"), index("roads_lm"));
    // The graph the path-returning fallback reads: the cached graph index,
    // which nothing rebuilds during the run.
    let indexed = db
        .graph_indexes()
        .graph_by_name(db.catalog(), "roads_graph", ENGINE_THREADS)
        .expect("graph index")
        .expect("exists");
    let minutes = indexed.edges.column(2).as_int_slice().expect("minutes").0.to_vec();
    let mut statements = StatementLayers::default();
    let mut graph = GraphLayer::default();
    let (mut ch, mut alt, mut m2m) =
        (AccelTier::default(), AccelTier::default(), AccelTier::default());
    let (mut points, mut fallbacks, mut sampled, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let op = schedule.next();
        sampled += 1;
        let real = || {
            let before = fallback_traversals(db);
            let (r, t) = timed(|| execute(session, st, &op));
            (r, t, fallback_traversals(db) > before)
        };
        let decomposed = || match &op {
            Op::Ch(s, d) | Op::Alt(s, d) | Op::Path(s, d) => {
                let plan = match op {
                    Op::Ch(..) => &plans[0],
                    Op::Alt(..) => &plans[1],
                    _ => &plans[2],
                };
                layers::run_prepared(db, &ss, plan, &[Value::Int(*s), Value::Int(*d)], false)
            }
            Op::Matrix(src, dst) => layers::run_fresh(db, &ss, &matrix_sql(src, dst), &[], false),
        };
        let ((real, real_t, fell_back), d) = layers::alternate(sampled, real, decomposed);
        let (real, d) = match (real, d) {
            (Ok(real), Ok(d)) => (real, d),
            (real, d) => {
                let why = real.err().or(d.err()).expect("one run failed");
                eprintln!("{WORKLOAD}: sampled operation failed: {why}");
                failed += 1;
                continue;
            }
        };
        checks.push(check_of(&op, &real));
        if op.kind() == Kind::Point {
            points += 1;
            fallbacks += u64::from(fell_back);
        }
        checks.push(check_of(&op, &d.table));
        statements.record(op.kind(), &d, real_t, real_t, op.kind() == Kind::Point);
        // The graph is cached, so no operation builds one; only those that
        // fell back to Dijkstra traverse it.
        if fell_back {
            graph.traverse(&indexed, &op.pairs(), Some(&minutes));
        }
        // The accelerated tiers, called directly; their answers join the
        // reference check, so CH, ALT and the Dijkstra fallback must agree.
        match &op {
            Op::Ch(s, d) | Op::Alt(s, d) => {
                let (index, tier) = if matches!(op, Op::Ch(..)) {
                    (&ch_index, &mut ch)
                } else {
                    (&alt_index, &mut alt)
                };
                let ((cost, settled), t) =
                    timed(|| index.search(dense(index, *s), dense(index, *d)));
                tier.search_us.push_us(t);
                tier.settled += settled as u64;
                tier.pairs += 1;
                checks.push(Check::Cost {
                    s: *s,
                    d: *d,
                    weighted: true,
                    got: cost.map(|c| c as i64),
                });
            }
            Op::Path(s, d) => {
                for index in [&ch_index, &alt_index] {
                    let (cost, _) = index.search(dense(index, *s), dense(index, *d));
                    checks.push(Check::Cost {
                        s: *s,
                        d: *d,
                        weighted: true,
                        got: cost.map(|c| c as i64),
                    });
                }
            }
            Op::Matrix(src, dst) => {
                let pairs = op.pairs();
                let ids: Vec<(u32, u32)> = pairs
                    .iter()
                    .map(|&(s, d)| (dense(&ch_index, s), dense(&ch_index, d)))
                    .collect();
                let (batch, t) = timed(|| ch_index.search_batch(&ids, ENGINE_THREADS, None));
                let batch = batch.expect("no deadline");
                m2m.search_us.push_us(t);
                m2m.settled += batch.settled as u64;
                m2m.pairs += pairs.len() as u64;
                let got = pairs
                    .iter()
                    .zip(&batch.dist)
                    .filter_map(|(&(s, d), c)| c.map(|c| (s, d, c as i64)))
                    .collect();
                checks.push(Check::Batch {
                    pairs: Pairs::Matrix(src.clone(), dst.clone()),
                    weighted: true,
                    got: digest(got),
                });
            }
        }
    }
    let mut out = Vec::new();
    statements.metrics(&mut out);
    graph.metrics(&mut out);
    ch.metrics("ch", &mut out);
    alt.metrics("alt", &mut out);
    m2m.metrics("ch-m2m", &mut out);
    out.push(Metric::new("accel.fallback_share", "ratio", fallbacks as f64 / points.max(1) as f64));
    (out, sampled, failed)
}
