//! `snb-adhoc`: the paper's Fig. 1a/1b shape. SNB SF 1 with no graph or
//! path index, so every `CHEAPEST SUM` statement builds its graph (vertex
//! dictionary, CSR, weight permutation) from the edge table. One
//! in-process session, closed loop, sends prepared Q13 and Q14-variant
//! point statements and 64-pair batched Q13 statements as fresh SQL text.

use crate::layers::{
    self, fallback_traversals, settings_text, GraphLayer, StatementLayers, CHECK_THREADS,
};
use crate::measure::{median, pair, timed, Deck, Kind, Metric};
use crate::reference::{batch_rows, cost_of, count_wrong, digest, path_of, Check, Pairs, RefGraph};
use crate::{closed_loop, cold_setup, end_to_end, Args, Outcome, Phase};
use gsql_bench::queries::{batched_q13, Q13, Q14_VARIANT};
use gsql_core::{Database, PreparedStatement, Session};
use gsql_datagen::{SnbDataset, SnbParams};
use gsql_storage::{Table, Value};
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "snb-adhoc";
const SCALE_FACTOR: f64 = 1.0;
const BATCH_PAIRS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// One operation of the schedule.
pub enum Op {
    Q13(i64, i64),
    Q14(i64, i64),
    Batch(Vec<(i64, i64)>),
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Q13(..) | Op::Q14(..) => Kind::Point,
            Op::Batch(_) => Kind::Batch,
        }
    }

    fn pairs(&self) -> Vec<(i64, i64)> {
        match self {
            Op::Q13(s, d) | Op::Q14(s, d) => vec![(*s, *d)],
            Op::Batch(p) => p.clone(),
        }
    }
}

/// The schedule: 40% Q13 points, 20% Q14-variant points, 40% batches.
struct Schedule {
    rng: SmallRng,
    deck: Deck<u8>,
    n: i64,
}

impl Schedule {
    fn new(seed: u64, n: i64) -> Schedule {
        let deck = Deck::new(&[(0, 4), (1, 2), (2, 4)]);
        Schedule { rng: SmallRng::seed_from_u64(seed ^ 0xad0c), deck, n }
    }

    fn next(&mut self) -> Op {
        let (rng, n) = (&mut self.rng, self.n);
        match self.deck.deal(rng) {
            0 => {
                let (s, d) = pair(rng, n);
                Op::Q13(s, d)
            }
            1 => {
                let (s, d) = pair(rng, n);
                Op::Q14(s, d)
            }
            _ => Op::Batch((0..BATCH_PAIRS).map(|_| pair(rng, n)).collect()),
        }
    }
}

/// The generated edge rows in table order, kept for the reference.
pub struct SnbEdges {
    pub src: Vec<i64>,
    pub dst: Vec<i64>,
    /// `CAST(weight * 2 AS INTEGER)` per row (the Q14 variant's weight).
    pub weight2: Vec<i64>,
}

impl SnbEdges {
    pub fn of(data: &SnbDataset) -> SnbEdges {
        let ints = |c: usize| data.friends.column(c).as_int_slice().expect("int column").0.to_vec();
        let (w, _) = data.friends.column(3).as_double_slice().expect("double weight");
        SnbEdges {
            src: ints(0),
            dst: ints(1),
            weight2: w.iter().map(|x| (x * 2.0).trunc() as i64).collect(),
        }
    }

    pub fn reference(&self) -> RefGraph {
        RefGraph::new(self.src.clone(), self.dst.clone(), Some(self.weight2.clone()))
    }
}

/// Turn a result table into the check of `op`.
fn check_of(op: &Op, t: &Table) -> Check {
    match op {
        Op::Q13(s, d) => Check::Cost { s: *s, d: *d, weighted: false, got: cost_of(t) },
        Op::Q14(s, d) => Check::Path { s: *s, d: *d, got: path_of(t) },
        Op::Batch(pairs) => Check::Batch {
            pairs: Pairs::List(pairs.clone()),
            weighted: false,
            got: digest(batch_rows(t)),
        },
    }
}

struct Statements {
    q13: PreparedStatement,
    q14: PreparedStatement,
}

fn prepare(session: &Session<'_>, settings: &[(String, String)]) -> Statements {
    layers::pin(session, settings);
    Statements {
        q13: session.prepare(Q13).expect("Q13 prepares"),
        q14: session.prepare(Q14_VARIANT).expect("Q14 prepares"),
    }
}

fn execute(session: &Session<'_>, st: &Statements, op: &Op) -> gsql_core::Result<Arc<Table>> {
    match op {
        Op::Q13(s, d) => st.q13.query(session, &[Value::Int(*s), Value::Int(*d)]),
        Op::Q14(s, d) => st.q14.query(session, &[Value::Int(*s), Value::Int(*d)]),
        Op::Batch(pairs) => session.query(&batched_q13(pairs)),
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
        Ok((op.kind(), op.pairs().len(), latency))
    })
}

pub fn run(args: &Args) -> Outcome {
    let settings = layers::pinned_settings(false, false);
    // The dataset is the canonical SF 1 graph; the seed drives the schedule.
    let params = SnbParams::new(SCALE_FACTOR);
    // Set up SETUPS times and keep the last: setup_s is the median.
    let (mut setup, mut datagen, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    let mut first_done = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let data = SnbDataset::generate(params);
        let t1 = Instant::now();
        let db = data.into_database().expect("fresh database");
        {
            let session = db.session();
            prepare(&session, &settings);
        }
        setup.push(t0.elapsed().as_secs_f64());
        datagen.push((t1 - t0).as_secs_f64());
        load.push(t1.elapsed().as_secs_f64());
        kept = Some((data, db));
        first_done.get_or_insert_with(Instant::now);
    }
    let (data, db) = kept.expect("at least one set-up");
    let n = data.num_persons as i64;
    let edges = SnbEdges::of(&data);
    drop(data);

    let session = db.session();
    let st = prepare(&session, &settings);
    let mut schedule = Schedule::new(args.seed, n);
    let mut checks = Vec::new();
    let mut info = vec![
        ("settings".to_string(), settings_text(&settings)),
        (
            "data".to_string(),
            format!("SNB SF {SCALE_FACTOR}: {n} persons, {} edges", edges.src.len()),
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
        metrics.push(Metric::new("setup.datagen_s", "s", median(&datagen).unwrap()));
        metrics.push(Metric::new("setup.load_s", "s", median(&load).unwrap()));
        let (layer_metrics, sampled, sample_failures) = traced_phase(
            &db,
            &session,
            &st,
            &settings,
            &edges,
            &mut schedule,
            args.seconds / 2.0,
            &mut checks,
        );
        metrics.extend(layer_metrics);
        traced_ops = sampled;
        traced_failed = sample_failures;
    }
    let wrong = count_wrong(&edges.reference(), &checks, CHECK_THREADS);
    let attempted = phase.ops() + phase.failed + traced_ops;
    let failed = phase.failed + traced_failed + wrong;
    info.push(("checks".to_string(), format!("{} answers, {wrong} wrong", checks.len())));
    let mut all =
        end_to_end(WORKLOAD, median(&setup).unwrap(), &phase, attempted, failed, rss, &mut info);
    all.extend(metrics);
    Outcome { attempted, failed, correct: wrong == 0 && attempted > 0, metrics: all, info }
}

/// Sample operations from the same schedule and drive each through the
/// layers one at a time, next to its real (untraced) execution.
#[allow(clippy::too_many_arguments)]
fn traced_phase(
    db: &Database,
    session: &Session<'_>,
    st: &Statements,
    settings: &[(String, String)],
    edges: &SnbEdges,
    schedule: &mut Schedule,
    seconds: f64,
    checks: &mut Vec<Check>,
) -> (Vec<Metric>, u64, u64) {
    let ss = layers::session_settings(settings);
    let plan13 = layers::prepare_plan(db, &ss, Q13);
    let plan14 = layers::prepare_plan(db, &ss, Q14_VARIANT);
    let friends = db.catalog().get("friends").expect("friends table");
    let mut statements = StatementLayers::default();
    let mut graph = GraphLayer::default();
    let (mut points, mut fallbacks, mut sampled, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let op = schedule.next();
        sampled += 1;
        let params: Vec<Value> = match &op {
            Op::Q13(s, d) | Op::Q14(s, d) => vec![Value::Int(*s), Value::Int(*d)],
            Op::Batch(_) => Vec::new(),
        };
        let real = || {
            let before = fallback_traversals(db);
            let (r, t) = timed(|| execute(session, st, &op));
            (r, t, fallback_traversals(db) > before)
        };
        let decomposed = || match &op {
            Op::Q13(..) => layers::run_prepared(db, &ss, &plan13, &params, false),
            Op::Q14(..) => layers::run_prepared(db, &ss, &plan14, &params, false),
            Op::Batch(pairs) => layers::run_fresh(db, &ss, &batched_q13(pairs), &params, false),
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
        // Without an index every statement builds its graph; it traverses
        // it when it fell back to BatchComputer (always, here).
        let built = graph.build(Arc::clone(&friends));
        if fell_back {
            let weights = matches!(op, Op::Q14(..)).then_some(edges.weight2.as_slice());
            graph.traverse(&built, &op.pairs(), weights);
        }
    }
    let mut out = Vec::new();
    statements.metrics(&mut out);
    graph.metrics(&mut out);
    out.push(Metric::new("accel.fallback_share", "ratio", fallbacks as f64 / points.max(1) as f64));
    (out, sampled, failed)
}
