//! The repository benchmark: three workloads over the gsql engine, each
//! measured end to end (untraced run) or layer by layer (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload snb-adhoc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every answer is checked against an independent reference outside the
//! timed region. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it (`{"report": ...}`) carries every metric the run produced,
//! workload-specific ones included, plus the pinned settings. DESIGN.md
//! describes the workloads, the metrics and what each layer should move.

mod layers;
mod measure;
mod reference;
mod road;
mod serve_rw;
mod snb_adhoc;

use measure::{tail_label, Kind, Metric, Samples};
use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports; BENCHMARK.json gates on these.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "point_ops_s",
    "batch_pairs_s",
    "point_p50_ms",
    "point_tail_ms",
    "batch_p50_ms",
    "batch_tail_ms",
    "peak_rss_mb",
];

/// Per-layer metrics every workload reports in its traced run.
pub const PER_LAYER: [&str; 21] = [
    "setup.cold_s",
    "setup.datagen_s",
    "setup.load_s",
    "parser.parse_us",
    "session.plan_cache_hit_ratio",
    "bind.bind_us",
    "optimize.optimize_us",
    "exec.execute_us.point",
    "exec.execute_us.batch",
    "exec.graph_build_us",
    "exec.dict_us",
    "graph.csr_us",
    "graph.weights_us",
    "graph.traverse_us",
    "graph.settled_per_pair",
    "accel.fallback_share",
    "trace.coverage.point",
    "trace.coverage.batch",
    "trace.untraced_us.point",
    "trace.untraced_us.batch",
    "trace.overhead",
];

/// Command-line arguments.
pub struct Args {
    /// When the process entered `main`.
    pub started: Instant,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(started: Instant) -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<String, String> {
            let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
        };
        let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        let trace = match value("--trace").unwrap_or_else(|_| "0".to_string()).as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other}")),
        };
        Ok(Args {
            started,
            workload: value("--workload")?,
            seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
            seconds,
            trace,
        })
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    /// Failed or wrong operations (a refused request counts as failed).
    pub failed: u64,
    /// Every correctness check passed (answers, reference agreement, the
    /// durable reopen check).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Settings and run facts printed alongside the metrics.
    pub info: Vec<(String, String)>,
}

/// One completed operation of a measured phase.
struct Record {
    /// `None` for an untyped operation (a `CHECKPOINT`).
    kind: Option<Kind>,
    latency_ms: f64,
    pairs: u32,
}

/// The operations completed in a measured phase.
#[derive(Default)]
pub struct Phase {
    records: Vec<Record>,
    pub failed: u64,
    pub elapsed: Duration,
}

impl Phase {
    pub fn record(&mut self, kind: Option<Kind>, latency: Duration, pairs: usize) {
        self.records.push(Record {
            kind,
            latency_ms: latency.as_secs_f64() * 1e3,
            pairs: pairs as u32,
        });
    }

    pub fn ops(&self) -> u64 {
        self.records.len() as u64
    }

    /// Merge another client's phase that ran over the same interval.
    pub fn merge(&mut self, other: Phase) {
        self.records.extend(other.records);
        self.failed += other.failed;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    fn samples(&self, kind: Kind) -> Samples {
        Samples(
            self.records.iter().filter(|r| r.kind == Some(kind)).map(|r| r.latency_ms).collect(),
        )
    }
}

/// Run `step` back to back for `seconds` (a closed loop: the next operation
/// starts when the previous one completed). `step` runs one operation and
/// returns its type, its shortest-path pair count and its latency.
pub fn closed_loop(
    workload: &str,
    seconds: f64,
    mut step: impl FnMut() -> Result<(Kind, usize, Duration), String>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        match step() {
            Ok((kind, pairs, latency)) => phase.record(Some(kind), latency, pairs),
            Err(e) => {
                eprintln!("{workload}: operation failed: {e}");
                phase.failed += 1;
            }
        }
    }
    phase.elapsed = start.elapsed();
    phase
}

/// The tail percentile of one operation type in one workload: the highest
/// of p90/p99/p99.9 with at least 10 samples beyond it at the benchmark's
/// run length (30 s), fixed per workload so every run reports the same
/// percentile. One exception: road-indexed batches use p99, because their
/// p99.9 (13 to 15 samples beyond) spread almost as wide as its bound from
/// run to run. DESIGN.md lists the sample counts behind each choice.
pub fn tail_quantile(workload: &str, kind: Kind) -> f64 {
    match (workload, kind) {
        ("road-indexed", Kind::Point) => 0.999,
        ("road-indexed", Kind::Batch) | ("snb-serve-rw", Kind::Point | Kind::Batch) => 0.99,
        _ => 0.9,
    }
}

/// `setup.cold_s`: from entering `main` to the end of the run's first
/// set-up, the one that pays every once-per-process cost (`setup_s` is the
/// median over all set-ups of the run).
pub fn cold_setup(args: &Args, first_setup_done: Instant) -> Metric {
    Metric::new("setup.cold_s", "s", (first_setup_done - args.started).as_secs_f64())
}

/// The end-to-end metrics of a measured phase (every operation type the
/// workload ran), plus `info` lines naming each tail percentile and its
/// sample count.
///
/// `throughput_ops_s` and `pairs_s` are totals over the workload's mix of
/// operation types. No public source fixes those mixes, so the gated rates
/// are per operation type instead: `point_ops_s` (point operations per
/// second of time spent in them) and `batch_pairs_s` (pairs answered per
/// second of time spent in batches, Fig. 1b's amortization as a rate).
pub fn end_to_end(
    workload: &str,
    setup_s: f64,
    phase: &Phase,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
    info: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let secs = phase.elapsed.as_secs_f64().max(1e-9);
    let pairs: u64 = phase.records.iter().map(|r| u64::from(r.pairs)).sum();
    let per_busy_second = |kind: Kind, count: fn(&Record) -> u64| {
        let of_kind = || phase.records.iter().filter(move |r| r.kind == Some(kind));
        let busy_s: f64 = of_kind().map(|r| r.latency_ms).sum::<f64>() / 1e3;
        of_kind().map(count).sum::<u64>() as f64 / busy_s.max(1e-9)
    };
    let mut out = vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("throughput_ops_s", "1/s", phase.ops() as f64 / secs),
        Metric::new("pairs_s", "1/s", pairs as f64 / secs),
        Metric::new("point_ops_s", "1/s", per_busy_second(Kind::Point, |_| 1)),
        Metric::new("batch_pairs_s", "1/s", per_busy_second(Kind::Batch, |r| u64::from(r.pairs))),
    ];
    for kind in Kind::ALL {
        let s = phase.samples(kind);
        if s.is_empty() {
            continue;
        }
        let q = tail_quantile(workload, kind);
        out.push(Metric::new(format!("{}_p50_ms", kind.name()), "ms", s.quantile(0.5).unwrap()));
        out.push(Metric::new(format!("{}_tail_ms", kind.name()), "ms", s.quantile(q).unwrap()));
        info.push((
            format!("{}_tail", kind.name()),
            format!("{} of {} samples ({} beyond)", tail_label(q), s.len(), s.beyond(q)),
        ));
        let at = |q: f64| s.quantile(q).unwrap();
        info.push((
            format!("{}_percentiles_ms", kind.name()),
            format!(
                "p50 {:.4} p90 {:.4} p99 {:.4} p99.9 {:.4} max {:.4}",
                at(0.5),
                at(0.9),
                at(0.99),
                at(0.999),
                at(1.0)
            ),
        ));
    }
    out.push(Metric::new("failed_share", "ratio", failed as f64 / attempted.max(1) as f64));
    out.push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb));
    out
}

/// Drop every `GSQL_*` variable before the engine reads any of them: the
/// benchmark pins each setting it depends on explicitly.
fn scrub_environment() {
    let names: Vec<_> = std::env::vars_os()
        .filter_map(|(k, _)| k.to_str().filter(|k| k.starts_with("GSQL_")).map(str::to_string))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    gsql_server::json::Json::from(s).encode()
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let started = Instant::now();
    scrub_environment();
    let args = match Args::parse(started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "snb-adhoc" => snb_adhoc::run(&args),
        "road-indexed" => road::run(&args),
        "snb-serve-rw" => serve_rw::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };

    let mut info = outcome.info;
    info.push(("workload".into(), args.workload.clone()));
    info.push(("seed".into(), args.seed.to_string()));
    info.push(("nproc".into(), measure::nproc().to_string()));
    info.push(("trace".into(), u8::from(args.trace).to_string()));
    info.push(("wall_s".into(), format!("{:.3}", started.elapsed().as_secs_f64())));
    for m in &outcome.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &info {
        println!("{k:<34} {v}");
    }
    let all: Vec<&Metric> = outcome.metrics.iter().collect();
    let info_json: Vec<String> =
        info.iter().map(|(k, v)| format!("{}: {}", json_string(k), json_string(v))).collect();
    println!(
        "{{\"report\": {{\"metrics\": {}, \"info\": {{{}}}}}}}",
        metrics_json(&all),
        info_json.join(", ")
    );

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let selected: Vec<&Metric> = names
        .iter()
        .map(|n| {
            outcome.metrics.iter().find(|m| m.name == *n).unwrap_or_else(|| {
                eprintln!("perfbench: workload produced no '{n}' metric");
                std::process::exit(3);
            })
        })
        .collect();
    if !outcome.correct {
        eprintln!("perfbench: correctness check FAILED");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&selected)
    );
}
