//! The parallel-scaling benchmark, two scenarios:
//!
//! * default — a many-source batched Q13 statement executed with
//!   `SET threads = 1` versus `SET threads = N`. Each distinct source is
//!   one independent traversal, so on a multi-core machine the speedup
//!   approaches the thread count (the acceptance target is ≥ 2× at
//!   4 threads on ≥ 4 cores).
//! * `--pipeline` — the morsel-driven relational pipeline: a fused
//!   scan→filter→hash-join→aggregate statement over generated road data,
//!   measured at 1 and N threads, asserting byte-identical results.
//!
//! `cargo run -p gsql-bench --release --bin parallel_scaling -- \
//!      --sf 0.1,1 --reps 10 --batch 64 --threads 4`
//! `cargo run -p gsql-bench --release --bin parallel_scaling -- \
//!      --pipeline --threads 4 --width 200 --height 200 --json`
//!
//! `--smoke` shrinks the pipeline scenario for CI; `--json` appends one
//! line of machine-readable results after the tables.

use gsql_bench::report::arg_value;
use gsql_bench::{
    print_parallel_scaling, print_pipeline_scaling, run_parallel_scaling, run_pipeline_scaling,
    BenchConfig,
};
use gsql_server::json::Json;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize =
        arg_value(&args, "--threads").and_then(|s| s.parse().ok()).filter(|&t| t >= 1).unwrap_or(4);
    if args.iter().any(|a| a == "--pipeline") {
        pipeline_scenario(&args, threads);
        return;
    }
    let cfg = BenchConfig::from_args();
    let batch: usize = arg_value(&args, "--batch").and_then(|s| s.parse().ok()).unwrap_or(64);
    println!(
        "(scale factors: {:?}, seed {}, batch {batch}, threads {threads}, \
         {} hardware threads available)\n",
        cfg.sfs,
        cfg.seed,
        gsql_parallel_available()
    );
    let rows = run_parallel_scaling(&cfg, batch, threads);
    print_parallel_scaling(&rows);
    println!("\nthreads = 1 runs the exact sequential code path; results are");
    println!("byte-identical at every thread count (only wall clock changes).");
}

/// The morsel-driven pipeline scenario (`--pipeline`).
fn pipeline_scenario(args: &[String], threads: usize) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let get = |flag: &str, default: u64| {
        arg_value(args, flag).and_then(|s| s.parse().ok()).filter(|&v| v >= 1).unwrap_or(default)
    };
    let width = get("--width", if smoke { 60 } else { 200 }) as u32;
    let height = get("--height", if smoke { 60 } else { 200 }) as u32;
    let reps = get("--reps", if smoke { 3 } else { 10 }) as usize;
    // Small enough that every worker sees many morsels even on the smoke
    // grid, large enough to keep per-morsel overhead negligible.
    let morsel_rows = get("--morsel-rows", if smoke { 1024 } else { 8192 }) as usize;
    let seed = get("--seed", 2017);
    println!(
        "pipeline scaling: {width}x{height} road grid, seed {seed}, {reps} reps, \
         threads {threads}, morsel_rows {morsel_rows}, {} hardware threads available\n",
        gsql_parallel_available()
    );
    let row = run_pipeline_scaling(width, height, reps, threads, morsel_rows, seed);
    print_pipeline_scaling(&row);
    if args.iter().any(|a| a == "--json") {
        // One line of machine-readable results, last on stdout, so CI and
        // tracking scripts can diff runs without scraping the tables.
        let us = |d: Duration| Json::Int((d.as_secs_f64() * 1e6) as i64);
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let report = obj(vec![
            ("edges", Json::Int(row.edges as i64)),
            ("threads", Json::Int(row.threads as i64)),
            ("morsel_rows", Json::Int(row.morsel_rows as i64)),
            ("seed", Json::Int(seed as i64)),
            (
                "pipelined",
                obj(vec![("seq_us", us(row.pipeline_seq)), ("par_us", us(row.pipeline_par))]),
            ),
            ("thread_scaling", Json::Float(row.thread_scaling())),
        ]);
        println!("{}", report.encode());
    }
}

/// Hardware threads, read through the engine's own default.
fn gsql_parallel_available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
