//! Raw latency samples, exact percentiles, metric records and the small
//! amount of process introspection the benchmark reports (peak RSS, data
//! directory size).

use std::path::Path;
use std::time::{Duration, Instant};

/// The four operation types the metric names use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A single-pair `CHEAPEST SUM` statement.
    Point,
    /// A multi-pair statement (VALUES-CTE batch or source × target matrix)
    /// sent as fresh SQL text.
    Batch,
    /// A relational lookup.
    Rel,
    /// A single-row `INSERT`.
    Write,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Point, Kind::Batch, Kind::Rel, Kind::Write];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Batch => "batch",
            Kind::Rel => "rel",
            Kind::Write => "write",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// Raw per-operation latencies (milliseconds) of one operation type.
/// Percentiles are computed exactly from these, never from histogram
/// buckets.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Add a latency in milliseconds.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Add a duration in microseconds (the per-layer unit).
    pub fn push_us(&mut self, d: Duration) {
        self.0.push(us(d));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// all samples at or below it. `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// How many samples lie strictly beyond the nearest-rank `q` percentile.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.0.len();
        n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<f64>() / self.0.len() as f64)
    }
}

/// The median of some values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    Samples(values.to_vec()).quantile(0.5)
}

/// The label of a tail quantile (`p99.9`, `p99`, `p90`).
pub fn tail_label(q: f64) -> &'static str {
    if q >= 0.999 {
        "p99.9"
    } else if q >= 0.99 {
        "p99"
    } else {
        "p90"
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total bytes of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run `f`, returning its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Microseconds of a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Operation types dealt in shuffled blocks with fixed counts: every block
/// holds the exact mix, so runs differ in order and parameters but not in
/// their proportions of each operation type.
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(counts: &[(T, usize)]) -> Deck<T> {
        let cards = counts.iter().flat_map(|&(t, n)| std::iter::repeat_n(t, n)).collect();
        Deck { cards, next: 0 }
    }

    pub fn deal(&mut self, rng: &mut rand::rngs::SmallRng) -> T {
        use rand::Rng;
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// A uniform pair of distinct ids in `1..=n`.
pub fn pair(rng: &mut rand::rngs::SmallRng, n: i64) -> (i64, i64) {
    use rand::Rng;
    let s = rng.gen_range(1..=n);
    loop {
        let d = rng.gen_range(1..=n);
        if d != s {
            return (s, d);
        }
    }
}
