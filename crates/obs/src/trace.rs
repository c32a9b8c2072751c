//! Per-query hierarchical tracing.
//!
//! A [`TraceCollector`] is created per statement when `SET trace =
//! on|verbose` (and, always verbose, for `EXPLAIN ANALYZE`); engine layers
//! open spans around parse/bind/optimize/execute, each pipeline, and each
//! traversal batch, and at `verbose` around each plan operator. Spans form
//! a tree via parent ids and render as nested JSON, returned through the
//! session API and inline in HTTP responses. The same tree, read back with
//! [`TraceCollector::read`], is what `EXPLAIN ANALYZE` renders.
//!
//! Tracing never alters execution: collectors only append to a
//! mutex-guarded buffer. A statement trace's buffer is bounded
//! ([`MAX_SPANS`]) so a pathological plan cannot grow the trace documents
//! a session and an HTTP response carry without limit; an `EXPLAIN
//! ANALYZE` trace is not, since it prints every operator.

use std::sync::Mutex;
use std::time::Instant;

/// Cap on spans per traced statement ([`TraceCollector::new`]). Past it,
/// `begin` hands out [`NO_SPAN`] and the span is silently dropped.
pub const MAX_SPANS: usize = 4096;

/// Sentinel id for "no span" (trace off, or the buffer is full).
pub const NO_SPAN: u32 = u32::MAX;

/// Span identifier within one collector.
pub type SpanId = u32;

/// Trace verbosity, settable via `SET trace` or the `GSQL_TRACE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No collection (the default).
    #[default]
    Off,
    /// Phase, pipeline, and traversal spans.
    On,
    /// Everything in `On` plus one span per plan operator.
    Verbose,
}

impl TraceLevel {
    /// Parse a setting value (`off`/`on`/`verbose`, plus the usual boolean
    /// spellings accepted elsewhere in the engine).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "false" | "0" => Some(TraceLevel::Off),
            "on" | "true" | "1" => Some(TraceLevel::On),
            "verbose" => Some(TraceLevel::Verbose),
            _ => None,
        }
    }

    /// Canonical setting value.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::On => "on",
            TraceLevel::Verbose => "verbose",
        }
    }

    /// True for `On` and `Verbose`.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }
}

/// A span attribute value.
#[derive(Debug, Clone)]
pub enum TraceValue {
    /// Rendered as a bare JSON number.
    Int(i64),
    /// Rendered as a JSON string.
    Str(String),
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> TraceValue {
        TraceValue::Int(v)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> TraceValue {
        TraceValue::Int(v as i64)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> TraceValue {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> TraceValue {
        TraceValue::Str(v)
    }
}

/// One recorded span.
#[derive(Debug)]
pub struct SpanRecord {
    /// The enclosing span ([`NO_SPAN`] for a root). Always opened before
    /// this one, so its id is smaller.
    pub parent: SpanId,
    /// The span name (`pipeline`, `traversal`, an operator label, ...).
    pub name: String,
    /// Start, in microseconds since the collector was created.
    pub start_us: u64,
    /// Duration in microseconds; 0 while the span is open.
    pub dur_us: u64,
    /// Attributes, in the order they were attached.
    pub attrs: Vec<(String, TraceValue)>,
}

impl SpanRecord {
    fn attr(&self, key: &str) -> Option<&TraceValue> {
        self.attrs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An integer attribute.
    pub fn int(&self, key: &str) -> Option<i64> {
        match self.attr(key)? {
            TraceValue::Int(v) => Some(*v),
            TraceValue::Str(_) => None,
        }
    }

    /// A string attribute.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.attr(key)? {
            TraceValue::Str(v) => Some(v),
            TraceValue::Int(_) => None,
        }
    }
}

/// Collects the span tree for one traced statement.
#[derive(Debug)]
pub struct TraceCollector {
    level: TraceLevel,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    max_spans: usize,
}

impl TraceCollector {
    /// A collector at the given level holding at most [`MAX_SPANS`] spans,
    /// with "time zero" = now.
    pub fn new(level: TraceLevel) -> TraceCollector {
        TraceCollector::with_max_spans(level, MAX_SPANS)
    }

    /// A collector with no span cap, for `EXPLAIN ANALYZE`, which prints
    /// every operator span. A statement opens a bounded number of spans
    /// per plan node, so its trace stays proportional to its plan.
    pub fn unbounded(level: TraceLevel) -> TraceCollector {
        TraceCollector::with_max_spans(level, NO_SPAN as usize)
    }

    fn with_max_spans(level: TraceLevel, max_spans: usize) -> TraceCollector {
        TraceCollector { level, origin: Instant::now(), spans: Mutex::new(Vec::new()), max_spans }
    }

    /// The collection level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Open a span under `parent` ([`NO_SPAN`] for a root). Returns the new
    /// span's id, or [`NO_SPAN`] when the buffer is full.
    pub fn begin(&self, parent: SpanId, name: &str) -> SpanId {
        let start_us = self.origin.elapsed().as_micros() as u64;
        let mut spans = self.spans.lock().expect("trace poisoned");
        if spans.len() >= self.max_spans {
            return NO_SPAN;
        }
        let id = spans.len() as u32;
        spans.push(SpanRecord {
            parent,
            name: name.to_string(),
            start_us,
            dur_us: 0,
            attrs: Vec::new(),
        });
        id
    }

    /// Close a span, recording its duration. No-op for [`NO_SPAN`], and
    /// for a buffer poisoned by a panic: span guards call this while
    /// unwinding, where a second panic would abort.
    pub fn end(&self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now_us = self.origin.elapsed().as_micros() as u64;
        let Ok(mut spans) = self.spans.lock() else { return };
        if let Some(span) = spans.get_mut(id as usize) {
            span.dur_us = now_us.saturating_sub(span.start_us);
        }
    }

    /// Attach one attribute to an open (or closed) span.
    pub fn attr(&self, id: SpanId, key: &str, value: TraceValue) {
        if id == NO_SPAN {
            return;
        }
        let mut spans = self.spans.lock().expect("trace poisoned");
        if let Some(span) = spans.get_mut(id as usize) {
            span.attrs.push((key.to_string(), value));
        }
    }

    /// Run `f` over the spans recorded so far, indexed by [`SpanId`].
    pub fn read<T>(&self, f: impl FnOnce(&[SpanRecord]) -> T) -> T {
        f(&self.spans.lock().expect("trace poisoned"))
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("trace poisoned").len()
    }

    /// `(name, dur_us)` of every root span, in start order — the summary
    /// embedded in slow-query-log records.
    pub fn root_summary(&self) -> Vec<(String, u64)> {
        let spans = self.spans.lock().expect("trace poisoned");
        spans.iter().filter(|s| s.parent == NO_SPAN).map(|s| (s.name.clone(), s.dur_us)).collect()
    }

    /// Render the span forest as a JSON array of nested span objects:
    /// `[{"name":…,"start_us":…,"dur_us":…,"attrs":{…},"children":[…]}]`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("trace poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            if span.parent == NO_SPAN || span.parent as usize >= spans.len() {
                roots.push(i);
            } else {
                children[span.parent as usize].push(i);
            }
        }
        let mut out = String::from("[");
        for (i, &root) in roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_span(&spans, &children, root, &mut out);
        }
        out.push(']');
        out
    }
}

fn render_span(spans: &[SpanRecord], children: &[Vec<usize>], i: usize, out: &mut String) {
    let span = &spans[i];
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
        crate::json_escape(&span.name),
        span.start_us,
        span.dur_us
    ));
    if !span.attrs.is_empty() {
        out.push_str(",\"attrs\":{");
        for (j, (key, value)) in span.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", crate::json_escape(key)));
            match value {
                TraceValue::Int(v) => out.push_str(&v.to_string()),
                TraceValue::Str(v) => out.push_str(&format!("\"{}\"", crate::json_escape(v))),
            }
        }
        out.push('}');
    }
    if !children[i].is_empty() {
        out.push_str(",\"children\":[");
        for (j, &c) in children[i].iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            render_span(spans, children, c, out);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_round_trips() {
        assert_eq!(TraceLevel::parse("on"), Some(TraceLevel::On));
        assert_eq!(TraceLevel::parse("OFF"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("verbose"), Some(TraceLevel::Verbose));
        assert_eq!(TraceLevel::parse("1"), Some(TraceLevel::On));
        assert_eq!(TraceLevel::parse("nope"), None);
        for l in [TraceLevel::Off, TraceLevel::On, TraceLevel::Verbose] {
            assert_eq!(TraceLevel::parse(l.as_str()), Some(l));
        }
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Verbose.enabled());
    }

    #[test]
    fn spans_nest_and_render_as_tree() {
        let t = TraceCollector::new(TraceLevel::On);
        let root = t.begin(NO_SPAN, "execute");
        let child = t.begin(root, "pipeline");
        t.attr(child, "morsels", TraceValue::Int(4));
        t.end(child);
        let sibling = t.begin(root, "traversal");
        t.attr(sibling, "kind", TraceValue::from("ch"));
        t.end(sibling);
        t.end(root);
        let json = t.to_json();
        assert!(json.starts_with("[{\"name\":\"execute\""));
        assert!(json.contains("\"children\":[{\"name\":\"pipeline\""));
        assert!(json.contains("\"attrs\":{\"morsels\":4}"));
        assert!(json.contains("{\"name\":\"traversal\""));
        assert!(json.contains("\"attrs\":{\"kind\":\"ch\"}"));
        assert_eq!(t.root_summary().len(), 1);
        assert_eq!(t.root_summary()[0].0, "execute");
        t.read(|spans| {
            assert_eq!(spans[child as usize].parent, root);
            assert_eq!(spans[child as usize].int("morsels"), Some(4));
            assert_eq!(spans[sibling as usize].str("kind"), Some("ch"));
            assert_eq!(spans[sibling as usize].int("kind"), None);
        });
    }

    #[test]
    fn buffer_is_bounded() {
        let t = TraceCollector::new(TraceLevel::On);
        for _ in 0..MAX_SPANS + 10 {
            let id = t.begin(NO_SPAN, "s");
            t.end(id);
        }
        assert_eq!(t.span_count(), MAX_SPANS);
        // NO_SPAN operations are silent no-ops.
        t.end(NO_SPAN);
        t.attr(NO_SPAN, "k", TraceValue::Int(1));
    }

    #[test]
    fn empty_collector_renders_empty_array() {
        assert_eq!(TraceCollector::new(TraceLevel::On).to_json(), "[]");
    }
}
