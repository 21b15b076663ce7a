//! Benchmark-side spans: recorded in memory around calls into the
//! program's layers, written once as a Chrome trace (`chrome://tracing`,
//! Perfetto), and read back from that file to compute the per-layer
//! metrics.
//!
//! Every event is one line of the file with a fixed key order, so the
//! reader below is a line scanner rather than a JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One span: a named interval with its parent span and request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `search.engine.match`.
    pub name: String,
    /// Span id (1-based; 0 means none).
    pub id: u32,
    /// Parent span id, 0 for a root.
    pub parent: u32,
    /// Request id the span belongs to (0 for harness spans).
    pub req: u64,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Numeric arguments (counts, flags).
    pub nums: BTreeMap<String, f64>,
    /// String arguments (class, fidelity, scoring).
    pub strs: BTreeMap<String, String>,
}

impl Span {
    /// A numeric argument, 0 when absent.
    #[must_use]
    pub fn num(&self, key: &str) -> f64 {
        self.nums.get(key).copied().unwrap_or(0.0)
    }

    /// A string argument, empty when absent.
    #[must_use]
    pub fn str(&self, key: &str) -> &str {
        self.strs.get(key).map_or("", String::as_str)
    }
}

/// Collects spans from any thread. A disabled tracer runs the wrapped
/// calls and records nothing, for the untraced pass of the overhead
/// measurement.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Arguments attached to a span.
#[derive(Debug, Default, Clone)]
pub struct Args {
    nums: Vec<(&'static str, f64)>,
    strs: Vec<(&'static str, String)>,
}

impl Args {
    /// No arguments.
    #[must_use]
    pub fn none() -> Args {
        Args::default()
    }

    /// Adds a numeric argument.
    #[must_use]
    pub fn n(mut self, key: &'static str, value: f64) -> Args {
        self.nums.push((key, value));
        self
    }

    /// Adds a string argument (letters, digits, `_`, `-`, `.`, `/`).
    #[must_use]
    pub fn s(mut self, key: &'static str, value: &str) -> Args {
        self.strs.push((key, value.to_owned()));
        self
    }
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id (0 when disabled).
    pub fn id(&self) -> u32 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records an interval measured elsewhere.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &str,
        id: u32,
        parent: u32,
        req: u64,
        from: Instant,
        to: Instant,
        args: Args,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_owned(),
            id,
            parent,
            req,
            start_us: from.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: to.saturating_duration_since(from).as_secs_f64() * 1e6,
            nums: args
                .nums
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            strs: args
                .strs
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        };
        self.spans.lock().expect("span sink").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans, and returns its result plus the span's arguments.
    pub fn span<T>(
        &self,
        name: &str,
        parent: u32,
        req: u64,
        f: impl FnOnce(u32) -> (T, Args),
    ) -> T {
        let id = self.id();
        let from = Instant::now();
        let (value, args) = f(id);
        self.record(name, id, parent, req, from, Instant::now(), args);
        value
    }

    /// [`Tracer::span`] for a call with no arguments.
    pub fn call<T>(&self, name: &str, parent: u32, req: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, parent, req, |_| (f(), Args::none()))
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span sink").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        spans
    }
}

/// Renders spans as a Chrome trace: complete (`"ph":"X"`) events, one per
/// line, with the span/parent/request ids and arguments under `args`.
#[must_use]
pub fn to_chrome(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}",
            s.name, s.start_us, s.dur_us, s.req % 1000, s.id, s.parent, s.req
        );
        for (k, v) in &s.nums {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        for (k, v) in &s.strs {
            let _ = write!(out, ",\"{k}\":\"{v}\"");
        }
        out.push_str("}}");
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Reads spans back from [`to_chrome`] output.
///
/// # Errors
///
/// A message naming the first malformed event line.
pub fn from_chrome(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("{\"name\":")) {
        let bad = || format!("malformed trace event: {line}");
        let name = field(line, "name")
            .ok_or_else(bad)?
            .trim_matches('"')
            .to_owned();
        let num = |key: &str| {
            field(line, key)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(bad)
        };
        let args_at = line.find("\"args\":{").ok_or_else(bad)? + 8;
        let args = line[args_at..].trim_end_matches(',').trim_end_matches("}}");
        let mut nums = BTreeMap::new();
        let mut strs = BTreeMap::new();
        for pair in args.split(',') {
            let (k, v) = pair.split_once(':').ok_or_else(bad)?;
            let k = k.trim_matches('"').to_owned();
            if let Some(v) = v.strip_prefix('"') {
                strs.insert(k, v.trim_end_matches('"').to_owned());
            } else {
                nums.insert(k, v.parse::<f64>().map_err(|_| bad())?);
            }
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let (id, parent, req) = (
            nums.remove("id").ok_or_else(bad)? as u32,
            nums.remove("parent").ok_or_else(bad)? as u32,
            nums.remove("req").ok_or_else(bad)? as u64,
        );
        spans.push(Span {
            name,
            id,
            parent,
            req,
            start_us: num("ts")?,
            dur_us: num("dur")?,
            nums,
            strs,
        });
    }
    Ok(spans)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children may overlap on other threads).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.start_us + s.dur_us));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut cursor = s.start_us;
                for &(from, to) in kids.iter() {
                    let from = from.max(cursor);
                    let to = to.min(s.start_us + s.dur_us);
                    if to > from {
                        covered += to - from;
                        cursor = to;
                    }
                }
            }
            (s.id, (s.dur_us - covered).max(0.0))
        })
        .collect()
}
