//! Black-box flight recorder: always-on per-thread event rings plus
//! `.cpsflight` dump files.
//!
//! Every thread that emits events owns a fixed-size ring of packed
//! events (span enter/exit, request trace ids, admission sheds, alert
//! transitions, reactor readiness stalls). Pushing is single-writer —
//! only the owning thread touches its ring — guarded by the same
//! per-slot seqlock discipline as the trace ring so a dump can read
//! stable slots without ever blocking the writer; steady-state cost is
//! a handful of uncontended atomic stores (bench-bounded under 100 ns
//! in `profile_overhead`).
//!
//! A dump ([`encode_dump`]) atomically snapshots every live ring plus
//! the recorder's stage aggregates, the interned label table, and
//! caller-supplied context (recent-request ring, active alerts, a
//! metrics scrape) into a `.cpsflight` file in the section-table
//! [`container`](crate::container) that `.cpsnap` snapshots also use:
//! magic + version + checksummed sections at 8-byte-aligned offsets.
//! Dumps are triggered by an SLO alert firing, a panic (via
//! [`install_panic_hook`]), SIGUSR1, or `POST /debug/flight/dump`; the
//! trigger paths all route through the process-wide hook installed with
//! [`set_dump_hook`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Instant;

use crate::container::{
    fnv1a_64, put_u16, put_u32, put_u64, ContainerError, Format, Reader, Section, SectionInfo,
};

/// The six magic bytes every `.cpsflight` file starts with.
pub const MAGIC: [u8; 6] = *b"CPSFLT";

/// The format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// The `.cpsflight` container: plain FNV-1a checksums (dump payloads are
/// small; no word folding needed).
const CONTAINER: Format<FlightError> = Format {
    magic: MAGIC,
    version: FORMAT_VERSION,
    checksum: fnv1a_64,
    section_name,
    error: FlightError::from,
};

/// Events retained per thread ring (oldest overwritten on wrap).
pub const DEFAULT_RING_EVENTS: usize = 2048;

const SEC_META: u16 = 1;
const SEC_LABELS: u16 = 2;
const SEC_STAGES: u16 = 3;
const SEC_EVENTS: u16 = 4;
const SEC_REQUESTS: u16 = 5;
const SEC_ALERTS: u16 = 6;
const SEC_METRICS: u16 = 7;

fn section_name(id: u16) -> Option<&'static str> {
    match id {
        SEC_META => Some("meta"),
        SEC_LABELS => Some("labels"),
        SEC_STAGES => Some("stages"),
        SEC_EVENTS => Some("events"),
        SEC_REQUESTS => Some("requests"),
        SEC_ALERTS => Some("alerts"),
        SEC_METRICS => Some("metrics"),
        _ => None,
    }
}

/// What happened, encoded in an event's `kind` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// `a` = stage id.
    SpanEnter = 1,
    /// `a` = stage id, `b` = duration µs.
    SpanExit = 2,
    /// `a` = low 64 bits of the trace id, `b` = route label id << 16 | status.
    Request = 3,
    /// `a` = route label id, `b` = reason label id.
    Shed = 4,
    /// `a` = route label id, `b` = 1 firing / 0 resolved.
    Alert = 5,
    /// `a` = stall µs (reactor thread away from its poller).
    ReactorStall = 6,
}

impl FlightKind {
    pub fn from_u8(v: u8) -> Option<FlightKind> {
        match v {
            1 => Some(FlightKind::SpanEnter),
            2 => Some(FlightKind::SpanExit),
            3 => Some(FlightKind::Request),
            4 => Some(FlightKind::Shed),
            5 => Some(FlightKind::Alert),
            6 => Some(FlightKind::ReactorStall),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::SpanEnter => "span-enter",
            FlightKind::SpanExit => "span-exit",
            FlightKind::Request => "request",
            FlightKind::Shed => "shed",
            FlightKind::Alert => "alert",
            FlightKind::ReactorStall => "reactor-stall",
        }
    }
}

struct EventSlot {
    seq: AtomicU64,
    ts_us: AtomicU64,
    /// kind (8 bits) | unused.
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// One thread's event ring. Single writer (the owning thread); the
/// dumper reads stable slots through the per-slot seqlock.
struct EventRing {
    tid: u32,
    head: AtomicU64,
    slots: Box<[EventSlot]>,
}

impl EventRing {
    fn new(tid: u32, capacity: usize) -> Self {
        EventRing {
            tid,
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| EventSlot {
                    seq: AtomicU64::new(0),
                    ts_us: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn push(&self, ts_us: u64, kind: FlightKind, a: u64, b: u64) {
        let n = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[n];
        slot.seq.fetch_add(1, Ordering::AcqRel); // even -> odd
        slot.ts_us.store(ts_us, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release); // odd -> even
    }

    /// Stable events in timestamp order.
    fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq % 2 == 1 {
                continue;
            }
            let ts_us = slot.ts_us.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed) as u8;
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq {
                continue;
            }
            let Some(kind) = FlightKind::from_u8(kind) else {
                continue;
            };
            out.push(FlightEvent { ts_us, kind, a, b });
        }
        out.sort_by_key(|e| e.ts_us);
        out
    }
}

/// Process-global flight recorder state.
pub struct Flight {
    epoch: Instant,
    enabled: AtomicBool,
    ring_events: usize,
    rings: Mutex<Vec<Weak<EventRing>>>,
    labels: RwLock<Vec<String>>,
}

static FLIGHT: OnceLock<Flight> = OnceLock::new();

/// The process-global flight recorder.
pub fn flight() -> &'static Flight {
    FLIGHT.get_or_init(|| Flight {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        ring_events: std::env::var("CPSSEC_FLIGHT_EVENTS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(DEFAULT_RING_EVENTS, |n| n.clamp(64, 1 << 16)),
        rings: Mutex::new(Vec::new()),
        labels: RwLock::new(Vec::new()),
    })
}

thread_local! {
    static RING: Arc<EventRing> = {
        let f = flight();
        let ring = Arc::new(EventRing::new(crate::thread_ordinal(), f.ring_events));
        let mut rings = f.rings.lock().unwrap();
        rings.retain(|w| w.strong_count() > 0);
        rings.push(Arc::downgrade(&ring));
        ring
    };
}

/// Whether event recording is on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    flight().enabled.load(Ordering::Relaxed)
}

/// Turn event recording on or off process-wide.
pub fn set_enabled(on: bool) {
    flight().enabled.store(on, Ordering::Relaxed);
}

/// Record one event on this thread's ring. No-op while disabled.
#[inline]
pub fn event(kind: FlightKind, a: u64, b: u64) {
    let f = flight();
    if !f.enabled.load(Ordering::Relaxed) {
        return;
    }
    let ts_us = f.epoch.elapsed().as_micros() as u64;
    RING.with(|ring| ring.push(ts_us, kind, a, b));
}

/// Intern a label (route name, shed reason, …) into the dump's string
/// table, returning its id. Idempotent; ids are stable for the life of
/// the process.
pub fn label_id(text: &str) -> u64 {
    let f = flight();
    {
        let labels = f.labels.read().unwrap();
        if let Some(i) = labels.iter().position(|l| l == text) {
            return i as u64;
        }
    }
    let mut labels = f.labels.write().unwrap();
    if let Some(i) = labels.iter().position(|l| l == text) {
        return i as u64;
    }
    labels.push(text.to_owned());
    (labels.len() - 1) as u64
}

/// Resolve a label id back to its text (for live rendering).
pub fn label_text(id: u64) -> String {
    flight()
        .labels
        .read()
        .unwrap()
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("label-{id}"))
}

/// Microseconds since the flight epoch (the timestamp base every
/// event uses).
pub fn now_us() -> u64 {
    flight().epoch.elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Dump triggers.

type DumpHook = Box<dyn Fn(&str) -> Result<String, String> + Send + Sync>;

static DUMP_HOOK: OnceLock<Mutex<Option<DumpHook>>> = OnceLock::new();

fn dump_hook() -> &'static Mutex<Option<DumpHook>> {
    DUMP_HOOK.get_or_init(|| Mutex::new(None))
}

/// Install the process-wide dump hook: given a reason, write a
/// `.cpsflight` file and return its path. The server installs one that
/// bundles its request ring, alerts, and metrics into the dump.
pub fn set_dump_hook(hook: impl Fn(&str) -> Result<String, String> + Send + Sync + 'static) {
    *dump_hook().lock().unwrap() = Some(Box::new(hook));
}

/// Fire the installed dump hook. `None` when no hook is installed.
pub fn trigger_dump(reason: &str) -> Option<Result<String, String>> {
    let guard = dump_hook().lock().unwrap();
    guard.as_ref().map(|hook| hook(reason))
}

/// Chain a panic hook that writes a flight dump (via the installed
/// dump hook) before the previous handler runs. Idempotent.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(Ok(path)) = trigger_dump("panic") {
            eprintln!("flight recorder: wrote {path}");
        }
        previous(info);
    }));
}

// ---------------------------------------------------------------------------
// Wire helpers (little-endian, as in the container).

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, FlightError> {
    let len = r.u32()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| FlightError::Corrupt("invalid UTF-8 in flight dump string".into()))
}

/// Errors while reading a `.cpsflight` dump; every variant renders as
/// one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    Truncated,
    BadMagic,
    UnsupportedVersion(u16),
    ChecksumMismatch(&'static str),
    Corrupt(String),
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::Truncated => f.write_str("flight dump is truncated"),
            FlightError::BadMagic => f.write_str("not a cpsflight dump (bad magic)"),
            FlightError::UnsupportedVersion(v) => {
                write!(f, "unsupported flight format version {v}")
            }
            FlightError::ChecksumMismatch(name) => {
                write!(f, "checksum mismatch in section `{name}`")
            }
            FlightError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for FlightError {}

impl From<ContainerError> for FlightError {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::Truncated => FlightError::Truncated,
            ContainerError::BadMagic => FlightError::BadMagic,
            ContainerError::UnsupportedVersion(v) => FlightError::UnsupportedVersion(v),
            ContainerError::ChecksumMismatch(name) => FlightError::ChecksumMismatch(name),
            ContainerError::Corrupt(msg) => FlightError::Corrupt(msg),
        }
    }
}

// ---------------------------------------------------------------------------
// Dump encode / decode.

/// Caller-supplied context bundled into a dump alongside the rings.
#[derive(Debug, Clone, Default)]
pub struct DumpInput<'a> {
    /// Why the dump fired (`slo-alert:<route>`, `panic`, `sigusr1`,
    /// `manual`).
    pub reason: &'a str,
    /// Recent-request ring as JSON (server-provided; may be empty).
    pub requests_json: &'a str,
    /// Active alerts as JSON (server-provided; may be empty).
    pub alerts_json: &'a str,
    /// A metrics scrape in Prometheus text format (may be empty).
    pub metrics_text: &'a str,
}

/// One decoded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// µs since the flight epoch.
    pub ts_us: u64,
    pub kind: FlightKind,
    pub a: u64,
    pub b: u64,
}

/// One thread's decoded event timeline.
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    pub tid: u32,
    pub events: Vec<FlightEvent>,
}

/// Stage aggregate line carried in the `stages` section.
#[derive(Debug, Clone)]
pub struct StageLine {
    pub id: u16,
    pub name: String,
    pub count: u64,
    pub total_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
}

/// Fully decoded `.cpsflight` dump.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub reason: String,
    /// Wall clock at dump time, ms since the UNIX epoch.
    pub wall_ms: u64,
    /// Flight-epoch age at dump time, µs (upper bound on event ts).
    pub dumped_at_us: u64,
    pub labels: Vec<String>,
    pub stages: Vec<StageLine>,
    pub threads: Vec<ThreadEvents>,
    pub requests_json: String,
    pub alerts_json: String,
    pub metrics_text: String,
}

impl FlightDump {
    /// Total events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    fn label(&self, id: u64) -> &str {
        self.labels.get(id as usize).map_or("?", |s| s.as_str())
    }

    fn stage_name(&self, id: u64) -> &str {
        self.stages
            .iter()
            .find(|s| u64::from(s.id) == id)
            .map_or("?", |s| s.name.as_str())
    }

    /// Human-readable one-line rendering of one event.
    pub fn describe(&self, e: &FlightEvent) -> String {
        match e.kind {
            FlightKind::SpanEnter => format!("span-enter {}", self.stage_name(e.a)),
            FlightKind::SpanExit => {
                format!("span-exit  {} ({} µs)", self.stage_name(e.a), e.b)
            }
            FlightKind::Request => format!(
                "request    {} -> {} (trace ..{:016x})",
                self.label(e.b >> 16),
                e.b & 0xffff,
                e.a
            ),
            FlightKind::Shed => format!("shed       {} ({})", self.label(e.a), self.label(e.b)),
            FlightKind::Alert => format!(
                "alert      {} {}",
                self.label(e.a),
                if e.b == 1 { "FIRING" } else { "resolved" }
            ),
            FlightKind::ReactorStall => format!("stall      reactor busy {} µs", e.a),
        }
    }

    /// Per-thread timeline for `cpssec flight inspect`.
    pub fn timeline(&self) -> String {
        let mut out = format!(
            "reason: {}  wall: {} ms  window: 0..{} µs  {} events on {} threads\n",
            self.reason,
            self.wall_ms,
            self.dumped_at_us,
            self.event_count(),
            self.threads.len()
        );
        for thread in &self.threads {
            out.push_str(&format!(
                "thread {} ({} events):\n",
                thread.tid,
                thread.events.len()
            ));
            for e in &thread.events {
                out.push_str(&format!("  {:>12} µs  {}\n", e.ts_us, self.describe(e)));
            }
        }
        if !self.stages.is_empty() {
            out.push_str("stages:\n");
            for s in &self.stages {
                out.push_str(&format!(
                    "  {:<24} count {:>8}  total {:>10} µs  p50 {:>8}  p99 {:>8}\n",
                    s.name, s.count, s.total_us, s.p50_us, s.p99_us
                ));
            }
        }
        out
    }
}

/// Snapshot every live ring + recorder aggregates + caller context
/// into `.cpsflight` bytes.
pub fn encode_dump(input: &DumpInput<'_>) -> Vec<u8> {
    let f = flight();

    let mut meta = Vec::new();
    let wall_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    put_u64(&mut meta, wall_ms);
    put_u64(&mut meta, now_us());
    put_str(&mut meta, input.reason);

    let mut labels_payload = Vec::new();
    {
        let labels = f.labels.read().unwrap();
        put_u32(&mut labels_payload, labels.len() as u32);
        for label in labels.iter() {
            put_str(&mut labels_payload, label);
        }
    }

    let mut stages_payload = Vec::new();
    {
        let rec = crate::recorder();
        let stats = rec.stage_stats();
        put_u32(&mut stages_payload, stats.len() as u32);
        for (i, s) in stats.iter().enumerate() {
            put_u16(&mut stages_payload, i as u16);
            put_str(&mut stages_payload, s.name);
            put_u64(&mut stages_payload, s.count);
            put_u64(&mut stages_payload, s.total_us);
            put_u64(&mut stages_payload, s.p50_us);
            put_u64(&mut stages_payload, s.p99_us);
        }
    }

    let mut events_payload = Vec::new();
    {
        let rings: Vec<Arc<EventRing>> = {
            let mut rings = f.rings.lock().unwrap();
            rings.retain(|w| w.strong_count() > 0);
            rings.iter().filter_map(Weak::upgrade).collect()
        };
        put_u32(&mut events_payload, rings.len() as u32);
        for ring in rings {
            let events = ring.events();
            put_u32(&mut events_payload, ring.tid);
            put_u32(&mut events_payload, events.len() as u32);
            for e in events {
                put_u64(&mut events_payload, e.ts_us);
                events_payload.push(e.kind as u8);
                put_u64(&mut events_payload, e.a);
                put_u64(&mut events_payload, e.b);
            }
        }
    }

    CONTAINER.write(&[
        (SEC_META, &meta),
        (SEC_LABELS, &labels_payload),
        (SEC_STAGES, &stages_payload),
        (SEC_EVENTS, &events_payload),
        (SEC_REQUESTS, input.requests_json.as_bytes()),
        (SEC_ALERTS, input.alerts_json.as_bytes()),
        (SEC_METRICS, input.metrics_text.as_bytes()),
    ])
}

/// Header-level description of a dump (no payload decoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightInfo {
    pub version: u16,
    pub dump_id: u64,
    pub sections: Vec<SectionInfo>,
}

/// Parse the header and section table (checksums verified) without
/// decoding payloads.
pub fn inspect(bytes: &[u8]) -> Result<FlightInfo, FlightError> {
    let (version, dump_id, sections) = CONTAINER.checked_sections(bytes)?;
    Ok(FlightInfo {
        version,
        dump_id,
        sections: sections.iter().map(Section::info).collect(),
    })
}

/// Fully decode a dump, verifying every section checksum.
///
/// Checksums are not authentication: every count read from the file is
/// clamped by the bytes that remain before it sizes an allocation.
pub fn decode(bytes: &[u8]) -> Result<FlightDump, FlightError> {
    let (_, _, sections) = CONTAINER.checked_sections(bytes)?;
    let payload = |id: u16| CONTAINER.find_section(&sections, id).map(|s| s.payload);

    let mut r = Reader::new(payload(SEC_META)?);
    let wall_ms = r.u64()?;
    let dumped_at_us = r.u64()?;
    let reason = read_str(&mut r)?;

    // Minimum encoded sizes: a string is a u32 length; a stage line is
    // id + name + four u64s; a thread is tid + count; an event is
    // ts + kind + a + b.
    let mut r = Reader::new(payload(SEC_LABELS)?);
    let count = r.u32()?;
    let mut labels = Vec::with_capacity(r.capacity_for(count, 4));
    for _ in 0..count {
        labels.push(read_str(&mut r)?);
    }

    let mut r = Reader::new(payload(SEC_STAGES)?);
    let count = r.u32()?;
    let mut stages = Vec::with_capacity(r.capacity_for(count, 2 + 4 + 4 * 8));
    for _ in 0..count {
        stages.push(StageLine {
            id: r.u16()?,
            name: read_str(&mut r)?,
            count: r.u64()?,
            total_us: r.u64()?,
            p50_us: r.u64()?,
            p99_us: r.u64()?,
        });
    }

    let mut r = Reader::new(payload(SEC_EVENTS)?);
    let thread_count = r.u32()?;
    let mut threads = Vec::with_capacity(r.capacity_for(thread_count, 4 + 4));
    for _ in 0..thread_count {
        let tid = r.u32()?;
        let event_count = r.u32()?;
        let mut events = Vec::with_capacity(r.capacity_for(event_count, 8 + 1 + 8 + 8));
        for _ in 0..event_count {
            let ts_us = r.u64()?;
            let kind_byte = r.take(1)?[0];
            let a = r.u64()?;
            let b = r.u64()?;
            let kind = FlightKind::from_u8(kind_byte).ok_or_else(|| {
                FlightError::Corrupt(format!("unknown event kind {kind_byte} in flight dump"))
            })?;
            events.push(FlightEvent { ts_us, kind, a, b });
        }
        threads.push(ThreadEvents { tid, events });
    }

    let text = |id: u16| -> Result<String, FlightError> {
        String::from_utf8(payload(id)?.to_vec())
            .map_err(|_| FlightError::Corrupt("invalid UTF-8 in flight dump section".into()))
    };

    Ok(FlightDump {
        reason,
        wall_ms,
        dumped_at_us,
        labels,
        stages,
        threads,
        requests_json: text(SEC_REQUESTS)?,
        alerts_json: text(SEC_ALERTS)?,
        metrics_text: text(SEC_METRICS)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_push_wraps_keeping_latest() {
        let ring = EventRing::new(1, 4);
        for i in 0..10u64 {
            ring.push(i, FlightKind::SpanEnter, i, 0);
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.a >= 6));
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn disabled_event_records_nothing() {
        set_enabled(false);
        event(FlightKind::Shed, 0, 0);
        // No assertion on ring contents (other tests share the thread);
        // the check is that the call is a cheap no-op and doesn't touch
        // the epoch or allocate.
        assert!(!enabled());
    }

    #[test]
    fn labels_intern_idempotently() {
        let a = label_id("t-flight-route");
        let b = label_id("t-flight-route");
        assert_eq!(a, b);
        assert_eq!(label_text(a), "t-flight-route");
        let c = label_id("t-flight-other");
        assert_ne!(a, c);
    }

    #[test]
    fn dump_round_trips_events_labels_and_context() {
        set_enabled(true);
        let route = label_id("t-dump-route");
        let reason = label_id("queue-full");
        event(FlightKind::Shed, route, reason);
        event(FlightKind::Request, 0xdead_beef, (route << 16) | 200);
        event(FlightKind::ReactorStall, 12_345, 0);
        set_enabled(false);

        let bytes = encode_dump(&DumpInput {
            reason: "manual",
            requests_json: "[{\"x\":1}]",
            alerts_json: "[]",
            metrics_text: "up 1\n",
        });
        let info = inspect(&bytes).expect("inspect");
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.sections.len(), 7);
        assert!(info.sections.iter().all(|s| s.offset % 8 == 0));

        let dump = decode(&bytes).expect("decode");
        assert_eq!(dump.reason, "manual");
        assert_eq!(dump.requests_json, "[{\"x\":1}]");
        assert_eq!(dump.alerts_json, "[]");
        assert_eq!(dump.metrics_text, "up 1\n");
        assert!(dump.event_count() >= 3, "{dump:?}");
        let all: Vec<FlightEvent> = dump
            .threads
            .iter()
            .flat_map(|t| t.events.iter().copied())
            .collect();
        let shed = all.iter().find(|e| e.kind == FlightKind::Shed).unwrap();
        assert_eq!(dump.labels[shed.a as usize], "t-dump-route");
        assert_eq!(dump.labels[shed.b as usize], "queue-full");
        let timeline = dump.timeline();
        assert!(timeline.contains("shed"), "{timeline}");
        assert!(timeline.contains("t-dump-route"), "{timeline}");
        assert!(timeline.contains("reactor busy 12345 µs"), "{timeline}");
    }

    #[test]
    fn corruption_yields_distinct_one_line_errors() {
        let bytes = encode_dump(&DumpInput {
            reason: "corruption-test",
            ..DumpInput::default()
        });

        // Truncation.
        let err = decode(&bytes[..bytes.len() / 2]).unwrap_err();
        assert_eq!(err.to_string(), "flight dump is truncated");

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert_eq!(
            decode(&bad).unwrap_err().to_string(),
            "not a cpsflight dump (bad magic)"
        );

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[6] = 0xFE;
        let msg = decode(&bad).unwrap_err().to_string();
        assert!(msg.contains("unsupported flight format version"), "{msg}");

        // Payload bit flip -> checksum mismatch naming the section.
        let info = inspect(&bytes).expect("inspect");
        let meta = info.sections.iter().find(|s| s.name == "meta").unwrap();
        let mut bad = bytes.clone();
        bad[meta.offset as usize] ^= 0x01;
        let msg = decode(&bad).unwrap_err().to_string();
        assert_eq!(msg, "checksum mismatch in section `meta`");
        for err in [
            FlightError::Truncated,
            FlightError::BadMagic,
            FlightError::UnsupportedVersion(9),
            FlightError::ChecksumMismatch("events"),
        ] {
            assert_eq!(err.to_string().lines().count(), 1);
        }
    }

    #[test]
    fn forged_counts_error_without_reserving_their_memory() {
        // Valid checksums around a count of u32::MAX in each counted
        // section: labels, stages, threads, and one thread's events.
        let meta = [0u8; 20]; // wall ms, dump µs, empty reason
        let (zero, max) = (&0u32.to_le_bytes()[..], &u32::MAX.to_le_bytes()[..]);
        let events = [
            1u32.to_le_bytes(),
            7u32.to_le_bytes(),
            u32::MAX.to_le_bytes(),
        ]
        .concat();
        let write = |labels, stages, events| {
            CONTAINER.write(&[
                (SEC_META, &meta),
                (SEC_LABELS, labels),
                (SEC_STAGES, stages),
                (SEC_EVENTS, events),
                (SEC_REQUESTS, b""),
                (SEC_ALERTS, b""),
                (SEC_METRICS, b""),
            ])
        };
        assert!(decode(&write(zero, zero, zero)).is_ok());
        for bytes in [
            write(max, zero, zero),
            write(zero, max, zero),
            write(zero, zero, max),
            write(zero, zero, &events),
        ] {
            assert_eq!(decode(&bytes).unwrap_err(), FlightError::Truncated);
        }
    }

    #[test]
    fn trigger_dump_without_hook_is_none() {
        // The hook is process-global; only assert the no-hook path when
        // nothing installed one yet.
        if dump_hook().lock().unwrap().is_none() {
            assert!(trigger_dump("manual").is_none());
        }
    }
}
