//! The end-to-end runs: each workload against the live server over HTTP,
//! then the output check on every answer, outside every timing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cpssec_model::fnv1a_64;

use crate::client::{Conn, Server};
use crate::plan::{self, Class, Req, Workload};
use crate::reference::{self, Memo, State};
use crate::stats::{self, classify, Outcome, Tally, Timed};

/// Server boots per run; `setup_s` is their median.
pub const BOOTS: usize = 3;
/// Closed-loop client threads (and connections).
pub const CLIENTS: usize = 2;
/// `dashboard_hot` open-loop rate over its two connections.
pub const DASHBOARD_RPS: f64 = 6000.0;
/// Share of a `dashboard_hot` run spent in the open loop; the rest is
/// the closed-loop phase that gives `throughput_rps`.
pub const DASHBOARD_OPEN_SHARE: f64 = 0.5;
/// Leading part of the open loop that is sent and checked but not timed:
/// the first half second after the warm-up runs slow on a woken host.
pub const DASHBOARD_LEAD_IN: Duration = Duration::from_millis(500);

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the request list the phase drew from.
    pub index: usize,
    /// Due, sent and done instants.
    pub timed: Timed,
    /// HTTP status, or `None` on a transport error.
    pub status: Option<u16>,
    /// FNV-1a of the body.
    pub hash: u64,
    /// The body, where the check needs more than its hash.
    pub body: Option<Vec<u8>>,
}

/// A workload's measured figures before printing.
#[derive(Debug, Default)]
pub struct Measured {
    /// Failure accounting over every request sent.
    pub tally: Tally,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Timed latencies: (sub-window, ms from the due time to the answer).
    pub latencies: Vec<(usize, f64)>,
    /// Closed-loop OK completions: (sub-window, seconds into its phase).
    pub completions: Vec<(usize, f64)>,
    /// Peak resident set of each loaded server, MiB.
    pub rss_mb: Vec<f64>,
    /// Workload-specific figures: name, value, unit.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Human-readable notes on failed checks.
    pub problems: Vec<String>,
}

/// Sends `req` on `conn`, reconnecting once the previous exchange broke.
fn send(server: &Server, conn: &mut Option<Conn>, wire: &[u8]) -> (Option<u16>, Vec<u8>) {
    if conn.is_none() {
        *conn = server.connect().ok();
    }
    let Some(c) = conn.as_mut() else {
        return (None, Vec::new());
    };
    match c.exchange(wire) {
        Ok(response) => (Some(response.status), response.body),
        Err(_) => {
            *conn = None;
            (None, Vec::new())
        }
    }
}

fn sample(index: usize, timed: Timed, status: Option<u16>, body: Vec<u8>, keep: bool) -> Sample {
    Sample {
        index,
        timed,
        status,
        hash: fnv1a_64(&body),
        body: keep.then_some(body),
    }
}

/// Sends the requests of one connection at their due times and records
/// when each went out and when its answer was complete. A late answer
/// delays the next send; that wait stays in the next request's latency
/// because latency counts from the due time.
pub fn drive_open<R>(
    dues: impl IntoIterator<Item = (usize, Instant)>,
    mut exchange: impl FnMut(usize) -> R,
) -> Vec<(usize, Timed, R)> {
    let mut out = Vec::new();
    for (index, due) in dues {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let result = exchange(index);
        out.push((
            index,
            Timed {
                due,
                sent,
                done: Instant::now(),
            },
            result,
        ));
    }
    out
}

/// Closed loop: `clients` connections each send their next request as
/// soon as the previous answer arrives, drawing indices from a shared
/// counter (wrapping round `reqs`), until `until`.
fn closed_loop(
    server: &Server,
    reqs: &[Req],
    clients: usize,
    until: Instant,
    keep: fn(&Req) -> bool,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut conn = server.connect().ok();
                let mut mine = Vec::new();
                while Instant::now() < until {
                    let index = next.fetch_add(1, Ordering::Relaxed) % reqs.len();
                    let req = &reqs[index];
                    let wire = req.wire();
                    let sent = Instant::now();
                    let (status, body) = send(server, &mut conn, &wire);
                    let timed = Timed {
                        due: sent,
                        sent,
                        done: Instant::now(),
                    };
                    mine.push(sample(index, timed, status, body, keep(req)));
                }
                out.lock().expect("sample sink").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("sample sink");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Files closed-loop OK completions into sub-windows `first..first +
/// count`, splitting `span` from `start` evenly among them.
fn file_completions(
    m: &mut Measured,
    first: usize,
    count: usize,
    start: Instant,
    span: Duration,
    samples: &[Sample],
) {
    for s in samples
        .iter()
        .filter(|s| s.status.is_some_and(|c| (200..300).contains(&c)))
    {
        let at = s.timed.done.saturating_duration_since(start);
        m.completions
            .push((first + stats::window_of(at, span, count), at.as_secs_f64()));
    }
}

/// Files latencies (from each request's due time) the same way.
fn file_latencies<'a>(
    m: &mut Measured,
    first: usize,
    count: usize,
    start: Instant,
    span: Duration,
    samples: impl IntoIterator<Item = &'a Sample>,
) {
    for s in samples {
        let w = stats::window_of(s.timed.due.saturating_duration_since(start), span, count);
        m.latencies.push((first + w, stats::ms(s.timed.latency())));
    }
}

/// Generated inputs: the snapshot file the server boots from and the
/// reference state decoded from the same bytes.
#[derive(Debug)]
pub struct Inputs {
    /// The `.cpsnap` written for the server.
    pub snapshot: PathBuf,
    /// Its bytes.
    pub bytes: Vec<u8>,
}

/// Synthetic-corpus seed: the one `cpssec` itself serves. The corpus is
/// rebuilt by the code under test on every run, but it does not vary with
/// the workload seed: its size and term mix set the server's memory and
/// every query's cost, and figures from different seeds must compare.
/// The workload seed drives every request and every delta batch.
pub const CORPUS_SEED: u64 = 2020;

/// Builds the workload's corpus, indexes it, and writes the snapshot into
/// `work_dir`; `seed` only names the file.
///
/// # Errors
///
/// Generation or write failures.
pub fn generate(workload: Workload, seed: u64, work_dir: &Path) -> Result<Inputs, String> {
    let mut corpus = cpssec_attackdb::seed::seed_corpus();
    let spec = cpssec_attackdb::synth::SynthSpec::paper2020(CORPUS_SEED, workload.scale());
    cpssec_attackdb::synth::stream_into(&mut corpus, &spec).map_err(|e| e.to_string())?;
    let engine = cpssec_search::SearchEngine::build(&corpus);
    let bytes = cpssec_search::snapshot::encode(&corpus, &engine);
    let snapshot = work_dir.join(format!(
        "{}-{seed}-{}.cpsnap",
        workload.name(),
        std::process::id()
    ));
    std::fs::write(&snapshot, &bytes).map_err(|e| format!("write {}: {e}", snapshot.display()))?;
    Ok(Inputs { snapshot, bytes })
}

/// Boots a fresh server [`BOOTS`] times. Each boot is timed from spawn
/// to the first correct corpus-backed answer (`setup_s` is the median),
/// then `phase` runs on it with the boot's index. A server's placement
/// on the host shifts every figure it serves by up to ~10%, so the
/// timed window is spread over several servers and reported as the
/// median over them.
fn phased(
    binary: &Path,
    inputs: &Inputs,
    state: &State,
    work_dir: &Path,
    m: &mut Measured,
    mut phase: impl FnMut(&Server, usize, &mut Measured) -> Result<(), String>,
) -> Result<(), String> {
    let probe = plan::setup_probe();
    let expected = reference::analysis_body(state, &probe)?;
    let wire = probe.wire();
    let mut times = Vec::new();
    for b in 0..BOOTS {
        let started = Instant::now();
        let server =
            Server::spawn(binary, &inputs.snapshot, work_dir).map_err(|e| e.to_string())?;
        let mut conn = None;
        let (status, body) = send(&server, &mut conn, &wire);
        times.push(started.elapsed().as_secs_f64());
        let outcome = classify(status, body == expected.as_bytes());
        m.tally.add(outcome);
        if outcome != Outcome::Ok {
            m.problems.push(format!(
                "set-up probe answered {status:?} with a wrong body"
            ));
        }
        drop(conn);
        phase(&server, b, m)?;
    }
    m.setup_s = stats::median(&times);
    Ok(())
}

/// Runs one workload end to end and checks every answer.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    binary: &Path,
    work_dir: &Path,
) -> Result<Measured, String> {
    let inputs = generate(workload, seed, work_dir)?;
    let state = State::from_snapshot(&inputs.bytes)?;
    let mut m = Measured::default();
    let window = Duration::from_secs_f64(seconds);
    let result = match workload {
        Workload::AnalystCold => {
            analyst_cold(binary, &inputs, &state, work_dir, seed, window, &mut m)
        }
        Workload::DashboardHot => {
            dashboard_hot(binary, &inputs, &state, work_dir, seed, window, &mut m)
        }
        Workload::CorpusGrowth => {
            corpus_growth(binary, &inputs, state, work_dir, seed, window, &mut m)
        }
        Workload::SimFleet => sim_fleet(binary, &inputs, &state, work_dir, seed, window, &mut m),
    };
    let _ = std::fs::remove_file(&inputs.snapshot);
    result.map(|()| m)
}

/// Checks analysis answers against the batch pipeline on `state`, on
/// [`CLIENTS`] threads.
fn check_analysis(state: &State, reqs: &[Req], samples: &[Sample], m: &mut Measured) {
    let chunk = samples.len().div_ceil(CLIENTS).max(1);
    let verdicts: Vec<(bool, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut memo = Memo::default();
                    part.iter()
                        .map(|s| {
                            let req = &reqs[s.index];
                            match memo.analysis(state, req) {
                                Ok(expected) if s.body.as_deref() == Some(expected.as_bytes()) => {
                                    (true, None)
                                }
                                Ok(_) => (
                                    false,
                                    Some(format!("wrong answer for {} {}", req.method, req.target)),
                                ),
                                Err(e) => {
                                    (false, Some(format!("no reference for {}: {e}", req.target)))
                                }
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    });
    for (s, (passed, problem)) in samples.iter().zip(verdicts) {
        if let (Some(problem), Some(200)) = (problem, s.status) {
            m.problems.push(problem);
        }
        m.tally.add(classify(s.status, passed));
    }
}

/// Requests of the analyst sequence each phase may draw (never reached).
const PHASE_REQUESTS: usize = 5000;

fn analyst_cold(
    binary: &Path,
    inputs: &Inputs,
    state: &State,
    work_dir: &Path,
    seed: u64,
    window: Duration,
    m: &mut Measured,
) -> Result<(), String> {
    let reqs = plan::analyst_cold(seed, PHASE_REQUESTS * BOOTS);
    let each = window / u32::try_from(BOOTS).expect("few boots");
    let mut phases = Vec::new();
    phased(binary, inputs, state, work_dir, m, |server, b, m| {
        let part = &reqs[b * PHASE_REQUESTS..(b + 1) * PHASE_REQUESTS];
        let start = Instant::now();
        let samples = closed_loop(server, part, CLIENTS, start + each, |_| true);
        m.rss_mb.push(server.peak_rss_mb().unwrap_or(0.0));
        file_completions(m, b, 1, start, each, &samples);
        file_latencies(m, b, 1, start, each, &samples);
        phases.push((part, samples));
        Ok(())
    })?;
    for (part, samples) in phases {
        check_analysis(state, part, &samples, m);
    }
    Ok(())
}

/// Dashboard answers are checked by hash except the operator endpoints,
/// whose bodies change from scrape to scrape and are parsed instead.
fn keeps_body(req: &Req) -> bool {
    matches!(req.class, Class::Metrics | Class::History)
}

fn dashboard_hot(
    binary: &Path,
    inputs: &Inputs,
    state: &State,
    work_dir: &Path,
    seed: u64,
    window: Duration,
    m: &mut Measured,
) -> Result<(), String> {
    let each = window / u32::try_from(BOOTS).expect("few boots");
    let open = each.mul_f64(DASHBOARD_OPEN_SHARE);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n_open = (open.as_secs_f64() * DASHBOARD_RPS) as usize;
    let (specs, timed) = plan::dashboard_hot(seed, n_open + 20_000);
    let rest = &timed[n_open..];
    let mut phases = Vec::new();
    let mut lags = Vec::new();
    phased(binary, inputs, state, work_dir, m, |server, b, m| {
        // Warm every spec once; these cold answers are what hits must equal.
        let mut conn = None;
        let warm: Vec<Sample> = specs
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let sent = Instant::now();
                let (status, body) = send(server, &mut conn, &req.wire());
                let t = Timed {
                    due: sent,
                    sent,
                    done: Instant::now(),
                };
                sample(i, t, status, body, true)
            })
            .collect();
        drop(conn);
        let start = Instant::now();
        let open_samples = open_loop(server, &timed[..n_open], start);
        let closed_start = Instant::now();
        // One connection: throughput is the serving path's round trip, not
        // how two client threads and the server share the two cores.
        let closed = closed_loop(server, rest, 1, start + each, keeps_body);
        m.rss_mb.push(server.peak_rss_mb().unwrap_or(0.0));
        let sub = plan::DASHBOARD_SUBWINDOWS;
        file_completions(m, b * sub, sub, closed_start, each - open, &closed);
        let timed_from = start + DASHBOARD_LEAD_IN;
        let steady = open_samples.iter().filter(|s| s.timed.due >= timed_from);
        file_latencies(
            m,
            b * sub,
            sub,
            timed_from,
            open - DASHBOARD_LEAD_IN,
            steady,
        );
        lags.extend(open_samples.iter().map(|s| stats::ms(s.timed.lag())));
        phases.push((warm, open_samples, closed));
        Ok(())
    })?;
    if let Some((p50, Some((label, tail)))) = stats::latency_summary(lags) {
        m.extra.push(("loadgen.send_lag_p50_ms".into(), p50, "ms"));
        m.extra
            .push((format!("loadgen.send_lag_{label}_ms"), tail, "ms"));
    }

    // Check: cold answers against the batch pipeline, every later answer
    // against its cold answer on the same server.
    for (warm, open_samples, closed) in phases {
        check_analysis(state, &specs, &warm, m);
        let cold: BTreeMap<(&str, &[u8]), u64> = specs
            .iter()
            .zip(&warm)
            .map(|(req, s)| ((req.target.as_str(), req.body.as_slice()), s.hash))
            .collect();
        let all = open_samples
            .iter()
            .map(|s| (s, &timed[s.index]))
            .chain(closed.iter().map(|s| (s, &rest[s.index])));
        for (s, req) in all {
            let passed = match req.class {
                Class::Healthz => s.hash == fnv1a_64(b"ok\n"),
                Class::Metrics => s.body.as_deref().is_some_and(reference::metrics_ok),
                Class::History => s.body.as_deref().is_some_and(reference::json_ok),
                _ => cold.get(&(req.target.as_str(), req.body.as_slice())) == Some(&s.hash),
            };
            if !passed && s.status == Some(200) {
                m.problems
                    .push(format!("hit differs from its cold answer: {}", req.target));
            }
            m.tally.add(classify(s.status, passed));
        }
    }
    Ok(())
}

/// Open loop at [`DASHBOARD_RPS`]: connection `c` sends indices `c`,
/// `c + CLIENTS`, … of `reqs`, each at its due time.
fn open_loop(server: &Server, reqs: &[Req], start: Instant) -> Vec<Sample> {
    let step = Duration::from_secs_f64(1.0 / DASHBOARD_RPS);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = server.connect().ok();
                    let dues = (c..reqs.len())
                        .step_by(CLIENTS)
                        .map(|i| (i, start + step * u32::try_from(i).expect("index fits")));
                    drive_open(dues, |i| {
                        let (status, body) = send(server, &mut conn, &reqs[i].wire());
                        (status, body, keeps_body(&reqs[i]))
                    })
                    .into_iter()
                    .map(|(i, t, (status, body, keep))| sample(i, t, status, body, keep))
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// One delta write as the writer saw it.
#[derive(Debug)]
struct Write {
    parent: u64,
    bytes: Vec<u8>,
    timed: Timed,
    status: Option<u16>,
    state_id: Option<u64>,
    compacted: bool,
}

fn parse_write(body: &[u8]) -> Option<(u64, bool)> {
    let text = std::str::from_utf8(body).ok()?;
    let value = cpssec_attackdb::json::parse(text).ok()?;
    let id = u64::from_str_radix(value.get("stateId")?.as_str()?, 16).ok()?;
    let compacted = matches!(
        value.get("compacted"),
        Some(cpssec_attackdb::json::JsonValue::Bool(true))
    );
    Some((id, compacted))
}

/// The timed part of `corpus_growth` on one server: the paced writer
/// beside the closed-loop reader.
fn growth_phase(
    server: &Server,
    reads_cycle: &[Req],
    batches: &[cpssec_attackdb::Corpus],
    base_id: u64,
    window: Duration,
    m: &mut Measured,
) -> (Vec<Write>, Vec<Sample>) {
    let start = Instant::now();
    let until = start + window;
    let step = window.mul_f64(0.85 / plan::GROWTH_WRITES as f64);

    let (writes, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut conn = server.connect().ok();
            let mut parent = base_id;
            let mut writes = Vec::new();
            for (k, batch) in batches.iter().enumerate() {
                let due = start + step * u32::try_from(k).expect("few writes");
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                // Each delta chains onto the id the server just returned:
                // after a compaction that is the compacted snapshot's id.
                let bytes = cpssec_search::build_delta(parent, batch);
                let wire = Req::delta(bytes.clone()).wire();
                let sent = Instant::now();
                let (status, body) = send(server, &mut conn, &wire);
                let done = Instant::now();
                let parsed = if status == Some(200) {
                    parse_write(&body)
                } else {
                    None
                };
                writes.push(Write {
                    parent,
                    bytes,
                    timed: Timed { due, sent, done },
                    status,
                    state_id: parsed.map(|p| p.0),
                    compacted: parsed.is_some_and(|p| p.1),
                });
                match parsed {
                    Some((id, _)) => parent = id,
                    // A refused link breaks the chain; never retry silently.
                    None => break,
                }
            }
            writes
        });
        let reads = closed_loop(server, reads_cycle, 1, until, |_| true);
        (writer.join().expect("delta writer"), reads)
    });
    m.rss_mb.push(server.peak_rss_mb().unwrap_or(0.0));
    file_completions(m, 0, 1, start, window, &reads);
    file_latencies(m, 0, 1, start, window, &reads);
    (writes, reads)
}

fn corpus_growth(
    binary: &Path,
    inputs: &Inputs,
    mut state: State,
    work_dir: &Path,
    seed: u64,
    window: Duration,
    m: &mut Measured,
) -> Result<(), String> {
    let reads_cycle = plan::growth_reads();
    let batches = plan::growth_batches(seed, plan::GROWTH_WRITES);
    let base_id = cpssec_search::snapshot::inspect(&inputs.bytes)
        .map_err(|e| e.to_string())?
        .snapshot_id;
    // The delta chain needs one server for the whole window: only the
    // last boot carries load.
    let mut timed = None;
    phased(binary, inputs, &state, work_dir, m, |server, b, m| {
        if b + 1 == BOOTS {
            timed = Some(growth_phase(
                server,
                &reads_cycle,
                &batches,
                base_id,
                window,
                m,
            ));
        }
        Ok(())
    })?;
    let (writes, reads) = timed.expect("the last boot ran the workload");
    let write_ms: Vec<f64> = writes
        .iter()
        .map(|w| stats::ms(w.timed.latency()))
        .collect();
    if !write_ms.is_empty() {
        m.extra.push((
            "write_mean_ms".into(),
            write_ms.iter().sum::<f64>() / write_ms.len() as f64,
            "ms",
        ));
    }
    let compactions = writes.iter().filter(|w| w.compacted).count();
    m.extra
        .push(("compactions".into(), compactions as f64, "count"));
    for _ in writes.len()..plan::GROWTH_WRITES {
        m.tally.add(Outcome::Transport);
        m.problems.push("delta chain stopped early".into());
    }

    // Rebuild every state in-process from the same delta bytes. State k
    // (k writes applied) may have answered a read that overlaps the span
    // from write k being sent to write k+1 completing.
    let visible = |k: usize, s: &Sample| {
        let from_ok = k == 0 || writes[k - 1].timed.sent <= s.timed.done;
        let to_ok = k >= writes.len() || writes[k].timed.done >= s.timed.sent;
        from_ok && to_ok
    };
    let mut passed = vec![false; reads.len()];
    for k in 0..=writes.len() {
        let mut memo = Memo::default();
        for (i, s) in reads.iter().enumerate() {
            if !passed[i] && visible(k, s) {
                if let (Some(body), Ok(expected)) =
                    (&s.body, memo.analysis(&state, &reads_cycle[s.index]))
                {
                    passed[i] = body == expected.as_bytes();
                }
            }
        }
        let Some(w) = writes.get(k) else { continue };
        if w.status != Some(200) {
            m.tally.add(classify(w.status, false));
            continue;
        }
        let compacts = (k + 1) % cpssec_server::COMPACTION_EVERY as usize == 0;
        let ok = match state.apply(&w.bytes, w.parent, compacts) {
            Ok(expected) if w.state_id == Some(expected) && w.compacted == compacts => true,
            Ok(expected) => {
                m.problems.push(format!(
                    "write {k} reported {:?}, expected {expected:016x}",
                    w.state_id
                ));
                false
            }
            Err(e) => {
                m.problems
                    .push(format!("write {k} does not apply in-process: {e}"));
                false
            }
        };
        m.tally.add(classify(w.status, ok));
    }
    for (s, ok) in reads.iter().zip(passed) {
        if !ok && s.status == Some(200) {
            m.problems.push(format!(
                "read matches no visible state: {}",
                reads_cycle[s.index].target
            ));
        }
        m.tally.add(classify(s.status, ok));
    }
    Ok(())
}

/// A job's expected `result` and `recordsHash`, or why there is none.
type JobAnswer = Result<(String, String), String>;

fn job_total(body: &[u8]) -> f64 {
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| t.split("\"total\":").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn sim_fleet(
    binary: &Path,
    inputs: &Inputs,
    state: &State,
    work_dir: &Path,
    seed: u64,
    window: Duration,
    m: &mut Measured,
) -> Result<(), String> {
    let reqs = plan::sim_fleet(seed, PHASE_REQUESTS * BOOTS);
    let each = window / u32::try_from(BOOTS).expect("few boots");
    let mut samples = Vec::new();
    let mut elapsed = 0.0;
    phased(binary, inputs, state, work_dir, m, |server, b, m| {
        let first = b * PHASE_REQUESTS;
        let start = Instant::now();
        let phase = closed_loop(
            server,
            &reqs[first..first + PHASE_REQUESTS],
            1,
            start + each,
            |_| true,
        );
        m.rss_mb.push(server.peak_rss_mb().unwrap_or(0.0));
        file_completions(m, b, 1, start, each, &phase);
        file_latencies(m, b, 1, start, each, &phase);
        elapsed += phase
            .iter()
            .map(|s| s.timed.done)
            .max()
            .map_or(0.0, |end| end.duration_since(start).as_secs_f64());
        samples.extend(phase.into_iter().map(|s| Sample {
            index: first + s.index,
            ..s
        }));
        Ok(())
    })?;
    let mut expected: BTreeMap<(String, Vec<u8>), JobAnswer> = BTreeMap::new();
    let (mut scenarios, mut chains) = (0.0, 0.0);
    for s in &samples {
        let req = &reqs[s.index];
        let want = expected
            .entry((req.target.clone(), req.body.clone()))
            .or_insert_with(|| reference::job_result(req));
        let passed = match want {
            Ok(want) => s
                .body
                .as_deref()
                .is_some_and(|b| reference::job_matches(b, want)),
            Err(e) => {
                m.problems.push(e.clone());
                false
            }
        };
        if passed {
            let total = job_total(s.body.as_deref().unwrap_or_default());
            if req.class == Class::Fleet {
                scenarios += total;
            } else {
                chains += total;
            }
        } else if s.status == Some(200) {
            m.problems
                .push(format!("job answer differs: {}", req.target));
        }
        m.tally.add(classify(s.status, passed));
    }
    m.extra
        .push(("scenarios_per_s".into(), scenarios / elapsed, "1/s"));
    m.extra
        .push(("chains_per_s".into(), chains / elapsed, "1/s"));
    Ok(())
}
