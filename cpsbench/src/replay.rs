//! The traced run: every workload's request sequence replayed in-process
//! through `router::dispatch` on an `AppState` booted from the same
//! snapshot bytes, with each handler's layer calls re-issued inside
//! benchmark-side spans. Answers are checked against the re-issued
//! calls' output; per-layer metrics come from the written trace file.
//!
//! Every traced run replays all four sequences (truncated to fixed
//! lengths), whatever `--workload` names, so each run reports every
//! per-layer metric from the workload whose traffic exercises that layer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpssec_analysis::render;
use cpssec_analysis::{whatif, AssociationMap, SystemPosture};
use cpssec_campaign::{compile_chains, CampaignRun, CampaignVerdict, Testbed};
use cpssec_model::{fnv1a_64, Fidelity, ModelDiff};
use cpssec_scada::{AttackClass, CampaignSpec};
use cpssec_search::{exploit_chains, ScoringModel, SearchEngine};
use cpssec_server::http::{parse_request_bytes, Incremental, Request};
use cpssec_server::pool::WorkerPool;
use cpssec_server::router::{self, parse_changes, parse_spec};
use cpssec_server::AppState;

use crate::e2e::{self, Inputs};
use crate::plan::{self, Class, Req, Workload};
use crate::reference::{self, State};
use crate::stats::{self, Tally, Timed};
use crate::trace::{self, Args, Span, Tracer};

/// Requests of the `analyst_cold` sequence replayed.
pub const ANALYST_REPLAY: usize = 100;
/// Timed `dashboard_hot` requests replayed at the open-loop rate.
pub const DASHBOARD_REPLAY: usize = 6000;
/// Requests each overhead pass dispatches.
pub const OVERHEAD_REPLAY: usize = 20_000;
/// Reads replayed after each `corpus_growth` write.
pub const GROWTH_READS_PER_WRITE: usize = 6;
/// Requests of the `sim_fleet` sequence replayed: two cycles, so both
/// campaign testbeds.
pub const SIM_REPLAY: usize = 12;
/// Every how many analysis requests the per-call search probes run.
pub const PROBE_EVERY: u64 = 4;

/// What the traced run hands back to `main`.
#[derive(Debug)]
pub struct Replayed {
    /// The Chrome trace written.
    pub trace_path: PathBuf,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Requests replayed.
    pub attempted: u64,
    /// Requests whose answer failed.
    pub failed: u64,
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
}

type Check = Result<(), String>;

/// Runs replayed requests as jobs on a real `WorkerPool`, timing the wait
/// from `execute` to job start, and collects their checks.
struct Replayer {
    pool: WorkerPool,
    tracer: Arc<Tracer>,
    tx: Sender<Check>,
    rx: Receiver<Check>,
    in_flight: usize,
    tally: Tally,
    problems: Vec<String>,
}

impl Replayer {
    fn new(tracer: Arc<Tracer>) -> Replayer {
        let (tx, rx) = channel();
        Replayer {
            pool: WorkerPool::new(2),
            tracer,
            tx,
            rx,
            in_flight: 0,
            tally: Tally::default(),
            problems: Vec::new(),
        }
    }

    fn submit(
        &mut self,
        req: u64,
        workload: Workload,
        class: Class,
        work: impl FnOnce(&Tracer, u32, u64) -> Check + Send + 'static,
    ) {
        let tracer = Arc::clone(&self.tracer);
        let tx = self.tx.clone();
        let submitted = Instant::now();
        self.in_flight += 1;
        self.pool.execute(move || {
            let started = Instant::now();
            let root = tracer.id();
            let wait = tracer.id();
            tracer.record(
                "server.pool.queue_wait",
                wait,
                root,
                req,
                submitted,
                started,
                Args::none(),
            );
            let check = work(&tracer, root, req);
            let args = Args::none()
                .s("workload", workload.name())
                .s("class", class.label());
            tracer.record("request", root, 0, req, submitted, Instant::now(), args);
            let _ = tx.send(check);
        });
    }

    /// Blocks until fewer than `limit` jobs are in flight.
    fn wait_below(&mut self, limit: usize) {
        while self.in_flight >= limit.max(1) {
            let check = self.rx.recv().expect("pool jobs report back");
            self.in_flight -= 1;
            self.tally.add(stats::classify(Some(200), check.is_ok()));
            if let Err(problem) = check {
                self.problems.push(problem);
            }
        }
    }

    fn drain(&mut self) {
        self.wait_below(1);
    }
}

fn parse(tracer: &Tracer, root: u32, rid: u64, req: &Req) -> Result<Request, String> {
    let wire = req.wire();
    match tracer.call("server.http.parse", root, rid, || {
        parse_request_bytes(&wire)
    }) {
        Ok(Incremental::Complete(request, _)) => Ok(request),
        _ => Err(format!("replayed request does not parse: {}", req.target)),
    }
}

fn dispatch(
    tracer: &Tracer,
    root: u32,
    rid: u64,
    state: &AppState,
    request: &Request,
    phase: &str,
    class: Class,
) -> (u16, Vec<u8>) {
    tracer.span("server.router.dispatch", root, rid, |_| {
        let (_, response) = router::dispatch(state, request);
        let args = Args::none().s("phase", phase).s("class", class.label());
        ((response.status, response.body), args)
    })
}

/// Re-issues the layer calls an analysis handler makes and returns the
/// body they render. Spans under `layers` account for dispatch time;
/// spans under `probe` break the search work down per call.
fn analysis_layers(
    tracer: &Tracer,
    root: u32,
    rid: u64,
    state: &AppState,
    request: &Request,
    class: Class,
) -> Result<String, String> {
    let layers = tracer.id();
    let from = Instant::now();
    let spec = tracer.call("server.router.spec", layers, rid, || parse_spec(request))?;
    let id = match class {
        Class::Table1 => request.query_param("model").unwrap_or("scada").to_owned(),
        _ => request
            .path
            .split('/')
            .nth(2)
            .unwrap_or_default()
            .to_owned(),
    };
    let stored = state
        .sessions
        .get(&id)
        .ok_or_else(|| format!("unknown model {id}"))?;
    let model = &stored.model;
    let engine = state.engine(spec.scoring);
    let corpus = state.corpus();
    let body = match class {
        Class::Table1 => {
            let rows = tracer.call("analysis.attribute_rows", layers, rid, || {
                cpssec_analysis::attribute_rows(
                    model,
                    &engine,
                    &corpus,
                    spec.fidelity,
                    &spec.filters,
                )
            });
            tracer.call("analysis.render", layers, rid, || {
                reference::table1_text(&rows)
            })
        }
        Class::WhatIf => {
            let changes = tracer.call("server.router.spec", layers, rid, || {
                parse_changes(&request.body)
            })?;
            let prior = tracer.call("analysis.associate.build", layers, rid, || {
                AssociationMap::build(model, &engine, &corpus, spec.fidelity, &spec.filters)
            });
            let (requeried, components) = requeried(model, &changes, spec.fidelity);
            let report = tracer.span("analysis.whatif.evaluate", layers, rid, |_| {
                let report = whatif::evaluate_with_prior(
                    model,
                    &changes,
                    &prior,
                    &engine,
                    &corpus,
                    &spec.filters,
                );
                (
                    report,
                    Args::none()
                        .n("requeried", requeried)
                        .n("components", components),
                )
            });
            let report = report.map_err(|e| e.to_string())?;
            tracer.call("analysis.render", layers, rid, || {
                render::whatif_json(model.name(), spec.fidelity, &report).to_text()
            })
        }
        _ => {
            let map = tracer.call("analysis.associate.build", layers, rid, || {
                AssociationMap::build(model, &engine, &corpus, spec.fidelity, &spec.filters)
            });
            let posture = tracer.call("analysis.posture.compute", layers, rid, || {
                SystemPosture::compute(model, &corpus, &map)
            });
            tracer.call("analysis.render", layers, rid, || {
                match request.query_param("component") {
                    None => Ok(render::association_json(model, &map, &posture).to_text()),
                    Some(name) => reference::component_json(model, &map, &posture, name),
                }
            })?
        }
    };
    tracer.record(
        "layers",
        layers,
        root,
        rid,
        from,
        Instant::now(),
        Args::none(),
    );
    if rid.is_multiple_of(PROBE_EVERY) || class == Class::WhatIf {
        probe(tracer, root, rid, model, &engine, &corpus, &spec, class);
    }
    Ok(body)
}

/// Components whose query text a what-if changes (re-queried by the
/// incremental rebuild), and the edited model's component count.
fn requeried(
    model: &cpssec_model::SystemModel,
    changes: &[cpssec_analysis::ModelChange],
    level: Fidelity,
) -> (f64, f64) {
    let Ok(edited) = whatif::apply_changes(model, changes) else {
        return (0.0, 0.0);
    };
    let diff = ModelDiff::between(model, &edited);
    let changed = diff
        .changed_components
        .iter()
        .filter(|c| {
            let text = |m: &cpssec_model::SystemModel| {
                m.component_by_name(&c.name)
                    .map(|comp| fnv1a_64(comp.search_text(level).as_bytes()))
            };
            text(model) != text(&edited)
        })
        .count();
    (
        (diff.added_components.len() + changed) as f64,
        edited.component_count() as f64,
    )
}

/// Per-call search work behind one analysis request: the fan-out the
/// association build makes (for its self time), then every element's
/// tokenize, match and filter call on its own.
#[allow(clippy::too_many_arguments)]
fn probe(
    tracer: &Tracer,
    root: u32,
    rid: u64,
    model: &cpssec_model::SystemModel,
    engine: &SearchEngine,
    corpus: &cpssec_attackdb::Corpus,
    spec: &router::RequestSpec,
    class: Class,
) {
    let probe = tracer.id();
    let from = Instant::now();
    let level = spec.fidelity;
    let filter = |set: &cpssec_search::MatchSet| {
        tracer.span("search.filter.apply", probe, rid, |_| {
            let kept = spec.filters.apply(set, corpus);
            let args = Args::none()
                .n("scored", set.total() as f64)
                .n("kept", kept.total() as f64);
            (kept, args)
        })
    };
    let label = |hits: usize| {
        Args::none()
            .n("hits", hits as f64)
            .s("fidelity", level.as_str())
            .s("scoring", spec.scoring.as_str())
    };
    if class == Class::Table1 {
        for (_, component) in model.components() {
            for attribute in component.attributes().visible_at(level) {
                if !attribute.kind().is_concrete() {
                    continue;
                }
                tracer.call("search.text.tokenize", probe, rid, || {
                    cpssec_search::text::tokenize(attribute.value())
                });
                let raw = tracer.span("search.engine.match", probe, rid, |_| {
                    let raw = engine.match_text(attribute.value());
                    let hits = raw.total();
                    (raw, label(hits))
                });
                filter(&raw);
            }
        }
    } else {
        let sets = tracer.call("search.engine.fanout", probe, rid, || {
            engine.par_match_model(model, level)
        });
        let channels = tracer.call("search.engine.fanout", probe, rid, || {
            engine.par_match_channels(model, level)
        });
        for set in sets
            .iter()
            .map(|(_, s)| s)
            .chain(channels.iter().map(|(_, s)| s))
        {
            filter(set);
        }
        for (_, component) in model.components() {
            let text = component.search_text(level);
            tracer.call("search.text.tokenize", probe, rid, || {
                cpssec_search::text::tokenize(&text)
            });
            tracer.span("search.engine.match", probe, rid, |_| {
                let raw = engine.match_component(component, level);
                let hits = raw.total();
                (raw, label(hits))
            });
        }
    }
    tracer.record(
        "probe",
        probe,
        root,
        rid,
        from,
        Instant::now(),
        Args::none(),
    );
}

/// One replayed analysis request: parse, dispatch, re-issue, compare.
/// Odd request ids re-issue before dispatching, so warm-cache effects of
/// running the same work twice do not all land on one side.
fn analysis_job(
    tracer: &Tracer,
    root: u32,
    rid: u64,
    state: &AppState,
    req: &Req,
    phase: &str,
) -> Result<u64, String> {
    let request = parse(tracer, root, rid, req)?;
    let (status, body, expected) = if rid % 2 == 1 {
        let expected = analysis_layers(tracer, root, rid, state, &request, req.class);
        let (status, body) = dispatch(tracer, root, rid, state, &request, phase, req.class);
        (status, body, expected)
    } else {
        let (status, body) = dispatch(tracer, root, rid, state, &request, phase, req.class);
        (
            status,
            body,
            analysis_layers(tracer, root, rid, state, &request, req.class),
        )
    };
    match expected {
        Ok(expected) if status == 200 && body == expected.as_bytes() => Ok(fnv1a_64(&body)),
        Ok(_) => Err(format!(
            "dispatch answer {status} differs from its layers: {}",
            req.target
        )),
        Err(e) => Err(format!("layers failed for {}: {e}", req.target)),
    }
}

fn boot(bytes: &[u8]) -> Result<Arc<AppState>, String> {
    AppState::from_snapshot(bytes).map_err(|e| e.to_string())
}

/// `analyst_cold`: closed loop of two over the pool, every request cold.
fn analyst(replayer: &mut Replayer, bytes: &[u8], seed: u64) -> Result<(), String> {
    let state = boot(bytes)?;
    for (i, req) in plan::analyst_cold(seed, ANALYST_REPLAY)
        .into_iter()
        .enumerate()
    {
        replayer.wait_below(e2e::CLIENTS);
        let state = Arc::clone(&state);
        let class = req.class;
        replayer.submit(
            1_000_000 + i as u64,
            Workload::AnalystCold,
            class,
            move |t, root, rid| analysis_job(t, root, rid, &state, &req, "cold").map(|_| ()),
        );
    }
    replayer.drain();
    Ok(())
}

/// Checks a hot answer against its cold answer (or the operator
/// endpoints' shape).
fn hot_check(
    req: &Req,
    status: u16,
    body: &[u8],
    cold: &BTreeMap<(String, Vec<u8>), u64>,
) -> Check {
    let ok = status == 200
        && match req.class {
            Class::Healthz => body == b"ok\n",
            Class::Metrics => reference::metrics_ok(body),
            Class::History => reference::json_ok(body),
            _ => cold.get(&(req.target.clone(), req.body.clone())) == Some(&fnv1a_64(body)),
        };
    ok.then_some(())
        .ok_or_else(|| format!("hot answer differs: {}", req.target))
}

/// Warms the dashboard specs on `state` (checked against their layers)
/// and returns each spec's cold-answer hash.
fn warm(
    replayer: &mut Replayer,
    state: &Arc<AppState>,
    specs: &[Req],
) -> BTreeMap<(String, Vec<u8>), u64> {
    let cold = Arc::new(std::sync::Mutex::new(BTreeMap::new()));
    for (i, req) in specs.iter().enumerate() {
        replayer.wait_below(1);
        let (state, req, cold) = (Arc::clone(state), req.clone(), Arc::clone(&cold));
        replayer.submit(
            2_000_000 + i as u64,
            Workload::DashboardHot,
            req.class,
            move |t, root, rid| {
                let hash = analysis_job(t, root, rid, &state, &req, "cold")?;
                cold.lock()
                    .expect("cold answers")
                    .insert((req.target, req.body), hash);
                Ok(())
            },
        );
    }
    replayer.drain();
    let cold = cold.lock().expect("cold answers").clone();
    cold
}

fn cache_stats(tracer: &Tracer, state: &AppState, rid: u64, from: ((u64, u64), (u64, u64))) {
    let (r, p) = (state.responses.stats(), state.priors.stats());
    let now = Instant::now();
    let args = Args::none()
        .n("responses_hits", (r.0 - from.0 .0) as f64)
        .n("responses_misses", (r.1 - from.0 .1) as f64)
        .n("priors_hits", (p.0 - from.1 .0) as f64)
        .n("priors_misses", (p.1 - from.1 .1) as f64);
    tracer.record("server.cache.stats", tracer.id(), 0, rid, now, now, args);
}

/// `dashboard_hot`: warm, then the timed sequence submitted at the
/// open-loop rate; then the untraced/traced overhead passes and the HTTP
/// probe for transport time and admission sheds.
fn dashboard(
    replayer: &mut Replayer,
    inputs: &Inputs,
    seed: u64,
    binary: &Path,
    work: &Path,
) -> Result<(), String> {
    let state = boot(&inputs.bytes)?;
    let (specs, timed) = plan::dashboard_hot(seed, OVERHEAD_REPLAY);
    let before = (state.responses.stats(), state.priors.stats());
    let cold = Arc::new(warm(replayer, &state, &specs));
    let step = Duration::from_secs_f64(1.0 / e2e::DASHBOARD_RPS);
    let start = Instant::now();
    for (i, req) in timed.iter().take(DASHBOARD_REPLAY).enumerate() {
        let due = start + step * u32::try_from(i).expect("replay index fits");
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let tracer = Arc::clone(&replayer.tracer);
        let lag = Instant::now().saturating_duration_since(due);
        tracer.record(
            "loadgen.send",
            tracer.id(),
            0,
            2_100_000 + i as u64,
            due,
            due + lag,
            Args::none(),
        );
        let (state, req, cold) = (Arc::clone(&state), req.clone(), Arc::clone(&cold));
        replayer.submit(
            2_100_000 + i as u64,
            Workload::DashboardHot,
            req.class,
            move |t, root, rid| {
                let request = parse(t, root, rid, &req)?;
                let (status, body) = dispatch(t, root, rid, &state, &request, "hot", req.class);
                hot_check(&req, status, &body, &cold)
            },
        );
    }
    replayer.drain();
    cache_stats(&replayer.tracer, &state, 2_100_000, before);
    overhead(&replayer.tracer, inputs, &specs, &timed)?;
    http_probe(&replayer.tracer, inputs, &specs, &timed, binary, work)
}

/// Dispatches the timed sequence once without spans and once with them,
/// twice each in alternation, on states warmed like the replay.
fn overhead(tracer: &Tracer, inputs: &Inputs, specs: &[Req], timed: &[Req]) -> Result<(), String> {
    let requests: Vec<Request> = timed
        .iter()
        .map(reference::parse)
        .collect::<Result<_, _>>()?;
    for round in 0..4 {
        let traced = round % 2 == 1;
        let state = boot(&inputs.bytes)?;
        for spec in specs {
            let _ = router::dispatch(&state, &reference::parse(spec)?);
        }
        let pass = Tracer::new(traced);
        let from = Instant::now();
        for (i, (req, request)) in timed.iter().zip(&requests).enumerate() {
            let root = pass.id();
            let rid = i as u64;
            let wire = req.wire();
            let _ = pass.call("server.http.parse", root, rid, || {
                parse_request_bytes(&wire)
            });
            dispatch(&pass, root, rid, &state, request, "hot", req.class);
        }
        let args = Args::none().n("traced", f64::from(u8::from(traced)));
        tracer.record("replay.pass", tracer.id(), 0, 0, from, Instant::now(), args);
    }
    Ok(())
}

/// Drives the real server briefly at the dashboard rate for the client
/// side of the transport split, the generator's lag, and admission sheds.
fn http_probe(
    tracer: &Tracer,
    inputs: &Inputs,
    specs: &[Req],
    timed: &[Req],
    binary: &Path,
    work: &Path,
) -> Result<(), String> {
    let server =
        crate::client::Server::spawn(binary, &inputs.snapshot, work).map_err(|e| e.to_string())?;
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    for spec in specs {
        conn.exchange(&spec.wire()).map_err(|e| e.to_string())?;
    }
    let step = Duration::from_secs_f64(1.0 / e2e::DASHBOARD_RPS);
    let start = Instant::now() + Duration::from_millis(5);
    let n = DASHBOARD_REPLAY / 2;
    let dues = (0..n).map(|i| {
        (
            i,
            start + step * u32::try_from(i).expect("probe index fits"),
        )
    });
    let samples: Vec<(usize, Timed, bool)> = e2e::drive_open(dues, |i| {
        conn.exchange(&timed[i].wire())
            .is_ok_and(|r| r.status == 200)
    });
    for (i, t, ok) in samples {
        let args = Args::none()
            .s("class", timed[i].class.label())
            .n("ok", f64::from(u8::from(ok)))
            .n("lag_us", stats::us(t.lag()));
        tracer.record(
            "client.request",
            tracer.id(),
            0,
            5_000_000 + i as u64,
            t.sent,
            t.done,
            args,
        );
    }
    let metrics = conn
        .exchange(
            &Req {
                class: Class::Metrics,
                method: "GET",
                target: "/metrics".into(),
                body: Vec::new(),
            }
            .wire(),
        )
        .map_err(|e| e.to_string())?;
    let shed: f64 = String::from_utf8_lossy(&metrics.body)
        .lines()
        .filter(|l| l.starts_with("shed_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum();
    let now = Instant::now();
    tracer.record(
        "server.admission",
        tracer.id(),
        0,
        0,
        now,
        now,
        Args::none().n("shed", shed),
    );
    Ok(())
}

/// `corpus_growth`: eight chained writes, each followed by cold reads.
fn growth(replayer: &mut Replayer, inputs: &Inputs, seed: u64) -> Result<(), String> {
    let state = boot(&inputs.bytes)?;
    let mut shadow = State::from_snapshot(&inputs.bytes)?;
    let mut parent = cpssec_search::snapshot::inspect(&inputs.bytes)
        .map_err(|e| e.to_string())?
        .snapshot_id;
    let reads = plan::growth_reads();
    let before = (state.responses.stats(), state.priors.stats());
    let mut rid = 3_000_000;
    for (k, batch) in plan::growth_batches(seed, plan::GROWTH_WRITES)
        .iter()
        .enumerate()
    {
        let req = Req::delta(cpssec_search::build_delta(parent, batch));
        let compacts = (k + 1) % cpssec_server::COMPACTION_EVERY as usize == 0;
        let (tx, rx) = channel();
        let moved = (Arc::clone(&state), req, shadow);
        rid += 1;
        replayer.submit(
            rid,
            Workload::CorpusGrowth,
            Class::Delta,
            move |t, root, rid| {
                let (state, req, mut shadow) = moved;
                let check = write_job(t, root, rid, &state, &req, &mut shadow, parent, compacts);
                let _ = tx.send(shadow);
                check
            },
        );
        replayer.drain();
        shadow = rx.recv().map_err(|_| "delta job lost its state")?;
        parent = state.state_id();
        for i in 0..GROWTH_READS_PER_WRITE {
            let req = reads[(k * GROWTH_READS_PER_WRITE + i) % reads.len()].clone();
            let state = Arc::clone(&state);
            rid += 1;
            replayer.wait_below(1);
            replayer.submit(
                rid,
                Workload::CorpusGrowth,
                req.class,
                move |t, root, rid| analysis_job(t, root, rid, &state, &req, "cold").map(|_| ()),
            );
        }
        replayer.drain();
    }
    cache_stats(&replayer.tracer, &state, 3_000_000, before);
    Ok(())
}

/// One delta write: dispatch, then the apply (and compaction) re-issued
/// on a shadow state; the server's reported anchor must match.
#[allow(clippy::too_many_arguments)]
fn write_job(
    tracer: &Tracer,
    root: u32,
    rid: u64,
    state: &AppState,
    req: &Req,
    shadow: &mut State,
    parent: u64,
    compacts: bool,
) -> Check {
    let request = parse(tracer, root, rid, req)?;
    let (status, body) = dispatch(tracer, root, rid, state, &request, "write", Class::Delta);
    let layers = tracer.id();
    let from = Instant::now();
    let (mut corpus, mut engine) = tracer.call("server.store.clone", layers, rid, || {
        (shadow.corpus.clone(), shadow.tfidf.clone())
    });
    let info = tracer.call("search.delta.apply", layers, rid, || {
        cpssec_search::apply_delta(&mut corpus, &mut engine, &req.body, parent)
    });
    let info = info.map_err(|e| format!("delta does not apply in-process: {e}"))?;
    let bm25 = tracer.call("search.engine.rescore", layers, rid, || {
        engine.with_scoring(ScoringModel::Bm25)
    });
    let expected = if compacts {
        let base = tracer.call("search.delta.compact", layers, rid, || {
            cpssec_search::compact_verified(&corpus, &engine)
        });
        let base = base.map_err(|e| e.to_string())?;
        cpssec_search::snapshot::inspect(&base)
            .map_err(|e| e.to_string())?
            .snapshot_id
    } else {
        info.child_id
    };
    tracer.record(
        "layers",
        layers,
        root,
        rid,
        from,
        Instant::now(),
        Args::none(),
    );
    *shadow = State {
        corpus,
        tfidf: engine,
        bm25,
    };
    let reported = std::str::from_utf8(&body)
        .ok()
        .and_then(|t| t.split("\"stateId\":\"").nth(1))
        .and_then(|rest| u64::from_str_radix(rest.get(..16)?, 16).ok());
    if status == 200 && reported == Some(expected) {
        Ok(())
    } else {
        Err(format!(
            "write answered {status} with state {reported:?}, expected {expected:016x}"
        ))
    }
}

/// `sim_fleet`: fleets and campaigns dispatched inline, then re-issued
/// scenario by scenario and through the campaign compiler.
fn sim(replayer: &mut Replayer, inputs: &Inputs, seed: u64) -> Result<(), String> {
    let state = boot(&inputs.bytes)?;
    for (i, req) in plan::sim_fleet(seed, SIM_REPLAY).into_iter().enumerate() {
        replayer.wait_below(1);
        let state = Arc::clone(&state);
        let class = req.class;
        replayer.submit(
            4_000_000 + i as u64,
            Workload::SimFleet,
            class,
            move |t, root, rid| {
                let request = parse(t, root, rid, &req)?;
                let (status, body) = dispatch(t, root, rid, &state, &request, "job", req.class);
                let expected = match req.class {
                    Class::Fleet => fleet_layers(t, root, rid, &req)?,
                    _ => campaign_layers(t, root, rid, &req)?,
                };
                let served = std::str::from_utf8(&body).unwrap_or_default();
                (status == 200 && served.ends_with(&format!(",\"result\":{expected}}}")))
                    .then_some(())
                    .ok_or_else(|| format!("job answer differs from its layers: {}", req.target))
            },
        );
    }
    replayer.drain();
    Ok(())
}

fn body_u64(req: &Req, key: &str) -> u64 {
    let text = String::from_utf8_lossy(&req.body);
    text.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn fleet_layers(tracer: &Tracer, root: u32, rid: u64, req: &Req) -> Result<String, String> {
    let spec = CampaignSpec {
        scenarios: body_u64(req, "scenarios"),
        seed: body_u64(req, "seed"),
        classes: AttackClass::ALL.to_vec(),
        max_ticks: body_u64(req, "maxTicks"),
        threads: 2,
    };
    let layers = tracer.id();
    let from = Instant::now();
    let records: Vec<_> = (0..spec.scenarios)
        .map(|index| {
            tracer.span("sim.scenario", layers, rid, |_| {
                let record = cpssec_scada::run_scenario(&spec, index);
                let ticks = record.ticks as f64;
                (
                    record,
                    Args::none()
                        .n("ticks", ticks)
                        .n("threads", spec.threads as f64),
                )
            })
        })
        .collect();
    let body = tracer.call("analysis.render", layers, rid, || {
        cpssec_analysis::aggregate_json(&cpssec_analysis::aggregate(&records)).to_text()
    });
    tracer.record(
        "layers",
        layers,
        root,
        rid,
        from,
        Instant::now(),
        Args::none(),
    );
    Ok(body)
}

fn campaign_layers(tracer: &Tracer, root: u32, rid: u64, req: &Req) -> Result<String, String> {
    let testbed = Testbed::parse(req.target.split('/').nth(2).unwrap_or_default())
        .ok_or("unknown testbed")?;
    let run = CampaignRun {
        threads: 2,
        ..CampaignRun::new(testbed, body_u64(req, "seed"))
    };
    let corpus = cpssec_attackdb::seed::seed_corpus();
    let model = testbed.model();
    let layers = tracer.id();
    let from = Instant::now();
    tracer.span("campaign.compile", layers, rid, |_| {
        let plans = compile_chains(
            &model,
            &corpus,
            &testbed.scenario_library(),
            run.chain_limit,
        );
        let executable = plans.iter().filter(|p| p.is_executable()).count();
        (
            (),
            Args::none()
                .n("chains", plans.len() as f64)
                .n("executable", executable as f64),
        )
    });
    let records = tracer.span("campaign.execute", layers, rid, |_| {
        let records = cpssec_campaign::run_campaign(&run);
        let executable = records
            .iter()
            .filter(|r| r.verdict != CampaignVerdict::TextualOnly)
            .count();
        let args = Args::none()
            .n("chains", records.len() as f64)
            .n("executable", executable as f64);
        (records, args)
    });
    let body = tracer.call("analysis.render", layers, rid, || {
        cpssec_analysis::campaign_json(&cpssec_analysis::campaign_aggregate(
            testbed.as_str(),
            &records,
        ))
        .to_text()
    });
    tracer.record(
        "layers",
        layers,
        root,
        rid,
        from,
        Instant::now(),
        Args::none(),
    );
    // The chains the compiler mines, one `exploit_chains` call per matched
    // component, timed outside the accounted layers.
    let probe = tracer.id();
    let from = Instant::now();
    let engine = SearchEngine::build(&corpus);
    for (_, set) in engine.match_model(&model, Fidelity::Implementation) {
        tracer.call("search.chains.build", probe, rid, || {
            exploit_chains(&set, &corpus, run.chain_limit)
        });
    }
    tracer.record(
        "probe",
        probe,
        root,
        rid,
        from,
        Instant::now(),
        Args::none(),
    );
    Ok(body)
}

/// Opens and decodes the large snapshot a few times.
fn snapshot_layers(tracer: &Tracer, bytes: &[u8]) -> Result<(), String> {
    let shared: Arc<[u8]> = bytes.into();
    for _ in 0..3 {
        tracer
            .call("search.snapshot.open", 0, 0, || {
                cpssec_search::view::open_verified(Arc::clone(&shared))
            })
            .map_err(|e| e.to_string())?;
        tracer
            .call("search.snapshot.decode", 0, 0, || {
                cpssec_search::snapshot::decode(bytes)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs the traced replay of every workload and computes the per-layer
/// metrics from the trace file it writes.
///
/// # Errors
///
/// Input generation, boot, or trace-file failures.
pub fn run(workload: Workload, seed: u64, binary: &Path, work: &Path) -> Result<Replayed, String> {
    let large = e2e::generate(Workload::AnalystCold, seed, work)?;
    let small = e2e::generate(Workload::DashboardHot, seed, work)?;
    let tracer = Arc::new(Tracer::new(true));
    snapshot_layers(&tracer, &large.bytes)?;
    let mut replayer = Replayer::new(Arc::clone(&tracer));
    analyst(&mut replayer, &large.bytes, seed)?;
    dashboard(&mut replayer, &small, seed, binary, work)?;
    growth(&mut replayer, &large, seed)?;
    sim(&mut replayer, &small, seed)?;
    let _ = std::fs::remove_file(&large.snapshot);
    let _ = std::fs::remove_file(&small.snapshot);

    let trace_path = work.join(format!("trace-{}-{seed}.json", workload.name()));
    std::fs::write(&trace_path, trace::to_chrome(&tracer.spans()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let text = std::fs::read_to_string(&trace_path).map_err(|e| e.to_string())?;
    let spans = trace::from_chrome(&text)?;
    Ok(Replayed {
        trace_path,
        metrics: metrics(&spans),
        attempted: replayer.tally.attempted,
        failed: replayer.tally.failed(),
        problems: replayer.problems,
    })
}

fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

fn pct(values: Vec<f64>, p: f64) -> f64 {
    let mut values = values;
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    stats::percentile(&values, p)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, computed from the spans read back from the
/// trace file.
#[must_use]
pub fn metrics(spans: &[Span]) -> Vec<(String, f64, &'static str)> {
    let by_req: BTreeMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.req, s))
        .collect();
    let workload_of = |s: &Span| by_req.get(&s.req).map_or("", |r| r.str("workload"));
    let in_workload = |name: &'static str, workload: &'static str| {
        spans
            .iter()
            .filter(move |s| s.name == name && workload_of(s) == workload)
    };
    let us_of = |it: &mut dyn Iterator<Item = &Span>| it.map(|s| s.dur_us).collect::<Vec<_>>();
    let ms_of =
        |it: &mut dyn Iterator<Item = &Span>| it.map(|s| s.dur_us / 1e3).collect::<Vec<_>>();
    let sum_num = |name: &str, key: &str| durations(spans, name).map(|s| s.num(key)).sum::<f64>();

    let analyst_dispatch = us_of(&mut in_workload("server.router.dispatch", "analyst_cold"));
    let hit_dispatch = us_of(&mut spans.iter().filter(|s| {
        s.name == "server.router.dispatch"
            && s.str("phase") == "hot"
            && !matches!(s.str("class"), "healthz" | "metrics" | "history")
    }));
    let queue_waits = us_of(&mut spans.iter().filter(|s| {
        s.name == "server.pool.queue_wait"
            && matches!(workload_of(s), "analyst_cold" | "dashboard_hot")
    }));
    let client_hits = us_of(&mut spans.iter().filter(|s| {
        s.name == "client.request" && !matches!(s.str("class"), "healthz" | "metrics" | "history")
    }));
    let lags_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "loadgen.send" || s.name == "client.request")
        .map(|s| {
            if s.name == "loadgen.send" {
                s.dur_us / 1e3
            } else {
                s.num("lag_us") / 1e3
            }
        })
        .collect();

    // Accounting: per analyst request, the re-issued layer spans against
    // the dispatch they should add up to.
    let self_times = trace::self_times(spans);
    let layer_ids: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "layers" && workload_of(s) == "analyst_cold")
        .map(|s| s.id)
        .collect();
    let accounted: f64 = spans
        .iter()
        .filter(|s| layer_ids.contains(&s.parent))
        .map(|s| self_times.get(&s.id).copied().unwrap_or(0.0))
        .sum();
    let dispatched: f64 = analyst_dispatch.iter().sum();

    // Association self time: each build minus the fan-out and filter
    // calls the probe re-issued for the same request.
    let mut probe_search: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "search.engine.fanout" || s.name == "search.filter.apply")
    {
        *probe_search.entry(s.req).or_default() += s.dur_us;
    }
    let assoc_self: Vec<f64> = in_workload("analysis.associate.build", "analyst_cold")
        .filter(|s| {
            by_req
                .get(&s.req)
                .is_some_and(|r| r.str("class") == "associate")
        })
        .filter_map(|s| probe_search.get(&s.req).map(|p| (s.dur_us - p) / 1e3))
        .collect();

    let passes = |traced: f64| -> f64 {
        durations(spans, "replay.pass")
            .filter(|s| s.num("traced") == traced)
            .map(|s| s.dur_us)
            .sum()
    };
    let scenario_us: f64 = durations(spans, "sim.scenario").map(|s| s.dur_us).sum();
    let fleet_wall_threads: f64 = spans
        .iter()
        .filter(|s| s.name == "server.router.dispatch" && s.str("class") == "fleet")
        .map(|s| s.dur_us * 2.0)
        .sum();
    let hit_p50 = pct(hit_dispatch.clone(), 0.5);

    vec![
        (
            "server.http.parse_us".into(),
            pct(
                us_of(&mut in_workload("server.http.parse", "dashboard_hot")),
                0.5,
            ),
            "us",
        ),
        ("server.router.dispatch_hit_us_p50".into(), hit_p50, "us"),
        (
            "server.transport_us_p50".into(),
            pct(client_hits, 0.5) - hit_p50,
            "us",
        ),
        (
            "server.router.dispatch_us_p50".into(),
            pct(analyst_dispatch.clone(), 0.5),
            "us",
        ),
        (
            "server.router.dispatch_us_p99".into(),
            pct(analyst_dispatch, 0.99),
            "us",
        ),
        (
            "server.pool.queue_wait_us_p99".into(),
            pct(queue_waits, 0.99),
            "us",
        ),
        (
            "server.cache.responses_hit_ratio".into(),
            ratio(
                sum_num("server.cache.stats", "responses_hits"),
                sum_num("server.cache.stats", "responses_hits")
                    + sum_num("server.cache.stats", "responses_misses"),
            ),
            "ratio",
        ),
        (
            "server.cache.priors_hit_ratio".into(),
            ratio(
                sum_num("server.cache.stats", "priors_hits"),
                sum_num("server.cache.stats", "priors_hits")
                    + sum_num("server.cache.stats", "priors_misses"),
            ),
            "ratio",
        ),
        (
            "server.admission.shed_total".into(),
            sum_num("server.admission", "shed"),
            "count",
        ),
        (
            "search.text.tokenize_us".into(),
            pct(us_of(&mut durations(spans, "search.text.tokenize")), 0.5),
            "us",
        ),
        (
            "search.engine.match_us_p50".into(),
            pct(us_of(&mut durations(spans, "search.engine.match")), 0.5),
            "us",
        ),
        (
            "search.engine.match_us_p99".into(),
            pct(us_of(&mut durations(spans, "search.engine.match")), 0.99),
            "us",
        ),
        (
            "search.engine.hits".into(),
            mean(
                &durations(spans, "search.engine.match")
                    .map(|s| s.num("hits"))
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        (
            "search.filter.apply_us".into(),
            pct(us_of(&mut durations(spans, "search.filter.apply")), 0.5),
            "us",
        ),
        (
            "search.filter.kept_ratio".into(),
            ratio(
                sum_num("search.filter.apply", "kept"),
                sum_num("search.filter.apply", "scored"),
            ),
            "ratio",
        ),
        (
            "search.chains.build_us".into(),
            pct(us_of(&mut durations(spans, "search.chains.build")), 0.5),
            "us",
        ),
        (
            "search.delta.apply_ms".into(),
            mean(&ms_of(&mut durations(spans, "search.delta.apply"))),
            "ms",
        ),
        (
            "search.delta.compact_ms".into(),
            mean(&ms_of(&mut durations(spans, "search.delta.compact"))),
            "ms",
        ),
        (
            "search.snapshot.open_ms".into(),
            pct(ms_of(&mut durations(spans, "search.snapshot.open")), 0.5),
            "ms",
        ),
        (
            "search.snapshot.decode_ms".into(),
            pct(ms_of(&mut durations(spans, "search.snapshot.decode")), 0.5),
            "ms",
        ),
        (
            "analysis.associate.build_ms".into(),
            pct(
                ms_of(&mut in_workload("analysis.associate.build", "analyst_cold")),
                0.5,
            ),
            "ms",
        ),
        (
            "analysis.associate.self_ms".into(),
            pct(assoc_self, 0.5),
            "ms",
        ),
        (
            "analysis.posture.compute_us".into(),
            pct(
                us_of(&mut durations(spans, "analysis.posture.compute")),
                0.5,
            ),
            "us",
        ),
        (
            "analysis.whatif.evaluate_ms".into(),
            pct(
                ms_of(&mut durations(spans, "analysis.whatif.evaluate")),
                0.5,
            ),
            "ms",
        ),
        (
            "analysis.whatif.requery_ratio".into(),
            ratio(
                sum_num("analysis.whatif.evaluate", "requeried"),
                sum_num("analysis.whatif.evaluate", "components"),
            ),
            "ratio",
        ),
        (
            "analysis.attribute_rows_ms".into(),
            pct(ms_of(&mut durations(spans, "analysis.attribute_rows")), 0.5),
            "ms",
        ),
        (
            "analysis.render_us".into(),
            pct(
                us_of(&mut in_workload("analysis.render", "analyst_cold")),
                0.5,
            ),
            "us",
        ),
        (
            "sim.ticks_per_s".into(),
            ratio(sum_num("sim.scenario", "ticks"), scenario_us / 1e6),
            "1/s",
        ),
        (
            "sim.fleet.busy_ratio".into(),
            ratio(scenario_us, fleet_wall_threads),
            "ratio",
        ),
        (
            "campaign.compile_ms".into(),
            mean(&ms_of(&mut durations(spans, "campaign.compile"))),
            "ms",
        ),
        (
            "campaign.execute_ms".into(),
            mean(&ms_of(&mut durations(spans, "campaign.execute"))),
            "ms",
        ),
        (
            "campaign.executable_ratio".into(),
            ratio(
                sum_num("campaign.execute", "executable"),
                sum_num("campaign.execute", "chains"),
            ),
            "ratio",
        ),
        ("loadgen.send_lag_p99_ms".into(), pct(lags_ms, 0.99), "ms"),
        (
            "trace.unaccounted_ratio".into(),
            1.0 - ratio(accounted, dispatched),
            "ratio",
        ),
        (
            "trace.overhead_ratio".into(),
            ratio(passes(1.0), passes(0.0)) - 1.0,
            "ratio",
        ),
    ]
}
