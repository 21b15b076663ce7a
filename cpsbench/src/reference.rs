//! Reference answers from the batch pipeline, computed in the benchmark
//! process on the same corpus state the server holds. Every served body
//! is compared byte for byte against these after the timed phase.

use std::collections::BTreeMap;

use cpssec_analysis::render::{self, Json};
use cpssec_analysis::{attribute_rows, whatif, AssociationMap, SystemPosture};
use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_attackdb::Corpus;
use cpssec_campaign::{records_hash, CampaignRun, Testbed};
use cpssec_model::SystemModel;
use cpssec_scada::{AttackClass, CampaignSpec};
use cpssec_search::{snapshot, ScoringModel, SearchEngine};
use cpssec_server::http::{parse_request_bytes, Incremental, Request};
use cpssec_server::router::{parse_changes, parse_spec};

use crate::plan::{Class, Req};

/// Campaign hashes pinned at seed 42 (`crates/campaign/tests/determinism.rs`).
pub const PINNED_CAMPAIGNS: [(&str, &str); 2] =
    [("scada", "a56a84ca63b8d320"), ("water", "16c6925f7d6602de")];

/// One corpus generation: the corpus and both scoring engines, exactly
/// as the server thaws them from a snapshot.
#[derive(Debug, Clone)]
pub struct State {
    /// The corpus.
    pub corpus: Corpus,
    /// TF-IDF engine (decoded from the snapshot).
    pub tfidf: SearchEngine,
    /// BM25 twin sharing the same index.
    pub bm25: SearchEngine,
}

impl State {
    /// Decodes a `.cpsnap` the way the server's background thaw does.
    ///
    /// # Errors
    ///
    /// The decoder's message.
    pub fn from_snapshot(bytes: &[u8]) -> Result<State, String> {
        let (corpus, tfidf) = snapshot::decode(bytes).map_err(|e| e.to_string())?;
        let bm25 = tfidf.with_scoring(ScoringModel::Bm25);
        Ok(State {
            corpus,
            tfidf,
            bm25,
        })
    }

    /// The engine for a scoring model.
    #[must_use]
    pub fn engine(&self, scoring: ScoringModel) -> &SearchEngine {
        match scoring {
            ScoringModel::TfIdf => &self.tfidf,
            ScoringModel::Bm25 => &self.bm25,
        }
    }

    /// Applies a delta the way the server does and returns the chain
    /// anchor the server must report: the delta's child id, or after a
    /// compaction the id of the snapshot this state encodes to.
    ///
    /// # Errors
    ///
    /// The apply or encode error message.
    pub fn apply(&mut self, delta: &[u8], parent: u64, compacts: bool) -> Result<u64, String> {
        let info = cpssec_search::apply_delta(&mut self.corpus, &mut self.tfidf, delta, parent)
            .map_err(|e| e.to_string())?;
        self.bm25 = self.tfidf.with_scoring(ScoringModel::Bm25);
        if !compacts {
            return Ok(info.child_id);
        }
        let bytes = snapshot::encode(&self.corpus, &self.tfidf);
        snapshot::inspect(&bytes)
            .map(|i| i.snapshot_id)
            .map_err(|e| e.to_string())
    }
}

/// The built-in model a session id names.
#[must_use]
pub fn model(id: &str) -> Option<SystemModel> {
    match id {
        "scada" => Some(cpssec_scada::model::scada_model()),
        "water" => Some(cpssec_scada::water::water_model()),
        _ => None,
    }
}

/// Parses a planned request with the server's own HTTP parser.
///
/// # Errors
///
/// The parser's message.
pub fn parse(req: &Req) -> Result<Request, String> {
    match parse_request_bytes(&req.wire()) {
        Ok(Incremental::Complete(request, _)) => Ok(request),
        Ok(Incremental::NeedMore) => Err("request bytes incomplete".to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

/// The model id of an analysis request (`/models/:id/…` or `?model=`).
fn model_id(request: &Request) -> String {
    match request.path.split('/').filter(|s| !s.is_empty()).nth(1) {
        Some(id) if request.path.starts_with("/models/") => id.to_owned(),
        _ => request.query_param("model").unwrap_or("scada").to_owned(),
    }
}

/// The body the batch pipeline renders for an analysis request.
///
/// # Errors
///
/// A message when the request is not an analysis request or is invalid.
pub fn analysis_body(state: &State, req: &Req) -> Result<String, String> {
    let request = parse(req)?;
    let spec = parse_spec(&request)?;
    let id = model_id(&request);
    let model = model(&id).ok_or_else(|| format!("unknown model {id}"))?;
    let engine = state.engine(spec.scoring);
    match req.class {
        Class::Associate | Class::Component => {
            let map =
                AssociationMap::build(&model, engine, &state.corpus, spec.fidelity, &spec.filters);
            let posture = SystemPosture::compute(&model, &state.corpus, &map);
            match request.query_param("component") {
                None => Ok(render::association_json(&model, &map, &posture).to_text()),
                Some(name) => component_json(&model, &map, &posture, name),
            }
        }
        Class::Table1 => {
            let rows = attribute_rows(&model, engine, &state.corpus, spec.fidelity, &spec.filters);
            Ok(table1_text(&rows))
        }
        Class::WhatIf => {
            let changes = parse_changes(&request.body)?;
            let report = whatif::evaluate(
                &model,
                &changes,
                engine,
                &state.corpus,
                spec.fidelity,
                &spec.filters,
            )
            .map_err(|e| e.to_string())?;
            Ok(render::whatif_json(model.name(), spec.fidelity, &report).to_text())
        }
        other => Err(format!("{} is not an analysis request", other.label())),
    }
}

/// The component-scoped associate body.
///
/// # Errors
///
/// When the model has no such component.
pub fn component_json(
    model: &SystemModel,
    map: &AssociationMap,
    posture: &SystemPosture,
    name: &str,
) -> Result<String, String> {
    let set = map
        .matches(name)
        .ok_or_else(|| format!("unknown component {name}"))?;
    let (patterns, weaknesses, vulnerabilities) = set.counts();
    let mut fields: Vec<(String, Json)> = vec![
        ("model".into(), model.name().into()),
        ("fidelity".into(), map.fidelity().as_str().into()),
        ("name".into(), name.into()),
        ("patterns".into(), patterns.into()),
        ("weaknesses".into(), weaknesses.into()),
        ("vulnerabilities".into(), vulnerabilities.into()),
    ];
    if let Some(p) = posture.component(name) {
        fields.push(("score".into(), p.score.into()));
    }
    Ok(Json::Object(fields).to_text())
}

/// The `table1` text table.
#[must_use]
pub fn table1_text(rows: &[cpssec_analysis::AttributeRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.attribute.clone(),
                r.patterns.to_string(),
                r.weaknesses.to_string(),
                r.vulnerabilities.to_string(),
            ]
        })
        .collect();
    render::text_table(
        &[
            "Attribute",
            "Attack Patterns",
            "Weaknesses",
            "Vulnerabilities",
        ],
        &cells,
    )
}

fn body_u64(body: &[u8], name: &str) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    match parse_json(text).map_err(|e| e.to_string())?.get(name) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(JsonValue::Number(n)) => Ok(*n as u64),
        _ => Err(format!("request body has no {name}")),
    }
}

/// A finished fleet or campaign job's expected `result` object and its
/// `recordsHash`, from an in-process run of the same parameters.
///
/// # Errors
///
/// When the request is not a job request, or a seed-42 campaign misses
/// its pinned hash.
pub fn job_result(req: &Req) -> Result<(String, String), String> {
    match req.class {
        Class::Fleet => {
            let spec = CampaignSpec {
                scenarios: body_u64(&req.body, "scenarios")?,
                seed: body_u64(&req.body, "seed")?,
                classes: AttackClass::ALL.to_vec(),
                max_ticks: body_u64(&req.body, "maxTicks")?,
                threads: 2,
            };
            let records = cpssec_scada::run_campaign(&spec);
            let hash = format!("{:016x}", cpssec_analysis::aggregate_hash(&records));
            let aggregate = cpssec_analysis::aggregate(&records);
            Ok((cpssec_analysis::aggregate_json(&aggregate).to_text(), hash))
        }
        Class::Campaign => {
            let testbed_id = req
                .target
                .split('/')
                .nth(2)
                .ok_or("campaign target has no testbed")?;
            let testbed = Testbed::parse(testbed_id).ok_or("unknown testbed")?;
            let seed = body_u64(&req.body, "seed")?;
            let run = CampaignRun {
                threads: 2,
                ..CampaignRun::new(testbed, seed)
            };
            let records = cpssec_campaign::run_campaign(&run);
            let hash = format!("{:016x}", records_hash(&records));
            if seed == 42 {
                let pinned = PINNED_CAMPAIGNS
                    .iter()
                    .find(|(id, _)| *id == testbed_id)
                    .map(|(_, h)| *h);
                if pinned != Some(hash.as_str()) {
                    return Err(format!(
                        "{testbed_id} campaign at seed 42 hashes {hash}, pinned {pinned:?}"
                    ));
                }
            }
            let aggregate = cpssec_analysis::campaign_aggregate(testbed.as_str(), &records);
            Ok((cpssec_analysis::campaign_json(&aggregate).to_text(), hash))
        }
        other => Err(format!("{} is not a job request", other.label())),
    }
}

/// Checks a served job status body against its expected `result`.
#[must_use]
pub fn job_matches(body: &[u8], expected: &(String, String)) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let (result, hash) = expected;
    text.contains("\"done\":true")
        && text.ends_with(&format!(",\"result\":{result}}}"))
        && result.contains(&format!("\"recordsHash\":\"{hash}\""))
}

/// Memoised reference answers keyed by the request's target and body.
#[derive(Debug, Default)]
pub struct Memo {
    answers: BTreeMap<(String, Vec<u8>), Result<String, String>>,
}

impl Memo {
    /// The reference analysis body for `req` on `state`, computed once.
    pub fn analysis(&mut self, state: &State, req: &Req) -> &Result<String, String> {
        self.answers
            .entry((req.target.clone(), req.body.clone()))
            .or_insert_with(|| analysis_body(state, req))
    }
}

/// Whether a `/metrics` scrape is a Prometheus exposition carrying the
/// request counter family the server always exports.
#[must_use]
pub fn metrics_ok(body: &[u8]) -> bool {
    std::str::from_utf8(body).is_ok_and(|t| t.contains("# TYPE requests_total counter"))
}

/// Whether a `/metrics/history` body is a JSON value.
#[must_use]
pub fn json_ok(body: &[u8]) -> bool {
    std::str::from_utf8(body).is_ok_and(|t| parse_json(t).is_ok())
}
