//! Seeded request sequences, one generator per workload. The same seed
//! always yields byte-identical wire requests; the HTTP run and the
//! in-process traced replay consume the same sequence.

use cpssec_server::http::percent_encode;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold analysis on a corpus larger than CPU cache, closed loop.
    AnalystCold,
    /// Cached reads and operator endpoints at a fixed rate, open loop.
    DashboardHot,
    /// Delta writes beside cold reads on the large corpus.
    CorpusGrowth,
    /// Fleet batches and exploit-chain campaigns, closed loop.
    SimFleet,
}

impl Workload {
    /// Every workload, in the order the traced run replays them.
    pub const ALL: [Workload; 4] = [
        Workload::AnalystCold,
        Workload::DashboardHot,
        Workload::CorpusGrowth,
        Workload::SimFleet,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalystCold => "analyst_cold",
            Workload::DashboardHot => "dashboard_hot",
            Workload::CorpusGrowth => "corpus_growth",
            Workload::SimFleet => "sim_fleet",
        }
    }

    /// Sub-windows its figures are the median over: one per server phase,
    /// and for `dashboard_hot` eight per phase. `corpus_growth` loads one
    /// server and takes its figures over the whole window: split in thirds,
    /// the third with a compaction held as few as 114 reads, too close to
    /// the 100 its p90 needs. Its sub-millisecond tail
    /// moves when a host hiccup of a few hundred milliseconds lands in a
    /// window; in quarter-second windows such a hiccup sits in a minority
    /// of them.
    #[must_use]
    pub fn windows(self) -> usize {
        match self {
            Workload::DashboardHot => 3 * DASHBOARD_SUBWINDOWS,
            Workload::CorpusGrowth => 1,
            _ => 3,
        }
    }

    /// Synthetic corpus scale the server boots from: `3` is ~100k records
    /// (a ~59 MB snapshot, larger than CPU cache), `0.3` is ~11k.
    #[must_use]
    pub fn scale(self) -> f64 {
        match self {
            Workload::AnalystCold | Workload::CorpusGrowth => 3.0,
            Workload::DashboardHot | Workload::SimFleet => 0.3,
        }
    }
}

/// What a request asks for; decides how its answer is checked and which
/// layers the traced replay re-issues for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `GET /models/:id/associate` over the whole model.
    Associate,
    /// `GET /models/:id/associate?component=…`.
    Component,
    /// `GET /table1`.
    Table1,
    /// `POST /models/:id/whatif`.
    WhatIf,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `GET /metrics/history`.
    History,
    /// `POST /scenarios/batch?wait=true`.
    Fleet,
    /// `POST /models/:id/campaigns?wait=true`.
    Campaign,
    /// `POST /corpus/delta`.
    Delta,
}

impl Class {
    /// Short label used in reports and trace args.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Class::Associate => "associate",
            Class::Component => "component",
            Class::Table1 => "table1",
            Class::WhatIf => "whatif",
            Class::Healthz => "healthz",
            Class::Metrics => "metrics",
            Class::History => "history",
            Class::Fleet => "fleet",
            Class::Campaign => "campaign",
            Class::Delta => "delta",
        }
    }
}

/// One request, as sent on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Request class.
    pub class: Class,
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Path and query, already percent-encoded.
    pub target: String,
    /// Request body (empty for `GET`).
    pub body: Vec<u8>,
}

impl Req {
    fn get(class: Class, target: String) -> Req {
        Req {
            class,
            method: "GET",
            target,
            body: Vec::new(),
        }
    }

    fn post(class: Class, target: String, body: Vec<u8>) -> Req {
        Req {
            class,
            method: "POST",
            target,
            body,
        }
    }

    /// A `POST /corpus/delta` carrying `bytes`.
    #[must_use]
    pub fn delta(bytes: Vec<u8>) -> Req {
        Req::post(Class::Delta, "/corpus/delta".to_owned(), bytes)
    }

    /// The exact bytes written to the socket (keep-alive request).
    #[must_use]
    pub fn wire(&self) -> Vec<u8> {
        let mut out = format!(
            "{} {} HTTP/1.1\r\nHost: cpsbench\r\nContent-Length: {}\r\n\r\n",
            self.method,
            self.target,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let i = (self.next_u64() % n as u64) as usize;
        i
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

const MODELS: [&str; 2] = ["scada", "water"];
const FIDELITIES: [&str; 3] = ["conceptual", "architectural", "implementation"];
const SCORINGS: [&str; 2] = ["tfidf", "bm25"];
const KINDS: [&str; 4] = ["software", "os", "protocol", "product"];
const VALUES: [&str; 10] = [
    "Windows 10",
    "Linux",
    "Labview",
    "Modbus",
    "Siemens S7",
    "OPC UA",
    "Cisco IOS",
    "VxWorks",
    "OpenSSL",
    "Apache httpd",
];

fn component_names(model: &str) -> Vec<String> {
    let model = match model {
        "water" => cpssec_scada::water::water_model(),
        _ => cpssec_scada::model::scada_model(),
    };
    model
        .components()
        .map(|(_, c)| c.name().to_owned())
        .collect()
}

/// A `minScore` no other request of the sequence uses: a bucket that
/// cycles with the index (it sets how many hits survive, so it is a cost
/// choice) plus a per-index offset below the bucket spacing.
fn unique_min_score(index: usize) -> String {
    let bucket = [0.0, 0.05, 0.1, 0.2][index % 4];
    format!("{:.6}", bucket + (index + 1) as f64 * 1e-6)
}

fn spec_query(fidelity: &str, scoring: &str, min_score: &str) -> String {
    format!("fidelity={fidelity}&scoring={scoring}&minScore={min_score}")
}

fn whatif_body(rng: &mut Rng, model: &str, tag: usize) -> Vec<u8> {
    let names = component_names(model);
    let changes: Vec<String> = (0..1 + rng.below(2))
        .map(|_| {
            format!(
                "{{\"op\":\"add\",\"component\":\"{}\",\"kind\":\"{}\",\"value\":\"{} {tag}\"}}",
                names[rng.below(names.len())],
                rng.pick(&KINDS),
                rng.pick(&VALUES)
            )
        })
        .collect();
    format!("{{\"changes\":[{}]}}", changes.join(",")).into_bytes()
}

/// One position of the analysis mix.
#[derive(Debug, Clone, Copy)]
struct Slot {
    class: Class,
    /// Index into [`FIDELITIES`].
    fidelity: usize,
    /// Index into [`MODELS`].
    model: usize,
    top_k: bool,
}

const fn slot(class: Class, fidelity: usize, model: usize, top_k: bool) -> Slot {
    Slot {
        class,
        fidelity,
        model,
        top_k,
    }
}

/// A 20-request block of the analysis mix. The cost-setting choices
/// (class, fidelity, model) are fixed per position, so every run times
/// the same mixture; the seed picks everything else. The block holds
/// eight cheap requests (5-30 ms on the scale-3 corpus), eight whole-map
/// builds on the SCADA and water models (45-85 ms) and four implementation
/// what-ifs on the SCADA model (~100 ms), so the median falls inside the
/// middle group and p90 inside the top one, not on a boundary between
/// two groups.
const BLOCK: [Slot; 20] = [
    slot(Class::Associate, 2, 0, false),
    slot(Class::Associate, 0, 0, false),
    slot(Class::WhatIf, 2, 0, false),
    slot(Class::Component, 2, 0, false),
    slot(Class::Associate, 2, 0, true),
    slot(Class::Associate, 2, 1, false),
    slot(Class::Table1, 2, 0, false),
    slot(Class::Associate, 1, 1, false),
    slot(Class::Associate, 2, 0, false),
    slot(Class::WhatIf, 2, 0, false),
    slot(Class::Associate, 2, 1, true),
    slot(Class::Component, 2, 0, false),
    slot(Class::Table1, 2, 1, false),
    slot(Class::Associate, 1, 0, true),
    slot(Class::Associate, 2, 0, false),
    slot(Class::WhatIf, 2, 0, false),
    slot(Class::WhatIf, 1, 1, false),
    slot(Class::Associate, 2, 1, false),
    slot(Class::Component, 2, 0, false),
    slot(Class::WhatIf, 2, 0, false),
];

/// Request `index` of the analysis mix; `index` also makes its cache key
/// unique within the sequence.
fn analysis_request(rng: &mut Rng, index: usize) -> Req {
    let Slot {
        class,
        fidelity,
        model,
        top_k,
    } = BLOCK[index % BLOCK.len()];
    let model = MODELS[model];
    let scoring = SCORINGS[(index / BLOCK.len()) % SCORINGS.len()];
    let min_score = unique_min_score(index);
    let query = spec_query(FIDELITIES[fidelity], scoring, &min_score);
    match class {
        Class::Associate if top_k => Req::get(
            class,
            format!(
                "/models/{model}/associate?{query}&topK={}",
                1 + (index / BLOCK.len()) % 8
            ),
        ),
        Class::Component => {
            let names = component_names(model);
            let component = percent_encode(&names[rng.below(names.len())]);
            Req::get(
                class,
                format!("/models/{model}/associate?{query}&component={component}"),
            )
        }
        Class::Table1 => Req::get(class, format!("/table1?model={model}&{query}")),
        Class::WhatIf => Req::post(
            class,
            format!("/models/{model}/whatif?{query}"),
            whatif_body(rng, model, index),
        ),
        _ => Req::get(class, format!("/models/{model}/associate?{query}")),
    }
}

/// `analyst_cold`: `n` analysis requests, every one a distinct cache key.
#[must_use]
pub fn analyst_cold(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, 1);
    (0..n).map(|i| analysis_request(&mut rng, i)).collect()
}

/// Sub-windows of each `dashboard_hot` phase.
pub const DASHBOARD_SUBWINDOWS: usize = 8;

/// Distinct analysis specs `dashboard_hot` warms before timing (≤ 64).
pub const DASHBOARD_SPECS: usize = 48;

/// `dashboard_hot`: the warmed spec set, then `n` timed requests: 90%
/// drawn from it, 5% `/healthz`, 2.5% each `/metrics` and
/// `/metrics/history`. The scrapes are the slowest class; at 5% in all
/// they stay above p90 instead of straddling it.
#[must_use]
pub fn dashboard_hot(seed: u64, n: usize) -> (Vec<Req>, Vec<Req>) {
    let mut rng = Rng::new(seed, 2);
    let mut specs: Vec<Req> = Vec::with_capacity(DASHBOARD_SPECS);
    for i in 0..DASHBOARD_SPECS {
        let mut req = analysis_request(&mut rng, i);
        // An analyst tries what-ifs on the view they just looked at: reuse
        // the spec of the latest whole-model associate on the same model,
        // so the what-if's prior comes from the prior cache.
        if req.class == Class::WhatIf {
            let model_prefix = req
                .target
                .split("/whatif?")
                .next()
                .unwrap_or_default()
                .to_owned();
            if let Some(view) = specs.iter().rev().find(|r| {
                r.class == Class::Associate
                    && r.target.starts_with(&format!("{model_prefix}/associate?"))
            }) {
                req.target = view.target.replacen("/associate?", "/whatif?", 1);
            }
        }
        specs.push(req);
    }
    let timed = (0..n)
        .map(|_| match rng.below(40) {
            0 | 1 => Req::get(Class::Healthz, "/healthz".to_owned()),
            2 => Req::get(Class::Metrics, "/metrics".to_owned()),
            3 => Req::get(Class::History, "/metrics/history".to_owned()),
            _ => rng.pick(&specs).clone(),
        })
        .collect();
    (specs, timed)
}

/// Read specs `corpus_growth` cycles through: several write intervals'
/// worth of reads, so a spec comes round again only after a write has
/// cleared the caches and every read is cold.
pub const GROWTH_SPECS: usize = 256;
/// Delta writes per `corpus_growth` run: two compactions at one per
/// four applies.
pub const GROWTH_WRITES: usize = 8;
/// Records per delta batch.
pub const GROWTH_BATCH: usize = 1000;

/// `corpus_growth`: the fixed specs the reader cycles: three `table1`
/// reads at implementation fidelity (~15 ms) to one whole-model SCADA
/// associate (~60 ms), so the median sits inside the `table1` group and
/// p90 inside the associate group.
#[must_use]
pub fn growth_reads() -> Vec<Req> {
    (0..GROWTH_SPECS)
        .map(|i| {
            let scoring = SCORINGS[(i / 8) % SCORINGS.len()];
            let query = spec_query("implementation", scoring, &unique_min_score(i));
            if i % 4 == 0 {
                Req::get(Class::Associate, format!("/models/scada/associate?{query}"))
            } else {
                let model = MODELS[(i / 4) % MODELS.len()];
                Req::get(Class::Table1, format!("/table1?model={model}&{query}"))
            }
        })
        .collect()
}

/// The delta batches `corpus_growth` posts, serials `1..=count`.
#[must_use]
pub fn growth_batches(seed: u64, count: usize) -> Vec<cpssec_attackdb::Corpus> {
    (1..=count)
        .map(|serial| {
            let serial = u32::try_from(serial).expect("few batches");
            cpssec_attackdb::synth::delta_batch(seed, GROWTH_BATCH, serial)
        })
        .collect()
}

/// Scenarios per fleet request.
pub const FLEET_SCENARIOS: u64 = 2;
/// Ticks per fleet scenario.
pub const FLEET_TICKS: u64 = 3000;

/// Distinct fleet bodies a `sim_fleet` run cycles through; enough that
/// the per-scenario cost the seed draws averages out within a run.
pub const FLEET_BODIES: u64 = 48;
/// Distinct campaign seeds per testbed.
pub const CAMPAIGN_SEEDS: u64 = 4;
/// Requests per `sim_fleet` cycle: fleets, then one campaign.
pub const SIM_CYCLE: u64 = 6;

/// The part of the workload seed that goes into JSON bodies. The server
/// reads JSON numbers as `f64` and refuses seeds above 1e18, so a body
/// seed must stay well below 2^53 even after it is scaled by
/// [`FLEET_BODIES`]. Seeds below 2^32, 42 among them, pass unchanged.
#[must_use]
fn body_seed(seed: u64) -> u64 {
    seed % (1 << 32)
}

/// `sim_fleet`: five fleet batches then one campaign, repeated; the
/// campaign testbed alternates. Campaign seeds start at the workload
/// seed, so seed 42 exercises the pinned campaign hashes.
#[must_use]
pub fn sim_fleet(seed: u64, n: usize) -> Vec<Req> {
    let seed = body_seed(seed);
    (0..n as u64)
        .map(|i| {
            let cycle = i / SIM_CYCLE;
            let slot = i % SIM_CYCLE;
            if slot == SIM_CYCLE - 1 {
                let testbed = MODELS[(cycle % 2) as usize];
                let campaign_seed = seed + (cycle / 2) % CAMPAIGN_SEEDS;
                Req::post(
                    Class::Campaign,
                    format!("/models/{testbed}/campaigns?wait=true"),
                    format!("{{\"seed\":{campaign_seed},\"threads\":2}}").into_bytes(),
                )
            } else {
                let fleet = (cycle * (SIM_CYCLE - 1) + slot) % FLEET_BODIES;
                let fleet_seed = seed * FLEET_BODIES + fleet;
                Req::post(
                    Class::Fleet,
                    "/scenarios/batch?wait=true".to_owned(),
                    format!(
                        "{{\"scenarios\":{FLEET_SCENARIOS},\"seed\":{fleet_seed},\"maxTicks\":{FLEET_TICKS},\"threads\":2}}"
                    )
                    .into_bytes(),
                )
            }
        })
        .collect()
}

/// The request every set-up probe sends: a corpus-backed answer that
/// blocks until the snapshot has thawed.
#[must_use]
pub fn setup_probe() -> Req {
    Req::get(Class::Table1, "/table1?model=scada".to_owned())
}
