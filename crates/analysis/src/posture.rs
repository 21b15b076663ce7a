//! Security posture scoring.
//!
//! The paper's comparison rule is deliberately qualitative: "a component or
//! subsystem that relates with less attack vectors than a functionally
//! equivalent system has a better security posture". The scores here are
//! ordinal instruments for exactly that comparison — lower is better, and
//! only differences between alternatives mean anything. They are *not*
//! risk numbers (the paper is explicit that CVSS measures severity, not
//! risk).

use cpssec_attackdb::{AttackVectorId, Corpus, RecordSeverity, Severity, SeverityTable};
use cpssec_model::{Criticality, SystemModel};
use cpssec_search::MatchSet;

use crate::AssociationMap;

/// Posture of one component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPosture {
    /// Component name.
    pub component: String,
    /// Component criticality (weights the system roll-up).
    pub criticality: Criticality,
    /// Matched attack patterns.
    pub patterns: usize,
    /// Matched weaknesses.
    pub weaknesses: usize,
    /// Matched vulnerabilities.
    pub vulnerabilities: usize,
    /// Severity-weighted vector mass: each vulnerability contributes its
    /// CVSS base score / 10, each pattern its typical-severity band weight,
    /// each weakness 0.5.
    pub severity_weighted: f64,
    /// The component score: severity-weighted mass × criticality weight.
    pub score: f64,
}

impl ComponentPosture {
    /// Total matched vectors.
    #[must_use]
    pub fn total_vectors(&self) -> usize {
        self.patterns + self.weaknesses + self.vulnerabilities
    }
}

/// Posture of the whole model: per-component postures plus the roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPosture {
    /// Per-component postures, in component name order.
    pub components: Vec<ComponentPosture>,
    /// Sum of component scores. Lower is better.
    pub total_score: f64,
}

impl SystemPosture {
    /// Computes the posture of `model` from an association map.
    ///
    /// Components present in the model but absent from the map (or vice
    /// versa) are skipped — the map should have been built from the same
    /// model.
    #[must_use]
    pub fn compute(model: &SystemModel, corpus: &Corpus, map: &AssociationMap) -> SystemPosture {
        let severities = corpus.severities();
        SystemPosture::compute_with(model, map, |set| severity_mass(set, severities))
    }

    fn compute_with(
        model: &SystemModel,
        map: &AssociationMap,
        mass: impl Fn(&MatchSet) -> f64,
    ) -> SystemPosture {
        let mut components = Vec::new();
        for (name, set) in map.iter() {
            let Some(component) = model.component_by_name(name) else {
                continue;
            };
            let severity_weighted = mass(set);
            let (patterns, weaknesses, vulnerabilities) = set.counts();
            let score = severity_weighted * f64::from(component.criticality().weight());
            components.push(ComponentPosture {
                component: name.to_owned(),
                criticality: component.criticality(),
                patterns,
                weaknesses,
                vulnerabilities,
                severity_weighted,
                score,
            });
        }
        let total_score = components.iter().map(|c| c.score).sum();
        SystemPosture {
            components,
            total_score,
        }
    }

    /// The posture of one component.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ComponentPosture> {
        self.components.iter().find(|c| c.component == name)
    }

    /// Whether this posture is better (strictly lower score) than `other`.
    #[must_use]
    pub fn is_better_than(&self, other: &SystemPosture) -> bool {
        self.total_score < other.total_score
    }
}

fn severity_band_weight(severity: Severity) -> f64 {
    match severity {
        Severity::None => 0.0,
        Severity::Low => 0.25,
        Severity::Medium => 0.5,
        Severity::High => 0.75,
        Severity::Critical => 1.0,
    }
}

/// Sums each hit's weight in hit order, so the float sum is the same on
/// every path. Weaknesses and records without a severity figure weigh 0.5.
fn severity_mass(set: &MatchSet, severities: &SeverityTable) -> f64 {
    let mut mass = 0.0;
    for hit in set.iter() {
        mass += match hit.id {
            AttackVectorId::Weakness(_) => 0.5,
            id => match severities.get(id) {
                Some(RecordSeverity::Cvss(score)) => score / 10.0,
                Some(RecordSeverity::Band(band)) => severity_band_weight(band),
                None => 0.5,
            },
        };
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_attackdb::synth;
    use cpssec_model::Fidelity;
    use cpssec_scada::model::{names, scada_model};
    use cpssec_scada::water::water_model;
    use cpssec_search::{FilterPipeline, ScoringModel, SearchEngine};

    fn posture_at(level: Fidelity) -> SystemPosture {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let model = scada_model();
        let map = AssociationMap::build(&model, &engine, &corpus, level, &FilterPipeline::new());
        SystemPosture::compute(&model, &corpus, &map)
    }

    /// The per-record lookup the severity table replaced, kept as the
    /// reference the table must reproduce bit for bit.
    fn reference_mass(set: &MatchSet, corpus: &Corpus) -> f64 {
        let mut mass = 0.0;
        for hit in set.iter() {
            mass += match hit.id {
                AttackVectorId::Vulnerability(id) => corpus
                    .vulnerability(id)
                    .and_then(|v| v.cvss())
                    .map_or(0.5, |c| c.base_score() / 10.0),
                AttackVectorId::Pattern(id) => corpus
                    .pattern(id)
                    .and_then(|p| p.typical_severity())
                    .map_or(0.5, severity_band_weight),
                AttackVectorId::Weakness(_) => 0.5,
            };
        }
        mass
    }

    /// Asserts table-backed posture equals the reference bit for bit, for
    /// both testbeds at every fidelity under both scorings.
    fn assert_bit_identical(corpus: &Corpus, engine: &SearchEngine, label: &str) {
        for scoring in [ScoringModel::TfIdf, ScoringModel::Bm25] {
            let engine = engine.with_scoring(scoring);
            for model in [scada_model(), water_model()] {
                for level in Fidelity::ALL {
                    let map = AssociationMap::build(
                        &model,
                        &engine,
                        corpus,
                        level,
                        &FilterPipeline::new(),
                    );
                    let fast = SystemPosture::compute(&model, corpus, &map);
                    let slow = SystemPosture::compute_with(&model, &map, |set| {
                        reference_mass(set, corpus)
                    });
                    let at = format!("{label}/{scoring:?}/{}/{level:?}", model.name());
                    assert_eq!(
                        fast.total_score.to_bits(),
                        slow.total_score.to_bits(),
                        "{at}"
                    );
                    assert_eq!(fast.components.len(), slow.components.len(), "{at}");
                    for (f, s) in fast.components.iter().zip(&slow.components) {
                        assert_eq!(f.score.to_bits(), s.score.to_bits(), "{at}/{}", f.component);
                        assert_eq!(
                            f.severity_weighted.to_bits(),
                            s.severity_weighted.to_bits(),
                            "{at}/{}",
                            f.component
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn table_posture_is_bit_identical_to_per_record_lookup() {
        let mut corpus = synth::generate(&synth::SynthSpec::paper2020(2020, 0.05));
        let mut engine = SearchEngine::build(&corpus);
        assert_bit_identical(&corpus, &engine, "built");

        // A clone starts without a table and rebuilds the same one.
        assert_bit_identical(&corpus.clone(), &engine, "clone");

        // A delta drops the table; the rebuilt one covers the new records.
        let parent =
            cpssec_search::snapshot::inspect(&cpssec_search::snapshot::encode(&corpus, &engine))
                .expect("inspect")
                .snapshot_id;
        let delta = cpssec_search::build_delta(parent, &synth::delta_batch(5, 400, 0));
        cpssec_search::apply_delta(&mut corpus, &mut engine, &delta, parent).expect("apply");
        assert_bit_identical(&corpus, &engine, "delta");
    }

    #[test]
    fn scores_are_nonnegative_and_additive() {
        let posture = posture_at(Fidelity::Implementation);
        assert!(posture.components.iter().all(|c| c.score >= 0.0));
        let sum: f64 = posture.components.iter().map(|c| c.score).sum();
        assert!((sum - posture.total_score).abs() < 1e-9);
    }

    #[test]
    fn concrete_models_score_worse_than_abstract_ones() {
        // More design detail → more matched vectors → higher (worse) score.
        let concrete = posture_at(Fidelity::Implementation);
        let abstract_ = posture_at(Fidelity::Conceptual);
        assert!(abstract_.is_better_than(&concrete));
    }

    #[test]
    fn workstation_has_matched_vectors_at_implementation() {
        let posture = posture_at(Fidelity::Implementation);
        let ws = posture.component(names::WORKSTATION).unwrap();
        assert!(ws.total_vectors() > 0);
        assert!(ws.severity_weighted > 0.0);
    }

    #[test]
    fn criticality_multiplies_the_component_score() {
        let posture = posture_at(Fidelity::Implementation);
        for c in &posture.components {
            if c.severity_weighted > 0.0 {
                let ratio = c.score / c.severity_weighted;
                assert!((ratio - f64::from(c.criticality.weight())).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn component_lookup_by_name() {
        let posture = posture_at(Fidelity::Implementation);
        assert!(posture.component(names::SIS).is_some());
        assert!(posture.component("ghost").is_none());
    }
}
