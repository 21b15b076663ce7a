//! Report rendering: text tables, Graphviz DOT, JSON.

use std::fmt::Write as _;

use cpssec_model::SystemModel;

use crate::AssociationMap;

/// Renders an aligned text table with a header row and a separator.
///
/// # Examples
///
/// ```
/// use cpssec_analysis::render::text_table;
/// let table = text_table(
///     &["Attribute", "Vulnerabilities"],
///     &[vec!["Cisco ASA".into(), "3776".into()]],
/// );
/// assert!(table.contains("Cisco ASA"));
/// ```
///
/// # Panics
///
/// Panics if any row has a different number of cells than the header.
#[must_use]
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:<width$}", width = widths[i]);
        }
        // Trim the padding of the last column.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    render_row(&mut out, &header_cells);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Renders the merged system-model + association view as Graphviz DOT —
/// the machine-readable regeneration of the paper's Figure 1.
///
/// Node labels carry the component name and, when an association map is
/// given, the `(patterns / weaknesses / vulnerabilities)` counts. Entry
/// points are drawn as diamonds, safety-critical components with a double
/// border.
#[must_use]
pub fn model_dot(model: &SystemModel, association: Option<&AssociationMap>) -> String {
    let _span = cpssec_obs::span!("render");
    let mut out = String::new();
    let _ = writeln!(out, "graph \"{}\" {{", escape_dot(model.name()));
    out.push_str("  node [shape=box];\n");
    for (id, component) in model.components() {
        let mut label = escape_dot(component.name());
        if let Some(map) = association {
            if let Some(set) = map.matches(component.name()) {
                let (p, w, v) = set.counts();
                let _ = write!(label, "\\n{p} AP / {w} CWE / {v} CVE");
            }
        }
        let mut attrs = format!("label=\"{label}\"");
        if component.is_entry_point() {
            attrs.push_str(", shape=diamond");
        }
        if component.criticality() == cpssec_model::Criticality::SafetyCritical {
            attrs.push_str(", peripheries=2");
        }
        let _ = writeln!(out, "  {id} [{attrs}];");
    }
    for (_, channel) in model.channels() {
        let _ = writeln!(
            out,
            "  {} -- {} [label=\"{}\"];",
            channel.from(),
            channel.to(),
            channel.kind()
        );
    }
    out.push_str("}\n");
    out
}

fn escape_dot(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A minimal JSON value for report artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Serializes to compact JSON text.
    ///
    /// # Panics
    ///
    /// Panics if a number is not finite (JSON cannot represent NaN or
    /// infinities).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => {
                assert!(n.is_finite(), "JSON numbers must be finite");
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::String(s) => cpssec_attackdb::json::write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::String(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_owned())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Serializes the merged view (model + association + posture) as a JSON
/// artifact — the data feed a graphical dashboard like the paper's \[13\]
/// would consume.
#[must_use]
pub fn association_json(
    model: &SystemModel,
    association: &AssociationMap,
    posture: &crate::SystemPosture,
) -> Json {
    let _span = cpssec_obs::span!("render");
    let components = model
        .components()
        .map(|(_, component)| {
            let mut fields: Vec<(String, Json)> = vec![
                ("name".into(), component.name().into()),
                ("kind".into(), component.kind().as_str().into()),
                (
                    "criticality".into(),
                    component.criticality().as_str().into(),
                ),
                ("entryPoint".into(), component.is_entry_point().into()),
            ];
            if let Some(set) = association.matches(component.name()) {
                let (p, w, v) = set.counts();
                fields.push(("patterns".into(), p.into()));
                fields.push(("weaknesses".into(), w.into()));
                fields.push(("vulnerabilities".into(), v.into()));
            }
            if let Some(score) = posture.component(component.name()) {
                fields.push(("score".into(), score.score.into()));
            }
            Json::Object(fields)
        })
        .collect();
    let channels = model
        .channels()
        .map(|(_, channel)| {
            let from = model.component(channel.from()).expect("valid endpoint");
            let to = model.component(channel.to()).expect("valid endpoint");
            Json::Object(vec![
                ("from".into(), from.name().into()),
                ("to".into(), to.name().into()),
                ("kind".into(), channel.kind().as_str().into()),
            ])
        })
        .collect();
    Json::Object(vec![
        ("model".into(), model.name().into()),
        ("fidelity".into(), association.fidelity().as_str().into()),
        ("components".into(), Json::Array(components)),
        ("channels".into(), Json::Array(channels)),
        ("totalVectors".into(), association.total_vectors().into()),
        ("systemScore".into(), posture.total_score.into()),
    ])
}

/// Serializes a what-if comparison as a JSON artifact: before/after scores,
/// the structural diff, and per-component posture pairs. This is the
/// canonical rendering both the analysis service and the batch pipeline
/// produce, so their outputs can be compared byte for byte.
#[must_use]
pub fn whatif_json(
    model_name: &str,
    fidelity: cpssec_model::Fidelity,
    report: &crate::WhatIfReport,
) -> Json {
    let _span = cpssec_obs::span!("render");
    let posture_fields = |p: &crate::ComponentPosture| {
        Json::Object(vec![
            ("patterns".into(), p.patterns.into()),
            ("weaknesses".into(), p.weaknesses.into()),
            ("vulnerabilities".into(), p.vulnerabilities.into()),
            ("score".into(), p.score.into()),
        ])
    };
    let mut names: Vec<&str> = report
        .before
        .components
        .iter()
        .chain(report.after.components.iter())
        .map(|p| p.component.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let components = names
        .into_iter()
        .map(|name| {
            Json::Object(vec![
                ("name".into(), name.into()),
                (
                    "before".into(),
                    report
                        .before
                        .component(name)
                        .map_or(Json::Null, &posture_fields),
                ),
                (
                    "after".into(),
                    report
                        .after
                        .component(name)
                        .map_or(Json::Null, &posture_fields),
                ),
            ])
        })
        .collect();
    let strings =
        |items: &[String]| Json::Array(items.iter().map(|s| Json::from(s.as_str())).collect());
    Json::Object(vec![
        ("model".into(), model_name.into()),
        ("fidelity".into(), fidelity.as_str().into()),
        ("scoreBefore".into(), report.before.total_score.into()),
        ("scoreAfter".into(), report.after.total_score.into()),
        ("scoreDelta".into(), report.score_delta.into()),
        ("improved".into(), report.is_improvement().into()),
        (
            "addedComponents".into(),
            strings(&report.diff.added_components),
        ),
        (
            "removedComponents".into(),
            strings(&report.diff.removed_components),
        ),
        (
            "changedComponents".into(),
            Json::Array(
                report
                    .diff
                    .changed_components
                    .iter()
                    .map(|c| Json::from(c.name.as_str()))
                    .collect(),
            ),
        ),
        ("components".into(), Json::Array(components)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_model::Fidelity;
    use cpssec_scada::model::scada_model;
    use cpssec_search::{FilterPipeline, SearchEngine};

    #[test]
    fn text_table_aligns_columns() {
        let table = text_table(
            &["a", "longer"],
            &[
                vec!["xxxxx".into(), "1".into()],
                vec!["y".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a      longer"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxx  1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        let _ = text_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn dot_includes_nodes_edges_and_counts() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let model = scada_model();
        let map = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        let dot = model_dot(&model, Some(&map));
        assert!(dot.starts_with("graph"));
        assert!(dot.contains("SIS platform"));
        assert!(dot.contains("CVE"));
        assert!(dot.contains("--"));
        assert!(dot.contains("peripheries=2"));
        assert!(dot.contains("shape=diamond"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_escapes_quotes_in_names() {
        let model = cpssec_model::SystemModelBuilder::new("m \"quoted\"")
            .component("node \"x\"", cpssec_model::ComponentKind::Other)
            .build()
            .unwrap();
        let dot = model_dot(&model, None);
        assert!(dot.contains("graph \"m \\\"quoted\\\"\""));
        assert!(dot.contains("label=\"node \\\"x\\\"\""));
    }

    #[test]
    fn dot_without_association_has_plain_labels() {
        let dot = model_dot(&scada_model(), None);
        assert!(!dot.contains("CVE"));
        assert!(dot.contains("Programming WS"));
    }

    #[test]
    fn json_serializes_nested_structures() {
        let value = Json::Object(vec![
            ("name".into(), "SIS \"platform\"".into()),
            ("count".into(), 7usize.into()),
            ("score".into(), 1.5.into()),
            ("ok".into(), true.into()),
            ("items".into(), Json::Array(vec![Json::Null, 2usize.into()])),
        ]);
        assert_eq!(
            value.to_text(),
            r#"{"name":"SIS \"platform\"","count":7,"score":1.5,"ok":true,"items":[null,2]}"#
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let value = Json::String("a\nb\tc\u{1}".into());
        assert_eq!(value.to_text(), "\"a\\nb\\tc\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn json_rejects_nan() {
        let _ = Json::Number(f64::NAN).to_text();
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Number(42.0).to_text(), "42");
        assert_eq!(Json::Number(0.5).to_text(), "0.5");
    }

    #[test]
    fn whatif_json_records_the_comparison() {
        use cpssec_model::{Attribute, AttributeKind};
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let model = scada_model();
        let report = crate::whatif::evaluate(
            &model,
            &[crate::ModelChange::AddAttribute {
                component: cpssec_scada::model::names::TEMP_SENSOR.into(),
                attribute: Attribute::new(AttributeKind::OperatingSystem, "Windows 7")
                    .at_fidelity(Fidelity::Implementation),
            }],
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        )
        .unwrap();
        let json = whatif_json(model.name(), Fidelity::Implementation, &report);
        let text = json.to_text();
        assert!(text.contains("\"improved\":false"));
        assert!(text.contains("\"changedComponents\":[\"Temperature sensor\"]"));
        assert!(text.contains("\"scoreDelta\""));
        cpssec_attackdb::json::parse(&text).expect("artifact parses");
    }

    #[test]
    fn association_json_covers_every_element() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let model = scada_model();
        let map = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        let posture = crate::SystemPosture::compute(&model, &corpus, &map);
        let json = association_json(&model, &map, &posture);
        let text = json.to_text();
        assert!(text.contains("\"SIS platform\""));
        assert!(text.contains("\"fieldbus\""));
        assert!(text.contains("\"systemScore\""));
        assert!(text.contains("\"entryPoint\":true"));
        // The artifact is valid JSON by our own parser's standards too.
        cpssec_attackdb::json::parse(&text).expect("artifact parses");
    }
}
