//! Golden-output check for the event-driven kernel on the full testbed.
//!
//! The min-heap event queue must reproduce the original fixed-tick loop
//! byte for byte: same trace CSV, same bus log, same hazards, same batch
//! report, across the centrifuge's nominal batch and every built-in
//! attack scenario. The loop itself is gone; `golden/event_kernel.txt`
//! holds its output (byte length and FNV-1a of each observable),
//! recorded while both engines still ran side by side.

use cpssec_model::fnv1a_64;
use cpssec_scada::{attacks, ScadaConfig, ScadaHarness};

const GOLDEN: &str = include_str!("golden/event_kernel.txt");
const TICKS: u64 = 4000;

/// `label` followed by the byte length and FNV-1a of every observable
/// after one batch, in the golden file's line format.
fn fingerprint(label: &str, attack: Option<&str>) -> String {
    let config = ScadaConfig::default();
    let mut harness = match attack {
        Some(name) => {
            let scenario = attacks::all_scenarios()
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no scenario named {name}"));
            ScadaHarness::with_attack(config, &scenario)
        }
        None => ScadaHarness::new(config),
    };
    let report = format!("{:?}", harness.run_batch_for(TICKS));
    let sim = harness.sim();
    let trace = sim.trace().to_csv();
    let bus: String = sim
        .bus()
        .log()
        .iter()
        .map(|e| format!("{} {:?} {:?}\n", e.tick, e.request, e.outcome))
        .collect();
    let hazards: String = sim
        .hazards()
        .iter()
        .map(|h| format!("{}@{}\n", h.hazard, h.at))
        .collect();
    let mut line = label.to_owned();
    for part in [&trace, &bus, &hazards, &report] {
        line.push_str(&format!(
            " {} {:016x}",
            part.len(),
            fnv1a_64(part.as_bytes())
        ));
    }
    line
}

fn golden(label: &str) -> &'static str {
    GOLDEN
        .lines()
        .find(|l| l.split(' ').next() == Some(label))
        .unwrap_or_else(|| panic!("no golden line for {label}"))
}

#[test]
fn nominal_batch_matches_the_reference_loop_golden() {
    assert_eq!(fingerprint("nominal", None), golden("nominal"));
}

#[test]
fn every_attack_scenario_matches_the_reference_loop_golden() {
    let scenarios = attacks::all_scenarios();
    let pinned = GOLDEN.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(pinned, scenarios.len() + 1, "one golden line per run");
    for scenario in scenarios {
        let name = &scenario.name;
        assert_eq!(fingerprint(name, Some(name)), golden(name), "{name}");
    }
}
