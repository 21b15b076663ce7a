//! Self-tests for the benchmark's own arithmetic: the percentile rule,
//! failure accounting, open-loop timing, seeded request sequences, and
//! the trace file round trip.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use cpsbench::e2e::drive_open;
use cpsbench::plan::{self, Class};
use cpsbench::stats::{beyond, classify, latency_windows, percentile, tail_rank, Outcome, Tally};
use cpsbench::trace::{from_chrome, self_times, to_chrome, Args, Tracer};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_rank(99), None);
    assert_eq!(tail_rank(100).map(|t| t.0), Some("p90"));
    assert_eq!(tail_rank(999).map(|t| t.0), Some("p90"));
    assert_eq!(tail_rank(1000).map(|t| t.0), Some("p99"));
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(100, 0.90), 10);
    assert_eq!(beyond(999, 0.99), 9);
    // Sub-windows are kept only while each can support its own p90.
    let spread = |per: &[usize]| -> Vec<(usize, f64)> {
        per.iter()
            .enumerate()
            .flat_map(|(w, &n)| (0..n).map(move |i| (w, i as f64)))
            .collect()
    };
    assert_eq!(latency_windows(&spread(&[100, 100, 100]), 3), 3);
    assert_eq!(latency_windows(&spread(&[100, 99, 100]), 3), 1);
    assert_eq!(latency_windows(&spread(&[300]), 1), 1);
}

#[test]
fn percentile_is_nearest_rank_over_measured_values() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&values, 0.5), 500.0);
    assert_eq!(percentile(&values, 0.99), 990.0);
    assert_eq!(values.iter().filter(|&&v| v > 990.0).count(), 10);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
}

#[test]
fn every_attempt_lands_in_exactly_one_bucket() {
    let mut tally = Tally::default();
    for outcome in [
        classify(Some(200), true),
        classify(Some(200), false),
        classify(Some(429), false),
        classify(Some(409), true),
        classify(None, true),
        classify(Some(204), true),
    ] {
        tally.add(outcome);
    }
    assert_eq!(classify(Some(429), true), Outcome::Shed);
    assert_eq!(classify(Some(409), true), Outcome::Status(409));
    assert_eq!(tally.attempted, 6);
    assert_eq!(
        (tally.wrong, tally.shed, tally.status, tally.transport),
        (1, 1, 1, 1)
    );
    assert_eq!(tally.failed(), 4);
    assert!((tally.error_ratio() - 4.0 / 6.0).abs() < 1e-12);
    assert_eq!(Tally::default().error_ratio(), 0.0);
}

#[test]
fn open_loop_latency_counts_from_the_scheduled_send() {
    let start = Instant::now() + Duration::from_millis(2);
    let step = Duration::from_millis(5);
    let dues = (0..3u32).map(|i| (i as usize, start + step * i));
    // The first answer stalls 30 ms; the second and third were due during
    // the stall and go out late.
    let samples = drive_open(dues, |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(30));
        }
    });
    let (_, first, ()) = samples[0];
    let (_, second, ()) = samples[1];
    assert!(first.latency() >= Duration::from_millis(30));
    assert!(second.sent >= first.done, "one connection sends in order");
    assert!(
        second.lag() >= Duration::from_millis(20),
        "{:?}",
        second.lag()
    );
    assert!(second.latency() >= second.lag());
    assert!(second.latency() >= second.done - second.sent + Duration::from_millis(20));
}

#[test]
fn a_seed_fixes_every_request_byte() {
    let wire = |reqs: &[plan::Req]| reqs.iter().flat_map(plan::Req::wire).collect::<Vec<u8>>();
    assert_eq!(
        wire(&plan::analyst_cold(7, 300)),
        wire(&plan::analyst_cold(7, 300))
    );
    assert_ne!(
        wire(&plan::analyst_cold(7, 300)),
        wire(&plan::analyst_cold(8, 300))
    );
    let (specs_a, timed_a) = plan::dashboard_hot(7, 500);
    let (specs_b, timed_b) = plan::dashboard_hot(7, 500);
    assert_eq!(wire(&specs_a), wire(&specs_b));
    assert_eq!(wire(&timed_a), wire(&timed_b));
    assert_eq!(wire(&plan::sim_fleet(7, 40)), wire(&plan::sim_fleet(7, 40)));
    let delta = |seed| {
        plan::growth_batches(seed, 2)
            .iter()
            .map(|batch| cpssec_search::build_delta(1, batch))
            .collect::<Vec<_>>()
    };
    assert_eq!(delta(7), delta(7));
}

#[test]
fn analyst_requests_never_share_a_cache_key() {
    let reqs = plan::analyst_cold(3, 5000);
    let keys: BTreeSet<(&str, &[u8])> = reqs
        .iter()
        .map(|r| (r.target.as_str(), r.body.as_slice()))
        .collect();
    assert_eq!(keys.len(), reqs.len());
    assert!(reqs.iter().any(|r| r.class == Class::WhatIf));
    assert!(reqs.iter().any(|r| r.class == Class::Component));
    assert!(reqs.iter().any(|r| r.class == Class::Table1));
}

#[test]
fn fleet_body_seeds_stay_exact_as_json_numbers_at_any_workload_seed() {
    for seed in [0, 42, u64::from(u32::MAX), 1 << 40, u64::MAX] {
        let reqs = plan::sim_fleet(seed, 24);
        assert!(reqs.iter().any(|r| r.class == Class::Campaign));
        for req in &reqs {
            let text = std::str::from_utf8(&req.body).unwrap();
            let body_seed: u64 = text
                .split("\"seed\":")
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|n| n.parse().ok())
                .unwrap();
            assert!(body_seed < 1 << 53, "{text}");
        }
    }
    let campaigns: Vec<_> = plan::sim_fleet(42, 12)
        .into_iter()
        .filter(|r| r.class == Class::Campaign)
        .map(|r| (r.target, String::from_utf8(r.body).unwrap()))
        .collect();
    assert_eq!(campaigns.len(), 2);
    assert!(campaigns
        .iter()
        .all(|(_, body)| body.contains("\"seed\":42,")));
}

#[test]
fn dashboard_warms_at_most_64_specs_and_draws_only_from_them() {
    let (specs, timed) = plan::dashboard_hot(5, 2000);
    assert!(specs.len() <= 64);
    for req in timed {
        match req.class {
            Class::Healthz | Class::Metrics | Class::History => {}
            _ => assert!(specs.contains(&req)),
        }
    }
}

#[test]
fn trace_file_round_trips_and_self_time_subtracts_children() {
    let tracer = Tracer::new(true);
    tracer.span("parent", 0, 9, |id| {
        tracer.call("child", id, 9, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        tracer.span("child", id, 9, |_| {
            ((), Args::none().n("hits", 4.0).s("class", "table1"))
        });
        ((), Args::none())
    });
    let spans = tracer.spans();
    let read = from_chrome(&to_chrome(&spans)).expect("own format parses");
    assert_eq!(read.len(), 3);
    for (a, b) in spans.iter().zip(&read) {
        assert_eq!(
            (a.id, a.parent, a.req, &a.name),
            (b.id, b.parent, b.req, &b.name)
        );
        assert!((a.dur_us - b.dur_us).abs() < 0.001);
    }
    let child = read
        .iter()
        .find(|s| s.num("hits") == 4.0)
        .expect("args survive");
    assert_eq!(child.str("class"), "table1");
    let parent = read.iter().find(|s| s.name == "parent").expect("parent");
    let selves = self_times(&read);
    let children: f64 = read
        .iter()
        .filter(|s| s.parent == parent.id)
        .map(|s| s.dur_us)
        .sum();
    assert!((selves[&parent.id] - (parent.dur_us - children)).abs() < 0.01);
    let off = Tracer::new(false);
    assert_eq!(off.call("child", 0, 1, || 7), 7);
    assert!(off.spans().is_empty());
}
