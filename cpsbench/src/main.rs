//! `cpsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Builds the release `cpssec` binary,
//! generates the workload's inputs from the seed, and prints one JSON
//! object as the last line of standard output. With `--trace 0` it
//! drives the live server and prints the end-to-end metrics; with
//! `--trace 1` it replays the request sequences in-process and prints
//! the per-layer metrics. Exits non-zero when any answer fails its check.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use cpsbench::plan::Workload;
use cpsbench::{e2e, replay, stats};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds the server binary from the checkout and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "cpssec-cli",
            "--bin",
            "cpssec",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cpssec failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |dir| root.join(dir));
    let binary = target.join("release").join("cpssec");
    binary
        .is_file()
        .then_some(binary)
        .ok_or_else(|| "cpssec binary missing after build".to_owned())
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics.iter().map(|(n, v, u)| metric(n, *v, u)).collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn end_to_end(args: &Args, binary: &Path, work: &Path) -> Result<(bool, String), String> {
    let m = e2e::run(args.workload, args.seed, args.seconds, binary, work)?;
    let n = m.latencies.len();
    let all: Vec<f64> = m.latencies.iter().map(|&(_, ms)| ms).collect();
    let (_, tail) = stats::latency_summary(all).ok_or("no timed requests")?;
    // Throughput keeps one window per phase: its offsets count from each
    // phase's start, so phases must not share a window.
    let k = args.workload.windows();
    let throughput = stats::windowed(&m.completions, k, stats::rate).unwrap_or(0.0);
    let k = stats::latency_windows(&m.latencies, k);
    let windowed =
        |p: f64| stats::windowed(&m.latencies, k, |w| stats::percentile(w, p)).unwrap_or(0.0);
    let (p50, p90) = (windowed(0.5), windowed(0.9));
    let fewest = stats::fewest_per_window(&m.latencies, k);
    let tally = m.tally;
    println!(
        "{} seed {}: {} timed requests ({} in the emptiest of {} sub-windows), supported tail over all {}",
        args.workload.name(),
        args.seed,
        n,
        fewest,
        k,
        tail.map_or("none (fewer than 100 samples)".to_owned(), |(l, v)| format!("{l} = {v:.3} ms")),
    );
    println!(
        "  attempted {} failed {} (shed {}, status {}, transport {}, wrong {}), error_ratio {}",
        tally.attempted,
        tally.failed(),
        tally.shed,
        tally.status,
        tally.transport,
        tally.wrong,
        tally.error_ratio()
    );
    for (name, value, unit) in &m.extra {
        println!("  {name} = {value} {unit}");
    }
    for problem in m.problems.iter().take(20) {
        eprintln!("  check failed: {problem}");
    }
    let metrics = vec![
        ("setup_s".to_owned(), m.setup_s, "s"),
        ("latency_p50_ms".to_owned(), p50, "ms"),
        ("latency_p90_ms".to_owned(), p90, "ms"),
        ("throughput_rps".to_owned(), throughput, "1/s"),
        ("server_rss_mb".to_owned(), stats::median(&m.rss_mb), "MiB"),
    ];
    // p90 of each sub-window needs at least ten samples beyond it.
    let correct = tally.failed() == 0 && m.problems.is_empty() && fewest >= 100;
    if tally.failed() > 0 {
        eprintln!(
            "  check failed: {} of {} requests failed (shed {}, status {}, transport {}, wrong {})",
            tally.failed(),
            tally.attempted,
            tally.shed,
            tally.status,
            tally.transport,
            tally.wrong
        );
    }
    if fewest < 100 {
        eprintln!("  check failed: the run holds {fewest} timed requests, fewer than the 100 its p90 needs");
    }
    Ok((
        correct,
        result_line(correct, tally.attempted, tally.failed(), &metrics),
    ))
}

fn traced(args: &Args, binary: &Path, work: &Path) -> Result<(bool, String), String> {
    let r = replay::run(args.workload, args.seed, binary, work)?;
    println!("trace written to {}", r.trace_path.display());
    for problem in r.problems.iter().take(20) {
        eprintln!("  check failed: {problem}");
    }
    let correct = r.failed == 0 && r.problems.is_empty();
    Ok((
        correct,
        result_line(correct, r.attempted, r.failed, &r.metrics),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cpsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    if !root.join("crates").join("cli").join("Cargo.toml").is_file() {
        eprintln!("cpsbench: run from the repository root (crates/cli not found)");
        return ExitCode::from(2);
    }
    let work = root.join("cpsbench").join("work");
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| build_server(&root))
        .and_then(|binary| {
            if args.trace {
                traced(&args, &binary, &work)
            } else {
                end_to_end(&args, &binary, &work)
            }
        });
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cpsbench: {e}");
            ExitCode::from(2)
        }
    }
}
