//! The benchmark's own arithmetic: percentiles under the sample-count
//! rule, failure accounting, and open-loop timing. Everything here is a
//! pure function of its inputs so `tests/selftest.rs` can pin it.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `p` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 1]`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} out of range");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples beyond the nearest-rank percentile `p` of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * n as f64).ceil() as usize;
    n.saturating_sub(rank)
}

/// The highest tail percentile a sample of `n` supports with at least ten
/// samples beyond it: `p99` from 1000 samples, `p90` from 100, else none.
#[must_use]
pub fn tail_rank(n: usize) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find(|&(_, p)| beyond(n, p) >= 10)
}

/// Median of unsorted values (nearest rank, so always a measured value).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Outcome of one attempted operation, as the benchmark counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx and the body passed its output check.
    Ok,
    /// The server refused it with 429 (admission shed).
    Shed,
    /// Any other non-2xx status.
    Status(u16),
    /// Connect, write or read failed.
    Transport,
    /// 2xx whose body failed the output check.
    Wrong,
}

/// Failure accounting over attempted operations. Each attempt lands in
/// exactly one bucket, so `failed()` never double-counts a request that
/// both returned an error status and failed its check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// 429 responses.
    pub shed: u64,
    /// Non-2xx responses other than 429.
    pub status: u64,
    /// Transport errors.
    pub transport: u64,
    /// 2xx answers that failed the output check.
    pub wrong: u64,
}

impl Tally {
    /// Counts one attempt.
    pub fn add(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Shed => self.shed += 1,
            Outcome::Status(_) => self.status += 1,
            Outcome::Transport => self.transport += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    /// Attempts that did not end in a correct 2xx answer.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.shed + self.status + self.transport + self.wrong
    }

    /// `failed / attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// Classifies a transport result, status and check verdict.
#[must_use]
pub fn classify(status: Option<u16>, check_passed: bool) -> Outcome {
    match status {
        None => Outcome::Transport,
        Some(429) => Outcome::Shed,
        Some(s) if !(200..300).contains(&s) => Outcome::Status(s),
        Some(_) if check_passed => Outcome::Ok,
        Some(_) => Outcome::Wrong,
    }
}

/// One open-loop send: when it was due, when it went out, when its
/// answer was complete.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Scheduled send time.
    pub due: Instant,
    /// Actual send time (never before `due`).
    pub sent: Instant,
    /// Response fully read.
    pub done: Instant,
}

impl Timed {
    /// Latency counted from the scheduled send time, so a stall that
    /// delays later sends is charged to every request it delayed.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent this request.
    #[must_use]
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Milliseconds as `f64`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as `f64`.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Applies `stat` to each sub-window's values (sorted ascending) and
/// returns the median of the results, so interference that hits one
/// sub-window moves one input of the median, not the figure. Samples are
/// `(sub-window, value)`; empty sub-windows are skipped, and `None` means
/// all were empty.
#[must_use]
pub fn windowed(
    samples: &[(usize, f64)],
    windows: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> Option<f64> {
    let mut buckets = vec![Vec::new(); windows];
    for &(w, value) in samples {
        buckets[w.min(windows - 1)].push(value);
    }
    let per_window: Vec<f64> = buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            stat(&b)
        })
        .collect();
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// Samples in the emptiest sub-window.
#[must_use]
pub fn fewest_per_window(samples: &[(usize, f64)], windows: usize) -> usize {
    let mut counts = vec![0usize; windows];
    for &(w, _) in samples {
        counts[w.min(windows - 1)] += 1;
    }
    counts.into_iter().min().unwrap_or(0)
}

/// Sub-windows the latency percentiles are taken over: `windows` while
/// the emptiest holds at least 100 samples, so each p90 has ten beyond
/// it; otherwise the whole run as one window. A host slow enough to thin
/// a sub-window out still gets a supported p90 rather than none.
#[must_use]
pub fn latency_windows(samples: &[(usize, f64)], windows: usize) -> usize {
    if fewest_per_window(samples, windows) >= 100 {
        windows
    } else {
        1
    }
}

/// The sub-window (of `windows` equal ones over `span`) that an instant
/// `elapsed` into the span falls in.
#[must_use]
pub fn window_of(elapsed: Duration, span: Duration, windows: usize) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let i = (elapsed.as_secs_f64() / span.as_secs_f64() * windows as f64) as usize;
    i.min(windows - 1)
}

/// Completions per second within one sub-window, from its sorted
/// completion offsets: the gaps between the first and last completion.
#[must_use]
pub fn rate(sorted_offsets: &[f64]) -> f64 {
    match sorted_offsets {
        [first, .., last] if last > first => (sorted_offsets.len() - 1) as f64 / (last - first),
        _ => 0.0,
    }
}

/// `p50` and the supported tail of latencies in milliseconds, with the
/// tail's label; `None` for the tail when fewer than 100 samples.
#[must_use]
pub fn latency_summary(mut latencies_ms: Vec<f64>) -> Option<(f64, Option<(&'static str, f64)>)> {
    if latencies_ms.is_empty() {
        return None;
    }
    latencies_ms.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies_ms, 0.5);
    let tail =
        tail_rank(latencies_ms.len()).map(|(label, p)| (label, percentile(&latencies_ms, p)));
    Some((p50, tail))
}
