//! Sample statistics, the per-run outcome, and its JSON rendering.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Nanoseconds elapsed since `t` as `f64`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Nanoseconds of a duration as `f64`.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Nearest-rank quantile `q` of `samples` (sorted in place); `0` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[rank(samples.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `len` samples (the small
/// slack keeps `0.9 * 100` from rounding up to rank 91).
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64 - 1e-9).ceil() as usize).clamp(1, len.max(1))
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Runs `pass` `passes` times and returns the median of the per-pass
/// results: the per-call cost of a layer probe, robust to one preempted
/// pass.
pub fn median_of(passes: usize, mut pass: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..passes).map(|_| pass()).collect();
    median(&mut v)
}

/// Quantile `q` of `samples` plus a report note stating the sample count
/// and how many samples lie beyond it (a tail quantile is trusted only
/// with at least ten beyond).
pub fn tail(samples: &mut [f64], q: f64, what: &str) -> (f64, String) {
    let beyond = samples.len() - rank(samples.len(), q).min(samples.len());
    let note = format!(
        "{what}: p{:.0} over {} samples ({beyond} beyond){}",
        q * 100.0,
        samples.len(),
        if beyond < 10 { " UNSUPPORTED" } else { "" }
    );
    (quantile(samples, q), note)
}

/// Operations per window. A timed loop's per-op times are reduced window
/// by window (runs of consecutive operations), and each statistic is
/// reported from the fast end of its per-window values. Contention from
/// other tenants of a shared host comes in bursts of milliseconds to tens
/// of milliseconds and only ever slows a window; windows this short
/// (about 3 ms of `serve_steady`) find the quiet stretches between
/// bursts, so the fast end estimates the program's own speed.
/// `perfbench/METRICS.md` has the measurements. A multiple of 64, so
/// every serving window holds the same number of checkpoint batches.
const WINDOW: usize = 256;

/// The quantile over windows each statistic is reported at: the lower one
/// for times, the upper one for rates.
const FAST: f64 = 0.01;

/// Samples a tail window keeps beyond its tail quantile.
const TAIL_SUPPORT: usize = 10;

/// Per-op timings of one timed loop, reduced to per-window statistics as
/// windows fill. Medians and rates are taken per `WINDOW` operations; the
/// tail quantile per the shortest multiple of `WINDOW` that leaves
/// `TAIL_SUPPORT` samples beyond it. Only one tail window of samples is
/// held, so the harness's memory does not grow with the operations a run
/// completes and stays out of `peak_rss_mb`.
pub struct Windows {
    /// Tail quantile, and the operations per tail window.
    q: f64,
    tail_window: usize,
    current: Vec<u32>,
    p50s: Vec<f64>,
    rates: Vec<f64>,
    tails: Vec<f64>,
    total_ns: f64,
    count: u64,
}

/// Fast-end-over-windows statistics of a [`Windows`] loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    /// Fast end over windows of the window median (ns).
    pub p50: f64,
    /// Fast end over tail windows of the window quantile `q` (ns).
    pub tail: f64,
    /// Fast end over windows of operations per second of summed op time.
    pub ops_per_s: f64,
    /// Mean op time over all samples (ns).
    pub mean: f64,
    pub count: u64,
    pub windows: usize,
    pub tail_windows: usize,
    pub tail_window: usize,
    /// Samples a tail window has beyond its tail quantile.
    pub beyond: usize,
}

impl Windows {
    pub fn new(q: f64) -> Self {
        let mut tail_window = WINDOW;
        while tail_window - rank(tail_window, q) < TAIL_SUPPORT {
            tail_window += WINDOW;
        }
        Self {
            q,
            tail_window,
            current: Vec::with_capacity(tail_window),
            p50s: Vec::new(),
            rates: Vec::new(),
            tails: Vec::new(),
            total_ns: 0.0,
            count: 0,
        }
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn push(&mut self, ns: f64) {
        self.current.push(ns.clamp(0.0, f64::from(u32::MAX)) as u32);
        self.total_ns += ns;
        self.count += 1;
        if self.current.len().is_multiple_of(WINDOW) {
            let last = self.current.len() - WINDOW;
            self.close_window(last);
        }
        if self.current.len() == self.tail_window {
            self.close_tail();
        }
    }

    /// Reduces the samples from `from` on to their median and rate.
    fn close_window(&mut self, from: usize) {
        let mut w = self.current[from..].to_vec();
        let sum: u64 = w.iter().map(|&v| u64::from(v)).sum();
        self.rates.push(w.len() as f64 / (sum.max(1) as f64 / 1e9));
        w.sort_unstable();
        self.p50s.push(f64::from(w[rank(w.len(), 0.5) - 1]));
    }

    /// Reduces the held samples to their tail quantile and drops them.
    fn close_tail(&mut self) {
        let w = &mut self.current;
        w.sort_unstable();
        self.tails.push(f64::from(w[rank(w.len(), self.q) - 1]));
        w.clear();
    }

    /// Bytes the harness holds for this loop's samples.
    pub fn heap_bytes(&self) -> usize {
        self.current.capacity() * 4
            + (self.p50s.capacity() + self.rates.capacity() + self.tails.capacity()) * 8
    }

    /// The loop's statistics. A partial last window counts only when no
    /// window of its kind filled (the self-test's tiny runs).
    pub fn stats(&mut self) -> WindowStats {
        if self.p50s.is_empty() && !self.current.is_empty() {
            self.close_window(0);
        }
        if self.tails.is_empty() && !self.current.is_empty() {
            self.close_tail();
        }
        let (windows, tail_windows) = (self.p50s.len(), self.tails.len());
        WindowStats {
            p50: quantile(&mut self.p50s, FAST),
            tail: quantile(&mut self.tails, FAST),
            ops_per_s: quantile(&mut self.rates, 1.0 - FAST),
            mean: self.total_ns / self.count.max(1) as f64,
            count: self.count,
            windows,
            tail_windows,
            tail_window: self.tail_window,
            beyond: self.tail_window - rank(self.tail_window, self.q),
        }
    }
}

impl WindowStats {
    /// Report line: sample and window counts and the support of the tail
    /// quantile.
    pub fn note(&self, what: &str, q: f64) -> String {
        format!(
            "{what}: {} samples; p50 and rate over {} windows of {WINDOW}, p{:.0} over {} \
             windows of {} ({} samples beyond it in each); each the fast {:.0}% over windows{}",
            self.count,
            self.windows,
            q * 100.0,
            self.tail_windows,
            self.tail_window,
            self.beyond,
            FAST * 100.0,
            if self.tail_windows < 10 {
                " (UNSUPPORTED: fewer than 10 tail windows)"
            } else {
                ""
            }
        )
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (trial pairs, batches, recoveries) attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a correctness check.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layers: Vec<Metric>,
    /// Free-form report lines (sample counts, quantiles used, flags).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation; `ok == false` marks it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Counts one operation that returned an error.
    pub fn error(&mut self, err: impl std::fmt::Display) {
        self.check(false, || format!("error: {err}"));
    }

    /// The report line (every metric of both kinds plus notes) and the
    /// result line (the last line of stdout).
    pub fn render(&self, workload: &str, trace: bool) -> (String, String) {
        let mut report = String::new();
        let _ = write!(
            report,
            "{{\"report\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"end_to_end\": {}, \"per_layer\": {}, \"notes\": [{}]}}",
            json_str(workload),
            self.attempted,
            self.failed,
            join(self.failures.iter().map(|s| json_str(s))),
            metrics_json(&self.e2e),
            metrics_json(&self.layers),
            join(self.notes.iter().map(|s| json_str(s))),
        );
        let chosen = if trace { &self.layers } else { &self.e2e };
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics_json(chosen)
        );
        (report, result)
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body = join(metrics.iter().map(|m| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        )
    }));
    format!("{{{body}}}")
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

/// A number in full precision. A non-finite value would be a bug in the
/// harness; it renders as 0 so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        let (t, note) = tail(&mut v, 0.9, "x");
        assert_eq!(t, 90.0);
        assert!(!note.contains("UNSUPPORTED"), "{note}");
        assert!(tail(&mut v, 0.99, "x").1.contains("UNSUPPORTED"));
    }

    #[test]
    fn windows_report_the_fast_end_with_a_supported_tail() {
        assert_eq!(Windows::new(0.9).tail_window, WINDOW);
        assert_eq!(Windows::new(0.99).tail_window, 4 * WINDOW);
        // 100 windows: one slowed 10x, the rest at 1000..=1255 ns.
        let mut w = Windows::new(0.9);
        for k in 0..100 {
            let slow = if k == 0 { 10.0 } else { 1.0 };
            for i in 0..WINDOW {
                w.push(slow * (1000 + i) as f64);
            }
        }
        let s = w.stats();
        assert_eq!((s.windows, s.tail_windows, s.beyond), (100, 100, 25));
        assert_eq!(s.p50, 1127.0);
        assert_eq!(s.tail, 1230.0);
        assert!(s.mean > 1127.0 * 1.05, "the mean keeps the slowed window");
    }

    #[test]
    fn result_line_carries_the_chosen_metric_set() {
        let mut out = Outcome::default();
        out.e2e("setup_s", 0.5, "s");
        out.layer("wheel.in_flight", 7.0, "count");
        out.check(true, String::new);
        let (_, result) = out.render("w", false);
        assert_eq!(
            result,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let (_, traced) = out.render("w", true);
        assert!(traced.contains("wheel.in_flight") && !traced.contains("setup_s"));
    }
}
