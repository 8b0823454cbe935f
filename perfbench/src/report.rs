//! Metric collection, the per-layer stopwatch, and the result line.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Stringifies an engine error with the step that raised it.
pub fn at<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Everything one run reports: metrics in print order, the epoch tally,
/// and the correctness problems found.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Epochs served by engine calls (days, recoveries, replays).
    pub attempted: u64,
    /// Epochs that errored or failed a correctness check.
    pub failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness check covering `epochs` epochs; a failed check
    /// counts them all as failed.
    pub fn check(&mut self, ok: bool, epochs: u64, what: impl Into<String>) {
        if !ok {
            self.failed += epochs;
            self.problems.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Human-readable metric lines, then the one-line JSON result.
    pub fn print(&self) {
        for p in &self.problems {
            println!("MISMATCH {p}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "epoch_fail_ratio = {ratio} ({} of {} epochs)",
            self.failed, self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Per-layer stopwatch of a traced run: total time per layer plus
/// per-epoch samples for the layers that report a p50.
#[derive(Default)]
pub struct Layers {
    total: BTreeMap<&'static str, Duration>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds the time since `since` to `layer`.
    pub fn add(&mut self, layer: &'static str, since: Instant) {
        *self.total.entry(layer).or_default() += since.elapsed();
    }

    /// Like [`Layers::add`], also keeping the reading as a p50 sample.
    pub fn sample(&mut self, layer: &'static str, since: Instant) {
        let d = since.elapsed();
        *self.total.entry(layer).or_default() += d;
        self.samples.entry(layer).or_default().push(ms(d));
    }

    pub fn ms(&self, layer: &str) -> f64 {
        self.total.get(layer).copied().map_or(0.0, ms)
    }

    pub fn p50_ms(&self, layer: &str) -> f64 {
        self.samples.get(layer).map_or(0.0, |s| median(s))
    }

    /// Σ of every layer's time: the attributed part of the traced day.
    pub fn sum_ms(&self) -> f64 {
        self.total.values().copied().map(ms).sum()
    }
}
