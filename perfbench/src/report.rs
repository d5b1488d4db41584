//! Result plumbing shared by every workload: named metrics, order
//! statistics, process memory, output digests, and the result line.

use serde_json::{json, Map, Value};
use std::time::Duration;

/// One reported number with its unit and the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// What a workload hands back: metrics plus the operation ledger and the
/// outcome of its output checks.
pub struct Outcome {
    /// The metrics of the result object.
    pub metrics: Vec<Metric>,
    /// Further figures printed in the report only: they are 0 on some
    /// seeds or restate a result metric in the issue's own terms.
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each; empty when the run is correct.
    pub violations: Vec<String>,
    /// FNV-1a digest of every scored event, for bitwise run comparison.
    pub digest: u64,
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated `q`-quantile of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Samples in arrival order, each standing for `count` equal
/// observations (a burst of lines that share one latency).
#[derive(Default)]
pub struct Samples {
    items: Vec<(f64, u64)>,
    total: u64,
}

impl Samples {
    pub fn push(&mut self, value: f64, count: u64) {
        self.total += count;
        match self.items.last_mut() {
            Some(last) if last.0 == value => last.1 += count,
            _ if count > 0 => self.items.push((value, count)),
            _ => {}
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank `q`-quantile over all observations; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        weighted_quantile(self.items.clone(), q)
    }

    /// The `q`-quantile of each of `slices` consecutive slices of about
    /// equal weight, in arrival order.
    pub fn per_slice(&self, q: f64, slices: usize) -> Vec<f64> {
        let per = self.total.div_ceil(slices.max(1) as u64).max(1);
        let mut out = Vec::new();
        let mut slice = Vec::new();
        let mut weight = 0;
        for &item in &self.items {
            slice.push(item);
            weight += item.1;
            if weight >= per {
                out.push(weighted_quantile(std::mem::take(&mut slice), q));
                weight = 0;
            }
        }
        if !slice.is_empty() {
            out.push(weighted_quantile(slice, q));
        }
        out
    }
}

/// The figure of the least-disturbed share `share` of per-slice
/// figures: their `share`-quantile when lower is better, else their
/// `1 - share`-quantile. The host is shared, and a neighbour's load slows
/// whole stretches of a run by up to 1.7x; this reads the program, not
/// the neighbour.
pub fn least_disturbed(per_slice: &[f64], share: f64, lower_is_better: bool) -> f64 {
    quantile(per_slice, if lower_is_better { share } else { 1.0 - share })
}

fn weighted_quantile(mut items: Vec<(f64, u64)>, q: f64) -> f64 {
    let total: u64 = items.iter().map(|i| i.1).sum();
    if total == 0 {
        return 0.0;
    }
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (value, count) in items {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("rank is at most the total weight")
}

/// Highest value of `xs`; 0 when empty.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `num / den`, or 0 when nothing was done (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Incremental FNV-1a, the digest of a run's scored output.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Prints the human-readable report, then the result object as the
/// last line of standard output.
pub fn emit(workload: &str, outcome: &Outcome) {
    println!("workload {}", workload);
    for m in &outcome.metrics {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    for m in &outcome.extra {
        println!("also {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!("digest {:016x}", outcome.digest);
    println!("operations attempted={} failed={}", outcome.attempted, outcome.failed);
    for v in &outcome.violations {
        println!("CHECK FAILED: {}", v);
    }
    let mut metrics = Map::new();
    for m in &outcome.metrics {
        metrics.insert(m.name.to_string(), json!({"value": m.value, "unit": m.unit}));
    }
    let result = json!({
        "correct": outcome.violations.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", result);
}
