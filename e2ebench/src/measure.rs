//! Measurement helpers: order statistics, process memory, the box
//! calibration loop and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time a fixed pure-Rust loop once, in ms. It does the same work on every
/// run, so its drift between runs is the machine's, not the program's.
pub fn box_calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..black_box(40_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metric constructor, for terse tables.
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (items, frames or requests).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// Every gate passed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Share of attempted operations that ended correct.
    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
        }
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, mt) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if mt.value.is_finite() { mt.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                mt.name, mt.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable table of the metrics, printed before the result line.
    pub fn table(&self, workload: &str) -> String {
        let mut s = String::new();
        for mt in &self.metrics {
            let _ = writeln!(
                s,
                "{workload:<15} {:<34} {:>16.4} {}",
                mt.name, mt.value, mt.unit
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let r = RunResult {
            attempted: 3,
            failed: 1,
            correct: false,
            metrics: vec![m("setup_s", 0.25, "s")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!((r.success_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
