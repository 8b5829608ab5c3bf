//! Closed-loop runner shared by the two batch workloads: run a fixed,
//! seeded batch of items back to back, one thread, until the run's time is
//! spent, and report throughput per pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{m, mean, median, Metric, RunResult};
use crate::trace::Tracer;

/// The batch order for `seed`: a Fisher-Yates shuffle of `names`.
pub fn seeded_order(names: &[&'static str], seed: u64) -> Vec<&'static str> {
    let mut order = names.to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_4E5D);
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// What one item reports to the batch loop.
pub struct ItemReport {
    /// Frames the item certified.
    pub frames: u64,
    /// Frames given a definite verdict (proved or refuted).
    pub decided: u64,
    /// Whether the item's outputs passed the correctness gate.
    pub ok: bool,
}

/// Timings and gate results of a batch run.
#[derive(Debug, Default)]
pub struct BatchStats {
    /// Wall time of each full pass, seconds.
    pub pass_s: Vec<f64>,
    /// Per item (batch position), its latency on each pass, ms.
    pub item_ms: Vec<Vec<f64>>,
    /// Frames certified in one full pass.
    pub frames_per_pass: u64,
    /// Frames decided in one full pass.
    pub decided_per_pass: u64,
    /// Items attempted over all passes.
    pub attempted: u64,
    /// Items that failed the gate (or errored) over all passes.
    pub failed: u64,
}

/// Run passes over `n` items until `budget` is spent: the first pass
/// always completes, a later one stops at the first item that ends past
/// the budget. `item(i)` does the timed work of item `i` and returns its
/// output; `check(i, out)` grades it after the pass, and `between()` runs
/// after each full pass, both outside the timed region.
pub fn run_passes<T>(
    n: usize,
    budget: Duration,
    mut item: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T) -> ItemReport,
    mut between: impl FnMut(),
) -> BatchStats {
    let mut st = BatchStats {
        item_ms: vec![Vec::new(); n],
        ..BatchStats::default()
    };
    let t0 = Instant::now();
    loop {
        let mut outs = Vec::with_capacity(n);
        let pass = Instant::now();
        for (i, lat) in st.item_ms.iter_mut().enumerate() {
            let t = Instant::now();
            outs.push(item(i));
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            if !st.pass_s.is_empty() && t0.elapsed() >= budget {
                break;
            }
        }
        let full = outs.len() == n;
        if full {
            st.pass_s.push(pass.elapsed().as_secs_f64());
        }
        let (mut frames, mut decided) = (0, 0);
        for (i, out) in outs.into_iter().enumerate() {
            let r = check(i, out);
            frames += r.frames;
            decided += r.decided;
            st.attempted += 1;
            st.failed += u64::from(!r.ok);
        }
        if full {
            st.frames_per_pass = frames;
            st.decided_per_pass = decided;
        }
        if t0.elapsed() >= budget {
            return st;
        }
        between();
    }
}

impl BatchStats {
    /// Add `other`'s passes, which ran over the same items, to these.
    pub fn merge(&mut self, other: BatchStats) {
        if self.item_ms.is_empty() {
            self.item_ms = vec![Vec::new(); other.item_ms.len()];
        }
        for (mine, theirs) in self.item_ms.iter_mut().zip(other.item_ms) {
            mine.extend(theirs);
        }
        self.pass_s.extend(other.pass_s);
        self.frames_per_pass = other.frames_per_pass;
        self.decided_per_pass = other.decided_per_pass;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Each item's fastest time over the passes, ms. Other tenants of the
    /// machine only ever add time, so an item's fastest run is its least
    /// disturbed one.
    pub fn best_item_ms(&self) -> Vec<f64> {
        let min = |v: &Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
        self.item_ms.iter().map(min).collect()
    }

    /// Items per second over a pass made of each item's fastest time.
    pub fn throughput(&self) -> f64 {
        let best = self.best_item_ms();
        best.len() as f64 * 1e3 / best.iter().sum::<f64>()
    }

    /// The end-to-end metrics of a batch workload (setup and memory are
    /// added by the caller).
    pub fn end_to_end(&self, success_ratio: f64) -> Vec<Metric> {
        let decided_ratio = self.decided_per_pass as f64 / self.frames_per_pass.max(1) as f64;
        vec![
            m("success_ratio", success_ratio, "ratio"),
            m("throughput_ops", self.throughput(), "1/s"),
            m("decided_ratio", decided_ratio, "ratio"),
            m(
                "goodput_rps",
                self.throughput() * decided_ratio * success_ratio,
                "1/s",
            ),
            // Each item's fastest time, then the median across the fixed
            // set of items: the batch is the same on every run, so it
            // carries no sampling noise from a random mix.
            m("latency_ms_p50", median(&self.best_item_ms()), "ms"),
        ]
    }
}

/// A traced batch run: untraced and traced passes, alternating.
pub struct TracedBatch {
    pub untraced: BatchStats,
    pub traced: BatchStats,
    spans: Tracer,
    /// Per span name: `(inclusive ms, self ms, count)` over all traced
    /// passes.
    agg: BTreeMap<&'static str, (f64, f64, u64)>,
}

/// Alternate one `untraced(i)` pass and one `traced(i, tracer, id)` pass
/// until `budget` is spent, so the machine's drift over the run moves both
/// alike. Traced items get a recording tracer and a fresh id each; `check`
/// grades both kinds, outside the timed region.
pub fn run_traced<T>(
    n: usize,
    budget: Duration,
    mut untraced: impl FnMut(usize) -> T,
    mut traced: impl FnMut(usize, &mut Tracer, u64) -> T,
    mut check: impl FnMut(usize, T) -> ItemReport,
) -> TracedBatch {
    let (mut u, mut t) = (BatchStats::default(), BatchStats::default());
    let mut spans = Tracer::new();
    let mut next_id = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget || t.pass_s.is_empty() {
        u.merge(run_passes(
            n,
            Duration::ZERO,
            &mut untraced,
            &mut check,
            || {},
        ));
        let pass = run_passes(
            n,
            Duration::ZERO,
            |i| {
                next_id += 1;
                traced(i, &mut spans, next_id - 1)
            },
            &mut check,
            || {},
        );
        t.merge(pass);
    }
    eprintln!("untraced pass seconds: {:.4?}", u.pass_s);
    eprintln!("traced pass seconds: {:.4?}", t.pass_s);
    let agg = spans.by_name();
    TracedBatch {
        untraced: u,
        traced: t,
        spans,
        agg,
    }
}

impl TracedBatch {
    /// A count summed over the traced passes, per pass.
    pub fn per_pass(&self, count: u64) -> f64 {
        count as f64 / self.traced.pass_s.len() as f64
    }

    /// Self time of the spans named `name`, ms per pass; 0 if none.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.agg.get(name).map_or(0.0, |v| v.1) / self.traced.pass_s.len() as f64
    }

    /// Self time of the spans named `name` nested in a span named
    /// `ancestor`, ms per pass; 0 if none.
    pub fn self_ms_within(&self, name: &str, ancestor: &str) -> f64 {
        let agg = self.spans.by_name_within(ancestor);
        agg.get(name).map_or(0.0, |v| v.1) / self.traced.pass_s.len() as f64
    }

    /// Inclusive time of the spans named `name`, ms per pass; 0 if none.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.agg.get(name).map_or(0.0, |v| v.0) / self.traced.pass_s.len() as f64
    }

    /// `trace.overhead_ratio`: traced item time per pass over the mean
    /// untraced pass.
    pub fn overhead_ratio(&self, traced_item_ms: f64) -> Metric {
        m(
            "trace.overhead_ratio",
            traced_item_ms / (mean(&self.untraced.pass_s) * 1e3),
            "ratio",
        )
    }

    /// Write the spans, add the metrics every workload reports, and gate
    /// on both halves.
    pub fn finish(
        self,
        workload: &str,
        seed: u64,
        setup_s: f64,
        calib_ms: f64,
        mut metrics: Vec<Metric>,
    ) -> RunResult {
        crate::write_trace(&self.spans, workload, seed);
        metrics.extend(crate::common_layers(setup_s * 1e3, calib_ms));
        let failed = self.untraced.failed + self.traced.failed;
        RunResult {
            attempted: self.untraced.attempted + self.traced.attempted,
            failed,
            correct: failed == 0,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_and_seeds_differ() {
        let names = needle_workloads::names();
        let a = seeded_order(&names, 7);
        assert_eq!(a, seeded_order(&names, 7));
        assert_ne!(a, seeded_order(&names, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut all = names.clone();
        all.sort_unstable();
        assert_eq!(sorted, all, "a permutation of the whole suite");
    }

    #[test]
    fn passes_run_until_budget_and_grade_outside_timing() {
        let st = run_passes(
            3,
            Duration::ZERO,
            |i| i,
            |i, out| ItemReport {
                frames: 2,
                decided: 1,
                ok: i == out && i != 2,
            },
            || unreachable!("no pass follows the last"),
        );
        assert_eq!(st.pass_s.len(), 1);
        assert_eq!((st.attempted, st.failed), (3, 1));
        assert_eq!((st.frames_per_pass, st.decided_per_pass), (6, 3));
    }

    #[test]
    fn a_later_pass_stops_at_the_budget() {
        let mut between = 0;
        let st = run_passes(
            4,
            Duration::from_millis(25),
            // Only the first item takes time, so the budget runs out
            // right after it and the pass that sees that is partial.
            |i| std::thread::sleep(Duration::from_millis(if i == 0 { 10 } else { 0 })),
            |_, ()| ItemReport {
                frames: 1,
                decided: 1,
                ok: true,
            },
            || between += 1,
        );
        assert!(!st.pass_s.is_empty());
        assert_eq!(st.pass_s.len(), between, "`between` follows each full pass");
        assert_eq!(st.attempted % 4, 1, "the last pass stopped after one item");
        assert_eq!(st.frames_per_pass, 4, "counted over full passes only");
        assert!(st.item_ms.iter().all(|v| !v.is_empty()));
    }
}
