//! `pipeline`: the paper harness over the whole suite. One item is one
//! workload taken through every stage: the suite leg (`analyze`, frame
//! build and CGRA schedule of the top Braid, History offload
//! co-simulation) and then the certification leg (`certify_workload` of
//! the top three frames, no verdict cache).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use needle::certify::CertifyReport;
use needle::NeedleConfig;
use needle_workloads::Workload;

use crate::batch::{
    run_passes, run_traced as run_traced_batch, seeded_order, BatchStats, ItemReport,
};
use crate::layers::analyze_metrics;
use crate::measure::{m, RunResult};
use crate::suite::{parse_reference, ItemOut, REFERENCE};
use crate::trace::Tracer;
use crate::{certify, setup_repeated, suite, Opts, SetupTimes, SETUPS_PER_PASS};

/// What one item produced: each leg's output, graded after the pass.
pub struct Item {
    suite: Result<ItemOut, String>,
    cert: Result<CertifyReport, String>,
}

/// What every item is graded against.
pub struct Gates {
    reference: BTreeMap<String, ItemOut>,
    proved: BTreeSet<(String, u64)>,
}

impl Gates {
    fn committed() -> Gates {
        Gates {
            reference: parse_reference(REFERENCE).expect("committed reference parses"),
            proved: certify::parse_proved(certify::PROVED).expect("committed proved list parses"),
        }
    }

    /// Both legs must pass: the suite leg matches its reference row, and
    /// certification refutes nothing and still proves every listed frame.
    fn grade(&self, item: Item) -> ItemReport {
        let mut r = certify::grade(&self.proved, &item.cert);
        r.ok &= suite::grade(&self.reference, &item.suite);
        r
    }
}

/// Set-up: generate the batch's workloads in seeded order and load the
/// gates.
fn setup(seed: u64) -> (Vec<Workload>, Gates) {
    let ws = seeded_order(&needle_workloads::names(), seed)
        .iter()
        .map(|n| needle_workloads::by_name(n).expect("suite names resolve"))
        .collect();
    (ws, Gates::committed())
}

/// One untraced item.
fn run_item(w: &Workload, cfg: &NeedleConfig, tr: &mut Tracer, id: u64) -> Item {
    Item {
        suite: suite::run_item(w, cfg, tr, id).map(|(o, _)| o),
        cert: certify::certify_one(&w.name, tr, id),
    }
}

/// Untraced passes over `ws`, with `between()` after each full pass.
fn passes(ws: &[Workload], gates: &Gates, budget: Duration, between: impl FnMut()) -> BatchStats {
    let cfg = NeedleConfig::default();
    let mut off = Tracer::off();
    run_passes(
        ws.len(),
        budget,
        |i| run_item(&ws[i], &cfg, &mut off, i as u64),
        |_, item| gates.grade(item),
        between,
    )
}

/// The end-to-end run: `--trace 0`. Set-up is timed again after each
/// pass, so its fastest time is taken over the whole run.
pub fn run(opts: &Opts) -> RunResult {
    let mut setups = SetupTimes::default();
    let (ws, gates) = setups.time(|| setup(opts.seed));
    let st = passes(&ws, &gates, opts.budget(), || {
        setups.again(SETUPS_PER_PASS, || setup(opts.seed))
    });
    crate::batch_result(&st, setups.fastest())
}

/// Counts of both legs over the traced passes.
#[derive(Debug, Default)]
struct Counts {
    suite: suite::Counts,
    cert: certify::Counts,
}

/// The traced run: `--trace 1`. Untraced and traced passes alternate; a
/// traced item runs each leg with its spans and then its layer probes.
pub fn run_traced(opts: &Opts) -> RunResult {
    let ((ws, gates), setup_s) = setup_repeated(|| setup(opts.seed));
    let calib = crate::measure::box_calib_ms();
    let cfg = NeedleConfig::default();
    let mut counts = Counts::default();
    let mut off = Tracer::off();
    let t = run_traced_batch(
        ws.len(),
        opts.budget(),
        |i| run_item(&ws[i], &cfg, &mut off, i as u64),
        |i, tr, id| Item {
            suite: suite::traced_item(&ws[i], &cfg, tr, id, &mut counts.suite),
            cert: certify::traced_item(&ws[i].name, tr, id, &mut counts.cert),
        },
        |_, item| gates.grade(item),
    );
    // Both legs build frames and analyze (certification inside
    // `certify_workload`), so those layers report the pass's total.
    let mut metrics = vec![
        m("frames.build_ms", t.self_ms("frames.build"), "ms"),
        t.overhead_ratio(t.total_ms("suite.item") + t.total_ms("core.certify")),
    ];
    metrics.extend(suite::layer_metrics(&t, &counts.suite));
    metrics.extend(certify::layer_metrics(&t, &counts.cert));
    metrics.extend(analyze_metrics(
        &t,
        counts.suite.ir_steps + counts.cert.ir_steps,
    ));
    t.finish("pipeline", opts.seed, setup_s, calib, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset() -> Vec<Workload> {
        ["429.mcf", "dwt53"]
            .iter()
            .map(|n| needle_workloads::by_name(n).expect("suite workload"))
            .collect()
    }

    #[test]
    fn corrupted_reference_entry_fails_the_gate() {
        let ws = subset();
        let mut gates = Gates::committed();
        let st = passes(&ws, &gates, Duration::ZERO, || {});
        assert_eq!((st.attempted, st.failed), (2, 0));
        assert_eq!((st.frames_per_pass, st.decided_per_pass), (6, 6));
        gates.reference.get_mut("dwt53").expect("listed").commits += 1;
        let st = passes(&ws, &gates, Duration::ZERO, || {});
        assert_eq!(st.failed, 1);
        let r = crate::batch_result(&st, 1.0);
        assert!(!r.correct);
        let metric = r
            .metrics
            .iter()
            .find(|m| m.name == "success_ratio")
            .expect("reported");
        assert_eq!(metric.value, 0.5);
    }

    #[test]
    fn a_listed_frame_that_no_longer_proves_fails_the_item() {
        let ws = subset();
        let mut gates = Gates::committed();
        gates.proved.insert(("dwt53".to_string(), u64::MAX));
        let st = passes(&ws, &gates, Duration::ZERO, || {});
        assert_eq!((st.attempted, st.failed), (2, 1));
    }
}
