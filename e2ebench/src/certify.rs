//! The certification leg of a `pipeline` item: symbolic certification of
//! the workload's top three frames, with no verdict cache, so every solve
//! runs.

use std::collections::BTreeSet;

use needle::certify::CertifyReport;
use needle::{analyze, certify_cached, certify_workload, CertStats, NeedleConfig};
use needle_frames::build::build_frame;
use needle_frames::symeq::CertConfig;
use needle_regions::region::OffloadRegion;

use crate::batch::{ItemReport, TracedBatch};
use crate::layers::probe_analyze;
use crate::measure::{m, Metric};
use crate::trace::Tracer;

/// Frames certification must keep proving: `workload<TAB>path_id` rows,
/// the `proved` rows of the committed certification report.
pub const PROVED: &str = include_str!("../reference/certify_proved.tsv");

/// Frames certified per workload.
const TOP_N: usize = 3;

/// Parse the proved-frame list.
pub fn parse_proved(text: &str) -> Result<BTreeSet<(String, u64)>, String> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (w, p) = l.split_once('\t').ok_or_else(|| format!("bad row {l:?}"))?;
            let id = p.parse().map_err(|_| format!("bad path id in {l:?}"))?;
            Ok((w.to_string(), id))
        })
        .collect()
}

/// Grade one report: nothing refuted, and every frame on the proved list
/// for this workload still proves.
pub fn grade(proved: &BTreeSet<(String, u64)>, rep: &Result<CertifyReport, String>) -> ItemReport {
    let rep = match rep {
        Ok(r) => r,
        Err(e) => {
            eprintln!("certify: {e}");
            return ItemReport {
                frames: 0,
                decided: 0,
                ok: false,
            };
        }
    };
    let mut ok = rep.refuted() == 0;
    for (w, id) in proved.iter().filter(|(w, _)| *w == rep.workload) {
        let row = rep.frames.iter().find(|f| f.path_id == *id);
        if row.map(|f| f.verdict.as_str()) != Some("proved") {
            eprintln!(
                "certify: {w} path {id} no longer proves ({:?})",
                row.map(|f| &f.verdict)
            );
            ok = false;
        }
    }
    if rep.refuted() > 0 {
        eprintln!(
            "certify: {} refuted {} frame(s)",
            rep.workload,
            rep.refuted()
        );
    }
    let decided = rep
        .frames
        .iter()
        .filter(|f| f.verdict == "proved" || f.verdict == "refuted")
        .count();
    ItemReport {
        frames: rep.frames.len() as u64,
        decided: decided as u64,
        ok,
    }
}

/// Certify `name`'s top frames: the real call, under a `core.certify` span.
pub fn certify_one(name: &str, tr: &mut Tracer, id: u64) -> Result<CertifyReport, String> {
    tr.time("core.certify", id, || {
        certify_workload(name, TOP_N, &CertConfig::default(), None)
    })
    .map_err(|e| format!("{name}: {e}"))
}

/// Verdict and solver counts summed over one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub proved: u64,
    pub refuted: u64,
    pub timeout: u64,
    pub unsupported: u64,
    pub sat_clauses: u64,
    pub conflicts: u64,
    pub obligations: u64,
    pub discharged: u64,
    pub ir_steps: u64,
}

impl Counts {
    fn add(&mut self, rep: &CertifyReport) {
        for f in &rep.frames {
            match f.verdict.as_str() {
                "proved" => self.proved += 1,
                "refuted" => self.refuted += 1,
                "timeout" => self.timeout += 1,
                _ => self.unsupported += 1,
            }
            self.sat_clauses += f.sat_clauses as u64;
            self.conflicts += f.conflicts;
            self.obligations += f.obligations as u64;
            self.discharged += f.discharged as u64;
        }
    }
}

/// Probe what `certify_workload` does inside, layer by layer: generate,
/// analyze (and the layers inside it), then per frame build and solve.
fn probe(name: &str, tr: &mut Tracer, id: u64) -> Result<u64, String> {
    let cfg = NeedleConfig::default();
    let w = tr
        .time("workloads.generate", id, || needle_workloads::by_name(name))
        .ok_or_else(|| format!("{name}: unknown workload"))?;
    let a = tr
        .time("core.analyze", id, || {
            analyze(&w.module, w.func, &w.args, &w.memory, &cfg)
        })
        .map_err(|e| format!("{name}: analyze: {e}"))?;
    let func = a.module.func(a.func);
    for p in a.rank.paths.iter().filter(|p| p.freq > 0).take(TOP_N) {
        let Ok(blocks) = a.numbering.decode(p.id) else {
            continue;
        };
        let coverage = p.freq as f64 / a.path_profile.total().max(1) as f64;
        let region = OffloadRegion::from_path(&blocks, p.freq, coverage);
        if region.validate(func).is_err() {
            continue;
        }
        let Ok(frame) = tr.time("frames.build", id, || build_frame(func, &region)) else {
            continue;
        };
        let mut stats = CertStats::default();
        tr.time("frames.symeq", id, || {
            certify_cached(func, &frame, &CertConfig::default(), None, &mut stats)
        })
        .map_err(|e| format!("{name}: certify_cached: {e}"))?;
    }
    Ok(probe_analyze(&w, &a, &cfg, tr, id))
}

/// One traced item: the real call's span, then the probes under a
/// `certify.probe` span. Adds the item's counts to `counts`.
pub fn traced_item(
    name: &str,
    tr: &mut Tracer,
    id: u64,
    counts: &mut Counts,
) -> Result<CertifyReport, String> {
    let rep = certify_one(name, tr, id)?;
    counts.add(&rep);
    let p = tr.open("certify.probe", id);
    let steps = probe(name, tr, id);
    tr.close(p);
    counts.ir_steps += steps?;
    Ok(rep)
}

/// Per-layer metrics of the certification leg, per pass.
/// `certify.unattributed_ms` is `core.certify_ms` minus what the probes
/// re-ran of it; it goes negative if `certify_workload` stops doing work
/// the probes repeat.
pub fn layer_metrics(t: &TracedBatch, counts: &Counts) -> Vec<Metric> {
    let certify_ms = t.self_ms("core.certify");
    let probed_ms: f64 = [
        "workloads.generate",
        "core.analyze",
        "frames.build",
        "frames.symeq",
    ]
    .iter()
    .map(|n| t.self_ms_within(n, "certify.probe"))
    .sum();
    vec![
        m("core.certify_ms", certify_ms, "ms"),
        m("frames.symeq_ms", t.self_ms("frames.symeq"), "ms"),
        m("certify.unattributed_ms", certify_ms - probed_ms, "ms"),
        m("symeq.proved", t.per_pass(counts.proved), "count"),
        m("symeq.refuted", t.per_pass(counts.refuted), "count"),
        m("symeq.timeout", t.per_pass(counts.timeout), "count"),
        m("symeq.unsupported", t.per_pass(counts.unsupported), "count"),
        m("symeq.sat_clauses", t.per_pass(counts.sat_clauses), "count"),
        m("symeq.conflicts", t.per_pass(counts.conflicts), "count"),
        m("symeq.obligations", t.per_pass(counts.obligations), "count"),
        m("symeq.discharged", t.per_pass(counts.discharged), "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_proved_list_matches_the_report() {
        let proved = parse_proved(PROVED).expect("parses");
        assert_eq!(proved.len(), 42);
    }

    #[test]
    fn gate_fires_when_a_listed_frame_stops_proving() {
        let mut proved = parse_proved(PROVED).expect("parses");
        let rep = certify_one("470.lbm", &mut Tracer::off(), 0);
        assert!(grade(&proved, &rep).ok);
        // 470.lbm's top frame is a float frame, `unsupported` today.
        let top = rep.as_ref().expect("certifies").frames[0].path_id;
        proved.insert(("470.lbm".to_string(), top));
        assert!(!grade(&proved, &rep).ok);
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let run = || {
            let mut tr = Tracer::new();
            let mut counts = Counts::default();
            for (i, n) in ["429.mcf", "dwt53", "470.lbm"].iter().enumerate() {
                traced_item(n, &mut tr, i as u64, &mut counts).expect("item runs");
            }
            counts
        };
        let first = run();
        assert!(first.sat_clauses > 0 && first.conflicts > 0 && first.ir_steps > 0);
        assert_eq!((first.proved, first.unsupported), (6, 3));
        assert_eq!(first, run());
    }
}
