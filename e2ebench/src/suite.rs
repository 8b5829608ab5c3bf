//! The suite leg of a `pipeline` item: the paper harness's inner loop for
//! one workload. `analyze`, frame build and CGRA schedule of the top
//! Braid, and the History-predictor offload co-simulation (Fig. 9 braid
//! column, Fig. 10), graded against a committed reference table.

use std::collections::BTreeMap;

use needle::{analyze, simulate_offload, Analysis, NeedleConfig, PredictorKind};
use needle_cgra::sched::schedule_frame;
use needle_frames::build::build_frame;
use needle_ir::interp::{BlockCountSink, Interp};
use needle_workloads::Workload;

use crate::batch::TracedBatch;
use crate::layers::{probe_analyze, probe_host};
use crate::measure::{m, Metric};
use crate::trace::Tracer;

/// Committed per-item outputs at the commit that defined the benchmark.
pub const REFERENCE: &str = include_str!("../reference/suite.tsv");

/// What one item must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemOut {
    pub name: String,
    pub baseline_cycles: u64,
    pub offload_cycles: u64,
    pub baseline_energy_pj: f64,
    pub offload_energy_pj: f64,
    pub commits: u64,
    pub aborts: u64,
    pub total_insts: u64,
    pub schedule_cycles: u64,
}

/// Column header of the reference table.
pub const HEADER: &str = "workload\tbaseline_cycles\toffload_cycles\tbaseline_energy_pj\t\
                          offload_energy_pj\tcommits\taborts\ttotal_insts\tschedule_cycles";

impl ItemOut {
    /// One tab-separated row; energies print in shortest round-trip form.
    pub fn to_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{:?}\t{:?}\t{}\t{}\t{}\t{}",
            self.name,
            self.baseline_cycles,
            self.offload_cycles,
            self.baseline_energy_pj,
            self.offload_energy_pj,
            self.commits,
            self.aborts,
            self.total_insts,
            self.schedule_cycles
        )
    }

    fn from_row(row: &str) -> Option<ItemOut> {
        let c: Vec<&str> = row.split('\t').collect();
        if c.len() != 9 {
            return None;
        }
        Some(ItemOut {
            name: c[0].to_string(),
            baseline_cycles: c[1].parse().ok()?,
            offload_cycles: c[2].parse().ok()?,
            baseline_energy_pj: c[3].parse().ok()?,
            offload_energy_pj: c[4].parse().ok()?,
            commits: c[5].parse().ok()?,
            aborts: c[6].parse().ok()?,
            total_insts: c[7].parse().ok()?,
            schedule_cycles: c[8].parse().ok()?,
        })
    }
}

/// Parse the reference table (header line first).
pub fn parse_reference(text: &str) -> Result<BTreeMap<String, ItemOut>, String> {
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err("reference table: unexpected header".into());
    }
    lines
        .filter(|l| !l.is_empty())
        .map(|l| {
            ItemOut::from_row(l)
                .map(|o| (o.name.clone(), o))
                .ok_or_else(|| format!("reference table: bad row {l:?}"))
        })
        .collect()
}

/// Run one item. Spans: `suite.item` enclosing the four public calls.
pub fn run_item(
    w: &Workload,
    cfg: &NeedleConfig,
    tr: &mut Tracer,
    id: u64,
) -> Result<(ItemOut, Analysis), String> {
    let root = tr.open("suite.item", id);
    let out = (|| {
        let a = tr
            .time("core.analyze", id, || {
                analyze(&w.module, w.func, &w.args, &w.memory, cfg)
            })
            .map_err(|e| format!("{}: analyze: {e}", w.name))?;
        let braid = &a
            .braids
            .first()
            .ok_or_else(|| format!("{}: no braid", w.name))?
            .region;
        let frame = tr
            .time("frames.build", id, || {
                build_frame(a.module.func(a.func), braid)
            })
            .map_err(|e| format!("{}: build_frame: {e:?}", w.name))?;
        let sched = tr.time("cgra.schedule", id, || schedule_frame(&cfg.cgra, &frame));
        let rep = tr
            .time("core.offload", id, || {
                simulate_offload(
                    &a.module,
                    a.func,
                    &w.args,
                    &w.memory,
                    braid,
                    PredictorKind::History,
                    cfg,
                )
            })
            .map_err(|e| format!("{}: simulate_offload: {e}", w.name))?;
        let out = ItemOut {
            name: w.name.clone(),
            baseline_cycles: rep.baseline.cycles,
            offload_cycles: rep.offload.cycles,
            baseline_energy_pj: rep.baseline_energy_pj,
            offload_energy_pj: rep.offload_energy_pj,
            commits: rep.commits,
            aborts: rep.aborts,
            total_insts: rep.total_insts,
            schedule_cycles: sched.cycles,
        };
        Ok((out, a))
    })();
    tr.close(root);
    out
}

/// Grade one item against the reference; a mismatch is reported on stderr.
pub fn grade(reference: &BTreeMap<String, ItemOut>, out: &Result<ItemOut, String>) -> bool {
    match out {
        Ok(o) if reference.get(&o.name) == Some(o) => true,
        Ok(o) => {
            eprintln!(
                "suite: {} differs from the reference\n  got  {}\n  want {}",
                o.name,
                o.to_row(),
                reference
                    .get(&o.name)
                    .map_or("(missing)".into(), ItemOut::to_row)
            );
            false
        }
        Err(e) => {
            eprintln!("suite: {e}");
            false
        }
    }
}

/// Per-pass counts of one traced pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub ir_steps: u64,
    pub host_insts: u64,
    pub schedule_cycles: u64,
    pub commits: u64,
    pub aborts: u64,
}

/// One traced item: the item's spans, then its layer probes under a
/// `suite.probe` span outside `suite.item`. Adds the item's counts to
/// `counts`.
pub fn traced_item(
    w: &Workload,
    cfg: &NeedleConfig,
    tr: &mut Tracer,
    id: u64,
    counts: &mut Counts,
) -> Result<ItemOut, String> {
    let (out, a) = run_item(w, cfg, tr, id)?;
    let probe = tr.open("suite.probe", id);
    counts.ir_steps += probe_analyze(w, &a, cfg, tr, id);
    counts.host_insts += probe_host(w, &a, cfg, tr, id);
    tr.close(probe);
    counts.schedule_cycles += out.schedule_cycles;
    counts.commits += out.commits;
    counts.aborts += out.aborts;
    Ok(out)
}

/// Per-layer metrics only the suite leg passes through, per pass.
pub fn layer_metrics(t: &TracedBatch, counts: &Counts) -> Vec<Metric> {
    let host_ms = t.self_ms("host.sim");
    let host_insts = t.per_pass(counts.host_insts);
    vec![
        m("cgra.schedule_ms", t.self_ms("cgra.schedule"), "ms"),
        m("core.offload_ms", t.self_ms("core.offload"), "ms"),
        m("suite.unattributed_ms", t.self_ms("suite.item"), "ms"),
        m("host.sim_ms", host_ms, "ms"),
        m("host.insts", host_insts, "count"),
        m(
            "host.ns_per_inst",
            host_ms * 1e6 / host_insts.max(1.0),
            "ns",
        ),
        m(
            "cgra.schedule_cycles",
            t.per_pass(counts.schedule_cycles),
            "count",
        ),
        m("core.offload.commits", t.per_pass(counts.commits), "count"),
        m("core.offload.aborts", t.per_pass(counts.aborts), "count"),
    ]
}

/// Write the reference table from the current code. Each item's
/// `total_insts` (every instruction of every block entered, φs included)
/// is cross-checked against the reference walker, whose step count skips
/// φs and adds one terminator per block entered.
pub fn write_reference() -> Result<String, String> {
    let cfg = NeedleConfig::default();
    let mut text = format!("{HEADER}\n");
    let mut off = Tracer::off();
    for name in needle_workloads::names() {
        let w = needle_workloads::by_name(name).expect("suite names resolve");
        let (out, a) = run_item(&w, &cfg, &mut off, 0)?;
        let interp = Interp::new(&a.module).with_max_steps(cfg.analysis.max_steps);
        let mut mem = w.memory.clone();
        let mut blocks = BlockCountSink::default();
        interp
            .run_reference(a.func, &w.args, &mut mem, &mut blocks)
            .map_err(|e| format!("{name}: reference walker: {e}"))?;
        let (mut entered, mut phis) = (0u64, 0u64);
        for ((f, bb), n) in blocks.iter() {
            let func = a.module.func(f);
            let per = func
                .block(bb)
                .insts
                .iter()
                .filter(|i| func.inst(**i).is_phi())
                .count();
            entered += n;
            phis += n * per as u64;
        }
        let steps = interp.steps();
        if out.total_insts + entered != steps + phis {
            return Err(format!(
                "{name}: total_insts {} - phis {phis} + blocks {entered} != reference walker steps {steps}",
                out.total_insts
            ));
        }
        text.push_str(&out.to_row());
        text.push('\n');
    }
    Ok(text)
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
    fn committed_reference_covers_the_suite() {
        let reference = parse_reference(REFERENCE).expect("parses");
        let mut names = needle_workloads::names();
        names.sort_unstable();
        assert_eq!(
            reference.keys().map(String::as_str).collect::<Vec<_>>(),
            names
        );
        for o in reference.values() {
            assert_eq!(
                ItemOut::from_row(&o.to_row()).as_ref(),
                Some(o),
                "rows round-trip"
            );
        }
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let cfg = NeedleConfig::default();
        let run = || {
            let mut tr = Tracer::new();
            let mut counts = Counts::default();
            for (i, w) in subset().iter().enumerate() {
                traced_item(w, &cfg, &mut tr, i as u64, &mut counts).expect("item runs");
            }
            counts
        };
        let first = run();
        assert!(first.ir_steps > 0 && first.host_insts > 0 && first.commits > 0);
        assert_eq!(first, run());
    }
}
