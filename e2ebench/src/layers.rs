//! Layer probes for the traced run: each layer's public function called
//! on its own, from outside, with the inputs the real pipeline gave it.
//!
//! `needle::analyze` and `needle::simulate_offload` are single calls; the
//! probes re-run the layers inside them one at a time so each gets its own
//! span. A probe's output is discarded except for the counts below.

use needle::{Analysis, NeedleConfig};
use needle_host::HostSim;
use needle_ir::inline::inline_all;
use needle_ir::interp::{Interp, NullSink};
use needle_ir::verify::verify_module;
use needle_profile::profiler::{EdgeProfiler, PathProfiler};
use needle_profile::rank::rank_paths;
use needle_profile::stats::{bias_histogram, control_flow_stats};
use needle_regions::braid::build_braids;
use needle_regions::expansion::expansion_stats;
use needle_regions::hyperblock::build_hyperblock;
use needle_regions::superblock::{
    build_superblock, superblock_is_feasible, superblock_is_hottest_path,
};
use needle_workloads::Workload;
use std::hint::black_box;

use crate::batch::TracedBatch;
use crate::measure::{m, Metric};
use crate::trace::Tracer;

/// Probe the layers inside `analyze`: inline, optimize, verify, the bare
/// engine, each profiler, ranking, Braid formation and the baselines.
/// Returns the engine's step count for one run of the analysed function.
pub fn probe_analyze(
    w: &Workload,
    a: &Analysis,
    cfg: &NeedleConfig,
    tr: &mut Tracer,
    id: u64,
) -> u64 {
    let mut module = tr.time("ir.inline", id, || {
        let mut m = w.module.clone();
        if cfg.analysis.inline {
            inline_all(&mut m, w.func, cfg.analysis.max_inline_insts);
        }
        m
    });
    tr.time("opt.optimize", id, || {
        if cfg.analysis.optimize {
            needle_opt::optimize_module(&mut module, &needle_opt::OptConfig::default());
        }
    });
    let verified = tr.time("ir.verify", id, || verify_module(&module).is_ok());
    black_box(verified);

    let interp = Interp::new(&a.module).with_max_steps(cfg.analysis.max_steps);
    let mut mem = w.memory.clone();
    let ran = tr.time("ir.exec", id, || {
        interp.run_with(a.func, &w.args, &mut mem, &mut NullSink)
    });
    black_box(ran.is_ok());
    let ir_steps = interp.steps();

    let mut paths = PathProfiler::new(&a.module).with_trace();
    let mut mem = w.memory.clone();
    tr.time("profile.path", id, || {
        let r = Interp::new(&a.module)
            .with_max_steps(cfg.analysis.max_steps)
            .run_with(a.func, &w.args, &mut mem, &mut paths);
        black_box(r.is_ok());
    });
    let mut edges = EdgeProfiler::new();
    let mut mem = w.memory.clone();
    tr.time("profile.edge", id, || {
        let r = Interp::new(&a.module)
            .with_max_steps(cfg.analysis.max_steps)
            .run_with(a.func, &w.args, &mut mem, &mut edges);
        black_box(r.is_ok());
    });

    let f = a.module.func(a.func);
    let rank = tr.time("profile.rank", id, || {
        rank_paths(f, &a.numbering, &a.path_profile)
    });
    let braids = tr.time("regions.braid", id, || {
        build_braids(f, &rank, cfg.analysis.braid_merge_paths)
    });
    black_box(braids.len());
    tr.time("regions.baselines", id, || {
        black_box(control_flow_stats(f));
        black_box(bias_histogram(f, &a.edge_profile));
        black_box(expansion_stats(&rank, &a.path_profile.trace));
        let sb = build_superblock(f, &a.edge_profile, a.seed);
        black_box(superblock_is_feasible(&sb, &rank));
        black_box(superblock_is_hottest_path(&sb, &rank));
        let hb = build_hyperblock(f, a.seed, 256);
        black_box(hb.cold_fraction(f, &a.edge_profile, cfg.analysis.cold_fraction));
    });

    ir_steps
}

/// Probe the host timing model: one host-only `HostSim` run, the unit
/// `simulate_offload` performs twice. Returns the instructions it timed.
pub fn probe_host(w: &Workload, a: &Analysis, cfg: &NeedleConfig, tr: &mut Tracer, id: u64) -> u64 {
    let mut mem = w.memory.clone();
    let stats = tr.time("host.sim", id, || {
        let mut sim = HostSim::new(&a.module, cfg.host.clone());
        let r = Interp::new(&a.module)
            .with_max_steps(cfg.analysis.max_steps)
            .run_with(a.func, &w.args, &mut mem, &mut sim);
        black_box(r.is_ok());
        sim.finish()
    });
    stats.insts
}

/// Per-layer metrics of `analyze` and the layers [`probe_analyze`] times
/// inside it, per pass. The profilers are reported minus the bare engine
/// run they contain. `ir_steps` is the probes' step total.
pub fn analyze_metrics(t: &TracedBatch, ir_steps: u64) -> Vec<Metric> {
    let exec = t.self_ms("ir.exec");
    vec![
        m("core.analyze_ms", t.self_ms("core.analyze"), "ms"),
        m("ir.inline_ms", t.self_ms("ir.inline"), "ms"),
        m("opt.optimize_ms", t.self_ms("opt.optimize"), "ms"),
        m("ir.verify_ms", t.self_ms("ir.verify"), "ms"),
        m("ir.exec_ms", exec, "ms"),
        m("ir.steps", t.per_pass(ir_steps), "count"),
        m("profile.path_ms", t.self_ms("profile.path") - exec, "ms"),
        m("profile.edge_ms", t.self_ms("profile.edge") - exec, "ms"),
        m("profile.rank_ms", t.self_ms("profile.rank"), "ms"),
        m("regions.braid_ms", t.self_ms("regions.braid"), "ms"),
        m("regions.baselines_ms", t.self_ms("regions.baselines"), "ms"),
    ]
}
