//! End-to-end and per-layer benchmark of the Needle reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <pipeline|serve-overload> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a metrics table, then as the last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a traced
//! run and writes its spans under `e2ebench/out/`. Exits 1 when any
//! output fails its correctness gate, 2 on a usage error.
//! `--write-reference` prints the suite's reference table from the current
//! code instead. See `NOTES.md` for the workloads and metrics.

mod batch;
mod certify;
mod layers;
mod measure;
mod pin;
mod pipeline;
mod serve;
mod suite;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use batch::BatchStats;
use measure::{m, median, Metric, RunResult};

/// End-to-end metrics (`--trace 0`), name and unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("throughput_ops", "1/s"),
    ("decided_ratio", "ratio"),
    ("goodput_rps", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in report order. A
/// layer a workload does not pass through reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Pipeline: the suite leg (the analyze layers and frame build also
    // under certification).
    ("core.analyze_ms", "ms"),
    ("frames.build_ms", "ms"),
    ("cgra.schedule_ms", "ms"),
    ("core.offload_ms", "ms"),
    ("suite.unattributed_ms", "ms"),
    ("ir.inline_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("ir.exec_ms", "ms"),
    ("ir.steps", "count"),
    ("profile.path_ms", "ms"),
    ("profile.edge_ms", "ms"),
    ("profile.rank_ms", "ms"),
    ("regions.braid_ms", "ms"),
    ("regions.baselines_ms", "ms"),
    ("host.sim_ms", "ms"),
    ("host.insts", "count"),
    ("host.ns_per_inst", "ns"),
    ("cgra.schedule_cycles", "count"),
    ("core.offload.commits", "count"),
    ("core.offload.aborts", "count"),
    // Pipeline: the certification leg.
    ("core.certify_ms", "ms"),
    ("frames.symeq_ms", "ms"),
    ("certify.unattributed_ms", "ms"),
    ("symeq.proved", "count"),
    ("symeq.refuted", "count"),
    ("symeq.timeout", "count"),
    ("symeq.unsupported", "count"),
    ("symeq.sat_clauses", "count"),
    ("symeq.conflicts", "count"),
    ("symeq.obligations", "count"),
    ("symeq.discharged", "count"),
    // Serving.
    ("core.serve.submit_us_p50", "us"),
    ("core.serve.submit_us_p99", "us"),
    ("core.serve.response_ms_p50", "ms"),
    ("core.serve.response_ms_p99", "ms"),
    ("core.serve.exec_ms_mean", "ms"),
    ("core.serve.wait_ms", "ms"),
    ("loadgen.lateness_ms_p99", "ms"),
    ("loadgen.lateness_ms_max", "ms"),
    ("core.serve.offered", "count"),
    ("core.serve.accepted", "count"),
    ("core.serve.failed", "count"),
    ("core.serve.fallbacks", "count"),
    ("core.serve.frame_aborts", "count"),
    ("core.overload.shed_queue_full", "count"),
    ("core.overload.shed_unmeetable", "count"),
    ("core.overload.shed_throttled", "count"),
    ("core.overload.shed_expired", "count"),
    ("core.overload.deadline_cancels", "count"),
    ("core.overload.brownout_descents", "count"),
    ("core.overload.metastable_fired", "count"),
    ("core.serve.accept_ratio", "ratio"),
    ("core.overload.useful_ratio", "ratio"),
    ("core.serve.start_ms", "ms"),
    // Every workload.
    ("workloads.generate_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("box.calib_ms", "ms"),
];

/// The workloads, for usage messages.
const WORKLOADS: [&str; 2] = ["pipeline", "serve-overload"];

/// How many times set-up runs back to back at the start of a serve run
/// or a traced batch run.
pub const SETUP_REPEATS: usize = 31;

/// How many set-ups an end-to-end batch run times after each pass.
pub const SETUPS_PER_PASS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The set-up durations of one run, seconds. `setup_s` is the fastest:
/// other tenants of the machine only ever add time, so the fastest set-up
/// is the least disturbed one, as each batch item's fastest pass is.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Run and time `f`. Its result is returned, so dropping it is not
    /// part of the timing.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.0.push(t.elapsed().as_secs_f64());
        r
    }

    /// Time `f` `n` more times, dropping each result outside the timing.
    pub fn again<T>(&mut self, n: usize, mut f: impl FnMut() -> T) {
        for _ in 0..n {
            drop(self.time(&mut f));
        }
    }

    /// The fastest set-up, seconds; the count and median go to stderr.
    pub fn fastest(&self) -> f64 {
        let min = self.0.iter().copied().fold(f64::INFINITY, f64::min);
        eprintln!(
            "set-ups: {}, fastest {min:.6} s, median {:.6} s",
            self.0.len(),
            median(&self.0)
        );
        min
    }
}

/// Run `f` [`SETUP_REPEATS`] times; keep the last result and report the
/// fastest duration in seconds. Each earlier result is dropped before the
/// next set-up starts, outside its timing.
pub fn setup_repeated<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = SetupTimes::default();
    times.again(SETUP_REPEATS - 1, &mut f);
    let last = times.time(f);
    (last, times.fastest())
}

/// End-to-end metrics of a batch workload.
pub fn batch_result(st: &BatchStats, setup_s: f64) -> RunResult {
    eprintln!("pass seconds: {:.4?}", st.pass_s);
    let mut r = RunResult {
        attempted: st.attempted,
        failed: st.failed,
        correct: st.failed == 0,
        metrics: vec![
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", measure::peak_rss_mb(), "MB"),
        ],
    };
    let ok = r.success_ratio();
    r.metrics.extend(st.end_to_end(ok));
    r
}

/// Per-layer metrics every workload reports.
pub fn common_layers(generate_ms: f64, calib_ms: f64) -> Vec<Metric> {
    vec![
        m("workloads.generate_ms", generate_ms, "ms"),
        m("box.calib_ms", calib_ms, "ms"),
    ]
}

/// Write the traced run's spans to `e2ebench/out/`.
pub fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tr.write(&path) {
        Ok(()) => eprintln!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// Order `metrics` as `table` lists them, adding 0 for any listed metric
/// the workload did not produce. Panics on a metric missing from the
/// table, or with another unit: that is a bug in this benchmark.
fn complete(metrics: Vec<Metric>, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
    for mt in &metrics {
        assert!(
            table.contains(&(mt.name, mt.unit)),
            "metric {} ({}) is not declared",
            mt.name,
            mt.unit
        );
    }
    table
        .iter()
        .map(|(name, unit)| {
            metrics
                .iter()
                .find(|mt| mt.name == *name)
                .cloned()
                .unwrap_or(m(name, 0.0, unit))
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds: must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("--workload: one of {}", WORKLOADS.join(", ")));
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--write-reference") {
        match suite::write_reference() {
            Ok(t) => print!("{t}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut r = match (opts.workload.as_str(), opts.trace) {
        ("pipeline", false) => pipeline::run(&opts),
        ("pipeline", true) => pipeline::run_traced(&opts),
        ("serve-overload", false) => serve::run(&opts),
        ("serve-overload", true) => serve::run_traced(&opts),
        _ => unreachable!("workload validated by parse_args"),
    };
    r.metrics = complete(r.metrics, if opts.trace { PER_LAYER } else { END_TO_END });
    print!("{}", r.table(&opts.workload));
    println!("{}", r.to_json());
    if !r.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&a("--workload pipeline --seed 4 --seconds 2 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (4, 2.0, true));
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload pipeline --seed")).is_err());
        assert!(parse_args(&a("--workload pipeline --trace 2")).is_err());
        assert!(parse_args(&a("--workload pipeline --bogus 1")).is_err());
    }

    /// The tables here and `BENCHMARK.json` name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
