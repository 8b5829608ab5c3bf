//! `serve-overload`: one open-loop generator thread against the real
//! threaded `Service` with one worker, so generator and worker each get a
//! core on a two-core machine.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use needle::{
    FailReason, MetricsSnapshot, Outcome, Request, Response, ServeConfig, Service, ShedReason,
};
use needle_ir::interp::{Interp, NullSink};
use needle_workloads::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{m, mean, median, quantile, Metric, RunResult};
use crate::trace::Tracer;
use crate::{pin, Opts};

/// The service catalog: suite workloads of mixed length plus the built-in
/// `svc.sum` loop, which also carries the frame leg.
pub const CATALOG: [&str; 12] = [
    "482.sphinx3",
    "470.lbm",
    "444.namd",
    "450.soplex",
    "429.mcf",
    "fft-2d",
    "dwt53",
    "183.equake",
    "181.mcf",
    "freqmine",
    "streamcluster",
    "svc.sum",
];

/// Offered rate: 1.3-2x one worker's capacity as the machine's speed
/// drifts, so the completion rate is the service's capacity.
pub const RATE_RPS: f64 = 1400.0;
/// Every request's deadline. It is below the wait of a full queue (64 at
/// about 1.3 ms each), so the unmeetable gate, AIMD and brownout act
/// before the queue-depth limit does.
const DEADLINE_MS: u64 = 40;
/// A completion counts toward goodput within this long of its due time.
const GOOD_WITHIN_MS: f64 = 250.0;
/// How long the generator waits for the last accepted responses.
const DRAIN_WAIT: Duration = Duration::from_secs(30);

/// The service under test.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        default_deadline_ms: DEADLINE_MS,
        catalog: CATALOG.iter().map(|s| s.to_string()).collect(),
        frame_workload: Some("svc.sum".into()),
        ..ServeConfig::default()
    }
}

/// One scheduled request: when it is due (µs after the run starts) and
/// which catalog entry it asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_us: u64,
    pub entry: usize,
}

/// The seeded Poisson arrival schedule and uniform mix for `seconds` at
/// `rate` requests per second.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E_A11D);
    let horizon_us = seconds * 1e6;
    let mut t_us = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t_us += -(1.0 - u).ln() / rate * 1e6;
        if t_us >= horizon_us {
            return out;
        }
        out.push(Arrival {
            due_us: t_us as u64,
            entry: rng.gen_range(0..CATALOG.len()),
        });
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
struct Sent {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    entry: usize,
    /// `None` = accepted; `Some` = refused at submission.
    refused: Option<ShedReason>,
    response: Option<Response>,
    responses: u32,
}

impl Sent {
    /// Due time to response: lateness + `submit` + service latency.
    fn latency_ms(&self) -> Option<f64> {
        let r = self.response.as_ref()?;
        let before = self
            .submit_end
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1e3;
        Some(before + r.latency_us as f64 / 1e3)
    }

    fn completed(&self) -> bool {
        matches!(
            self.response.as_ref().map(|r| &r.outcome),
            Some(Outcome::Completed { .. })
        )
    }
}

/// One open-loop phase's records and gate verdict.
struct Phase {
    sent: Vec<Sent>,
    seconds: f64,
    /// Exactly-once breaches: duplicate, unknown or missing responses.
    breaches: u64,
}

impl Phase {
    /// Correctness failures: exactly-once breaches and failed executions.
    /// A request the watchdog cancelled at its deadline is a deadline
    /// miss, like a `Shed(Expired)`: it counts against goodput, not here.
    fn failed(&self) -> u64 {
        let exec_failures = self
            .sent
            .iter()
            .filter(|s| {
                matches!(
                    s.response.as_ref().map(|r| &r.outcome),
                    Some(Outcome::Failed(why)) if *why != FailReason::Cancelled
                )
            })
            .count() as u64;
        exec_failures + self.breaches
    }

    /// Requests cancelled by the watchdog at their deadline.
    fn cancelled(&self) -> u64 {
        self.sent
            .iter()
            .filter(|s| {
                matches!(
                    s.response.as_ref().map(|r| &r.outcome),
                    Some(Outcome::Failed(FailReason::Cancelled))
                )
            })
            .count() as u64
    }

    /// Accepted requests answered `Shed(Expired)`.
    fn expired(&self) -> u64 {
        self.sent
            .iter()
            .filter(|s| {
                matches!(
                    s.response.as_ref().map(|r| &r.outcome),
                    Some(Outcome::Shed(ShedReason::Expired))
                )
            })
            .count() as u64
    }

    fn completed_latencies(&self) -> Vec<f64> {
        self.sent
            .iter()
            .filter(|s| s.completed())
            .filter_map(Sent::latency_ms)
            .collect()
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let offered = self.sent.len().max(1) as f64;
        let lat = self.completed_latencies();
        let good = lat.iter().filter(|l| **l <= GOOD_WITHIN_MS).count() as f64;
        let success = (offered - self.failed() as f64) / offered;
        vec![
            m("success_ratio", success, "ratio"),
            m("throughput_ops", lat.len() as f64 / self.seconds, "1/s"),
            m("decided_ratio", lat.len() as f64 / offered, "ratio"),
            m("goodput_rps", good / self.seconds, "1/s"),
            m("latency_ms_p50", quantile(&lat, 0.50), "ms"),
        ]
    }
}

/// Record one response against the sent table.
fn absorb(sent: &mut [Sent], resp: Response, breaches: &mut u64) {
    let Some(s) = usize::try_from(resp.id).ok().and_then(|k| sent.get_mut(k)) else {
        eprintln!("serve: response for unknown id {}", resp.id);
        *breaches += 1;
        return;
    };
    s.responses += 1;
    if s.refused.is_some() || s.responses > 1 {
        eprintln!(
            "serve: id {} answered {} time(s) (refused: {:?})",
            resp.id, s.responses, s.refused
        );
        *breaches += 1;
    }
    match &resp.outcome {
        Outcome::Failed(FailReason::Cancelled) => {}
        Outcome::Failed(why) => eprintln!("serve: id {} failed: {why}", resp.id),
        _ => {}
    }
    s.response = Some(resp);
}

/// Run `sched` open-loop against `svc`, then wait for every accepted
/// response. Replies are drained after every send.
fn drive(svc: &Service, sched: &[Arrival], seconds: f64) -> Phase {
    let (tx, rx): (Sender<Response>, Receiver<Response>) = channel();
    let mut sent: Vec<Sent> = Vec::with_capacity(sched.len());
    let mut breaches = 0u64;
    let start = Instant::now() + Duration::from_millis(2);
    for (k, a) in sched.iter().enumerate() {
        let due = start + Duration::from_micros(a.due_us);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let submit_start = Instant::now();
        let refused = svc
            .submit(Request::new(k as u64, CATALOG[a.entry]), &tx)
            .err();
        let submit_end = Instant::now();
        sent.push(Sent {
            due,
            submit_start,
            submit_end,
            entry: a.entry,
            refused,
            response: None,
            responses: 0,
        });
        while let Ok(resp) = rx.try_recv() {
            absorb(&mut sent, resp, &mut breaches);
        }
    }
    let accepted = sent.iter().filter(|s| s.refused.is_none()).count();
    let mut answered = sent.iter().filter(|s| s.responses > 0).count();
    let give_up = Instant::now() + DRAIN_WAIT;
    while answered < accepted && Instant::now() < give_up {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(resp) => {
                absorb(&mut sent, resp, &mut breaches);
                answered = sent.iter().filter(|s| s.responses > 0).count();
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let missing = sent
        .iter()
        .filter(|s| s.refused.is_none() && s.responses == 0)
        .count() as u64;
    if missing > 0 {
        eprintln!("serve: {missing} accepted request(s) never answered");
    }
    Phase {
        sent,
        seconds,
        breaches: breaches + missing,
    }
}

/// A started service with its catalog warmed, plus set-up timings.
struct Ready {
    svc: Service,
    workloads: Vec<(usize, Workload)>,
    generate_ms: f64,
    start_ms: f64,
}

/// Set-up: generate the catalog's suite workloads, start the service, and
/// send one warm-up request per catalog entry. With two or more `cpus`,
/// the service's threads run on the first and the calling thread, the
/// generator, moves to the second.
fn set_up(cpus: &[usize]) -> Result<Ready, String> {
    let t = Instant::now();
    let workloads: Vec<(usize, Workload)> = CATALOG
        .iter()
        .enumerate()
        .filter_map(|(i, n)| needle_workloads::by_name(n).map(|w| (i, w)))
        .collect();
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    // The service's threads inherit the mask of the thread that starts it.
    let placed = cpus.len() >= 2 && pin::pin_current(cpus[0]);
    if cpus.len() >= 2 && !placed {
        eprintln!("serve: could not pin the service to CPU {}", cpus[0]);
    }
    let t = Instant::now();
    let svc = Service::start(config()).map_err(|e| format!("Service::start: {e}"));
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    if placed && !pin::pin_current(cpus[1]) {
        eprintln!("serve: could not pin the generator to CPU {}", cpus[1]);
    }
    let svc = svc?;
    let (tx, rx) = channel();
    for (i, name) in CATALOG.iter().enumerate() {
        let id = u64::MAX - i as u64;
        svc.submit(Request::new(id, *name), &tx)
            .map_err(|e| format!("warm-up {name}: refused ({e})"))?;
        let resp = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| format!("warm-up {name}: no response"))?;
        if resp.id != id || !matches!(resp.outcome, Outcome::Completed { .. }) {
            return Err(format!("warm-up {name}: {:?}", resp.outcome));
        }
    }
    Ok(Ready {
        svc,
        workloads,
        generate_ms,
        start_ms,
    })
}

/// Set up [`crate::SETUP_REPEATS`] times, keeping the last service, and
/// return it with the fastest set-up seconds (see [`crate::SetupTimes`])
/// and the median generation ms and start ms.
/// The CPUs are read once, before the first set-up narrows this thread's
/// mask to the generator's CPU.
fn set_up_repeated() -> Result<(Ready, f64, f64, f64), String> {
    let cpus = pin::allowed_cpus();
    let mut total = crate::SetupTimes::default();
    let (mut gen, mut start) = (Vec::new(), Vec::new());
    let mut last: Option<Ready> = None;
    for _ in 0..crate::SETUP_REPEATS {
        if let Some(prev) = last.take() {
            check_shutdown(prev.svc.shutdown())?;
        }
        let r = total.time(|| set_up(&cpus))?;
        gen.push(r.generate_ms);
        start.push(r.start_ms);
        last = Some(r);
    }
    let r = last.expect("at least one set-up");
    Ok((r, total.fastest(), median(&gen), median(&start)))
}

fn check_shutdown(snap: MetricsSnapshot) -> Result<(), String> {
    if snap.invariant_holds() {
        Ok(())
    } else {
        Err(format!(
            "accounting invariant broken after shutdown: accepted {} != completed {} + failed {} + shed {}",
            snap.accepted, snap.completed, snap.failed, snap.shed_after_accept
        ))
    }
}

fn fail(msg: String) -> RunResult {
    eprintln!("serve: {msg}");
    RunResult {
        attempted: 1,
        failed: 1,
        correct: false,
        metrics: Vec::new(),
    }
}

/// One serve run: the phase, the service's counters over it, and set-up.
struct Ran {
    phase: Phase,
    counters: MetricsSnapshot,
    /// The phase's failures plus a broken shutdown invariant.
    failed: u64,
    workloads: Vec<(usize, Workload)>,
    setup_s: f64,
    generate_ms: f64,
    start_ms: f64,
}

/// Set up, run one open-loop phase of `opts.seconds`, shut down.
fn run_phase(opts: &Opts) -> Result<Ran, String> {
    let (ready, setup_s, generate_ms, start_ms) = set_up_repeated()?;
    let sched = schedule(opts.seed, RATE_RPS, opts.seconds);
    let before = ready.svc.metrics();
    let phase = drive(&ready.svc, &sched, opts.seconds);
    let counters = delta(&before, &ready.svc.metrics());
    let invariant = check_shutdown(ready.svc.shutdown());
    if let Err(e) = &invariant {
        eprintln!("serve: {e}");
    }
    eprintln!(
        "serve: offered {} completed {} cancelled at deadline {}; shed: queue-full {} unmeetable {} throttled {} expired {}; brownout descents {}",
        phase.sent.len(),
        counters.completed,
        phase.cancelled(),
        counters.shed_queue_full,
        counters.shed_unmeetable,
        counters.shed_throttled,
        phase.expired(),
        counters.brownout_descents,
    );
    let failed = phase.failed() + u64::from(invariant.is_err());
    Ok(Ran {
        phase,
        counters,
        failed,
        workloads: ready.workloads,
        setup_s,
        generate_ms,
        start_ms,
    })
}

impl Ran {
    fn result(&self, metrics: Vec<Metric>) -> RunResult {
        RunResult {
            attempted: self.phase.sent.len() as u64,
            failed: self.failed,
            correct: self.failed == 0,
            metrics,
        }
    }
}

/// The end-to-end run: `--trace 0`.
pub fn run(opts: &Opts) -> RunResult {
    let ran = match run_phase(opts) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let mut metrics = vec![
        m("setup_s", ran.setup_s, "s"),
        m("peak_rss_mb", crate::measure::peak_rss_mb(), "MB"),
    ];
    metrics.extend(ran.phase.end_to_end());
    ran.result(metrics)
}

/// Mean engine time per request of the phase's mix, ms, measured by
/// running each catalog workload directly on a warm engine. `svc.sum`
/// is built inside the service and is left out of the mix.
fn exec_ms_mean(phase: &Phase, workloads: &[(usize, Workload)], fuel: u64) -> f64 {
    let mut per_entry: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, w) in workloads {
        let interp = Interp::new(&w.module).with_max_steps(fuel);
        let mut times = Vec::new();
        for _ in 0..21 {
            let mut mem = w.memory.clone();
            let t = Instant::now();
            let r = interp.run_with(w.func, &w.args, &mut mem, &mut NullSink);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(r.is_ok());
        }
        per_entry.insert(*i, median(&times[1..]));
    }
    let mix: Vec<f64> = phase
        .sent
        .iter()
        .filter(|s| s.completed())
        .filter_map(|s| per_entry.get(&s.entry).copied())
        .collect();
    mean(&mix)
}

/// Counter deltas between two snapshots of the same service.
fn delta(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        accepted: b.accepted - a.accepted,
        shed_queue_full: b.shed_queue_full - a.shed_queue_full,
        shed_unmeetable: b.shed_unmeetable - a.shed_unmeetable,
        shed_throttled: b.shed_throttled - a.shed_throttled,
        completed: b.completed - a.completed,
        failed: b.failed - a.failed,
        shed_after_accept: b.shed_after_accept - a.shed_after_accept,
        fallbacks: b.fallbacks - a.fallbacks,
        frame_aborts: b.frame_aborts - a.frame_aborts,
        brownout_descents: b.brownout_descents - a.brownout_descents,
        metastable_fired: b.metastable_fired - a.metastable_fired,
        ..MetricsSnapshot::default()
    }
}

/// The traced run: `--trace 1`. The same single phase as the untraced
/// run; its spans are built afterwards from the timestamps every run
/// takes, so tracing adds no work to the phase and `trace.overhead_ratio`
/// is 1 by construction.
pub fn run_traced(opts: &Opts) -> RunResult {
    // Created first: span times before the tracer's origin would read 0.
    let mut tr = Tracer::new();
    let ran = match run_phase(opts) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let calib = crate::measure::box_calib_ms();
    let (sent, d) = (&ran.phase.sent, &ran.counters);

    // Spans per request: the request (due to response) with its lateness,
    // `submit` call and service-side latency as children.
    for (k, s) in sent.iter().enumerate() {
        let id = k as u64;
        let end = s.response.as_ref().map_or(s.submit_end, |r| {
            s.submit_end + Duration::from_micros(r.latency_us)
        });
        let root = tr.record("loadgen.request", id, (s.due, end), None);
        tr.record(
            "loadgen.lateness",
            id,
            (s.due.min(s.submit_start), s.submit_start),
            Some(root),
        );
        tr.record(
            "core.serve.submit",
            id,
            (s.submit_start, s.submit_end),
            Some(root),
        );
        if s.response.is_some() {
            tr.record("core.serve.response", id, (s.submit_end, end), Some(root));
        }
    }
    crate::write_trace(&tr, &opts.workload, opts.seed);

    let submit_us: Vec<f64> = sent
        .iter()
        .map(|s| (s.submit_end - s.submit_start).as_secs_f64() * 1e6)
        .collect();
    let response_ms: Vec<f64> = sent
        .iter()
        .filter(|s| s.completed())
        .filter_map(|s| s.response.as_ref().map(|r| r.latency_us as f64 / 1e3))
        .collect();
    let lateness_ms: Vec<f64> = sent
        .iter()
        .map(|s| {
            s.submit_start
                .saturating_duration_since(s.due)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    let exec = exec_ms_mean(&ran.phase, &ran.workloads, config().default_fuel);
    let offered = sent.len() as f64;
    let mut metrics = vec![
        m("core.serve.submit_us_p50", quantile(&submit_us, 0.5), "us"),
        m("core.serve.submit_us_p99", quantile(&submit_us, 0.99), "us"),
        m(
            "core.serve.response_ms_p50",
            quantile(&response_ms, 0.5),
            "ms",
        ),
        m(
            "core.serve.response_ms_p99",
            quantile(&response_ms, 0.99),
            "ms",
        ),
        m("core.serve.exec_ms_mean", exec, "ms"),
        m("core.serve.wait_ms", mean(&response_ms) - exec, "ms"),
        m(
            "loadgen.lateness_ms_p99",
            quantile(&lateness_ms, 0.99),
            "ms",
        ),
        m("loadgen.lateness_ms_max", quantile(&lateness_ms, 1.0), "ms"),
        m("core.serve.offered", offered, "count"),
        m("core.serve.accepted", d.accepted as f64, "count"),
        m("core.serve.failed", d.failed as f64, "count"),
        m("core.serve.fallbacks", d.fallbacks as f64, "count"),
        m("core.serve.frame_aborts", d.frame_aborts as f64, "count"),
        m(
            "core.overload.shed_queue_full",
            d.shed_queue_full as f64,
            "count",
        ),
        m(
            "core.overload.shed_unmeetable",
            d.shed_unmeetable as f64,
            "count",
        ),
        m(
            "core.overload.shed_throttled",
            d.shed_throttled as f64,
            "count",
        ),
        m(
            "core.overload.shed_expired",
            ran.phase.expired() as f64,
            "count",
        ),
        m(
            "core.overload.deadline_cancels",
            ran.phase.cancelled() as f64,
            "count",
        ),
        m(
            "core.overload.brownout_descents",
            d.brownout_descents as f64,
            "count",
        ),
        m(
            "core.overload.metastable_fired",
            d.metastable_fired as f64,
            "count",
        ),
        m(
            "core.serve.accept_ratio",
            d.accepted as f64 / offered.max(1.0),
            "ratio",
        ),
        m(
            "core.overload.useful_ratio",
            d.completed as f64 / (d.accepted as f64).max(1.0),
            "ratio",
        ),
        m("core.serve.start_ms", ran.start_ms, "ms"),
        m("trace.overhead_ratio", 1.0, "ratio"),
    ];
    metrics.extend(crate::common_layers(ran.generate_ms, calib));
    ran.result(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_once_gate_counts_duplicates_and_strays() {
        let now = Instant::now();
        let sent = |refused| Sent {
            due: now,
            submit_start: now,
            submit_end: now,
            entry: 0,
            refused,
            response: None,
            responses: 0,
        };
        let resp = |id| Response {
            id,
            outcome: Outcome::Completed {
                fallback: false,
                frame_abort: false,
            },
            latency_us: 1_000,
        };
        let mut table = vec![sent(None), sent(Some(ShedReason::QueueFull))];
        let mut breaches = 0;
        absorb(&mut table, resp(0), &mut breaches);
        assert_eq!(breaches, 0);
        absorb(&mut table, resp(0), &mut breaches); // duplicate
        absorb(&mut table, resp(1), &mut breaches); // answer to a refusal
        absorb(&mut table, resp(99), &mut breaches); // unknown id
        assert_eq!(breaches, 3);
        assert_eq!(table[0].latency_ms(), Some(1.0));
        // A deadline cancel is a miss, not a failure; any other is both.
        let mut phase = Phase {
            sent: vec![sent(None), sent(None)],
            seconds: 1.0,
            breaches: 0,
        };
        for (k, why) in [FailReason::Cancelled, FailReason::StepLimit]
            .into_iter()
            .enumerate()
        {
            phase.sent[k].response = Some(Response {
                outcome: Outcome::Failed(why),
                ..resp(k as u64)
            });
        }
        assert_eq!((phase.failed(), phase.cancelled()), (1, 1));
    }

    /// CPU lists of this process's threads whose kernel name is `name`.
    fn thread_cpus(name: &str) -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        tasks
            .flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name)
            })
            .filter_map(|t| {
                let status = std::fs::read_to_string(t.path().join("status")).ok()?;
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|v| v.trim().to_string())
            })
            .collect()
    }

    /// Every set-up, not only the first, puts the service's threads on the
    /// first CPU and the calling thread on the second.
    #[test]
    fn service_and_generator_get_separate_cpus() {
        let cpus = pin::allowed_cpus();
        if cpus.len() < 2 {
            return;
        }
        std::thread::spawn(move || {
            for _ in 0..2 {
                let r = set_up(&cpus).expect("set-up");
                let service = cpus[0].to_string();
                assert_eq!(thread_cpus("needle-usrv-w0"), vec![service.clone()]);
                // The kernel keeps the first 15 bytes of a thread name.
                assert_eq!(thread_cpus("needle-usrv-wat"), vec![service]);
                assert_eq!(pin::allowed_cpus(), vec![cpus[1]]);
                check_shutdown(r.svc.shutdown()).expect("clean shutdown");
            }
        })
        .join()
        .expect("placement holds");
    }

    #[test]
    fn same_seed_same_schedule_and_mix() {
        let a = schedule(11, RATE_RPS, 0.4);
        assert_eq!(a, schedule(11, RATE_RPS, 0.4));
        assert_ne!(a, schedule(12, RATE_RPS, 0.4));
        // Poisson at 1400/s over 0.4 s: about 560 arrivals, in order.
        assert!((400..600).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        // Every catalog entry is drawn.
        for e in 0..CATALOG.len() {
            assert!(a.iter().any(|x| x.entry == e), "entry {e} never drawn");
        }
    }
}
