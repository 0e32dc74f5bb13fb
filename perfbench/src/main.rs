//! `perfbench` — the repository benchmark: host cost of the simulator
//! on three workloads, end to end and split by layer, measured from
//! outside through public functions and seams. See README.md.
//!
//! ```text
//! perfbench --workload <cell_nmap_mc_high|sweep_quick|fleet_chaos>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes untraced and traced runs of the same work and
//! reports the per-layer metrics. The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; any failed check
//! also makes the exit code 1.

mod cell;
mod digest;
mod fleet;
mod probe;
mod queue;
mod report;
mod spans;
mod speed;
mod sweep;
#[cfg(test)]
mod tests;

use experiments::RunResult;
use probe::{LayerTally, HOOKS};
use queue::QueueShape;
use report::{median, ratio, Outcome, END_TO_END, PER_LAYER};
use simcore::SimTime;
use std::process::ExitCode;
use std::time::Instant;

/// Cold set-ups per run: this process's own plus fresh child processes,
/// since threshold profiling is memoized for the life of a process.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: digest::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The features the benchmark must be built with, and whether each is
/// compiled in. Without them `fleet_chaos` would run an inert fault
/// plan, audits would not run and the obs surfaces would be free.
fn features() -> [(&'static str, bool); 3] {
    [
        ("audit", simcore::ConservationLedger::ENABLED),
        (
            "obs",
            simcore::MetricsRegistry::ENABLED && simcore::TraceBuffer::ENABLED,
        ),
        ("fault", simcore::FaultInjector::ENABLED),
    ]
}

enum Setup {
    Cell(cell::Setup),
    Sweep(sweep::Setup),
    Fleet(fleet::Setup),
}

fn setup(workload: &str, seed: u64) -> Result<Setup, String> {
    match workload {
        cell::NAME => cell::setup(seed).map(Setup::Cell),
        sweep::NAME => sweep::setup().map(Setup::Sweep),
        fleet::NAME => fleet::setup(seed).map(Setup::Fleet),
        other => Err(format!(
            "unknown workload {other:?}; expected {}, {} or {}",
            cell::NAME,
            sweep::NAME,
            fleet::NAME
        )),
    }
}

/// Times a set-up, with [`KERNEL_SAMPLES`] reference-kernel samples
/// just before and just after it; returns the set-up, its host seconds
/// and the kernel's times.
fn timed_setup(args: &Args) -> Result<(Setup, f64, Vec<f64>), String> {
    let mut kernels: Vec<f64> = (0..KERNEL_SAMPLES).map(|_| speed::sample()).collect();
    let started = Instant::now();
    let setup = setup(&args.workload, args.seed)?;
    let secs = started.elapsed().as_secs_f64();
    kernels.extend((0..KERNEL_SAMPLES).map(|_| speed::sample()));
    Ok((setup, secs, kernels))
}

/// Times a cold set-up in a fresh copy of this program; returns its
/// host seconds and the kernel's times around it.
fn setup_in_child(args: &Args) -> Result<(f64, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--setup-probe", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Result<Vec<f64>, _> = text.split_whitespace().map(str::parse).collect();
    match fields {
        Ok(f) if out.status.success() && f.len() == 1 + 2 * KERNEL_SAMPLES => {
            Ok((f[0], f[1..].to_vec()))
        }
        _ => Err(format!(
            "setup probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let missing: Vec<&str> = features()
        .iter()
        .filter(|(_, on)| !on)
        .map(|(name, _)| *name)
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "perfbench: built without feature(s) {}; refusing to report",
            missing.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.setup_probe {
        return match timed_setup(&args) {
            Ok((_, secs, kernels)) => {
                let kernels: Vec<String> = kernels.iter().map(f64::to_string).collect();
                println!("{secs} {}", kernels.join(" "));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!(
        "perfbench: workload {} seed {} features audit,obs,fault",
        args.workload, args.seed
    );

    let mut setup_secs = Vec::new();
    let mut setup_kernels = Vec::new();
    if !args.trace {
        for _ in 1..SETUP_SAMPLES {
            match setup_in_child(&args) {
                Ok((secs, kernels)) => {
                    setup_secs.push(secs);
                    setup_kernels.extend(kernels);
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let setup = match timed_setup(&args) {
        Ok((setup, secs, kernels)) => {
            setup_secs.push(secs);
            setup_kernels.extend(kernels);
            setup
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        eprintln!(
            "perfbench: set-up host s {setup_secs:.3?}, median reference kernel s {:.4}",
            median(&setup_kernels)
        );
    }

    let mut out = Outcome::default();
    let names = if args.trace {
        let mut spans = spans::SpanLog::default();
        match &setup {
            Setup::Cell(s) => cell::traced(s, args.seed, &mut out, &mut spans),
            Setup::Sweep(s) => sweep::traced(s, args.seed, &mut out, &mut spans),
            Setup::Fleet(s) => fleet::traced(s, args.seed, &mut out, &mut spans),
        }
        out.put(
            "cells_failed_frac",
            ratio(out.failed as f64, out.attempted as f64),
        );
        for (name, _) in PER_LAYER {
            if out.get(name).is_none() {
                out.put(name, 0.0);
            }
        }
        write_spans(&args, &spans);
        if out.correct() {
            eprintln!(
                "perfbench: traced results identical to untraced ones; tracing overhead {:.1}%",
                100.0 * out.get("trace.overhead_frac").unwrap_or(0.0)
            );
        }
        &PER_LAYER[..]
    } else {
        match &setup {
            Setup::Cell(s) => cell::timed(s, args.seed, args.seconds, &mut out),
            Setup::Sweep(s) => sweep::timed(s, args.seed, args.seconds, &mut out),
            Setup::Fleet(s) => fleet::timed(s, args.seed, args.seconds, &mut out),
        }
        out.put(
            "setup_s",
            speed::rescale(median(&setup_secs), median(&setup_kernels)),
        );
        match report::peak_rss_mb() {
            Some(mb) => out.put("peak_rss_mb", mb),
            None => {
                out.check(false, || "cannot read VmHWM from /proc/self/status".into());
            }
        }
        &END_TO_END[..]
    };
    eprint!("{}", out.table(names));
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!("{}", out.to_json(names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the traced run's spans to `.perfbench/` in the working
/// directory.
fn write_spans(args: &Args, spans: &spans::SpanLog) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Reference-kernel samples taken between two runs of a one-cell
/// workload.
const KERNEL_SAMPLES: usize = 3;

/// The closed loop of a one-cell workload: after one untimed warm-up
/// run, runs `cell` until `seconds` would be exceeded (at least once),
/// with [`KERNEL_SAMPLES`] runs of the reference kernel before each.
/// Every result must equal the warm-up's. Returns the host seconds of
/// each timed run, the kernel's times, and the warm-up's result.
pub fn repeat<T: PartialEq>(
    seconds: f64,
    out: &mut Outcome,
    mut cell: impl FnMut() -> Result<T, String>,
) -> (Vec<f64>, Vec<f64>, Option<T>) {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut kernels = Vec::new();
    out.attempted += 1;
    let first = match cell() {
        Ok(r) => r,
        Err(e) => {
            out.cell_failed(format!("cell failed: {e}"));
            return (walls, kernels, None);
        }
    };
    loop {
        out.attempted += 1;
        kernels.extend((0..KERNEL_SAMPLES).map(|_| speed::sample()));
        let t0 = Instant::now();
        let run = cell();
        let wall = t0.elapsed().as_secs_f64();
        match run {
            Err(e) => {
                out.cell_failed(format!("cell failed: {e}"));
                break;
            }
            Ok(r) => {
                walls.push(wall);
                if r != first {
                    out.cell_failed("result changed between runs".into());
                }
            }
        }
        if started.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    eprintln!(
        "perfbench: host s {walls:.3?}, median reference kernel s {:.4}",
        median(&kernels)
    );
    (walls, kernels, Some(first))
}

/// End-to-end host-time metrics of a one-cell workload: its runs' host
/// times rescaled by the median reference-kernel time of the run (see
/// [`speed`]).
pub fn put_one_cell_times(out: &mut Outcome, walls: &[f64], kernels: &[f64], sim_s: f64) {
    let kernel = median(kernels);
    let wall = speed::rescale(median(walls), kernel);
    out.put("wall_s", wall);
    out.put("cell_s_mean", speed::rescale(report::mean(walls), kernel));
    out.put("sim_s_per_s", sim_s / wall);
}

/// Runs `f`, turning a panic into an error message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Simulated seconds a cell covers: warm-up plus window.
pub fn sim_secs(cfg: &experiments::RunConfig) -> f64 {
    (cfg.warmup + cfg.duration).as_secs_f64()
}

/// Requests of the window that missed the SLO: answered late, or not
/// answered within the window (dropped, shed or still queued).
pub fn slo_misses(r: &RunResult) -> u64 {
    let late = (r.frac_above_slo * r.received as f64).round() as u64;
    late + r.sent.saturating_sub(r.received)
}

/// Model counts summed over cells.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellCounts {
    rx_dropped: u64,
    dvfs_transitions: u64,
    c6_entries: u64,
}

impl CellCounts {
    pub fn add(&mut self, r: &RunResult) {
        self.rx_dropped += r.rx_dropped;
        self.dvfs_transitions += r.dvfs_transitions;
        self.c6_entries += r.c6_entries;
    }
}

/// Host time of the public extraction calls the runner makes at the
/// end of a cell, repeated on the returned testbed, in ms. Also checks
/// that its conservation audit exists and balances.
pub fn time_extraction(tb: &mut appsim::Testbed, end: SimTime, out: &mut Outcome) -> f64 {
    let started = Instant::now();
    std::hint::black_box(tb.energy_summary(end));
    std::hint::black_box(tb.flight_summary());
    std::hint::black_box(tb.attrib.summary());
    std::hint::black_box(tb.watchdog.report(end));
    std::hint::black_box(tb.timeline.finish());
    tb.collect_metrics(end);
    let audit = tb.audit_report(end);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    out.check(audit.as_ref().is_some_and(|a| a.is_balanced()), || {
        "conservation audit missing or unbalanced".into()
    });
    ms
}

/// Engine metrics from the untraced cells' counts, their host time and
/// the queue probe's cost per event.
pub fn put_engine(out: &mut Outcome, e: QueueShape, requests: u64, host_s: f64, queue_ns: f64) {
    out.put("engine.events", e.executed as f64);
    out.put(
        "engine.events_per_request",
        ratio(e.executed as f64, requests as f64),
    );
    out.put("engine.events_per_s", ratio(e.executed as f64, host_s));
    out.put(
        "engine.ns_per_event",
        ratio(host_s * 1e9, e.executed as f64),
    );
    out.put("engine.queue_ns_per_event", queue_ns);
    out.put(
        "engine.cancelled_frac",
        ratio(e.cancelled as f64, e.scheduled as f64),
    );
    out.put("engine.max_pending", e.max_pending as f64);
}

/// Governor, sleep, NAPI/NIC/CPU and residual metrics from `rounds`
/// traced passes over the same cells: counts per pass, costs per call,
/// and shares of host time (hooks against the traced cells, the queue
/// estimate against the untraced ones).
pub fn put_layers(
    out: &mut Outcome,
    t: &LayerTally,
    counts: CellCounts,
    rounds: u64,
    traced_s: f64,
    untraced_s: f64,
    queue_ns_total: f64,
) {
    let per_pass = |n: u64| n as f64 / rounds.max(1) as f64;
    for ((_, calls, ns), stat) in HOOKS.iter().zip(t.governor) {
        out.put(calls, per_pass(stat.calls));
        out.put(ns, stat.ns_per_call());
    }
    let governor_share = ratio(t.governor_ns() as f64, traced_s * 1e9);
    let sleep_share = ratio(t.sleep.ns as f64, traced_s * 1e9);
    let queue_share = ratio(queue_ns_total, untraced_s * 1e9);
    out.put("governor.share", governor_share);
    out.put(
        "governor.action_yield",
        ratio(counts.dvfs_transitions as f64, t.actions as f64),
    );
    out.put("sleep.calls", per_pass(t.sleep.calls));
    out.put("sleep.ns_per_call", t.sleep.ns_per_call());
    out.put("sleep.share", sleep_share);
    out.put("napi.batches", per_pass(t.napi_batches));
    out.put(
        "napi.pkts_per_batch",
        ratio(t.napi_pkts as f64, t.napi_batches as f64),
    );
    out.put(
        "napi.polling_pkt_frac",
        ratio(t.napi_polling_pkts as f64, t.napi_pkts as f64),
    );
    out.put("nic.rx_dropped", per_pass(counts.rx_dropped));
    out.put("cpu.dvfs_transitions", per_pass(counts.dvfs_transitions));
    out.put("cpu.c6_entries", per_pass(counts.c6_entries));
    out.put(
        "testbed.self_share",
        1.0 - governor_share - sleep_share - queue_share,
    );
}

pub fn put_trace_overhead(out: &mut Outcome, traced_s: f64, untraced_s: f64) {
    out.put("trace.wall_s", traced_s);
    out.put("untraced.wall_s", untraced_s);
    out.put("trace.overhead_frac", traced_s / untraced_s - 1.0);
}
