//! `cell_nmap_mc_high`: one long NMAP/memcached cell at the high
//! bursty preset, run serially and repeatedly (closed loop, one
//! worker). Per-event model cost dominates; the governor's
//! `on_poll_batch` and `on_request_latency` hooks fire about a million
//! times per simulated second while setup, sweep and fleet layers idle.

use crate::digest::{self, DEFAULT_SEED};
use crate::probe::{self, LayerTally, HOOKS};
use crate::queue::{self, QueueShape};
use crate::report::{median, ratio, Outcome};
use crate::spans::SpanLog;
use crate::{catch, sim_secs, slo_misses, CellCounts};
use experiments::{thresholds, GovernorKind, RunConfig, RunResult, Scale};
use simcore::{SimDuration, SimTime, TimelineConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use workload::{AppKind, LoadLevel, LoadSpec};

pub const NAME: &str = "cell_nmap_mc_high";
const PIN: &str = "cell_nmap_mc_high.cell";

/// The measured cell: 200 ms warm-up plus an 800 ms window, about
/// 3.6 M events. Long enough that per-event cost dominates, short
/// enough that a run repeats it ten times or more.
pub fn config(seed: u64) -> RunConfig {
    let app = AppKind::Memcached;
    RunConfig {
        warmup: SimDuration::from_millis(200),
        duration: SimDuration::from_millis(800),
        ..RunConfig::new(
            app,
            LoadSpec::preset(app, LoadLevel::High),
            GovernorKind::Nmap(thresholds::nmap_config(app)),
            Scale::Quick,
        )
    }
    .with_seed(seed)
}

/// Everything before the first measured cell: threshold profiling
/// (memoized per app) and the cell's construction and validation.
pub struct Setup {
    cfg: RunConfig,
    profile_s: f64,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    thresholds::nmap_config(AppKind::Memcached);
    let profile_s = started.elapsed().as_secs_f64();
    let cfg = config(seed);
    cfg.validate()
        .map_err(|e| format!("invalid cell config: {e}"))?;
    Ok(Setup { cfg, profile_s })
}

/// Checks one cell result against the pins and basic sanity.
fn check_result(r: &RunResult, seed: u64, out: &mut Outcome) {
    out.check(r.received > 0 && r.p99 > SimDuration::ZERO, || {
        "cell served no requests".into()
    });
    out.check(!r.metrics.counters.is_empty(), || {
        "empty metrics snapshot: the obs surfaces are compiled out".into()
    });
    if seed == DEFAULT_SEED {
        let got = digest::fnv64(digest::render_cell(r).as_bytes());
        out.check(digest::pinned(PIN) == Some(got), || {
            format!("{PIN}: digest {got:#018x} does not match pinned.txt")
        });
    }
}

fn put_sim(r: &RunResult, out: &mut Outcome) {
    out.put("sim_p99_us", r.p99.as_nanos() as f64 / 1e3);
    out.put("sim_energy_j", r.energy_j);
    out.put(
        "sim_slo_met_frac",
        1.0 - ratio(slo_misses(r) as f64, r.sent as f64),
    );
}

/// Repeats the cell (see [`crate::repeat`]).
pub fn timed(s: &Setup, seed: u64, seconds: f64, out: &mut Outcome) {
    let (walls, kernels, first) = crate::repeat(seconds, out, || {
        catch(|| experiments::try_run(s.cfg.clone()))?.map_err(|e| e.to_string())
    });
    let Some(r) = first else { return };
    check_result(&r, seed, out);
    crate::put_one_cell_times(out, &walls, &kernels, sim_secs(&s.cfg));
    put_sim(&r, out);
    eprintln!(
        "{NAME}: {} cell run(s) after a warm-up, 1 worker",
        walls.len()
    );
}

/// Alternating rounds of an untraced, a traced and a timeline-off run
/// of the cell, then the engine-queue probe. Every traced result must
/// equal the untraced one.
pub fn traced(s: &Setup, seed: u64, out: &mut Outcome, spans: &mut SpanLog) {
    const ROUNDS: u64 = 3;
    let root = spans.open(format!("workload:{NAME}"), None);
    let artifact = spans.open("artifact:cell", Some(root));
    let end = SimTime::ZERO + s.cfg.warmup + s.cfg.duration;
    let (mut walls_u, mut walls_t, mut walls_off) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced: Option<(RunResult, experiments::RunProfile)> = None;
    let mut tally = LayerTally::default();
    let mut counts = CellCounts::default();
    let mut extract_ms = Vec::new();
    for _ in 0..ROUNDS {
        out.attempted += 1;
        let t0 = Instant::now();
        let run = catch(|| experiments::run_profiled(s.cfg.clone()));
        walls_u.push(t0.elapsed().as_secs_f64());
        let (u, prof) = match run {
            Ok(v) => v,
            Err(e) => return out.cell_failed(format!("cell failed: {e}")),
        };
        match &untraced {
            None => {
                check_result(&u, seed, out);
                untraced = Some((u, prof));
            }
            Some((first, _)) => {
                out.check(*first == u, || "cell result changed between runs".into());
            }
        }
        let Some((u, _)) = &untraced else { return };

        let cell_tally = Rc::new(RefCell::new(LayerTally::default()));
        let start_ns = spans.now_ns();
        let t0 = Instant::now();
        let run = catch(|| {
            experiments::runner::run_with_testbed(s.cfg.clone(), probe::instrument(&cell_tally))
        });
        walls_t.push(t0.elapsed().as_secs_f64());
        let cell = spans.interval(
            "cell:NMAP/memcached/high",
            Some(artifact),
            start_ns,
            spans.now_ns(),
        );
        let (t, mut tb) = match run {
            Ok(v) => v,
            Err(e) => return out.cell_failed(format!("traced cell failed: {e}")),
        };
        out.check(t == *u, || {
            "traced cell result differs from the untraced one".into()
        });
        let cell_tally = cell_tally.borrow().clone();
        for ((span, _, _), stat) in HOOKS.iter().zip(cell_tally.governor) {
            spans.aggregate(*span, cell, stat.ns);
        }
        spans.aggregate("sleep", cell, cell_tally.sleep.ns);
        tally.merge(&cell_tally);
        counts.add(&t);
        extract_ms.push(crate::time_extraction(&mut tb, end, out));
        drop(tb);

        let t0 = Instant::now();
        let off =
            catch(|| experiments::run_profiled(s.cfg.clone().with_timeline(TimelineConfig::OFF)));
        walls_off.push(t0.elapsed().as_secs_f64());
        out.check(off.is_ok(), || "timeline-off cell failed".into());
    }
    let Some((u, prof)) = untraced else { return };

    let shape = QueueShape {
        executed: prof.engine.events_executed,
        scheduled: prof.engine.events_scheduled,
        cancelled: prof.engine.events_cancelled,
        max_pending: prof.engine.max_pending as u64,
        sim_ns: (s.cfg.warmup + s.cfg.duration).as_nanos(),
    };
    let queue_ns = queue::ns_per_event(shape, 4_000_000, seed);
    spans.close(artifact);
    spans.close(root);

    let (wall_u, wall_t) = (median(&walls_u), median(&walls_t));
    let requests = u.metrics.counter("attrib.requests").unwrap_or(u.sent);
    crate::put_engine(out, shape, requests, wall_u, queue_ns);
    let queue_ns_total = queue_ns * (shape.executed * ROUNDS) as f64;
    let (traced_s, untraced_s) = (walls_t.iter().sum(), walls_u.iter().sum());
    crate::put_layers(
        out,
        &tally,
        counts,
        ROUNDS,
        traced_s,
        untraced_s,
        queue_ns_total,
    );
    out.put("obs.timeline_share", 1.0 - median(&walls_off) / wall_u);
    out.put("runner.extract_ms", median(&extract_ms));
    out.put("cell_s_p90", wall_u);
    out.put("sweep.cells_requested", 1.0);
    out.put("sweep.cells_run", 1.0);
    out.put("sweep.recurring_frac", 0.0);
    out.put("sweep.worker_busy_frac", 1.0);
    out.put("setup.profile_s", s.profile_s);
    out.put("fault.injected", u.faults.total() as f64);
    crate::put_trace_overhead(out, wall_t, wall_u);
}
