//! `sweep_quick`: golden-backed quick artifacts (`fig14`, whose sweep
//! also yields `fig15`, then `breakdown`) generated back to back through
//! `figures::generate_with` under one `Supervisor`, whose worker pool
//! runs the cells (closed loop: a worker takes its next cell when the
//! previous one finishes). Both apps, three loads, five governors; 42
//! cells requested of which 33 are distinct, so 21% recur (35% of
//! `repro --quick all`'s 275 requested cells do).
//!
//! Every cell passes through the supervisor's runner seam
//! (`Supervisor::with_runner`), which times it and, for seeds other
//! than the default, shifts its seed by `seed - DEFAULT_SEED`.

use crate::digest::{self, DEFAULT_SEED};
use crate::probe::{self, LayerTally, HOOKS};
use crate::queue::{self, QueueShape};
use crate::report::{self, median, ratio, Outcome};
use crate::spans::SpanLog;
use crate::speed;
use crate::{catch, sim_secs, slo_misses, CellCounts};
use experiments::figures;
use experiments::{thresholds, GovernorKind, RunConfig, RunResult, Scale, Supervisor};
use simcore::{SimTime, TimelineConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use workload::{AppKind, LoadLevel, LoadSpec};

pub const NAME: &str = "sweep_quick";
const ARTIFACTS: [&str; 2] = ["fig14", "breakdown"];
/// Artifacts compared byte for byte, read-only, with the repository's
/// goldens at the default seed.
const GOLDEN: [(&str, &str); 1] = [("breakdown", "quick_breakdown.txt")];
/// Artifacts without a golden, checked against a pinned digest.
const PINNED: [&str; 2] = ["fig14", "fig15"];
const CELLS_PIN: &str = "sweep_quick.cells";

/// The sweep's reference cell, whose P99 is `sim_p99_us`.
fn reference_config() -> RunConfig {
    let app = AppKind::Memcached;
    RunConfig::new(
        app,
        LoadSpec::preset(app, LoadLevel::High),
        GovernorKind::Nmap(thresholds::nmap_config(app)),
        Scale::Quick,
    )
}

pub struct Setup {
    reference_key: u64,
    profile_s: f64,
}

pub fn setup() -> Result<Setup, String> {
    let started = Instant::now();
    thresholds::nmap_config(AppKind::Memcached);
    thresholds::nmap_config(AppKind::Nginx);
    let profile_s = started.elapsed().as_secs_f64();
    let reference = reference_config();
    reference
        .validate()
        .map_err(|e| format!("invalid reference cell: {e}"))?;
    Ok(Setup {
        reference_key: experiments::cell_key(&reference),
        profile_s,
    })
}

/// One call through the runner seam.
struct CellRecord {
    key: u64,
    started: Instant,
    secs: f64,
    /// The reference kernel's host time just before the cell, on the
    /// same worker (see [`speed`]); timed passes only.
    kernel: f64,
    sim_s: f64,
    /// The cell's canonical rendering (see `digest::render_cell`), or
    /// its error.
    render: Result<String, String>,
    p99_us: f64,
    energy_j: f64,
    sent: u64,
    misses: u64,
    /// The whole result, kept when the pass compares results.
    full: Option<RunResult>,
    traced: Option<(LayerTally, f64)>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Timed,
    /// Untraced, keeping whole results for comparison.
    Keep,
    Traced,
}

/// One sweep: every artifact, in order, under one supervisor.
struct Pass {
    wall: f64,
    reports: Vec<(String, String)>,
    cells: Vec<CellRecord>,
    /// Cell count after each artifact.
    bounds: Vec<usize>,
    quarantined: usize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_cell(
    cfg: RunConfig,
    budget: &simcore::StepBudget,
    mode: Mode,
) -> (
    Result<RunResult, simcore::SimError>,
    Option<(LayerTally, f64)>,
) {
    if mode != Mode::Traced {
        return (experiments::runner::try_run_budgeted(cfg, budget), None);
    }
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;
    let tally = Rc::new(RefCell::new(LayerTally::default()));
    let (result, mut tb) = experiments::runner::run_with_testbed(cfg, probe::instrument(&tally));
    let mut checks = Outcome::default();
    let extract_ms = crate::time_extraction(&mut tb, end, &mut checks);
    if !checks.correct() {
        return (
            Err(simcore::SimError::Accounting {
                context: "traced cell",
                reason: checks.problems.join("; "),
            }),
            None,
        );
    }
    let tally = tally.borrow().clone();
    (Ok(result), Some((tally, extract_ms)))
}

fn pass(offset: u64, mode: Mode) -> Pass {
    let log: Arc<Mutex<Vec<CellRecord>>> = Arc::default();
    let sink = Arc::clone(&log);
    let sup = Supervisor::new().with_runner(move |cfg, budget| {
        let key = experiments::cell_key(cfg);
        let mut cfg = cfg.clone();
        cfg.seed = cfg.seed.wrapping_add(offset);
        let sim_s = sim_secs(&cfg);
        let kernel = if mode == Mode::Timed {
            speed::sample()
        } else {
            0.0
        };
        let started = Instant::now();
        let (result, traced) = run_cell(cfg, budget, mode);
        // The traced cell's extraction re-runs the runner's summaries
        // and audit, which the untraced cell does not; it stays out of
        // the cell's host time.
        let extract_s = traced.as_ref().map_or(0.0, |(_, ms)| ms / 1e3);
        let secs = started.elapsed().as_secs_f64() - extract_s;
        let record = CellRecord {
            key,
            started,
            secs,
            kernel,
            sim_s,
            render: match &result {
                Ok(r) => Ok(digest::render_cell(r)),
                Err(e) => Err(e.to_string()),
            },
            p99_us: result
                .as_ref()
                .map_or(0.0, |r| r.p99.as_nanos() as f64 / 1e3),
            energy_j: result.as_ref().map_or(0.0, |r| r.energy_j),
            sent: result.as_ref().map_or(0, |r| r.sent),
            misses: result.as_ref().map_or(0, slo_misses),
            full: match (&result, mode) {
                (Ok(r), Mode::Keep | Mode::Traced) => Some(r.clone()),
                _ => None,
            },
            traced,
        };
        lock(&sink).push(record);
        result
    });
    let started = Instant::now();
    let mut reports = Vec::new();
    let mut bounds = Vec::new();
    for id in ARTIFACTS {
        for r in figures::generate_with(id, Scale::Quick, &sup) {
            reports.push((r.id.clone(), r.to_string()));
        }
        bounds.push(lock(&log).len());
    }
    let wall = started.elapsed().as_secs_f64();
    let quarantined = sup.quarantined().len();
    drop(sup);
    let cells = std::mem::take(&mut *lock(&log));
    Pass {
        wall,
        reports,
        cells,
        bounds,
        quarantined,
    }
}

fn golden_path(file: &str) -> String {
    format!("{}/../tests/golden/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Per-pass checks, against the goldens and pins too when `pinned`;
/// returns the distinct cells' renderings.
fn check_pass(p: &Pass, pinned: bool, out: &mut Outcome) -> BTreeMap<u64, String> {
    out.attempted += p.cells.len() as u64;
    if p.quarantined > 0 {
        out.cell_failed(format!("{} cell(s) quarantined", p.quarantined));
    }
    let mut distinct: BTreeMap<u64, String> = BTreeMap::new();
    for c in &p.cells {
        match &c.render {
            Err(e) => out.cell_failed(format!("cell {:016x} failed: {e}", c.key)),
            Ok(r) => match distinct.get(&c.key) {
                None => {
                    distinct.insert(c.key, r.clone());
                }
                Some(first) if first != r => out.cell_failed(format!(
                    "recurring cell {:016x} gave a different result",
                    c.key
                )),
                Some(_) => {}
            },
        }
    }
    let ids: BTreeSet<&str> = p.reports.iter().map(|(id, _)| id.as_str()).collect();
    out.check(ids.len() == 3, || {
        format!("expected fig14, fig15 and breakdown, got {ids:?}")
    });
    if pinned {
        for (id, file) in GOLDEN {
            let golden = std::fs::read_to_string(golden_path(file));
            let got = p.reports.iter().find(|(r, _)| r == id).map(|(_, t)| t);
            out.check(matches!((&golden, got), (Ok(g), Some(t)) if g == t), || {
                format!("{id} differs from tests/golden/{file}")
            });
        }
        for id in PINNED {
            let got = p
                .reports
                .iter()
                .find(|(r, _)| r == id)
                .map(|(_, t)| digest::fnv64(t.as_bytes()));
            let pin = format!("sweep_quick.{id}");
            out.check(got.is_some() && got == digest::pinned(&pin), || {
                format!("{pin}: digest {got:#018x?} does not match pinned.txt")
            });
        }
        let got = cells_digest(&distinct);
        out.check(digest::pinned(CELLS_PIN) == Some(got), || {
            format!("{CELLS_PIN}: digest {got:#018x} does not match pinned.txt")
        });
    }
    distinct
}

/// One digest over every distinct cell, independent of the order the
/// workers finished them in.
fn cells_digest(distinct: &BTreeMap<u64, String>) -> u64 {
    let mut renders: Vec<&String> = distinct.values().collect();
    renders.sort();
    digest::fnv64(renders.into_iter().cloned().collect::<String>().as_bytes())
}

fn put_sim(p: &Pass, reference_key: u64, out: &mut Outcome) {
    let mut seen = BTreeSet::new();
    let (mut energy, mut sent, mut misses) = (0.0, 0u64, 0u64);
    for c in p.cells.iter().filter(|c| c.render.is_ok()) {
        if seen.insert(c.key) {
            energy += c.energy_j;
            sent += c.sent;
            misses += c.misses;
        }
    }
    if let Some(r) = p.cells.iter().find(|c| c.key == reference_key) {
        out.put("sim_p99_us", r.p99_us);
    }
    out.put("sim_energy_j", energy);
    out.put("sim_slo_met_frac", 1.0 - ratio(misses as f64, sent as f64));
}

fn workers(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(cells.max(1))
}

/// Repeats the whole sweep until `seconds` would be exceeded (at least
/// once); every pass must reproduce the first.
pub fn timed(s: &Setup, seed: u64, seconds: f64, out: &mut Outcome) {
    let offset = seed.wrapping_sub(DEFAULT_SEED);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_cells = None;
    loop {
        let p = pass(offset, Mode::Timed);
        let cells = check_pass(&p, seed == DEFAULT_SEED, out);
        match (&first_cells, passes.first()) {
            (Some(first_cells), Some(first)) => {
                out.check(*first_cells == cells && first.reports == p.reports, || {
                    "cells or artifacts changed between passes".into()
                });
            }
            _ => first_cells = Some(cells),
        }
        passes.push(p);
        let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
        if started.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    // Each pass's host times, rescaled by the median of the kernel
    // samples its workers took between cells. The samples' own time
    // leaves the pass's wall time, shared among the workers.
    let kernels: Vec<f64> = passes
        .iter()
        .map(|p| median(&p.cells.iter().map(|c| c.kernel).collect::<Vec<_>>()))
        .collect();
    let walls: Vec<f64> = passes
        .iter()
        .zip(&kernels)
        .map(|(p, k)| {
            let sampling: f64 = p.cells.iter().map(|c| c.kernel).sum();
            speed::rescale(p.wall - sampling / workers(p.cells.len()) as f64, *k)
        })
        .collect();
    let cell_secs: Vec<f64> = passes
        .iter()
        .zip(&kernels)
        .flat_map(|(p, k)| p.cells.iter().map(move |c| speed::rescale(c.secs, *k)))
        .collect();
    let wall = median(&walls);
    out.put("wall_s", wall);
    out.put("cell_s_mean", report::mean(&cell_secs));
    out.put(
        "sim_s_per_s",
        passes[0].cells.iter().map(|c| c.sim_s).sum::<f64>() / wall,
    );
    put_sim(&passes[0], s.reference_key, out);
    eprintln!(
        "{NAME}: {} pass(es) of {} cells, {} workers, host s {:.3?}, median reference kernel s {kernels:.4?}",
        passes.len(),
        passes[0].cells.len(),
        workers(passes[0].cells.len()),
        passes.iter().map(|p| p.wall).collect::<Vec<_>>(),
    );
}

/// One untraced and one traced sweep, every traced cell compared with
/// its untraced twin; then the reference cell with the timeline off
/// and the engine-queue probe.
pub fn traced(s: &Setup, seed: u64, out: &mut Outcome, spans: &mut SpanLog) {
    let offset = seed.wrapping_sub(DEFAULT_SEED);
    let u = pass(offset, Mode::Keep);
    let distinct = check_pass(&u, seed == DEFAULT_SEED, out);

    let root = spans.open(format!("workload:{NAME}"), None);
    let t = pass(offset, Mode::Traced);
    spans.close(root);
    check_pass(&t, false, out);
    out.check(t.reports == u.reports, || {
        "traced artifacts differ from untraced ones".into()
    });
    let untraced: BTreeMap<u64, &RunResult> = u
        .cells
        .iter()
        .filter_map(|c| Some((c.key, c.full.as_ref()?)))
        .collect();
    for c in &t.cells {
        let same = matches!((c.full.as_ref(), untraced.get(&c.key)), (Some(a), Some(b)) if a == *b);
        if !same {
            out.cell_failed(format!(
                "traced cell {:016x} differs from its untraced run",
                c.key
            ));
        }
    }
    record_spans(&t, root, spans);

    // Engine counts over the untraced cells, from their metrics.
    let mut engine = QueueShape {
        executed: 0,
        scheduled: 0,
        cancelled: 0,
        max_pending: 0,
        sim_ns: 0,
    };
    let mut requests = 0;
    let mut reference_shape = None;
    for c in &u.cells {
        let Some(r) = &c.full else { continue };
        let m = |k: &str| r.metrics.counter(k).unwrap_or(0);
        let shape = QueueShape {
            executed: m("engine.events_executed"),
            scheduled: m("engine.events_scheduled"),
            cancelled: m("engine.events_cancelled"),
            max_pending: m("engine.max_pending"),
            sim_ns: (c.sim_s * 1e9) as u64,
        };
        engine.executed += shape.executed;
        engine.scheduled += shape.scheduled;
        engine.cancelled += shape.cancelled;
        engine.max_pending = engine.max_pending.max(shape.max_pending);
        requests += m("attrib.requests");
        if c.key == s.reference_key {
            reference_shape = Some(shape);
        }
    }
    let untraced_host: f64 = u.cells.iter().map(|c| c.secs).sum();
    let traced_host: f64 = t.cells.iter().map(|c| c.secs).sum();
    let queue_ns = reference_shape.map_or(0.0, |shape| queue::ns_per_event(shape, 4_000_000, seed));
    crate::put_engine(out, engine, requests, untraced_host, queue_ns);

    let mut tally = LayerTally::default();
    let mut counts = CellCounts::default();
    let mut extract_ms = Vec::new();
    for c in &t.cells {
        if let (Some((cell_tally, ms)), Some(r)) = (&c.traced, &c.full) {
            tally.merge(cell_tally);
            counts.add(r);
            extract_ms.push(*ms);
        }
    }
    crate::put_layers(
        out,
        &tally,
        counts,
        1,
        traced_host,
        untraced_host,
        queue_ns * engine.executed as f64,
    );

    // Timeline cost: the reference cell with the default timeline and
    // with it off, alternating.
    let reference = reference_config().with_seed(reference_config().seed.wrapping_add(offset));
    let (mut walls_on, mut walls_off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (cfg, walls) in [
            (reference.clone(), &mut walls_on),
            (
                reference.clone().with_timeline(TimelineConfig::OFF),
                &mut walls_off,
            ),
        ] {
            let t0 = Instant::now();
            let run = catch(|| experiments::run_profiled(cfg));
            walls.push(t0.elapsed().as_secs_f64());
            out.check(run.is_ok(), || "reference cell failed".into());
        }
    }
    out.put(
        "obs.timeline_share",
        1.0 - median(&walls_off) / median(&walls_on),
    );
    out.put("runner.extract_ms", median(&extract_ms));
    let cell_secs: Vec<f64> = u.cells.iter().map(|c| c.secs).collect();
    out.put("cell_s_p90", report::quantile(&cell_secs, 0.9));

    // Requested cells each end in one successful seam call or in
    // quarantine; retries add seam calls.
    let requested = u.cells.iter().filter(|c| c.render.is_ok()).count() + u.quarantined;
    out.put("sweep.cells_requested", requested as f64);
    out.put("sweep.cells_run", u.cells.len() as f64);
    out.put(
        "sweep.recurring_frac",
        1.0 - ratio(distinct.len() as f64, requested as f64),
    );
    out.put(
        "sweep.worker_busy_frac",
        ratio(untraced_host, workers(requested) as f64 * u.wall),
    );
    out.put("setup.profile_s", s.profile_s);
    let injected: u64 = u
        .cells
        .iter()
        .filter_map(|c| c.full.as_ref())
        .map(|r| r.faults.total())
        .sum();
    out.put("fault.injected", injected as f64);
    // The traced pass's extraction calls ran on the workers alongside
    // its cells; their share of the pass leaves its wall time too.
    let extract_s: f64 = extract_ms.iter().sum::<f64>() / 1e3;
    let traced_wall = t.wall - extract_s / workers(requested) as f64;
    crate::put_trace_overhead(out, traced_wall, u.wall);
}

/// Artifact and cell spans of the traced pass, with per-hook
/// aggregates under each cell.
fn record_spans(p: &Pass, root: usize, spans: &mut SpanLog) {
    let mut from = 0;
    for (id, &to) in ARTIFACTS.iter().zip(&p.bounds) {
        let cells = &p.cells[from..to];
        let start = cells
            .iter()
            .map(|c| spans.ns_at(c.started))
            .min()
            .unwrap_or(0);
        let end = cells
            .iter()
            .map(|c| spans.ns_at(c.started) + (c.secs * 1e9) as u64)
            .max()
            .unwrap_or(start);
        let artifact = spans.interval(format!("artifact:{id}"), Some(root), start, end);
        for c in cells {
            let s = spans.ns_at(c.started);
            let cell = spans.interval(
                format!("cell:{:016x}", c.key),
                Some(artifact),
                s,
                s + (c.secs * 1e9) as u64,
            );
            if let Some((tally, _)) = &c.traced {
                for ((span, _, _), stat) in HOOKS.iter().zip(tally.governor) {
                    spans.aggregate(*span, cell, stat.ns);
                }
                spans.aggregate("sleep", cell, tally.sleep.ns);
            }
        }
        from = to;
    }
}
