//! `fleet_chaos`: one 8-server NMAP fleet at about 100 K RPS per
//! server under the `fleet` artifact's composed crash / partition /
//! skew schedule, with the overload-control stack on. Run serially and
//! repeatedly (closed loop, one worker). Loads the `cluster` tier:
//! epoch lockstep, steering, probes, retries, hedges, breakers,
//! quantile harvest, the fault injector and fleet conservation.

use crate::catch;
use crate::digest::{self, DEFAULT_SEED};
use crate::report::{median, ratio, Outcome};
use crate::spans::SpanLog;
use cluster::{FleetConfig, FleetResult, GovernorKind, HedgePolicy, ProbePolicy, RetryPolicy};
use experiments::thresholds;
use simcore::SimDuration;
use std::time::Instant;
use workload::AppKind;

pub const NAME: &str = "fleet_chaos";
const PIN: &str = "fleet_chaos.fleet";
const SERVERS: usize = 8;
const RPS_PER_SERVER: f64 = 100_000.0;

/// The fleet: the `fleet` artifact's client policies and chaos
/// schedule on 8 servers, with overload control armed.
pub fn config(seed: u64) -> Result<FleetConfig, String> {
    let app = AppKind::Memcached;
    let chaos = experiments::figures::fleet::plans()
        .into_iter()
        .find(|(name, _)| *name == "chaos")
        .ok_or("the fleet artifact has no chaos schedule")?
        .1;
    let gov = GovernorKind::Nmap(thresholds::nmap_config(app));
    Ok(
        FleetConfig::new(SERVERS, app, SERVERS as f64 * RPS_PER_SERVER, gov)
            .with_window(SimDuration::from_millis(100), SimDuration::from_millis(400))
            .with_seed(seed)
            .with_retry(RetryPolicy {
                timeout: SimDuration::from_millis(2),
                max_attempts: 3,
                backoff_base: SimDuration::from_micros(500),
                backoff_cap: SimDuration::from_millis(8),
            })
            .with_hedge(Some(HedgePolicy {
                quantile: 0.95,
                floor: SimDuration::from_micros(300),
            }))
            .with_probe(ProbePolicy {
                interval: SimDuration::from_millis(5),
                timeout: SimDuration::from_millis(1),
                fail_threshold: 3,
                ok_threshold: 2,
            })
            .with_fault_plan(chaos)
            .with_overload_control(),
    )
}

pub struct Setup {
    cfg: FleetConfig,
    profile_s: f64,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    thresholds::nmap_config(AppKind::Memcached);
    let profile_s = started.elapsed().as_secs_f64();
    let cfg = config(seed)?;
    cfg.validate()
        .map_err(|e| format!("invalid fleet config: {e}"))?;
    Ok(Setup { cfg, profile_s })
}

fn run(cfg: &FleetConfig) -> Result<FleetResult, String> {
    catch(|| cluster::try_run_fleet(cfg.clone()))?.map_err(|e| e.to_string())
}

fn check_result(r: &FleetResult, seed: u64, out: &mut Outcome) {
    out.check(
        r.admitted == r.completed + r.timed_out + r.shed + r.in_flight_at_end
            && r.dispatched
                == r.attempts_completed
                    + r.attempts_failed
                    + r.suppressed
                    + r.attempts_in_flight_at_end,
        || "fleet conservation identities do not balance".into(),
    );
    out.check(r.audit.is_balanced(), || {
        "fleet audit roll-up is unbalanced".into()
    });
    out.check(r.faults.total() > 0, || {
        "no fault injected: the fault plan is inert (feature compiled out?)".into()
    });
    out.check(r.completed > 0, || "fleet completed no request".into());
    if seed == DEFAULT_SEED {
        let got = digest::fnv64(digest::render_fleet(r).as_bytes());
        out.check(digest::pinned(PIN) == Some(got), || {
            format!("{PIN}: digest {got:#018x} does not match pinned.txt")
        });
    }
}

/// Requests that missed: timed out or shed at the front end, over
/// admitted. `FleetResult` keeps only a quantile sketch of completed
/// latencies, so completions over the SLO are not counted.
fn miss_frac(r: &FleetResult) -> f64 {
    ratio((r.timed_out + r.shed) as f64, r.admitted as f64)
}

fn sim_secs(cfg: &FleetConfig) -> f64 {
    (cfg.warmup + cfg.duration).as_secs_f64()
}

/// Repeats the fleet run (see [`crate::repeat`]).
pub fn timed(s: &Setup, seed: u64, seconds: f64, out: &mut Outcome) {
    let (walls, kernels, first) = crate::repeat(seconds, out, || run(&s.cfg));
    let Some(r) = first else { return };
    check_result(&r, seed, out);
    crate::put_one_cell_times(out, &walls, &kernels, sim_secs(&s.cfg));
    out.put("sim_p99_us", r.p99.as_nanos() as f64 / 1e3);
    out.put("sim_energy_j", r.energy_j);
    out.put("sim_slo_met_frac", 1.0 - miss_frac(&r));
    eprintln!(
        "{NAME}: {} fleet run(s) after a warm-up, 1 worker",
        walls.len()
    );
}

/// Alternating untraced and traced fleet runs. No seam inside
/// `cluster` reaches the servers' policies, so the trace is the fleet
/// spans alone.
pub fn traced(s: &Setup, seed: u64, out: &mut Outcome, spans: &mut SpanLog) {
    const ROUNDS: usize = 5;
    let root = spans.open(format!("workload:{NAME}"), None);
    let artifact = spans.open("artifact:fleet", Some(root));
    let (mut walls_u, mut walls_t) = (Vec::new(), Vec::new());
    let mut first: Option<FleetResult> = None;
    for _ in 0..ROUNDS {
        out.attempted += 2;
        let t0 = Instant::now();
        let untraced = run(&s.cfg);
        walls_u.push(t0.elapsed().as_secs_f64());
        let cell = spans.open("cell:fleet/nmap/chaos", Some(artifact));
        let t0 = Instant::now();
        let traced = run(&s.cfg);
        walls_t.push(t0.elapsed().as_secs_f64());
        spans.close(cell);
        let (u, t) = match (untraced, traced) {
            (Ok(u), Ok(t)) => (u, t),
            (Err(e), _) | (_, Err(e)) => return out.cell_failed(format!("fleet run failed: {e}")),
        };
        out.check(t == u, || {
            "traced fleet result differs from the untraced one".into()
        });
        match &first {
            None => {
                check_result(&u, seed, out);
                first = Some(u);
            }
            Some(f) => {
                out.check(*f == u, || "fleet result changed between runs".into());
            }
        }
    }
    spans.close(artifact);
    spans.close(root);
    let Some(u) = first else { return };
    let (wall_u, wall_t) = (median(&walls_u), median(&walls_t));

    out.put(
        "fleet.attempts_per_request",
        ratio(u.dispatched as f64, u.admitted as f64),
    );
    out.put(
        "fleet.hedge_waste_frac",
        ratio(u.suppressed as f64, u.dispatched as f64),
    );
    out.put("fleet.retries", u.retries as f64);
    out.put("fleet.shed_frac", ratio(u.shed as f64, u.admitted as f64));
    out.put("fleet.breaker_opens", u.breaker_opens as f64);
    out.put(
        "fleet.host_us_per_request",
        ratio(wall_u * 1e6, u.admitted as f64),
    );
    out.put("fault.injected", u.faults.total() as f64);
    out.put("sweep.cells_requested", 1.0);
    out.put("sweep.cells_run", 1.0);
    out.put("sweep.recurring_frac", 0.0);
    out.put("sweep.worker_busy_frac", 1.0);
    out.put("setup.profile_s", s.profile_s);
    out.put("cell_s_p90", wall_u);
    out.put("testbed.self_share", 1.0);
    crate::put_trace_overhead(out, wall_t, wall_u);
}
