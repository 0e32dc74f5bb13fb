//! `chaos` (beyond-paper artifact): the chaos soak — every governor
//! under composed fault schedules.
//!
//! Three deterministic [`FaultPlan`]s stress a different layer each:
//!
//! * **net** — wire loss, lost IRQs, a clamped Rx ring, an ITR
//!   override, and an incast burst;
//! * **kernel** — missed ksoftirqd wakes, a clamped poll budget,
//!   NAPI-signal starvation then stale replays, a stuck-masked IRQ
//!   vector, and spurious IRQs;
//! * **power** — DVFS write-latency spikes, thermal throttling,
//!   transient core stalls, a load spike, and connection churn.
//!
//! Every run self-audits its conservation ledger, so the table below
//! is only printed for runs whose accounting identities — including
//! the explicit `PacketsFaultDropped` ledger — balanced. The recovery columns join
//! each fault window with the SLO watchdog's violation episodes:
//! time-to-recover per governor, the operational robustness metric.
//!
//! All fault windows close by 620 ms, well before even the quick-scale
//! run ends, so the drain tail shows which governors re-converge and
//! which stay wedged.

use crate::report::{self, FigureReport};
use crate::runner::{GovernorKind, RunConfig, RunResult, Scale};
use crate::supervisor::Supervisor;
use nmap::NmapConfig;
use simcore::{FaultKind, FaultPlan, FaultScope, SimDuration, SimTime};
use workload::{AppKind, LoadSpec};

/// Every governor the repo implements, with a report label. Thresholds
/// are pinned (the same values the golden fixtures use) rather than
/// profiled: the soak's moderate load must still cross NMAP's NI
/// threshold so the degradation machinery has a mode to degrade from,
/// and a profiling pre-run would double the sweep's cost.
pub fn all_governors(_app: AppKind) -> Vec<(&'static str, GovernorKind)> {
    vec![
        ("performance", GovernorKind::Performance),
        ("powersave", GovernorKind::Powersave),
        ("userspace7", GovernorKind::Userspace(7)),
        ("ondemand", GovernorKind::Ondemand),
        ("conservative", GovernorKind::Conservative),
        ("schedutil", GovernorKind::Schedutil),
        ("intel_pwrsave", GovernorKind::IntelPowersave),
        ("nmap_simpl", GovernorKind::NmapSimpl),
        ("nmap", GovernorKind::Nmap(NmapConfig::new(32, 1.0))),
        ("nmap_online", GovernorKind::NmapOnline),
        ("ncap", GovernorKind::Ncap(50_000.0)),
        ("ncap_menu", GovernorKind::NcapMenu(50_000.0)),
        ("parties", GovernorKind::Parties),
    ]
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn win(start: u64, end: u64) -> FaultScope {
    FaultScope::window(ms(start), ms(end))
}

/// The three composed schedules. Windows sit inside `[250 ms, 620 ms)`
/// so they fit the quick-scale run (200 ms warm-up + 800 ms measured)
/// with a ≥380 ms fault-free drain tail for recovery.
pub fn plans() -> Vec<(&'static str, FaultPlan)> {
    let net = FaultPlan::new()
        .with_seed(11)
        .inject(FaultKind::WireDrop { prob: 0.05 }, win(250, 600))
        .inject(FaultKind::IrqLoss { prob: 0.10 }, win(300, 550))
        .inject(FaultKind::RxRingClamp { capacity: 64 }, win(350, 500))
        .inject(
            FaultKind::ItrOverride {
                itr: SimDuration::from_micros(200),
            },
            win(300, 500),
        )
        .inject(FaultKind::IncastBurst { requests: 300 }, win(400, 401));
    let kernel = FaultPlan::new()
        .with_seed(22)
        .inject(
            FaultKind::MissedKsoftirqdWake {
                delay: SimDuration::from_micros(200),
                prob: 0.30,
            },
            win(250, 600),
        )
        .inject(FaultKind::PollBudgetClamp { budget: 8 }, win(300, 550))
        // Complete signal starvation for 100 ms (dead notification
        // channel), then a stuck notification path that claims
        // mid-burst polling every 500 µs for 180 ms: the replays drive
        // cores into Network-Intensive mode during idle gaps with no
        // real work behind them, which NMAP's degradation watchdog
        // must detect (stale-window trigger), fall back from, and
        // hysteretically recover from once real signals resume.
        .inject(FaultKind::NapiSignalLoss { prob: 1.0 }, win(250, 350))
        .inject(
            FaultKind::NapiSignalStuck {
                period: SimDuration::from_micros(500),
            },
            win(440, 620),
        )
        .inject(FaultKind::StuckIrqMask, win(350, 400).on_core(2))
        .inject(
            FaultKind::SpuriousIrq {
                period: SimDuration::from_micros(100),
            },
            win(300, 500).on_core(1),
        );
    let power = FaultPlan::new()
        .with_seed(33)
        .inject(
            FaultKind::DvfsLatencySpike {
                extra: SimDuration::from_micros(500),
            },
            win(250, 600),
        )
        .inject(FaultKind::ThermalThrottle { floor: 6 }, win(300, 500))
        .inject(
            FaultKind::CoreStall {
                stall: SimDuration::from_micros(50),
            },
            win(350, 450).on_core(0),
        )
        .inject(FaultKind::LoadSpike { factor: 1.5 }, win(250, 450))
        .inject(FaultKind::ConnectionChurn { shift: 3 }, win(400, 401));
    vec![("net", net), ("kernel", kernel), ("power", power)]
}

/// A moderate steady load: enough traffic that every fault window has
/// packets to bite, light enough that the soak stays CI-sized.
fn chaos_load() -> LoadSpec {
    LoadSpec::custom(30_000.0, SimDuration::from_millis(100), 0.4, 0.3)
}

/// The sweep: plan-major, 3 schedules × 13 governors.
pub fn sweep(scale: Scale, sup: &Supervisor) -> Vec<RunResult> {
    let app = AppKind::Memcached;
    let mut configs = Vec::new();
    for (_, plan) in plans() {
        for (_, gov) in all_governors(app) {
            configs.push(
                RunConfig::new(app, chaos_load(), gov, scale)
                    .with_seed(7)
                    .with_fault_plan(plan.clone()),
            );
        }
    }
    sup.run_many(configs)
}

fn fmt_recovery_ns(ns: u64) -> String {
    if ns == 0 {
        "-".into()
    } else {
        report::fmt_dur(SimDuration::from_nanos(ns))
    }
}

/// Renders the artifact from a completed sweep (separated from
/// [`chaos`] so the golden test can drive it at a fixed scale).
pub fn render(results: &[RunResult]) -> FigureReport {
    let mut body = String::new();
    let governors = all_governors(AppKind::Memcached);
    for (pi, (plan_label, plan)) in plans().iter().enumerate() {
        let kinds: Vec<&'static str> = plan.specs.iter().map(|s| s.kind.label()).collect();
        body.push_str(&format!("\n[{plan_label} chaos — {}]\n", kinds.join(", ")));
        let headers = [
            "governor",
            "sent",
            "recv",
            "fault-drop",
            "nic-drop",
            "p99",
            "faults",
            "degr",
            "recov",
            "episodes",
            "mean-slo-recover",
            "max-slo-recover",
        ];
        let mut rows = Vec::new();
        for (gi, (gov_label, _)) in governors.iter().enumerate() {
            let r = &results[pi * governors.len() + gi];
            let rec = &r.fault_recovery;
            rows.push(vec![
                (*gov_label).to_string(),
                r.sent.to_string(),
                r.received.to_string(),
                r.faults.wire_dropped().to_string(),
                r.rx_dropped.to_string(),
                report::fmt_dur(r.p99),
                r.faults.total().to_string(),
                r.degradation.degradations.to_string(),
                r.degradation.recoveries.to_string(),
                format!("{}/{}", rec.recovered, rec.attributed),
                fmt_recovery_ns(rec.mean_recovery_ns),
                fmt_recovery_ns(rec.max_recovery_ns),
            ]);
        }
        body.push_str(&report::table(&headers, rows));
    }
    body.push_str(
        "\nEvery row passed its conservation audit: requests sent equal \
         requests delivered plus explicitly accounted fault and NIC drops \
         plus in-flight tail — no governor wedges into silent loss. \
         `degr`/`recov` count NMAP's graceful-degradation engagements \
         (utilization fallback under NAPI-signal starvation) and its \
         hysteretic re-engagements; `episodes` shows SLO-violation \
         episodes recovered vs attributed to a fault window, and the \
         recovery columns give the fault-onset → SLO-recovery time.\n",
    );
    FigureReport::new(
        "chaos",
        "Chaos soak: all governors under composed fault schedules",
        body,
    )
}

/// Builds the artifact: 3 composed fault schedules × 13 governors.
pub fn chaos(scale: Scale, sup: &Supervisor) -> FigureReport {
    render(&sweep(scale, sup))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_fit_the_quick_run_with_a_drain_tail() {
        for (label, plan) in plans() {
            assert!(!plan.is_empty(), "{label}: empty plan");
            assert!(plan.seed.is_some(), "{label}: plans pin their own seed");
            for spec in &plan.specs {
                assert!(spec.scope.start >= ms(250), "{label}: starts in warm-up");
                assert!(spec.scope.end <= ms(620), "{label}: no drain tail");
            }
        }
    }

    #[test]
    fn schedules_compose_distinct_fault_kinds() {
        for (label, plan) in plans() {
            let mut kinds: Vec<&'static str> = plan.specs.iter().map(|s| s.kind.label()).collect();
            let n = kinds.len();
            kinds.sort_unstable();
            kinds.dedup();
            assert!(n >= 5, "{label}: composed schedules stack ≥5 faults");
            assert_eq!(kinds.len(), n, "{label}: duplicate fault kind");
        }
    }
}
