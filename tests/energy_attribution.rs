//! Property suite for the energy attribution profiler: across every
//! governor and three load points, the per-core microjoule
//! decomposition must be *integer-exact* — attributed components sum
//! to the measured total for every core (no residuals, no double
//! counting), the mode split partitions the same energy, and the RAPL
//! counter never has to clamp a regressing read. The flight recorder
//! rides along: its counters must be internally consistent and its
//! snapshots physically plausible for every governor.
//!
//! The rendered `energy` artifact is pinned as
//! `tests/golden/quick_energy.txt` (regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test energy_attribution`).

#![cfg(feature = "obs")]

use experiments::{run_many, GovernorKind, RunConfig, RunResult, Scale};
use nmap::NmapConfig;
use simcore::{DecisionTrigger, EnergyComponent, SimDuration};
use workload::{AppKind, LoadSpec};

fn every_governor() -> Vec<GovernorKind> {
    vec![
        GovernorKind::Performance,
        GovernorKind::Powersave,
        GovernorKind::Userspace(7),
        GovernorKind::Ondemand,
        GovernorKind::Conservative,
        GovernorKind::Schedutil,
        GovernorKind::IntelPowersave,
        GovernorKind::NmapSimpl,
        GovernorKind::Nmap(NmapConfig::new(32, 1.0)),
        GovernorKind::NmapOnline,
        GovernorKind::Ncap(50_000.0),
        GovernorKind::NcapMenu(50_000.0),
        GovernorKind::Parties,
    ]
}

/// Three operating points: comfortably idle (deep sleep and wake
/// transitions dominate), busy, and saturating (sustained polling and
/// ksoftirqd — the segments where role tagging is hardest to keep
/// exact).
fn loads() -> Vec<LoadSpec> {
    vec![
        LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
        LoadSpec::custom(150_000.0, SimDuration::from_millis(100), 0.4, 0.3),
        LoadSpec::custom(450_000.0, SimDuration::from_millis(100), 0.4, 0.3),
    ]
}

fn sweep() -> Vec<(GovernorKind, RunResult)> {
    let mut cells = Vec::new();
    let mut configs = Vec::new();
    for gov in every_governor() {
        for load in loads() {
            cells.push(gov);
            configs.push(RunConfig {
                warmup: SimDuration::from_millis(50),
                duration: SimDuration::from_millis(250),
                ..RunConfig::new(AppKind::Memcached, load, gov, Scale::Quick)
            });
        }
    }
    cells.into_iter().zip(run_many(configs)).collect()
}

/// The conservation identity, per cell: every microjoule the power
/// model emitted is attributed to exactly one component, the mode
/// split partitions the same core energy, and nothing forced the RAPL
/// counter to clamp.
fn assert_conserving(label: &str, r: &RunResult) {
    let e = &r.energy;
    assert!(
        e.measured_total_uj() > 0,
        "{label}: no energy measured over the window"
    );
    assert_eq!(
        e.measured_total_uj(),
        e.attributed_total_uj(),
        "{label}: attributed µJ drifted from measured µJ"
    );
    let mut core_total = 0u64;
    for c in &e.cores {
        assert_eq!(
            c.measured_uj,
            c.breakdown.total_uj(),
            "{label}: core {} attribution is not exact",
            c.core
        );
        core_total += c.measured_uj;
    }
    assert_eq!(
        e.modes.total_uj(),
        core_total,
        "{label}: interrupt + polling + transition must partition core energy"
    );
    assert_eq!(e.rapl_clamps, 0, "{label}: power integral regressed");
    assert!(
        e.uncore_uj > 0,
        "{label}: uncore burns for the whole window"
    );
    // The integer integral tracks the f64 energy the run reports
    // (remainder-carry quantization bounds per-core drift at 1 µJ).
    let f64_uj = r.energy_j * 1e6;
    let diff = (e.measured_total_uj() as f64 - f64_uj).abs();
    assert!(
        diff / f64_uj < 1e-4,
        "{label}: integer µJ {} vs f64 {} µJ",
        e.measured_total_uj(),
        f64_uj
    );
}

#[test]
fn attribution_is_integer_exact_for_every_governor_and_load() {
    for (gov, r) in sweep() {
        let label = format!("{gov:?}");
        assert_conserving(&label, &r);
        // Every run burns idle-C0 or sleep somewhere, and every run
        // that served requests spent busy energy on them.
        let e = &r.energy;
        let busy: u64 = [
            EnergyComponent::BusyP0,
            EnergyComponent::BusyHigh,
            EnergyComponent::BusyLow,
            EnergyComponent::BusyPmin,
        ]
        .iter()
        .map(|&c| e.component_uj(c))
        .sum();
        assert!(busy > 0, "{label}: requests served but no busy energy");
        assert!(
            e.component_uj(EnergyComponent::Irq) > 0,
            "{label}: packet delivery always costs IRQ energy"
        );
    }
}

#[test]
fn flight_recorder_is_consistent_for_every_governor() {
    let mut decided: Vec<(GovernorKind, u64)> = Vec::new();
    for (gov, r) in sweep() {
        let label = format!("{gov:?}");
        let f = &r.gov_flight;
        let by_trigger: u64 = f.by_trigger.iter().sum();
        assert_eq!(
            by_trigger, f.total,
            "{label}: per-trigger counts must sum to the total"
        );
        assert!(
            f.raises + f.lowers <= f.total,
            "{label}: directional counts exceed decisions"
        );
        assert_eq!(
            f.decisions.len() as u64 + f.evicted,
            f.total,
            "{label}: retained + evicted must equal recorded"
        );
        for d in &f.decisions {
            assert!(
                d.util_permille <= 1000,
                "{label}: utilization snapshot out of range"
            );
            assert!(d.to_pstate < 16, "{label}: implausible target P-state");
        }
        if f.total > 0 {
            assert!(
                DecisionTrigger::ALL.iter().any(|&t| f.trigger_count(t) > 0),
                "{label}: decisions must carry triggers"
            );
        }
        match decided.iter_mut().find(|(g, _)| *g == gov) {
            Some((_, n)) => *n += f.total,
            None => decided.push((gov, f.total)),
        }
    }
    // Static governors never act after their initial pin; every
    // dynamic governor decides somewhere across its three loads (a
    // single cell may legitimately sit still — conservative at steady
    // idle never crosses a threshold). Parties is excluded too: its
    // 500 ms latency-feedback period is longer than these 300 ms
    // runs, so it cannot fire before the cut.
    for (gov, total) in decided {
        let quiet = matches!(
            gov,
            GovernorKind::Performance
                | GovernorKind::Powersave
                | GovernorKind::Userspace(_)
                | GovernorKind::Parties
        );
        if !quiet {
            assert!(total > 0, "{gov:?}: dynamic governor never decided");
        }
    }
}

/// Conservation must survive fault injection: the chaos schedules
/// perturb IRQ delivery, wake timing, and DVFS latency, but every
/// joule still lands in exactly one bucket.
#[test]
fn attribution_stays_exact_under_chaos_schedules() {
    use experiments::figures::chaos::plans;
    for (plan_label, plan) in plans() {
        let cfg = RunConfig::new(
            AppKind::Memcached,
            LoadSpec::custom(150_000.0, SimDuration::from_millis(100), 0.4, 0.3),
            GovernorKind::Nmap(NmapConfig::new(32, 1.0)),
            Scale::Quick,
        )
        .with_seed(7)
        .with_fault_plan(plan);
        let r = experiments::run(cfg);
        assert_conserving(&format!("chaos/{plan_label}"), &r);
    }
}

/// The `energy` artifact is deterministic: the same cells produce the
/// same summaries (and the same rendered bytes) whether they run
/// serially or through `run_many`'s worker threads.
#[test]
fn energy_artifact_is_identical_serial_and_parallel() {
    use experiments::figures::energy::{configs, render};
    let cells = configs(Scale::Quick);
    let serial: Vec<RunResult> = cells.iter().cloned().map(experiments::run).collect();
    let parallel = run_many(cells);
    assert_eq!(serial, parallel, "worker threads must not perturb results");
    assert_eq!(
        render(&serial).to_string(),
        render(&parallel).to_string(),
        "rendered artifact must be byte-identical"
    );
}

/// The rendered artifact is pinned byte-for-byte, like the chaos and
/// breakdown fixtures: any drift in the meter's quantization, the
/// mode-boundary flushes, or the flight recorder shows up here
/// immediately.
#[test]
fn energy_artifact_matches_golden_fixture() {
    let reports = experiments::figures::generate("energy", Scale::Quick);
    assert_eq!(reports.len(), 1);
    let rendered = reports[0].to_string();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_energy.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test energy_attribution",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "energy artifact drifted against {}",
        path.display()
    );
}
