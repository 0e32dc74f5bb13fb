//! Fleet-tier benches.
//!
//! The headline question: what does cluster chaos cost the fleet
//! simulation? `fleet_cell` times a small two-server fleet twice in
//! the same binary — once calm, once under a composed crash +
//! hash-skew schedule — so the chaos/calm ratio is one bench run and
//! machine speed cancels out of the quotient. The regression gate
//! treats that ratio as advisory: a blow-up means the retry/hedge
//! machinery started storming, not that the runner was slow.
//!
//! ```text
//! cargo bench -p nmap-bench --bench fleet
//! ```

use cluster::{FleetConfig, GovernorKind};
use nmap_bench::criterion::{black_box, Criterion};
use nmap_bench::nmap_cfg;
use nmap_bench::{criterion_group, criterion_main};
use simcore::fault::{FaultKind, FaultPlan, FaultScope};
use simcore::{SimDuration, SimTime};
use workload::AppKind;

fn base_cfg() -> FleetConfig {
    FleetConfig::new(
        2,
        AppKind::Memcached,
        20_000.0,
        GovernorKind::Nmap(nmap_cfg(AppKind::Memcached)),
    )
    .with_window(SimDuration::from_millis(20), SimDuration::from_millis(60))
    .with_seed(13)
}

fn chaos_cfg() -> FleetConfig {
    let ms = |v: u64| SimTime::from_millis(v);
    let plan = FaultPlan::new()
        .with_seed(13)
        .inject(
            FaultKind::ServerCrash,
            FaultScope::window(ms(30), ms(55)).on_core(1),
        )
        .inject(
            FaultKind::HashSkew { factor: 3.0 },
            FaultScope::window(ms(25), ms(70)),
        );
    base_cfg().with_fault_plan(plan)
}

/// The fleet cell, calm vs chaos. The chaos/calm ratio feeds the
/// advisory overhead check in `scripts/bench_gate.py`.
fn fleet_cell(c: &mut Criterion) {
    c.bench_function("fleet_cell/calm", |b| {
        b.iter(|| black_box(cluster::run_fleet(base_cfg())))
    });
    c.bench_function("fleet_cell/chaos", |b| {
        b.iter(|| black_box(cluster::run_fleet(chaos_cfg())))
    });
}

criterion_group!(benches, fleet_cell);
criterion_main!(benches);
