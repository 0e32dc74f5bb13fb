//! Overload-control benches.
//!
//! The headline question: what does the admission gate cost when it
//! never fires? `overload_cell` times the same calm two-server fleet
//! twice in one binary — once with unbounded app queues, once with
//! the default sojourn admission gate (plus the rest of the
//! overload-control stack) — so the on/off ratio is one bench run and
//! machine speed cancels out of the quotient. On a calm fleet the
//! gate admits everything, so the ratio is pure bookkeeping overhead;
//! the regression gate treats anything past a few percent as an
//! advisory warning.
//!
//! ```text
//! cargo bench -p nmap-bench --bench overload
//! ```

use cluster::{FleetConfig, GovernorKind};
use nmap_bench::criterion::{black_box, Criterion};
use nmap_bench::nmap_cfg;
use nmap_bench::{criterion_group, criterion_main};
use simcore::SimDuration;
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

/// The calm fleet cell, admission (and the rest of the control
/// stack) off vs on. The on/off ratio feeds the advisory overhead
/// check in `scripts/bench_gate.py`.
fn overload_cell(c: &mut Criterion) {
    c.bench_function("overload_cell/admission_off", |b| {
        b.iter(|| black_box(cluster::run_fleet(base_cfg())))
    });
    c.bench_function("overload_cell/admission_on", |b| {
        b.iter(|| black_box(cluster::run_fleet(base_cfg().with_overload_control())))
    });
}

criterion_group!(benches, overload_cell);
criterion_main!(benches);
