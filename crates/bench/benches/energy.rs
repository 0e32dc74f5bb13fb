//! Energy-attribution overhead benches.
//!
//! The headline question: what does the per-segment microjoule meter
//! cost the simulation? `attribution_cell` times the `repro --quick`
//! `energy` artifact's representative cell (NMAP on memcached at high
//! load) end to end; run it once with default features (meters are
//! zero-sized no-ops) and once with `--features obs` (meters
//! attribute every segment) and compare:
//!
//! ```text
//! cargo bench -p nmap-bench --bench energy                 # obs off
//! cargo bench -p nmap-bench --bench energy --features obs  # obs on
//! ```
//!
//! The microbenches isolate three hot paths the feature adds — the
//! meter's `advance` (every power-integral segment), the flight
//! recorder's `record` (every governor decision) and the latency
//! attribution's per-request pipeline (`attrib/per_request_100k`) — so
//! a regression in any is visible without re-deriving it from the cell
//! delta. With `obs` off the attribution tracker is a no-op and its
//! microbench times an empty loop.

use experiments::GovernorKind;
use nmap_bench::criterion::{black_box, Criterion};
use nmap_bench::{bench_cell, nmap_cfg};
use nmap_bench::{criterion_group, criterion_main};
use simcore::{
    AttribTracker, BusyRole, ChainMarks, CoreEnergyMeter, DecisionTrigger, FlightRecorder,
    GovDecision, MeterClass, SimDuration, SimTime,
};
use workload::{AppKind, LoadLevel};

/// The `energy` artifact's representative cell, end to end. Compare
/// the obs-on and obs-off builds of this number for the attribution
/// overhead on a full simulation.
fn attribution_cell(c: &mut Criterion) {
    let cfg = nmap_cfg(AppKind::Memcached);
    let label = if CoreEnergyMeter::ENABLED {
        "energy_cell/nmap_memcached_high_obs_on"
    } else {
        "energy_cell/nmap_memcached_high_obs_off"
    };
    c.bench_function(label, |b| {
        b.iter(|| {
            black_box(bench_cell(
                AppKind::Memcached,
                LoadLevel::High,
                GovernorKind::Nmap(cfg),
            ))
        })
    });
}

/// The meter's per-segment cost in isolation: one million accounting
/// segments cycling through the activity classes and both busy roles,
/// with a wake-window split every 16th segment — the same mix a busy
/// polling core produces.
fn meter_advance(c: &mut Criterion) {
    c.bench_function("energy_meter/advance_1m_segments", |b| {
        b.iter(|| {
            let mut m = CoreEnergyMeter::new();
            let mut now = SimTime::ZERO;
            for i in 0u64..1_000_000 {
                now += SimDuration::from_nanos(640 + (i % 7) * 90);
                match i % 4 {
                    0 => {
                        m.set_role(if i % 8 == 0 {
                            BusyRole::Irq
                        } else {
                            BusyRole::App
                        });
                        m.advance(
                            now,
                            28.5,
                            MeterClass::Busy {
                                index: (i % 16) as usize,
                                len: 16,
                            },
                        );
                    }
                    1 => {
                        if i % 16 == 1 {
                            m.note_wake(now + SimDuration::from_nanos(300));
                        }
                        m.advance(now, 8.2, MeterClass::IdleC0);
                    }
                    2 => m.advance(now, 3.5, MeterClass::SleepC1),
                    _ => m.advance(now, 0.12, MeterClass::SleepC6),
                }
            }
            black_box(m.measured_uj())
        })
    });
}

/// The flight recorder's per-decision cost at steady state (ring full,
/// every record evicts).
fn recorder_record(c: &mut Criterion) {
    c.bench_function("flight_recorder/record_100k_decisions", |b| {
        b.iter(|| {
            let mut r = FlightRecorder::with_capacity(4096);
            for i in 0u64..100_000 {
                r.record(GovDecision {
                    at: SimTime::from_nanos(i * 1_000),
                    core: (i % 8) as u32,
                    trigger: DecisionTrigger::ALL[(i % 5) as usize],
                    util_permille: (i % 1000) as u32,
                    polling: i % 3 == 0,
                    queue_depth: (i % 64) as u32,
                    from_pstate: (i % 16) as u32,
                    to_pstate: ((i + 5) % 16) as u32,
                    chip_wide: false,
                });
            }
            black_box(r.total())
        })
    });
}

/// The attribution tracker's per-request cost in isolation: 100 k
/// sequential request ids through claim → deliver → app start → app
/// finish → complete, each step a quarter of the window behind the
/// last, so 512 requests are in flight at steady state.
fn attrib_per_request(c: &mut Criterion) {
    const REQUESTS: u64 = 100_000;
    const IN_FLIGHT: u64 = 512;
    c.bench_function("attrib/per_request_100k", |b| {
        b.iter(|| {
            let mut tr = AttribTracker::new();
            for step in 0..REQUESTS + IN_FLIGHT {
                let now = SimTime::from_micros(step);
                let id = |lag: u64| {
                    step.checked_sub(lag * IN_FLIGHT / 4)
                        .filter(|&id| id < REQUESTS)
                };
                if let Some(id) = id(0) {
                    let marks = ChainMarks {
                        irq_at: Some(now),
                        ..ChainMarks::default()
                    };
                    tr.claimed(id, SimTime::ZERO, now, now, &marks);
                }
                if let Some(id) = id(1) {
                    tr.delivered(id, now);
                }
                if let Some(id) = id(2) {
                    let ideal = SimDuration::from_micros(40 + id % 64);
                    tr.app_start(id, (id % 8) as u32, now, SimDuration::ZERO, ideal);
                }
                if let Some(id) = id(3) {
                    tr.app_finish(id, now);
                }
                if let Some(id) = id(4) {
                    black_box(tr.completed(id, now));
                }
            }
            black_box(tr.requests())
        })
    });
}

criterion_group!(
    name = energy;
    config = Criterion::default().sample_size(10);
    targets = attribution_cell, meter_advance, recorder_record, attrib_per_request
);
criterion_main!(energy);
