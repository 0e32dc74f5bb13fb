//! Shared helpers for the benchmark suite.
//!
//! The benches serve two roles:
//!
//! * **`benches/figures.rs` / `benches/ablations.rs`** — one bench per
//!   paper table/figure: each iteration runs the representative
//!   simulation cell behind that artifact, so `cargo bench` both
//!   times the harness and re-exercises every experiment; the full
//!   rows/series are regenerated by
//!   `cargo run --release -p experiments --bin repro -- all`.
//! * **`benches/engine.rs`** — microbenchmarks of the simulation
//!   engine itself (event queue, statistics, RNG, NIC/NAPI hot
//!   paths).

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod criterion;

use experiments::{GovernorKind, RunConfig, RunResult, Scale};
use simcore::SimDuration;
use workload::{AppKind, LoadLevel, LoadSpec};

/// A short (50 ms measured) run of one experiment cell — the unit of
/// work the figure benches repeat.
pub fn bench_cell(app: AppKind, level: LoadLevel, governor: GovernorKind) -> RunResult {
    let cfg = RunConfig {
        warmup: SimDuration::from_millis(20),
        duration: SimDuration::from_millis(50),
        ..RunConfig::new(app, LoadSpec::preset(app, level), governor, Scale::Quick)
    };
    experiments::run(cfg)
}

/// The NMAP config used by benches (profiled once, memoized).
pub fn nmap_cfg(app: AppKind) -> nmap::NmapConfig {
    experiments::thresholds::nmap_config(app)
}

#[cfg(test)]
mod tests {
    /// The disabled energy-attribution stack must cost literally
    /// nothing: with `obs` off, the meter and recorder are zero-sized
    /// and every call on them compiles to a no-op — the baseline the
    /// `energy` bench's obs-off numbers rest on.
    #[test]
    fn disabled_attribution_is_zero_sized() {
        if !simcore::CoreEnergyMeter::ENABLED {
            assert_eq!(std::mem::size_of::<simcore::CoreEnergyMeter>(), 0);
            assert_eq!(std::mem::size_of::<simcore::FlightRecorder>(), 0);
        }
        // The summaries stay plain data either way; their defaults
        // are empty, not absent, so call sites need no cfg noise.
        assert_eq!(simcore::EnergySummary::default().measured_total_uj(), 0);
        assert_eq!(simcore::FlightSummary::default().total, 0);
        assert!(simcore::Timeline::default().is_empty());
    }
}
