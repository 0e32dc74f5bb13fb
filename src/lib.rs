//! # nmap-repro — reproduction of NMAP (MICRO'21)
//!
//! *NMAP: Power Management Based on Network Packet Processing Mode
//! Transition for Latency-Critical Workloads* — Kang et al.,
//! MICRO 2021.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`simcore`] — discrete-event simulation engine;
//! * [`cpusim`] — P-states, DVFS with re-transition latency,
//!   C-states, power/energy (RAPL);
//! * [`netsim`] — multi-queue NIC, RSS, interrupt moderation;
//! * [`napisim`] — the NAPI interrupt/polling state machine and
//!   ksoftirqd handoff rules;
//! * [`appsim`] — memcached/nginx service models and the full
//!   client-server testbed;
//! * [`workload`] — bursty open-loop load generation;
//! * [`governors`] — every baseline policy (ondemand,
//!   intel_pstate, menu, NCAP, Parties, …);
//! * [`nmap`] — the paper's contribution: the Mode Transition
//!   Monitor, Decision Engine, NMAP-simpl, and threshold profiler;
//! * [`experiments`] — the harness regenerating every table and
//!   figure (`cargo run --release -p experiments --bin repro -- all`).
//!
//! # Quickstart
//!
//! ```
//! use appsim::{AppModel, Testbed, TestbedConfig};
//! use governors::{MenuPolicy, Performance};
//! use simcore::{SimDuration, SimTime, Simulator};
//! use workload::LoadSpec;
//!
//! let cfg = TestbedConfig::new(
//!     AppModel::memcached(),
//!     LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
//! );
//! let mut sim = Simulator::new();
//! let mut tb = Testbed::new(cfg, Box::new(Performance::new()), Box::new(MenuPolicy::new(8)), &mut sim);
//! sim.run_until(&mut tb, SimTime::from_millis(300));
//! println!("p99 = {:?}", tb.client.latencies_mut().p99());
//! ```

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub use appsim;
pub use cpusim;
pub use experiments;
pub use governors;
pub use napisim;
pub use netsim;
pub use nmap;
pub use simcore;
pub use workload;

#[cfg(test)]
mod tests {
    /// The test profile is optimized (`opt-level = 1`) for speed; it
    /// must still catch what a debug build catches. A `--release` test
    /// run has neither check, so it fails here too.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn test_profile_keeps_debug_checks() {
        assert!(cfg!(debug_assertions), "debug assertions are off");
        let max = std::hint::black_box(u8::MAX);
        let sum = std::panic::catch_unwind(|| max + 1);
        assert!(sum.is_err(), "overflow checks are off");
    }
}
