//! Quickstart: simulate a memcached server for half a second under
//! two governors and compare tail latency and energy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use appsim::{AppModel, Testbed, TestbedConfig};
use governors::{MenuPolicy, Ondemand, PStateGovernor, Performance, SleepPolicy};
use simcore::{SimDuration, SimTime, Simulator};
use workload::LoadSpec;

fn simulate(name: &str, governor: Box<dyn PStateGovernor>, sleep: Box<dyn SleepPolicy>) {
    // 100K requests/s arriving in 100 ms bursts with a 40% duty cycle.
    let load = LoadSpec::custom(100_000.0, SimDuration::from_millis(100), 0.4, 0.3);
    let cfg = TestbedConfig::new(AppModel::memcached(), load).with_seed(7);
    let mut sim = Simulator::new();
    let mut tb = Testbed::new(cfg, governor, sleep, &mut sim);

    // Warm up 100 ms, then measure 500 ms.
    sim.run_until(&mut tb, SimTime::from_millis(100));
    tb.begin_measurement(sim.now());
    sim.run_until(&mut tb, SimTime::from_millis(600));

    let now = sim.now();
    let p99 = tb.client.latencies().p99();
    let energy = tb.measured_energy(now);
    let watts = energy / tb.measured_duration(now).as_secs_f64();
    println!(
        "{name:>12}:  {} requests, p99 = {p99}, package power = {watts:.1} W",
        tb.client.received(),
    );
}

fn main() {
    println!("memcached @ 100K RPS, bursty, 8-core Xeon Gold 6134 model\n");
    let table = cpusim::ProcessorProfile::xeon_gold_6134().pstates;
    simulate(
        "performance",
        Box::new(Performance::new()),
        Box::new(MenuPolicy::new(8)),
    );
    simulate(
        "ondemand",
        Box::new(Ondemand::new(table, 8)),
        Box::new(MenuPolicy::new(8)),
    );
    println!("\nperformance buys the lowest tail by burning the most power;");
    println!("ondemand saves power but lets bursts pile up before it reacts.");
    println!("Run `cargo run --release -p experiments --bin repro -- fig12` for the full matrix.");
}
