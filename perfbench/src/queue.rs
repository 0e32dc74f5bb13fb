//! The engine-queue probe: host cost of the event queue alone.
//!
//! Drives a `simcore::Simulator` with a world that does nothing but
//! reschedule, shaped like a measured cell: the same number of pending
//! events, the same event rate per simulated second and the same
//! cancelled share. What it costs per event is what the queue and
//! dispatch loop cost the cell; the rest of the cell's time per event
//! is the model.

use simcore::{EventId, RngStream, SimDuration, SimTime, Simulator};
use std::time::Instant;

/// The queue shape of a measured cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueShape {
    pub executed: u64,
    pub scheduled: u64,
    pub cancelled: u64,
    pub max_pending: u64,
    /// Simulated nanoseconds the cell covered.
    pub sim_ns: u64,
}

struct World {
    rng: RngStream,
    /// Mean reschedule delay, ns.
    mean_delay: u64,
    /// Chance per event, in parts per million, of also scheduling a
    /// decoy and cancelling the previous one.
    decoy_ppm: u64,
    decoy: Option<EventId>,
    remaining: u64,
}

fn tick(w: &mut World, sim: &mut Simulator<World>) {
    if w.remaining == 0 {
        return;
    }
    w.remaining -= 1;
    let delay = w.rng.below(2 * w.mean_delay);
    sim.schedule_in(SimDuration::from_nanos(delay), tick);
    if w.rng.below(1_000_000) < w.decoy_ppm {
        if let Some(id) = w.decoy.take() {
            sim.cancel(id);
        }
        let delay = w.rng.below(2 * w.mean_delay);
        w.decoy = Some(sim.schedule_in(SimDuration::from_nanos(delay), |_, _| {}));
    }
}

/// Host nanoseconds per executed event of a no-op world with `shape`'s
/// queue, over at most `max_events` events.
pub fn ns_per_event(shape: QueueShape, max_events: u64, seed: u64) -> f64 {
    let pending = shape.max_pending.max(1);
    let executed = shape.executed.max(1);
    // Each pending chain fires every pending × (sim time per event).
    let mean_delay = (u128::from(pending) * u128::from(shape.sim_ns) / u128::from(executed))
        .clamp(1, u128::from(u32::MAX)) as u64;
    // A decoy adds one scheduled and one cancelled event per firing,
    // so a cancelled share c needs decoys at c / (1 - c) per event.
    let c = shape.cancelled as f64 / shape.scheduled.max(1) as f64;
    let decoy_ppm = ((c / (1.0 - c).max(1e-6)) * 1e6).clamp(0.0, 1e6) as u64;
    let mut world = World {
        rng: RngStream::from_seed(seed),
        mean_delay,
        decoy_ppm,
        decoy: None,
        remaining: shape.executed.min(max_events),
    };
    let mut sim: Simulator<World> = Simulator::new();
    for _ in 0..pending {
        let at = world.rng.below(2 * mean_delay);
        sim.schedule_at(SimTime::from_nanos(at), tick);
    }
    let started = Instant::now();
    sim.run_until(&mut world, SimTime::MAX);
    let wall = started.elapsed().as_nanos() as f64;
    wall / sim.profile().events_executed.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_runs_the_requested_events_and_reports_a_cost() {
        let shape = QueueShape {
            executed: 50_000,
            scheduled: 60_000,
            cancelled: 10_000,
            max_pending: 64,
            sim_ns: 10_000_000,
        };
        let ns = ns_per_event(shape, 20_000, 7);
        assert!(ns > 0.0 && ns.is_finite(), "{ns}");
    }
}
