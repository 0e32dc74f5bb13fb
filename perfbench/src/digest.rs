//! Exact digests of simulated outputs, and the pins they are checked
//! against.
//!
//! A digest hashes a canonical rendering of the simulated outputs a
//! user reads (the fields `tests/golden.rs` pins for a cell, the
//! request ledger and tail for a fleet), with every float by its bit
//! pattern. Host timing and engine event counts stay out, so a change
//! that only makes the simulator faster keeps every digest.
//!
//! `pinned.txt` holds the digests for the default seed. A failed pin
//! check prints the fresh digest, so after an intentional model change
//! the new values come from a seed-42 run's `CHECK FAILED` lines.

use cluster::FleetResult;
use experiments::RunResult;

/// The seed the pins hold for: `RunConfig::new`'s own default, so the
/// sweep's artifacts are the golden-pinned ones.
pub const DEFAULT_SEED: u64 = 42;

const PINNED: &str = include_str!("../pinned.txt");

/// FNV-1a, 64-bit: small, stable across platforms and releases.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The simulated outputs of one cell, floats by bit pattern.
pub fn render_cell(r: &RunResult) -> String {
    format!(
        "governor={} sleep={} sent={} received={} p50_ns={} p99_ns={} \
         frac_above_slo={:#018x} energy_j={:#018x} rx_dropped={} \
         dvfs_transitions={} c6_entries={}\n",
        r.governor,
        r.sleep,
        r.sent,
        r.received,
        r.p50.as_nanos(),
        r.p99.as_nanos(),
        r.frac_above_slo.to_bits(),
        r.energy_j.to_bits(),
        r.rx_dropped,
        r.dvfs_transitions,
        r.c6_entries,
    )
}

/// The simulated outputs of one fleet run, floats by bit pattern.
pub fn render_fleet(r: &FleetResult) -> String {
    format!(
        "governor={} admitted={} completed={} timed_out={} in_flight={} \
         dispatched={} failed={} suppressed={} retries={} hedges={} \
         failovers={} ejections={} readmissions={} shed={} attempts_shed={} \
         breaker_opens={} p50_ns={} p99_ns={} availability={:#018x} \
         energy_j={:#018x} faults={}\n",
        r.governor,
        r.admitted,
        r.completed,
        r.timed_out,
        r.in_flight_at_end,
        r.dispatched,
        r.attempts_failed,
        r.suppressed,
        r.retries,
        r.hedges,
        r.failovers,
        r.ejections,
        r.readmissions,
        r.shed,
        r.attempts_shed,
        r.breaker_opens,
        r.p50.as_nanos(),
        r.p99.as_nanos(),
        r.availability.to_bits(),
        r.energy_j.to_bits(),
        r.faults.total(),
    )
}

/// The pinned digest named `name`, if `pinned.txt` has one.
pub fn pinned(name: &str) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let (key, value) = line.split_once('=')?;
        if key.trim() != name {
            return None;
        }
        u64::from_str_radix(value.trim().trim_start_matches("0x"), 16).ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_pin_parses() {
        let pins: Vec<&str> = PINNED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .collect();
        assert!(!pins.is_empty());
        for line in pins {
            let key = line.split_once('=').expect("key = value").0.trim();
            assert!(pinned(key).is_some(), "unparsable pin: {line}");
        }
        assert_eq!(pinned("no.such.pin"), None);
    }
}
