//! The benchmark's own checks: its decorators are transparent and its
//! digests are stable.

use crate::digest;
use crate::probe::{self, LayerTally};
use experiments::runner::run_with_testbed;
use experiments::{GovernorKind, RunConfig, Scale};
use nmap::NmapConfig;
use simcore::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;
use workload::{AppKind, LoadSpec};

fn small(governor: GovernorKind) -> RunConfig {
    RunConfig {
        warmup: SimDuration::from_millis(50),
        duration: SimDuration::from_millis(150),
        ..RunConfig::new(
            AppKind::Memcached,
            LoadSpec::custom(60_000.0, SimDuration::from_millis(50), 0.4, 0.3),
            governor,
            Scale::Quick,
        )
    }
}

fn nmap() -> GovernorKind {
    GovernorKind::Nmap(NmapConfig::new(32, 1.0))
}

#[test]
fn decorators_leave_nmap_and_ondemand_cells_unchanged() {
    for governor in [nmap(), GovernorKind::Ondemand] {
        let plain = experiments::run(small(governor));
        let tally = Rc::new(RefCell::new(LayerTally::default()));
        let (traced, _tb) = run_with_testbed(small(governor), probe::instrument(&tally));
        assert_eq!(
            plain, traced,
            "{}: wrapped policies changed the run",
            plain.governor
        );
        let t = tally.borrow();
        assert!(
            t.governor[2].calls > 0,
            "{}: core samples not seen",
            plain.governor
        );
        assert!(t.sleep.calls > 0, "sleep policy not seen");
        assert!(t.napi_batches > 0 && t.napi_pkts >= t.napi_polling_pkts);
    }
}

#[test]
fn nmap_hooks_are_the_busy_ones() {
    let tally = Rc::new(RefCell::new(LayerTally::default()));
    let (r, _tb) = run_with_testbed(small(nmap()), probe::instrument(&tally));
    let t = tally.borrow();
    assert!(
        t.governor[0].calls >= t.napi_batches,
        "every poll batch reaches the governor"
    );
    assert!(
        t.governor[1].calls >= r.received,
        "every response reaches the governor"
    );
}

#[test]
fn digests_are_stable() {
    for (pin, governor) in [
        ("test.small_nmap", nmap()),
        ("test.small_ondemand", GovernorKind::Ondemand),
    ] {
        let a = digest::fnv64(digest::render_cell(&experiments::run(small(governor))).as_bytes());
        let b = digest::fnv64(digest::render_cell(&experiments::run(small(governor))).as_bytes());
        assert_eq!(a, b, "{pin}: same seed, different digest");
        assert_eq!(
            digest::pinned(pin),
            Some(a),
            "{pin}: digest {a:#018x} drifted from pinned.txt"
        );
        let other = experiments::run(small(governor).with_seed(43));
        assert_ne!(
            digest::fnv64(digest::render_cell(&other).as_bytes()),
            a,
            "the seed must matter"
        );
    }
}
