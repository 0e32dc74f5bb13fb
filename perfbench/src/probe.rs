//! Timing decorators for the testbed's public policy seams.
//!
//! `experiments::runner::run_with_testbed` hands the freshly built
//! testbed to a setup hook before the first event runs. The hook swaps
//! `tb.governor` and `tb.sleep` for the wrappers below and installs a
//! `tb.poll_observer`; the wrappers forward every call unchanged and
//! add its host time to a shared [`LayerTally`]. Forwarding is
//! exhaustive: a trait method left to its default would change the
//! simulation, which the traced-equals-untraced check would catch.

use cpusim::core::UtilSample;
use cpusim::{CState, CoreId};
use governors::{Action, DegradationStats, PStateGovernor, SleepPolicy};
use napisim::PollClass;
use simcore::{SimDuration, SimTime, Simulator, TelemetryTap};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::report::ratio;

/// The governor hooks the testbed calls from its event loop, in the
/// order [`LayerTally::governor`] stores them: span name, then the
/// names of the call-count and ns-per-call metrics.
pub const HOOKS: [(&str, &str, &str); 6] = [
    (
        "governor.poll_batch",
        "governor.poll_batch.calls",
        "governor.poll_batch.ns_per_call",
    ),
    (
        "governor.request_latency",
        "governor.request_latency.calls",
        "governor.request_latency.ns_per_call",
    ),
    (
        "governor.core_sample",
        "governor.core_sample.calls",
        "governor.core_sample.ns_per_call",
    ),
    (
        "governor.ksoftirqd",
        "governor.ksoftirqd.calls",
        "governor.ksoftirqd.ns_per_call",
    ),
    (
        "governor.nic_window",
        "governor.nic_window.calls",
        "governor.nic_window.ns_per_call",
    ),
    (
        "governor.telemetry",
        "governor.telemetry.calls",
        "governor.telemetry.ns_per_call",
    ),
];

const POLL_BATCH: usize = 0;
const REQUEST_LATENCY: usize = 1;
const CORE_SAMPLE: usize = 2;
const KSOFTIRQD: usize = 3;
const NIC_WINDOW: usize = 4;
const TELEMETRY: usize = 5;

/// Calls into one seam and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookStat {
    pub calls: u64,
    pub ns: u64,
}

impl HookStat {
    fn add(&mut self, started: Instant) {
        self.calls += 1;
        self.ns += started.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: HookStat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean host nanoseconds per call; 0 when never called.
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// What the decorators saw over one or more cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTally {
    /// Per governor hook, indexed like [`HOOKS`].
    pub governor: [HookStat; 6],
    /// DVFS actions the governor hooks requested.
    pub actions: u64,
    /// `on_idle` + `on_tick` + `on_wake` of the sleep policy.
    pub sleep: HookStat,
    /// NAPI poll batches seen by the poll observer.
    pub napi_batches: u64,
    /// Packets in those batches.
    pub napi_pkts: u64,
    /// Of which processed in polling mode.
    pub napi_polling_pkts: u64,
}

impl LayerTally {
    pub fn merge(&mut self, other: &LayerTally) {
        for (a, b) in self.governor.iter_mut().zip(other.governor) {
            a.merge(b);
        }
        self.actions += other.actions;
        self.sleep.merge(other.sleep);
        self.napi_batches += other.napi_batches;
        self.napi_pkts += other.napi_pkts;
        self.napi_polling_pkts += other.napi_polling_pkts;
    }

    /// Host nanoseconds inside all governor hooks.
    pub fn governor_ns(&self) -> u64 {
        self.governor.iter().map(|h| h.ns).sum()
    }
}

/// The setup hook for `run_with_testbed`: wraps the testbed's policies
/// and installs a counting poll observer, all reporting into `tally`.
pub fn instrument(
    tally: &Rc<RefCell<LayerTally>>,
) -> impl FnOnce(&mut appsim::Testbed, &mut Simulator<appsim::Testbed>) {
    let tally = Rc::clone(tally);
    move |tb, _sim| {
        let governor = std::mem::replace(&mut tb.governor, Box::new(Placeholder));
        tb.governor = Box::new(TimedGovernor {
            inner: governor,
            tally: Rc::clone(&tally),
        });
        let sleep = std::mem::replace(&mut tb.sleep, Box::new(Placeholder));
        tb.sleep = Box::new(TimedSleep {
            inner: sleep,
            tally: Rc::clone(&tally),
        });
        tb.poll_observer = Some(Box::new(move |_core, class, n, _now| {
            let mut t = tally.borrow_mut();
            t.napi_batches += 1;
            t.napi_pkts += n;
            if class == PollClass::Polling {
                t.napi_polling_pkts += n;
            }
        }));
    }
}

/// Occupies a policy field for the instant between taking the real
/// policy out and putting its wrapper in; never called.
struct Placeholder;

impl PStateGovernor for Placeholder {
    fn name(&self) -> String {
        String::new()
    }
}

impl SleepPolicy for Placeholder {
    fn name(&self) -> String {
        String::new()
    }

    fn on_idle(&mut self, _core: CoreId, _now: SimTime) -> CState {
        CState::C0
    }
}

/// Forwards every governor call and times the event-loop hooks.
pub struct TimedGovernor {
    inner: Box<dyn PStateGovernor>,
    tally: Rc<RefCell<LayerTally>>,
}

impl TimedGovernor {
    fn timed(
        &mut self,
        hook: usize,
        actions: &mut Vec<Action>,
        call: impl FnOnce(&mut dyn PStateGovernor, &mut Vec<Action>),
    ) {
        let before = actions.len();
        let started = Instant::now();
        call(self.inner.as_mut(), actions);
        let mut t = self.tally.borrow_mut();
        t.governor[hook].add(started);
        t.actions += actions.len().saturating_sub(before) as u64;
    }
}

impl PStateGovernor for TimedGovernor {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn sampling_interval(&self) -> SimDuration {
        self.inner.sampling_interval()
    }

    fn on_core_sample(
        &mut self,
        core: CoreId,
        sample: UtilSample,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        self.timed(CORE_SAMPLE, actions, |g, a| {
            g.on_core_sample(core, sample, now, a)
        });
    }

    fn on_ksoftirqd(&mut self, core: CoreId, awake: bool, now: SimTime, actions: &mut Vec<Action>) {
        self.timed(KSOFTIRQD, actions, |g, a| {
            g.on_ksoftirqd(core, awake, now, a)
        });
    }

    fn on_poll_batch(
        &mut self,
        core: CoreId,
        class: PollClass,
        rx_packets: u64,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        self.timed(POLL_BATCH, actions, |g, a| {
            g.on_poll_batch(core, class, rx_packets, now, a)
        });
    }

    fn on_nic_window(&mut self, rx_packets: u64, now: SimTime, actions: &mut Vec<Action>) {
        self.timed(NIC_WINDOW, actions, |g, a| {
            g.on_nic_window(rx_packets, now, a)
        });
    }

    fn on_request_latency(
        &mut self,
        latency: SimDuration,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        self.timed(REQUEST_LATENCY, actions, |g, a| {
            g.on_request_latency(latency, now, a)
        });
    }

    fn on_telemetry(&mut self, tap: &dyn TelemetryTap, now: SimTime, actions: &mut Vec<Action>) {
        self.timed(TELEMETRY, actions, |g, a| g.on_telemetry(tap, now, a));
    }

    fn core_degraded(&self, core: CoreId) -> bool {
        self.inner.core_degraded(core)
    }

    fn trace_into(&self, buf: &mut simcore::TraceBuffer) {
        self.inner.trace_into(buf)
    }

    fn record_metrics(&self, m: &mut simcore::MetricsRegistry) {
        self.inner.record_metrics(m)
    }

    fn degradation(&self) -> DegradationStats {
        self.inner.degradation()
    }
}

/// Forwards every sleep-policy call and times all of them.
pub struct TimedSleep {
    inner: Box<dyn SleepPolicy>,
    tally: Rc<RefCell<LayerTally>>,
}

impl SleepPolicy for TimedSleep {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_idle(&mut self, core: CoreId, now: SimTime) -> CState {
        let started = Instant::now();
        let state = self.inner.on_idle(core, now);
        self.tally.borrow_mut().sleep.add(started);
        state
    }

    fn on_tick(&mut self, core: CoreId, idle_elapsed: SimDuration, now: SimTime) -> Option<CState> {
        let started = Instant::now();
        let state = self.inner.on_tick(core, idle_elapsed, now);
        self.tally.borrow_mut().sleep.add(started);
        state
    }

    fn on_wake(&mut self, core: CoreId, now: SimTime) {
        let started = Instant::now();
        self.inner.on_wake(core, now);
        self.tally.borrow_mut().sleep.add(started);
    }
}
