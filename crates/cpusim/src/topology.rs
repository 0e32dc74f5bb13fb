//! Processor topology: a set of cores sharing one package, with
//! per-core or chip-wide DVFS.
//!
//! The paper's testbed supports **per-core DVFS** (each core's
//! governor sets its own V/F). NCAP, by contrast, operates
//! **chip-wide**: §2.2 — "the V/F state of processors supporting
//! chip/cluster DVFS is set to the highest V/F state among the V/F
//! states determined by the governor deployed on each core." Both
//! scopes are modelled here; the chip-wide path is also used for the
//! per-core-vs-chip-wide ablation.

use crate::core::{Core, CoreId};
use crate::dvfs::{CompletionResult, CoreDvfs, TransitionOutcome};
use crate::profiles::ProcessorProfile;
use crate::pstate::PState;
use simcore::{RngStream, SimTime};

/// Which cores share a DVFS domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DvfsScope {
    /// Every core has its own V/F domain (the paper's testbed).
    PerCore,
    /// All cores share one domain set to the fastest request
    /// (NCAP's environment).
    ChipWide,
}

/// A processor package: profile + cores + DVFS domain wiring.
///
/// # Examples
///
/// ```
/// use cpusim::{Processor, DvfsScope, ProcessorProfile};
/// let p = Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore);
/// assert_eq!(p.cores().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Processor {
    profile: ProcessorProfile,
    cores: Vec<Core>,
    scope: DvfsScope,
    /// Per-core desired states (chip-wide mode aggregates these).
    chip_requests: Vec<PState>,
    /// The shared domain used in chip-wide mode.
    chip_domain: CoreDvfs,
}

impl Processor {
    /// Creates a processor with `profile.cores` cores.
    pub fn new(profile: ProcessorProfile, scope: DvfsScope) -> Self {
        let cores = (0..profile.cores)
            .map(|i| Core::new(CoreId(i), &profile))
            .collect();
        let slowest = profile.pstates.slowest();
        Processor {
            chip_requests: vec![slowest; profile.cores],
            chip_domain: CoreDvfs::new(slowest),
            profile,
            cores,
            scope,
        }
    }

    /// The processor profile.
    pub fn profile(&self) -> &ProcessorProfile {
        &self.profile
    }

    /// The DVFS scope.
    pub fn scope(&self) -> DvfsScope {
        self.scope
    }

    /// All cores.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// A core by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.0]
    }

    /// Mutable access to a core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core_mut(&mut self, id: CoreId) -> &mut Core {
        &mut self.cores[id.0]
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Requests a P-state for `core`. In per-core mode this drives the
    /// core's own domain; in chip-wide mode the domain target is the
    /// fastest state requested by any core.
    pub fn request_pstate(
        &mut self,
        core: CoreId,
        target: PState,
        now: SimTime,
        rng: &mut RngStream,
    ) -> TransitionOutcome {
        let target = self.profile.pstates.clamp(target);
        match self.scope {
            DvfsScope::PerCore => {
                self.cores[core.0].request_pstate(target, now, &self.profile, rng)
            }
            DvfsScope::ChipWide => {
                self.chip_requests[core.0] = target;
                let fastest = self
                    .chip_requests
                    .iter()
                    .copied()
                    .min_by_key(|p| p.index())
                    .expect("at least one core");
                self.chip_domain.request(fastest, now, &self.profile, rng)
            }
        }
    }

    /// Completes a transition started by
    /// [`request_pstate`](Self::request_pstate). `core` identifies the domain in
    /// per-core mode and is ignored in chip-wide mode.
    pub fn complete_pstate(
        &mut self,
        core: CoreId,
        token: u64,
        now: SimTime,
        rng: &mut RngStream,
    ) -> CompletionResult {
        match self.scope {
            DvfsScope::PerCore => {
                self.cores[core.0].complete_pstate(token, now, &self.profile, rng)
            }
            DvfsScope::ChipWide => {
                let result = self.chip_domain.complete(token, now, &self.profile, rng);
                if let CompletionResult::Settled { new_state }
                | CompletionResult::FollowUp { new_state, .. } = result
                {
                    for c in &mut self.cores {
                        c.apply_pstate(new_state, now, &self.profile);
                    }
                }
                result
            }
        }
    }

    /// Package energy (all cores + uncore) through `now`, in joules —
    /// what the RAPL package counter reports.
    pub fn package_energy_joules(&mut self, now: SimTime) -> f64 {
        let core_energy: f64 = {
            let profile = self.profile.clone();
            self.cores
                .iter_mut()
                .map(|c| c.energy_joules(now, &profile))
                .sum()
        };
        core_energy + self.profile.power.uncore_w * now.as_secs_f64()
    }

    /// Package uncore energy through `now` in whole microjoules — a
    /// deterministic pure function of absolute time, so window deltas
    /// are exact integer subtractions.
    pub fn uncore_uj(&self, now: SimTime) -> u64 {
        let uj = self.profile.power.uncore_w * now.as_nanos() as f64 / 1000.0;
        if uj <= 0.0 {
            0
        } else {
            uj.round() as u64
        }
    }

    /// Package energy through `now` as measured by the fixed-point
    /// attribution meters (cores + uncore), in microjoules. Advances
    /// only the meters; the `f64` integral is untouched. 0 without
    /// the `obs` feature (apart from the uncore term, which is a pure
    /// function of time).
    pub fn package_energy_uj(&mut self, now: SimTime) -> u64 {
        let profile = self.profile.clone();
        let core_uj = self.cores.iter_mut().fold(0u64, |acc, c| {
            acc.saturating_add(c.energy_uj(now, &profile))
        });
        core_uj.saturating_add(self.uncore_uj(now))
    }

    /// Package energy attributed to components by the fixed-point
    /// meters (component sums + uncore), in microjoules. Must equal
    /// [`package_energy_uj`](Self::package_energy_uj) exactly — the
    /// package-level conservation identity.
    pub fn attributed_package_energy_uj(&mut self, now: SimTime) -> u64 {
        let profile = self.profile.clone();
        let core_uj = self.cores.iter_mut().fold(0u64, |acc, c| {
            acc.saturating_add(c.energy_breakdown(now, &profile).total_uj())
        });
        core_uj.saturating_add(self.uncore_uj(now))
    }

    /// Package energy recomputed from every core's residency ledger
    /// plus the uncore term — the independent cross-check the
    /// conservation audit compares against
    /// [`package_energy_joules`](Self::package_energy_joules).
    pub fn audited_package_energy_joules(&mut self, now: SimTime) -> f64 {
        let profile = self.profile.clone();
        let mut core_energy = 0.0;
        for c in &mut self.cores {
            core_energy += c.audited_energy_joules(now, &profile);
        }
        core_energy + profile.power.uncore_w * now.as_secs_f64()
    }

    /// Sets extra latency added to every DVFS transition started while
    /// the padding is in effect, on every domain (fault injection).
    pub fn set_transition_padding(&mut self, padding: simcore::SimDuration) {
        for c in &mut self.cores {
            c.set_transition_padding(padding);
        }
        self.chip_domain.set_transition_padding(padding);
    }

    /// Total DVFS transitions started across all domains.
    pub fn total_transitions(&self) -> u64 {
        match self.scope {
            DvfsScope::PerCore => self.cores.iter().map(|c| c.transitions_started()).sum(),
            DvfsScope::ChipWide => self.chip_domain.transitions_started(),
        }
    }

    /// Reports processor-level totals into the metrics registry.
    pub fn record_metrics(&mut self, now: SimTime, m: &mut simcore::MetricsRegistry) {
        if !simcore::MetricsRegistry::ENABLED {
            return;
        }
        m.set_counter("cpu.dvfs_transitions", self.total_transitions());
        m.set_counter(
            "cpu.c6_entries",
            self.cores.iter().map(|c| c.c6_entries()).sum(),
        );
        m.set_gauge("cpu.package_energy_j", self.package_energy_joules(now));
        let busy: f64 = self
            .cores
            .iter()
            .map(|c| c.total_busy().as_secs_f64())
            .sum();
        m.set_gauge("cpu.total_busy_s", busy);
    }

    /// Replays every core's P-/C-state logs into `buf` as residency
    /// spans (see [`Core::trace_into`]).
    pub fn trace_into(&self, end: SimTime, buf: &mut simcore::TraceBuffer) {
        for c in &self.cores {
            c.trace_into(end, buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn per_core() -> (Processor, RngStream) {
        (
            Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::PerCore),
            RngStream::from_seed(5),
        )
    }

    fn chip_wide() -> (Processor, RngStream) {
        (
            Processor::new(ProcessorProfile::xeon_gold_6134(), DvfsScope::ChipWide),
            RngStream::from_seed(5),
        )
    }

    #[test]
    fn per_core_domains_are_independent() {
        let (mut p, mut rng) = per_core();
        let TransitionOutcome::Started {
            completes_at,
            token,
        } = p.request_pstate(CoreId(0), PState::P0, SimTime::ZERO, &mut rng)
        else {
            panic!()
        };
        p.complete_pstate(CoreId(0), token, completes_at, &mut rng);
        assert_eq!(p.core(CoreId(0)).pstate(), PState::P0);
        // Other cores untouched.
        assert_eq!(p.core(CoreId(1)).pstate(), p.profile().pstates.slowest());
    }

    #[test]
    fn chip_wide_takes_fastest_request_and_applies_to_all() {
        let (mut p, mut rng) = chip_wide();
        // Core 3 asks for P4, core 5 asks for P0 → domain goes to P0.
        p.request_pstate(CoreId(3), PState::new(4), SimTime::ZERO, &mut rng);
        let out = p.request_pstate(CoreId(5), PState::P0, SimTime::from_micros(1), &mut rng);
        // The P4 transition is already in flight, so P0 queues.
        assert_eq!(out, TransitionOutcome::Queued);
        // Drive completions until the domain settles.
        let (mut t, mut tok) = match out {
            TransitionOutcome::Queued => {
                // first transition completes at ZERO + base
                (SimTime::ZERO + p.profile().base_transition, 0u64)
            }
            _ => unreachable!(),
        };
        loop {
            match p.complete_pstate(CoreId(0), tok, t, &mut rng) {
                CompletionResult::FollowUp {
                    completes_at,
                    token,
                    ..
                } => {
                    t = completes_at;
                    tok = token;
                }
                CompletionResult::Settled { new_state } => {
                    assert_eq!(new_state, PState::P0);
                    break;
                }
                CompletionResult::Stale => panic!("unexpected stale token"),
            }
        }
        for c in p.cores() {
            assert_eq!(c.pstate(), PState::P0);
        }
    }

    #[test]
    fn chip_wide_lowering_requires_all_cores_to_agree() {
        let (mut p, mut rng) = chip_wide();
        // Everyone asks for P0 first.
        let mut pending = Vec::new();
        for i in 0..p.num_cores() {
            if let TransitionOutcome::Started {
                completes_at,
                token,
            } = p.request_pstate(CoreId(i), PState::P0, SimTime::ZERO, &mut rng)
            {
                pending.push((completes_at, token));
            }
        }
        assert_eq!(pending.len(), 1, "one shared transition");
        let (t, tok) = pending[0];
        p.complete_pstate(CoreId(0), tok, t, &mut rng);
        // One core asks to slow down — the domain must stay at P0.
        let later = t + SimDuration::from_millis(1);
        let out = p.request_pstate(CoreId(2), PState::new(15), later, &mut rng);
        assert_eq!(out, TransitionOutcome::AlreadyThere);
        assert_eq!(p.core(CoreId(0)).pstate(), PState::P0);
    }

    #[test]
    fn package_energy_includes_uncore() {
        let (mut p, _) = per_core();
        let e = p.package_energy_joules(SimTime::from_secs(1));
        let uncore = p.profile().power.uncore_w;
        assert!(
            e > uncore * 0.99,
            "package energy {e} must include uncore {uncore}"
        );
    }

    #[test]
    fn audited_energy_matches_incremental_integral() {
        let (mut p, mut rng) = per_core();
        // Exercise a few transitions so the residency ledger spans
        // multiple (activity, P-state) cells.
        if let TransitionOutcome::Started {
            completes_at,
            token,
        } = p.request_pstate(CoreId(0), PState::P0, SimTime::ZERO, &mut rng)
        {
            p.complete_pstate(CoreId(0), token, completes_at, &mut rng);
        }
        let now = SimTime::from_millis(40);
        let direct = p.package_energy_joules(now);
        let audited = p.audited_package_energy_joules(now);
        let rel = (direct - audited).abs() / direct.max(1e-12);
        assert!(
            rel < 1e-6,
            "direct {direct} vs audited {audited} (rel {rel})"
        );
    }

    #[test]
    fn integer_package_energy_conserves_and_tracks_f64() {
        let (mut p, mut rng) = per_core();
        let profile = p.profile().clone();
        p.core_mut(CoreId(0))
            .set_busy(true, SimTime::ZERO, &profile);
        if let TransitionOutcome::Started {
            completes_at,
            token,
        } = p.request_pstate(CoreId(1), PState::P0, SimTime::ZERO, &mut rng)
        {
            p.complete_pstate(CoreId(1), token, completes_at, &mut rng);
        }
        let now = SimTime::from_millis(50);
        let measured = p.package_energy_uj(now);
        let attributed = p.attributed_package_energy_uj(now);
        assert_eq!(measured, attributed, "package conservation identity");
        if simcore::CoreEnergyMeter::ENABLED {
            let f64_uj = p.package_energy_joules(now) * 1e6;
            assert!(
                (measured as f64 - f64_uj).abs() < 64.0,
                "integer {measured} µJ vs f64 {f64_uj} µJ"
            );
        } else {
            assert_eq!(measured, p.uncore_uj(now), "only uncore without obs");
        }
    }

    #[test]
    fn clamps_out_of_range_targets() {
        let (mut p, mut rng) = per_core();
        // P200 clamps to slowest, which is where we already are.
        let out = p.request_pstate(CoreId(0), PState::new(200), SimTime::ZERO, &mut rng);
        assert_eq!(out, TransitionOutcome::AlreadyThere);
    }
}
