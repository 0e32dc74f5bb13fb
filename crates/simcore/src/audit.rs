//! simaudit — conservation ledgers for end-to-end accounting.
//!
//! The simulation's value rests on the claim that nothing leaks:
//! every packet generated is delivered, dropped, or demonstrably in
//! flight; every joule the RAPL counter reports is the sum of
//! per-core power×time integrals; every latency sample corresponds to
//! exactly one received response. [`ConservationLedger`] is the
//! event-path side of that audit: components *credit* accounts at the
//! moment the corresponding event happens, and an audit pass compares
//! the ledger against each component's internal bookkeeping (ring
//! counters, NAPI per-mode totals, client statistics, energy
//! integrals). Drift in either accounting path surfaces as an
//! [`AuditCheck`] violation.
//!
//! # Examples
//!
//! ```
//! use simcore::audit::{Account, AuditReport, ConservationLedger};
//!
//! let mut ledger = ConservationLedger::new();
//! ledger.credit(Account::RequestsSent, 3);
//! ledger.credit(Account::ResponsesReceived, 3);
//! assert_eq!(ledger.balance(Account::RequestsSent), 3);
//!
//! let mut report = AuditReport::new();
//! report.check_exact(
//!     "requests answered",
//!     ledger.balance(Account::RequestsSent),
//!     ledger.balance(Account::ResponsesReceived),
//! );
//! assert!(report.is_balanced());
//! ```

use std::fmt;

/// The conserved quantities the simulation stack tracks.
///
/// Accounts are credited by the component that *observes* the event:
/// the client credits request/response/latency accounts, the server
/// glue credits the NIC- and delivery-path accounts as it drives the
/// device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Account {
    /// Application requests the client put on the wire.
    RequestsSent,
    /// Request packets that arrived at the NIC (accepted or dropped).
    RequestsArrivedAtNic,
    /// Request packets tail-dropped by a full Rx ring.
    RequestsDroppedAtNic,
    /// Request packets handed to a socket backlog by a NAPI poll.
    RequestsDelivered,
    /// Requests whose service completed (response put on the wire).
    RequestsCompleted,
    /// Responses that arrived back at the client.
    ResponsesReceived,
    /// End-to-end latency samples recorded by the client.
    LatencySamples,
    /// Wire packets (requests + ACK companions) accepted into Rx rings.
    RxWireEnqueued,
    /// Wire packets tail-dropped by full Rx rings (any kind).
    RxWireDropped,
    /// Wire packets drained from Rx rings by NAPI polls.
    RxWirePolled,
    /// Tx completion descriptors queued by transmits.
    TxCompletionsQueued,
    /// Tx completion descriptors cleaned by NAPI polls.
    TxCompletionsCleaned,
    /// End-to-end latency nanoseconds measured at the client.
    LatencyNanosMeasured,
    /// Latency nanoseconds attributed to pipeline stages by the
    /// attribution profiler (must equal the measured total).
    LatencyNanosAttributed,
    /// Wire packets (either direction, any kind) dropped or corrupted
    /// by injected faults — explicitly accounted so packet
    /// conservation still closes under fault injection.
    PacketsFaultDropped,
    /// Request packets lost to injected wire faults (subset of
    /// [`PacketsFaultDropped`](Account::PacketsFaultDropped)).
    RequestsFaultDropped,
    /// Response packets lost to injected wire faults (subset of
    /// [`PacketsFaultDropped`](Account::PacketsFaultDropped)).
    ResponsesFaultDropped,
    /// Package microjoules measured by the fixed-point energy meters
    /// (core segments plus uncore), credited at sample boundaries.
    EnergyMeasuredUj,
    /// Package microjoules attributed to energy components by the
    /// attribution profiler (must equal the measured total).
    EnergyAttributedUj,
    /// Fleet tier: requests admitted by the front-end load balancer.
    FleetRequestsAdmitted,
    /// Fleet tier: requests that returned a response to the client
    /// (first winning attempt only).
    FleetRequestsCompleted,
    /// Fleet tier: requests abandoned after exhausting their retry
    /// budget.
    FleetRequestsTimedOut,
    /// Fleet tier: individual attempts dispatched to servers
    /// (originals + retries + hedges).
    FleetAttemptsDispatched,
    /// Fleet tier: attempts whose response won its request.
    FleetAttemptsCompleted,
    /// Fleet tier: attempts lost to crashes, partitions, or timeouts.
    FleetAttemptsFailed,
    /// Fleet tier: late or hedged duplicate responses suppressed after
    /// their request already closed.
    FleetHedgesSuppressed,
    /// Request packets shed by the server's admission policy before
    /// entering a socket backlog (bounded-queue overload control).
    PacketsShed,
    /// Fleet tier: arrivals shed by LB-side brownout before dispatch
    /// (counted as admitted, closed immediately as shed).
    FleetRequestsShed,
    /// Fleet tier: attempts rejected by a saturated server's admission
    /// gate (subset of
    /// [`FleetAttemptsFailed`](Account::FleetAttemptsFailed)).
    FleetAttemptsShed,
}

/// Number of accounts (array-backed ledger storage).
const ACCOUNTS: usize = 29;

impl Account {
    /// All accounts, in declaration order.
    pub const ALL: [Account; ACCOUNTS] = [
        Account::RequestsSent,
        Account::RequestsArrivedAtNic,
        Account::RequestsDroppedAtNic,
        Account::RequestsDelivered,
        Account::RequestsCompleted,
        Account::ResponsesReceived,
        Account::LatencySamples,
        Account::RxWireEnqueued,
        Account::RxWireDropped,
        Account::RxWirePolled,
        Account::TxCompletionsQueued,
        Account::TxCompletionsCleaned,
        Account::LatencyNanosMeasured,
        Account::LatencyNanosAttributed,
        Account::PacketsFaultDropped,
        Account::RequestsFaultDropped,
        Account::ResponsesFaultDropped,
        Account::EnergyMeasuredUj,
        Account::EnergyAttributedUj,
        Account::FleetRequestsAdmitted,
        Account::FleetRequestsCompleted,
        Account::FleetRequestsTimedOut,
        Account::FleetAttemptsDispatched,
        Account::FleetAttemptsCompleted,
        Account::FleetAttemptsFailed,
        Account::FleetHedgesSuppressed,
        Account::PacketsShed,
        Account::FleetRequestsShed,
        Account::FleetAttemptsShed,
    ];
}

/// Event-path counters for conserved quantities.
///
/// See the [module docs](self) for the design.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConservationLedger {
    counts: [u64; ACCOUNTS],
}

impl ConservationLedger {
    /// Always true: ledgers always count. Kept because the
    /// `perfbench` benchmark reads it.
    pub const ENABLED: bool = true;

    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `account`.
    ///
    /// Saturates rather than overflowing: a pinned counter shows up
    /// as a conservation imbalance in the audit report instead of a
    /// debug-build panic (or a silent release-build wrap) mid-run.
    #[inline]
    pub fn credit(&mut self, account: Account, n: u64) {
        let slot = &mut self.counts[account as usize];
        *slot = slot.saturating_add(n);
    }

    /// The current balance of `account`.
    #[inline]
    pub fn balance(&self, account: Account) -> u64 {
        self.counts[account as usize]
    }

    /// Snapshot of every account balance, in [`Account::ALL`] order.
    pub fn snapshot(&self) -> [u64; ACCOUNTS] {
        self.counts
    }
}

/// One conservation identity evaluated by an audit pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCheck {
    /// What the identity asserts (e.g. `"rx wire conservation"`).
    pub name: String,
    /// Left-hand side of the identity.
    pub lhs: f64,
    /// Right-hand side of the identity.
    pub rhs: f64,
    /// Allowed relative error (0 for exact integer identities).
    pub rel_tolerance: f64,
}

impl AuditCheck {
    /// True if the identity holds within its tolerance.
    pub fn holds(&self) -> bool {
        if self.lhs == self.rhs {
            return true;
        }
        let scale = self.lhs.abs().max(self.rhs.abs()).max(f64::MIN_POSITIVE);
        (self.lhs - self.rhs).abs() / scale <= self.rel_tolerance
    }
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: lhs={} rhs={} (rel tolerance {})",
            self.name, self.lhs, self.rhs, self.rel_tolerance
        )
    }
}

/// The outcome of one audit pass: a list of evaluated identities.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Every identity the pass evaluated.
    pub checks: Vec<AuditCheck>,
}

impl AuditReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an exact integer identity `lhs == rhs`.
    pub fn check_exact(&mut self, name: &str, lhs: u64, rhs: u64) {
        self.checks.push(AuditCheck {
            name: name.to_string(),
            lhs: lhs as f64,
            rhs: rhs as f64,
            rel_tolerance: 0.0,
        });
    }

    /// Records a floating-point identity `lhs ≈ rhs` within
    /// `rel_tolerance` relative error.
    pub fn check_close(&mut self, name: &str, lhs: f64, rhs: f64, rel_tolerance: f64) {
        self.checks.push(AuditCheck {
            name: name.to_string(),
            lhs,
            rhs,
            rel_tolerance,
        });
    }

    /// The identities that do not hold.
    pub fn violations(&self) -> Vec<&AuditCheck> {
        self.checks.iter().filter(|c| !c.holds()).collect()
    }

    /// True if every identity holds.
    pub fn is_balanced(&self) -> bool {
        self.checks.iter().all(|c| c.holds())
    }

    /// Panics with a readable listing if any identity is violated.
    ///
    /// # Panics
    ///
    /// Panics if [`is_balanced`](Self::is_balanced) is false.
    pub fn assert_balanced(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "conservation audit failed ({} of {} checks):\n{}",
            violations.len(),
            self.checks.len(),
            violations
                .iter()
                .map(|c| format!("  {c}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_and_balance_roundtrip() {
        let mut l = ConservationLedger::new();
        l.credit(Account::RxWireEnqueued, 5);
        l.credit(Account::RxWireEnqueued, 2);
        assert_eq!(l.balance(Account::RxWireEnqueued), 7);
        assert_eq!(l.balance(Account::RxWireDropped), 0);
    }

    #[test]
    fn snapshot_covers_every_account() {
        let mut l = ConservationLedger::new();
        for account in Account::ALL {
            l.credit(account, 1);
        }
        let snap = l.snapshot();
        assert_eq!(snap.len(), Account::ALL.len());
        assert!(snap.iter().all(|&v| v == 1));
    }

    #[test]
    fn exact_check_flags_imbalance() {
        let mut r = AuditReport::new();
        r.check_exact("ok", 4, 4);
        r.check_exact("bad", 4, 5);
        assert!(!r.is_balanced());
        assert_eq!(r.violations().len(), 1);
        assert_eq!(r.violations()[0].name, "bad");
    }

    #[test]
    fn close_check_respects_relative_tolerance() {
        let mut r = AuditReport::new();
        r.check_close("within", 1.0, 1.0 + 5e-7, 1e-6);
        r.check_close("outside", 1.0, 1.0 + 5e-5, 1e-6);
        assert!(r.checks[0].holds());
        assert!(!r.checks[1].holds());
    }

    #[test]
    fn zero_lhs_and_rhs_balance() {
        let mut r = AuditReport::new();
        r.check_close("zeros", 0.0, 0.0, 1e-6);
        assert!(r.is_balanced());
    }

    #[test]
    #[should_panic(expected = "conservation audit failed")]
    fn assert_balanced_panics_with_listing() {
        let mut r = AuditReport::new();
        r.check_exact("packets lost", 10, 9);
        r.assert_balanced();
    }
}
