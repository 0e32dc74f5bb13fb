//! The client side: request generation and end-to-end latency
//! recording.
//!
//! The client is open-loop (sends follow the arrival process
//! regardless of outstanding responses, like mutilate's agent mode)
//! and measures latency from the moment a request is handed to the
//! client NIC to the moment the response arrives back — the paper's
//! client-side "end-to-end response time".

use netsim::{FlowId, Packet, PacketKind, RequestId};
use simcore::{Cdf, RngStream, SimDuration, SimTime};

/// Client state: id allocation, flow selection, latency statistics.
///
/// # Examples
///
/// ```
/// use workload::Client;
/// use netsim::Packet;
/// use simcore::{RngStream, SimTime, SimDuration};
///
/// let mut client = Client::new(64, 64);
/// let mut rng = RngStream::from_seed(1);
/// let req = client.build_request(SimTime::ZERO, &mut rng);
/// let resp = Packet::response_to(&req, 256);
/// client.on_response(&resp, SimTime::ZERO + SimDuration::from_micros(150));
/// assert_eq!(client.received(), 1);
/// assert_eq!(client.latencies().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Client {
    flows: u64,
    /// Base added to every generated flow id — bumped by
    /// [`churn_flows`](Client::churn_flows) to model connection churn
    /// (old connections close, new 5-tuples hash to new queues).
    flow_offset: u64,
    request_size: u32,
    next_id: u64,
    sent: u64,
    received: u64,
    /// Per-response `(receive time at client, latency)` — the raw
    /// series behind Fig 3/10/16, and the only copy of each sample.
    response_log: Vec<(SimTime, SimDuration)>,
}

impl Client {
    /// Creates a client with `flows` connections sending
    /// `request_size`-byte requests.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(flows: u64, request_size: u32) -> Self {
        assert!(flows > 0, "need at least one flow");
        Client {
            flows,
            flow_offset: 0,
            request_size,
            next_id: 0,
            sent: 0,
            received: 0,
            response_log: Vec::new(),
        }
    }

    /// Builds the next request, stamped with `now` as the client send
    /// time, on a uniformly chosen flow.
    pub fn build_request(&mut self, now: SimTime, rng: &mut RngStream) -> Packet {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.sent += 1;
        let flow = FlowId(self.flow_offset + rng.below(self.flows));
        Packet::request(id, flow, self.request_size, now)
    }

    /// Replaces the connection pool: every live flow id shifts by
    /// `shift`, so subsequent requests carry fresh 5-tuples that hash
    /// to (generally) different RSS queues. In-flight requests keep
    /// their old flow ids, exactly like real connections draining
    /// during churn.
    pub fn churn_flows(&mut self, shift: u64) {
        self.flow_offset = self.flow_offset.wrapping_add(shift);
    }

    /// The current flow-id base (0 until churn occurs).
    pub fn flow_offset(&self) -> u64 {
        self.flow_offset
    }

    /// A response arrived back at the client at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a response (requests don't come
    /// back).
    pub fn on_response(&mut self, pkt: &Packet, now: SimTime) -> SimDuration {
        assert_eq!(pkt.kind, PacketKind::Response, "client received a request");
        let latency = now.saturating_since(pkt.client_sent_at);
        self.received += 1;
        self.response_log.push((now, latency));
        latency
    }

    /// Requests sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Responses received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Requests still in flight (sent − received).
    pub fn outstanding(&self) -> u64 {
        self.sent - self.received
    }

    /// The latency distribution, built from the response log. Each
    /// call copies the samples, so build it once per set of queries.
    pub fn latencies(&self) -> Cdf {
        self.response_log
            .iter()
            .map(|&(_, d)| d.as_nanos())
            .collect()
    }

    /// Raw `(receive time, latency)` series.
    pub fn response_log(&self) -> &[(SimTime, SimDuration)] {
        &self.response_log
    }

    /// Discards all recorded statistics (used to cut off warm-up).
    pub fn reset_stats(&mut self) {
        self.response_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_flows_bounded() {
        let mut c = Client::new(8, 64);
        let mut rng = RngStream::from_seed(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let p = c.build_request(SimTime::ZERO, &mut rng);
            assert!(seen.insert(p.id), "duplicate id {:?}", p.id);
            assert!(p.flow.0 < 8);
        }
        assert_eq!(c.sent(), 1000);
    }

    #[test]
    fn latency_is_measured_from_send_to_receive() {
        let mut c = Client::new(1, 64);
        let mut rng = RngStream::from_seed(2);
        let req = c.build_request(SimTime::from_micros(100), &mut rng);
        let resp = Packet::response_to(&req, 128);
        let lat = c.on_response(&resp, SimTime::from_micros(350));
        assert_eq!(lat, SimDuration::from_micros(250));
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn reset_stats_clears_but_keeps_accounting_consistent() {
        let mut c = Client::new(1, 64);
        let mut rng = RngStream::from_seed(2);
        let a = c.build_request(SimTime::ZERO, &mut rng);
        let _b = c.build_request(SimTime::ZERO, &mut rng);
        c.on_response(&Packet::response_to(&a, 1), SimTime::from_micros(10));
        c.reset_stats();
        assert_eq!(c.latencies().len(), 0);
        assert!(c.response_log().is_empty());
        assert_eq!(c.outstanding(), 1, "the unanswered request is still out");
    }

    #[test]
    fn churn_shifts_flow_ids_without_breaking_bounds() {
        let mut c = Client::new(8, 64);
        let mut rng = RngStream::from_seed(2);
        c.churn_flows(1000);
        for _ in 0..100 {
            let p = c.build_request(SimTime::ZERO, &mut rng);
            assert!(p.flow.0 >= 1000 && p.flow.0 < 1008);
        }
        assert_eq!(c.flow_offset(), 1000);
    }

    #[test]
    #[should_panic(expected = "client received a request")]
    fn rejects_non_responses() {
        let mut c = Client::new(1, 64);
        let mut rng = RngStream::from_seed(2);
        let req = c.build_request(SimTime::ZERO, &mut rng);
        c.on_response(&req.clone(), SimTime::from_micros(10));
    }
}
