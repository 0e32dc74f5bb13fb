//! Metric names, the result line, and small statistics helpers.

use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("cell_s_mean", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_p99_us", "us"),
    ("sim_energy_j", "J"),
    ("sim_slo_met_frac", "ratio"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. Every
/// workload reports all of them; a layer a workload cannot reach from
/// outside reads 0 (see README.md).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("engine.events", "count"),
    ("engine.events_per_request", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.ns_per_event", "ns"),
    ("engine.queue_ns_per_event", "ns"),
    ("engine.cancelled_frac", "ratio"),
    ("engine.max_pending", "count"),
    ("governor.poll_batch.calls", "count"),
    ("governor.poll_batch.ns_per_call", "ns"),
    ("governor.request_latency.calls", "count"),
    ("governor.request_latency.ns_per_call", "ns"),
    ("governor.core_sample.calls", "count"),
    ("governor.core_sample.ns_per_call", "ns"),
    ("governor.ksoftirqd.calls", "count"),
    ("governor.ksoftirqd.ns_per_call", "ns"),
    ("governor.nic_window.calls", "count"),
    ("governor.nic_window.ns_per_call", "ns"),
    ("governor.telemetry.calls", "count"),
    ("governor.telemetry.ns_per_call", "ns"),
    ("governor.share", "ratio"),
    ("governor.action_yield", "ratio"),
    ("sleep.calls", "count"),
    ("sleep.ns_per_call", "ns"),
    ("sleep.share", "ratio"),
    ("napi.batches", "count"),
    ("napi.pkts_per_batch", "count"),
    ("napi.polling_pkt_frac", "ratio"),
    ("nic.rx_dropped", "count"),
    ("cpu.dvfs_transitions", "count"),
    ("cpu.c6_entries", "count"),
    ("testbed.self_share", "ratio"),
    ("obs.timeline_share", "ratio"),
    ("runner.extract_ms", "ms"),
    ("sweep.cells_requested", "count"),
    ("sweep.cells_run", "count"),
    ("sweep.recurring_frac", "ratio"),
    ("sweep.worker_busy_frac", "ratio"),
    ("setup.profile_s", "s"),
    ("fleet.attempts_per_request", "count"),
    ("fleet.hedge_waste_frac", "ratio"),
    ("fleet.retries", "count"),
    ("fleet.shed_frac", "ratio"),
    ("fleet.breaker_opens", "count"),
    ("fleet.host_us_per_request", "us"),
    ("fault.injected", "count"),
    ("cells_failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("cell_s_p90", "s"),
    ("trace.wall_s", "s"),
    ("untraced.wall_s", "s"),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    /// Cells (or fleet runs) attempted.
    pub attempted: u64,
    /// Cells that errored, panicked, were quarantined or failed a check.
    pub failed: u64,
    /// Every failed check, for the error report.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]. Non-finite values become 0.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unlisted metric {name}");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records a workload-level check; a failure counts as one failed
    /// cell unless a cell failure is already on record.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(what());
            self.failed = self.failed.max(1);
        }
        ok
    }

    /// Records a failed cell.
    pub fn cell_failed(&mut self, what: String) {
        self.problems.push(what);
        self.failed += 1;
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: exactly the metrics of `names`, in that order;
    /// a metric the run could not produce is left out.
    pub fn to_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for &(name, unit) in names {
            if let Some(v) = self.get(name) {
                if !metrics.is_empty() {
                    metrics.push_str(", ");
                }
                let _ = write!(
                    metrics,
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The metrics of `names` as an aligned table, for stderr.
    pub fn table(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in names {
            if let Some(v) = self.get(name) {
                let _ = writeln!(out, "  {name:<40} {v:>16.6} {unit}");
            }
        }
        out
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The `q` quantile of `values` by nearest rank (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// This process's resident-set high-water mark, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("wall_s", 1.25);
        o.put("setup_s", f64::NAN);
        let line = o.to_json(&END_TO_END);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        o.check(false, || "broken".into());
        assert!(o.to_json(&END_TO_END).starts_with("{\"correct\": false"));
        assert_eq!(o.failed, 1);
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let cells: Vec<f64> = (1..=42).map(f64::from).collect();
        assert_eq!(quantile(&cells, 0.9), 38.0);
        assert_eq!(quantile(&[2.5], 0.9), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
