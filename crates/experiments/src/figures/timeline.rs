//! `timeline` (beyond-paper artifact): the telemetry bus rendered as
//! ASCII sparklines — how each governor's tail latency, packet
//! processing mode, and power draw evolve over the run.
//!
//! Every cell of the usual 4-governor × 3-load memcached grid samples
//! the per-core gauge bus ([`simcore::TimeSeriesSampler`]) on a fixed
//! sim-time cadence; this artifact compresses the three most telling
//! series into fixed-width sparklines so the *shape* of each policy
//! is visible in a text diff:
//!
//! * `p99` — worst per-core online P99 (the watchdog's streaming
//!   estimate), the latency the SLO cares about;
//! * `poll` — number of cores in NAPI polling mode, the paper's mode
//!   signal (NMAP holds it high under load, ondemand flaps);
//! * `power` — chip power draw in milliwatts, where the energy story
//!   plays out.
//!
//! The counters columns pin the sampler's bounded-memory behavior:
//! rows retained, final interval after decimation doublings, and how
//! many samples decimation dropped.

use crate::report::{self, FigureReport};
use crate::runner::{RunConfig, RunResult, Scale};
use crate::supervisor::Supervisor;
use simcore::{sparkline, Gauge};
use workload::LoadLevel;

const GOV_LABELS: [&str; 4] = ["ondemand", "performance", "NCAP", "NMAP"];

/// Sparkline column width: wide enough to show mode flapping, narrow
/// enough that the table fits a terminal.
const SPARK_WIDTH: usize = 24;

/// The sweep's cell list: the same governor-major memcached grid as
/// the `energy` artifact, so the sparklines can be read against its
/// tables. Public so the determinism suite can replay the exact cells
/// serially.
pub fn configs(scale: Scale) -> Vec<RunConfig> {
    super::energy::configs(scale)
}

/// Runs the sweep under `sup`.
pub fn sweep(scale: Scale, sup: &Supervisor) -> Vec<RunResult> {
    sup.run_many(configs(scale))
}

fn index(gov: usize, level: usize) -> usize {
    gov * 3 + level
}

/// Renders the artifact from a completed sweep (separated from
/// [`timeline`] so the golden test can drive it at a fixed scale).
pub fn render(results: &[RunResult]) -> FigureReport {
    let mut body = String::new();
    body.push_str(
        "\n[memcached — telemetry timeline sparklines; p99 = worst per-core \
         online P99, poll = cores in NAPI polling mode, power = chip \
         milliwatts; low..high maps to ` .:-=+*#%@`]\n",
    );
    let headers = [
        "gov/load", "rows", "iv-us", "dec", "drop", "p99", "poll", "power",
    ];
    let mut rows = Vec::new();
    for (gi, gov) in GOV_LABELS.iter().enumerate() {
        for (li, level) in LoadLevel::all().iter().enumerate() {
            let t = &results[index(gi, li)].timeline;
            rows.push(vec![
                format!("{gov}/{level}"),
                t.rows().to_string(),
                (t.interval_ns / 1_000).to_string(),
                t.decimations.to_string(),
                t.dropped.to_string(),
                sparkline(&t.series_max(Gauge::P99Ns), SPARK_WIDTH),
                sparkline(&t.series_sum(Gauge::NapiPolling), SPARK_WIDTH),
                sparkline(&t.series_sum(Gauge::PowerMw), SPARK_WIDTH),
            ]);
        }
    }
    body.push_str(&report::table(&headers, rows));
    body.push_str(
        "\nReading: performance pins power flat and keeps P99 low at all \
         loads — the brute-force baseline. ondemand's poll track flaps as \
         cores oscillate between interrupt and polling mode, and each flap \
         prints as a P99 ridge. NMAP's poll track saturates under high load \
         and its power track steps with it: the governor raises the \
         operating point exactly while cores sit in polling mode, which is \
         the paper's mechanism drawn over time.\n",
    );
    FigureReport::new(
        "timeline",
        "Telemetry timeline — P99, packet mode, and power over the run",
        body,
    )
}

/// Builds the artifact: 4 governors × 3 loads on memcached.
pub fn timeline(scale: Scale, sup: &Supervisor) -> FigureReport {
    render(&sweep(scale, sup))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_has_all_cells() {
        let fig = timeline(Scale::Quick, &Supervisor::new());
        let data_rows = fig
            .body
            .lines()
            .filter(|l| GOV_LABELS.iter().any(|g| l.starts_with(&format!("{g}/"))))
            .count();
        assert_eq!(data_rows, 12);
        assert!(fig.body.contains("p99"));
    }

    #[test]
    fn cells_record_bounded_timelines() {
        let results = sweep(Scale::Quick, &Supervisor::new());
        for r in &results {
            let t = &r.timeline;
            assert!(!t.is_empty(), "{}: no timeline recorded", r.governor);
            assert!(t.rows() <= 512, "{}: cap exceeded", r.governor);
            assert!(
                t.interval_ns == t.base_interval_ns << t.decimations,
                "{}: interval must double once per decimation",
                r.governor
            );
        }
    }
}
