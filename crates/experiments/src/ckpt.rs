//! Crash-safe sweep checkpointing: completed cells stream to an
//! append-only `checkpoint.jsonl`, keyed by a content hash of their
//! [`RunConfig`], so a re-invoked sweep skips finished cells and
//! reproduces a byte-identical merged artifact.
//!
//! # File format
//!
//! One JSON object per line (JSONL), format version 5:
//!
//! * `{"kind":"header","version":5}` — starts every run of lines
//!   written in this format;
//! * `{"kind":"cell","key":N,"result":{...}}` — one completed cell;
//! * `{"kind":"quarantine","key":N,"governor":...,"error":...,
//!   "attempts":N}` — a cell the supervisor gave up on.
//!
//! Keys are plain integers. Inside `result` every struct is an object
//! keyed by its Rust field names, every enum is its index in the
//! type's `ALL` list, and floats and `i64`s travel as their 64-bit
//! patterns, so every value round-trips exactly.
//!
//! Cell and quarantine lines count only after a header whose version
//! matches [`CHECKPOINT_VERSION`]: a file written in another format
//! re-runs its cells, and the new results are appended after a fresh
//! header. Loading tolerates torn tails and corrupt lines: anything
//! that fails to parse or decode is skipped (and counted), because a
//! crash mid-append must not invalidate the finished prefix. Cells
//! that collect traces are never checkpointed — traces are too large
//! to persist and re-run deterministically anyway.

use crate::json::{self, Value};
use crate::runner::{RunConfig, RunResult};
use governors::DegradationStats;
use simcore::{
    AttribSummary, CoreEnergySummary, DecisionTrigger, EnergyBreakdown, EnergyComponent,
    EnergySummary, FaultStats, FlightSummary, GovDecision, HistogramSnapshot, MetricsSnapshot,
    ModeEnergy, RecoverySummary, SimDuration, SimTime, Stage, StageSummary, Timeline,
    WatchdogReport,
};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Current checkpoint format version. Version 5 keys every object by
/// its Rust field names; a file in any other version re-runs its
/// cells.
pub const CHECKPOINT_VERSION: u64 = 5;

/// Stable content key for a sweep cell: FNV-1a 64 over the config's
/// `Debug` rendering. Any field change — seed, load, governor,
/// thresholds, fault plan — changes the key, so a stale checkpoint
/// can never satisfy an edited sweep.
pub fn cell_key(cfg: &RunConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Whether the file at `path` is empty or ends with a newline — i.e.
/// whether appending a fresh record is safe without a separator.
fn ends_with_newline(path: &Path) -> std::io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(true),
        Err(e) => return Err(e),
    };
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A cell the supervisor retried to exhaustion and gave up on.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The cell's content key.
    pub key: u64,
    /// The governor label, for the artifact's quarantine section.
    pub governor: String,
    /// Display of the final error.
    pub error: String,
    /// Attempts spent before quarantining.
    pub attempts: u32,
}

/// Decode failure inside an otherwise parseable line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint decode error: {}", self.0)
    }
}

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// Lossless conversion between a checkpointed type and its JSON form.
trait Codec: Sized {
    fn enc(&self) -> Value;
    fn dec(v: &Value) -> Result<Self, DecodeError>;
}

/// Implements [`Codec`] for a scalar from one encode and one decode
/// expression; a decode yielding `None` is an error naming the type.
macro_rules! codec_leaf {
    ($($ty:ty => |$x:ident| $enc:expr, |$v:ident| $dec:expr;)*) => {$(
        impl Codec for $ty {
            fn enc(&self) -> Value {
                let $x = self;
                $enc
            }
            fn dec($v: &Value) -> Result<Self, DecodeError> {
                $dec.ok_or(DecodeError(stringify!($ty)))
            }
        }
    )*};
}

codec_leaf! {
    u64 => |n| Value::UInt(*n), |v| v.as_u64();
    u32 => |n| Value::UInt(u64::from(*n)), |v| v.as_u64().and_then(|n| u32::try_from(n).ok());
    // Two's-complement bits in a u64, the same lossless trick as f64.
    i64 => |n| Value::UInt(*n as u64), |v| v.as_u64().map(|n| n as i64);
    f64 => |f| Value::bits(*f), |v| v.as_bits_f64();
    bool => |b| Value::Bool(*b), |v| v.as_bool();
    String => |s| Value::Str(s.clone()), |v| v.as_str().map(str::to_string);
    SimDuration => |d| Value::UInt(d.as_nanos()), |v| v.as_u64().map(SimDuration::from_nanos);
    SimTime => |t| Value::UInt(t.as_nanos()), |v| v.as_u64().map(SimTime::from_nanos);
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self) -> Value {
        Value::Arr(self.iter().map(Codec::enc).collect())
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        v.as_arr()
            .ok_or(DecodeError("Vec"))?
            .iter()
            .map(T::dec)
            .collect()
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn enc(&self) -> Value {
        Value::Arr(vec![self.0.enc(), self.1.enc()])
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::dec(a)?, B::dec(b)?)),
            _ => Err(DecodeError("pair")),
        }
    }
}

/// Encodes each listed enum as its index in the type's `ALL` list.
macro_rules! codec_enum {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn enc(&self) -> Value {
                let idx = <$ty>::ALL.iter().position(|x| x == self).unwrap_or(0);
                Value::UInt(idx as u64)
            }
            fn dec(v: &Value) -> Result<Self, DecodeError> {
                v.as_u64()
                    .and_then(|i| <$ty>::ALL.get(usize::try_from(i).ok()?))
                    .copied()
                    .ok_or(DecodeError(stringify!($ty)))
            }
        }
    )*};
}

codec_enum!(Stage, DecisionTrigger);

/// Encodes a struct as an object keyed by its field names. The
/// decoder builds a complete struct literal, so a field missing from
/// the list is a compile error rather than a silently re-run cell.
/// Fields after the `;` are not stored; they decode to the given
/// value.
macro_rules! codec_struct {
    ($ty:ty { $($field:ident),* $(,)? } $(; $($skip:ident: $default:expr),*)?) => {
        impl Codec for $ty {
            fn enc(&self) -> Value {
                Value::obj(vec![$((stringify!($field), self.$field.enc())),*])
            }
            fn dec(v: &Value) -> Result<Self, DecodeError> {
                Ok(Self {
                    $($field: field(v, stringify!($field))?,)*
                    $($($skip: $default,)*)?
                })
            }
        }
    };
}

fn field<T: Codec>(v: &Value, key: &'static str) -> Result<T, DecodeError> {
    T::dec(v.get(key).ok_or(DecodeError(key))?)
}

codec_struct!(RunResult {
    governor,
    sleep,
    sent,
    received,
    p99,
    p50,
    frac_above_slo,
    slo,
    energy_j,
    duration,
    avg_power_w,
    rx_dropped,
    dvfs_transitions,
    c6_entries,
    metrics,
    attrib,
    energy,
    gov_flight,
    watchdog,
    faults,
    degradation,
    fault_recovery,
    timeline,
}; traces: None);
codec_struct!(MetricsSnapshot {
    counters,
    gauges,
    histograms,
});
codec_struct!(HistogramSnapshot {
    count,
    sum,
    max,
    buckets,
});
codec_struct!(AttribSummary {
    requests,
    pending,
    mismatches,
    attributed_total_ns,
    e2e_total_ns,
    stages,
});
codec_struct!(StageSummary {
    stage,
    sum_ns,
    p50_ns,
    p99_ns,
    max_ns,
});
codec_struct!(WatchdogReport {
    samples,
    episodes,
    open_episode,
    first_detect_ns,
    total_violation_ns,
    mean_detect_ns,
    mean_recover_ns,
});
codec_struct!(FaultStats {
    wire_requests_dropped,
    wire_responses_dropped,
    irqs_lost,
    spurious_irqs,
    irq_unmasks_blocked,
    wakes_delayed,
    signals_suppressed,
    signals_replayed,
    polls_clamped,
    dvfs_delays,
    pstate_clamps,
    exec_stalls,
    load_switches,
    incast_requests,
    flow_churns,
    server_crashes,
    server_recoveries,
    link_delays,
    partition_drops,
    skewed_steers,
    stale_probes,
    admission_bypasses,
});
codec_struct!(EnergySummary {
    cores,
    uncore_uj,
    modes,
    rapl_clamps,
});
codec_struct!(CoreEnergySummary {
    core,
    measured_uj,
    breakdown,
});
codec_struct!(ModeEnergy {
    interrupt_uj,
    polling_uj,
    transition_uj,
});
codec_struct!(FlightSummary {
    total,
    evicted,
    raises,
    lowers,
    by_trigger,
    decisions,
});
codec_struct!(GovDecision {
    at,
    core,
    trigger,
    util_permille,
    polling,
    queue_depth,
    from_pstate,
    to_pstate,
    chip_wide,
});
codec_struct!(Timeline {
    cores,
    base_interval_ns,
    interval_ns,
    decimations,
    dropped,
    times_ns,
    values,
});
codec_struct!(RecoverySummary {
    attributed,
    recovered,
    unrecovered,
    unattributed,
    mean_recovery_ns,
    max_recovery_ns,
});
codec_struct!(DegradationStats {
    degradations,
    recoveries,
    degraded_cores,
});
codec_struct!(QuarantineRecord {
    key,
    governor,
    error,
    attempts,
});

/// By hand: the per-component array is private, so it travels in
/// [`EnergyComponent::ALL`] order (the order `iter` yields).
impl Codec for EnergyBreakdown {
    fn enc(&self) -> Value {
        Value::Arr(self.iter().map(|(_, uj)| uj.enc()).collect())
    }
    fn dec(v: &Value) -> Result<Self, DecodeError> {
        let slots = Vec::<u64>::dec(v)?;
        if slots.len() != EnergyComponent::ALL.len() {
            return Err(DecodeError("EnergyBreakdown"));
        }
        let mut out = EnergyBreakdown::default();
        for (component, uj) in EnergyComponent::ALL.into_iter().zip(slots) {
            out.add_uj(component, uj);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The checkpoint file
// ---------------------------------------------------------------------

/// A `header` line's payload.
struct Header {
    version: u64,
}

/// A `cell` line's payload: one completed, trace-free cell.
struct CellLine {
    key: u64,
    result: RunResult,
}

codec_struct!(Header { version });
codec_struct!(CellLine { key, result });

enum Line {
    Header(Header),
    Cell(Box<CellLine>),
    Quarantine(QuarantineRecord),
}

/// An append-only sweep checkpoint.
///
/// Open with [`Checkpoint::open`]; every line is flushed as it is
/// appended, so the finished prefix survives a crash or SIGKILL at
/// any point.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    file: File,
    cells: HashMap<u64, RunResult>,
    quarantined: HashMap<u64, QuarantineRecord>,
    skipped_lines: usize,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path`, loading every
    /// decodable line that follows a current-version header. Corrupt,
    /// torn or stale lines are skipped and counted in
    /// [`skipped_lines`](Self::skipped_lines).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Checkpoint> {
        let path = path.as_ref().to_path_buf();
        let mut cells = HashMap::new();
        let mut quarantined = HashMap::new();
        let mut skipped = 0usize;
        // Whether the lines read so far follow a header in this format.
        let mut current = false;
        if let Ok(existing) = File::open(&path) {
            for line in BufReader::new(existing).lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                match Self::load_line(&line) {
                    Ok(Line::Header(header)) => {
                        current = header.version == CHECKPOINT_VERSION;
                        if !current {
                            skipped += 1;
                        }
                    }
                    Ok(Line::Cell(cell)) if current => {
                        cells.insert(cell.key, cell.result);
                    }
                    Ok(Line::Quarantine(record)) if current => {
                        quarantined.insert(record.key, record);
                    }
                    _ => skipped += 1,
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        // A kill mid-append can leave a torn final line with no
        // newline. Appending straight after it would splice the next
        // record onto the torn bytes and corrupt it too — start on a
        // fresh line so only the torn line is lost.
        if !ends_with_newline(&path)? {
            writeln!(file)?;
        }
        let mut checkpoint = Checkpoint {
            path,
            file,
            cells,
            quarantined,
            skipped_lines: skipped,
        };
        if !current {
            let header = Header {
                version: CHECKPOINT_VERSION,
            };
            checkpoint.append("header", &header)?;
        }
        Ok(checkpoint)
    }

    fn load_line(line: &str) -> Result<Line, DecodeError> {
        let v = json::parse(line).map_err(|_| DecodeError("parse"))?;
        match v.get("kind").and_then(Value::as_str) {
            Some("header") => Ok(Line::Header(Header::dec(&v)?)),
            Some("cell") => Ok(Line::Cell(Box::new(CellLine::dec(&v)?))),
            Some("quarantine") => Ok(Line::Quarantine(QuarantineRecord::dec(&v)?)),
            _ => Err(DecodeError("kind")),
        }
    }

    /// Appends `record` as one line tagged with `kind`, and flushes.
    fn append(&mut self, kind: &str, record: &impl Codec) -> std::io::Result<()> {
        let mut fields = vec![("kind".to_string(), Value::Str(kind.to_string()))];
        if let Value::Obj(rest) = record.enc() {
            fields.extend(rest);
        }
        writeln!(self.file, "{}", Value::Obj(fields).to_json())?;
        self.file.flush()
    }

    /// The checkpoint's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines skipped while loading (torn tail, corruption, stale
    /// format).
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Completed cells loaded or appended so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no completed cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The stored result for `cfg`, if this exact config finished in
    /// an earlier invocation. Trace-collecting cells never hit.
    pub fn lookup(&self, cfg: &RunConfig) -> Option<&RunResult> {
        if cfg.collect_traces {
            return None;
        }
        self.cells.get(&cell_key(cfg))
    }

    /// The quarantine record for `cfg`, if it was given up on.
    pub fn lookup_quarantine(&self, cfg: &RunConfig) -> Option<&QuarantineRecord> {
        self.quarantined.get(&cell_key(cfg))
    }

    /// All quarantine records, key-ascending.
    pub fn quarantined(&self) -> Vec<&QuarantineRecord> {
        let mut records: Vec<_> = self.quarantined.values().collect();
        records.sort_by_key(|r| r.key);
        records
    }

    /// Streams one completed cell to disk (append + flush). Cells
    /// with traces are skipped silently — they re-run on resume.
    pub fn record(&mut self, cfg: &RunConfig, result: &RunResult) -> std::io::Result<()> {
        if cfg.collect_traces {
            return Ok(());
        }
        let cell = CellLine {
            key: cell_key(cfg),
            result: result.clone(),
        };
        self.append("cell", &cell)?;
        self.cells.insert(cell.key, cell.result);
        Ok(())
    }

    /// Streams one quarantine decision to disk (append + flush).
    pub fn record_quarantine(
        &mut self,
        cfg: &RunConfig,
        error: &str,
        attempts: u32,
    ) -> std::io::Result<()> {
        let record = QuarantineRecord {
            key: cell_key(cfg),
            governor: cfg.governor.label().to_string(),
            error: error.to_string(),
            attempts,
        };
        self.append("quarantine", &record)?;
        self.quarantined.insert(record.key, record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::chaos;
    use crate::runner::{self, GovernorKind, RunConfig, Scale};
    use workload::{AppKind, LoadSpec};

    fn tiny(seed: u64) -> RunConfig {
        RunConfig {
            warmup: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(150),
            ..RunConfig::new(
                AppKind::Memcached,
                LoadSpec::custom(20_000.0, SimDuration::from_millis(100), 0.4, 0.3),
                GovernorKind::Ondemand,
                Scale::Quick,
            )
        }
        .with_seed(seed)
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nmap-ckpt-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn run_result_round_trips_exactly() {
        // NMAP under the chaos soak's kernel plan fills every summary
        // a fault-free tiny cell leaves at zero.
        let (_, nmap) = chaos::all_governors(AppKind::Memcached)
            .into_iter()
            .find(|(label, _)| *label == "nmap")
            .expect("chaos sweeps nmap");
        let (_, kernel) = chaos::plans()
            .into_iter()
            .find(|(label, _)| *label == "kernel")
            .expect("chaos has a kernel plan");
        let rich = runner::run(
            RunConfig::new(
                AppKind::Memcached,
                LoadSpec::custom(30_000.0, SimDuration::from_millis(100), 0.4, 0.3),
                nmap,
                Scale::Quick,
            )
            .with_seed(7)
            .with_fault_plan(kernel),
        );
        assert!(rich.faults.total() > 0, "faults injected");
        assert!(!rich.timeline.times_ns.is_empty(), "timeline sampled");
        // The recorders behind these three are compiled only with `obs`.
        if cfg!(feature = "obs") {
            assert!(!rich.gov_flight.decisions.is_empty(), "decisions recorded");
            assert!(!rich.attrib.stages.is_empty(), "latency attributed");
            assert!(!rich.energy.cores.is_empty(), "energy attributed");
        }
        for result in [runner::run(tiny(7)), rich] {
            let decoded = RunResult::dec(&result.enc()).expect("decodes");
            assert_eq!(decoded, result, "codec must be lossless");
        }
    }

    #[test]
    fn cells_after_a_stale_header_are_not_served() {
        let path = tmp("stale");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(23);
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record(&cfg, &runner::run(cfg.clone())).expect("record");
            ck.record_quarantine(&tiny(24), "wall-clock budget exceeded", 3)
                .expect("record");
        }
        // The same lines behind a header from an older format.
        let text = std::fs::read_to_string(&path).expect("read");
        let (_, body) = text.split_once('\n').expect("header line");
        std::fs::write(
            &path,
            format!("{{\"kind\":\"header\",\"version\":1}}\n{body}"),
        )
        .expect("write");
        let ck = Checkpoint::open(&path).expect("reopen");
        assert_eq!(ck.skipped_lines(), 3, "header, cell and quarantine skipped");
        assert!(ck.lookup(&cfg).is_none(), "stale cell re-runs");
        assert!(ck.lookup_quarantine(&tiny(24)).is_none());
        // The reopen appended a current header, so cells recorded from
        // now on are served again.
        drop(ck);
        {
            let mut ck = Checkpoint::open(&path).expect("reopen");
            ck.record(&cfg, &runner::run(cfg.clone())).expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen again");
        assert!(ck.lookup(&cfg).is_some(), "fresh cell served");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_persists_and_reloads_cells() {
        let path = tmp("reload");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(11);
        let result = runner::run(cfg.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            assert!(ck.lookup(&cfg).is_none());
            ck.record(&cfg, &result).expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen");
        assert_eq!(ck.skipped_lines(), 0);
        assert_eq!(ck.lookup(&cfg), Some(&result));
        // A different seed is a different key.
        assert!(ck.lookup(&tiny(12)).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(13);
        let result = runner::run(cfg.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record(&cfg, &result).expect("record");
        }
        // Simulate a crash mid-append: a second cell line cut short.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"kind\":\"cell\",\"key\":\"00000000000000ff\",\"result\":{\"gov");
        std::fs::write(&path, text).expect("write");
        let ck = Checkpoint::open(&path).expect("reopen");
        assert_eq!(ck.skipped_lines(), 1, "torn line skipped");
        assert_eq!(ck.lookup(&cfg), Some(&result), "intact prefix kept");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appending_after_a_torn_tail_does_not_corrupt_the_new_record() {
        let path = tmp("torn-append");
        let _ = std::fs::remove_file(&path);
        let (first, second) = (tiny(13), tiny(14));
        let first_result = runner::run(first.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record(&first, &first_result).expect("record");
        }
        // A kill mid-append leaves torn bytes with no trailing newline.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"kind\":\"cell\",\"key\":\"00");
        std::fs::write(&path, text).expect("write");
        // The resumed process appends another cell; it must land on a
        // fresh line, not splice onto the torn bytes.
        let second_result = runner::run(second.clone());
        {
            let mut ck = Checkpoint::open(&path).expect("reopen");
            ck.record(&second, &second_result).expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen again");
        assert_eq!(ck.skipped_lines(), 1, "only the torn line is lost");
        assert_eq!(ck.lookup(&first), Some(&first_result));
        assert_eq!(ck.lookup(&second), Some(&second_result));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_records_round_trip() {
        let path = tmp("quar");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(17);
        {
            let mut ck = Checkpoint::open(&path).expect("open");
            ck.record_quarantine(&cfg, "wall-clock budget exceeded", 3)
                .expect("record");
        }
        let ck = Checkpoint::open(&path).expect("reopen");
        let record = ck.lookup_quarantine(&cfg).expect("present");
        assert_eq!(record.attempts, 3);
        assert_eq!(record.governor, "ondemand");
        assert!(record.error.contains("wall-clock"));
        assert_eq!(ck.quarantined().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_cells_are_never_checkpointed() {
        let path = tmp("traces");
        let _ = std::fs::remove_file(&path);
        let cfg = tiny(19).with_traces();
        let result = runner::run(cfg.clone());
        let mut ck = Checkpoint::open(&path).expect("open");
        ck.record(&cfg, &result).expect("record is a no-op");
        assert!(ck.lookup(&cfg).is_none(), "trace cells always re-run");
        assert!(ck.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cell_key_tracks_every_field() {
        let a = cell_key(&tiny(1));
        assert_eq!(a, cell_key(&tiny(1)), "deterministic");
        assert_ne!(a, cell_key(&tiny(2)), "seed changes the key");
        assert_ne!(
            a,
            cell_key(&tiny(1).with_nic_queues(2)),
            "queue override changes the key"
        );
    }
}
