//! Plain-text report formatting.

use simcore::SimDuration;

/// A rendered experiment artifact.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Short id, e.g. `"fig12"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// The rendered text (tables + notes).
    pub body: String,
    /// Typed checks the artifact asserts that did not hold. Not part
    /// of the rendered text; `repro` exits non-zero when any is set.
    pub failed_checks: Vec<String>,
}

impl FigureReport {
    /// Builds a report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, body: String) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            body,
            failed_checks: Vec::new(),
        }
    }
}

impl std::fmt::Display for FigureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        write!(f, "{}", self.body)
    }
}

/// Renders an aligned text table.
///
/// # Examples
///
/// ```
/// let t = experiments::report::table(
///     &["name", "value"],
///     vec![vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
/// );
/// assert!(t.contains("name"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn table(headers: &[&str], rows: Vec<Vec<String>>) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.trim_end().to_string()
    };
    out.push_str(&render(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a duration with an adaptive unit (µs under 1 ms, else ms).
pub fn fmt_dur(d: SimDuration) -> String {
    let us = d.as_micros_f64();
    if us < 1_000.0 {
        format!("{us:.1}us")
    } else {
        format!("{:.2}ms", us / 1_000.0)
    }
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.2}%", frac * 100.0)
}

/// Formats a value normalized to a baseline, e.g. `0.64x`.
pub fn fmt_norm(value: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        "n/a".into()
    } else {
        format!("{:.3}x", value / baseline)
    }
}

/// Returns a warning line when a trace buffer overflowed and silently
/// dropped events, or `None` when the trace is complete. Callers that
/// render or export traces should surface this so a truncated timeline
/// is never mistaken for a quiet one.
///
/// # Examples
///
/// ```
/// use experiments::report::trace_drop_warning;
/// assert!(trace_drop_warning("fig2", 0).is_none());
/// let w = trace_drop_warning("fig2", 7).unwrap();
/// assert!(w.contains("7") && w.contains("fig2"));
/// ```
pub fn trace_drop_warning(context: &str, dropped: u64) -> Option<String> {
    if dropped == 0 {
        None
    } else {
        Some(format!(
            "warning: {context}: trace buffer overflowed — {dropped} event(s) \
             dropped; raise the trace capacity for a complete timeline"
        ))
    }
}

/// Formats a run profile as a one-line summary: deterministic engine
/// statistics plus host wall-clock (the latter is display-only and
/// never enters result comparisons).
pub fn fmt_profile(p: &crate::runner::RunProfile) -> String {
    format!(
        "events: {} scheduled, {} executed, {} cancelled; heap high-water {}; wall {:.1?}",
        p.engine.events_scheduled,
        p.engine.events_executed,
        p.engine.events_cancelled,
        p.engine.max_pending,
        p.wall,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "long-header"],
            vec![
                vec!["xxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // Column 2 starts at the same offset in every row.
        let off = lines[0].find("long-header").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), off);
        assert_eq!(lines[3].find('2').unwrap(), off);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let _ = table(&["a", "b"], vec![vec!["only-one".into()]]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(SimDuration::from_micros(250)), "250.0us");
        assert_eq!(fmt_dur(SimDuration::from_millis(3)), "3.00ms");
    }

    #[test]
    fn norm_and_pct() {
        assert_eq!(fmt_norm(50.0, 100.0), "0.500x");
        assert_eq!(fmt_norm(1.0, 0.0), "n/a");
        assert_eq!(fmt_pct(0.1234), "12.34%");
    }

    #[test]
    fn report_display() {
        let r = FigureReport::new("figX", "Title", "body\n".into());
        let s = r.to_string();
        assert!(s.starts_with("== figX — Title =="));
        assert!(s.ends_with("body\n"));
    }
}
