//! Typed event logs for timeline figures.
//!
//! An [`EventLog<T>`] records `(time, T)` markers — ksoftirqd
//! wake-ups, C-state entries, mode transitions — preserving the exact
//! times the paper's timeline figures (Fig 2, 7, 9) plot as marks.

use crate::time::SimTime;

/// An append-only log of timestamped markers.
///
/// # Examples
///
/// ```
/// use simcore::{EventLog, SimTime};
/// let mut log: EventLog<&str> = EventLog::new();
/// log.push(SimTime::from_micros(3), "wake");
/// log.push(SimTime::from_micros(9), "sleep");
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.iter().next().unwrap().1, "wake");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog<T> {
    entries: Vec<(SimTime, T)>,
}

impl<T> Default for EventLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventLog<T> {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog {
            entries: Vec::new(),
        }
    }

    /// Appends a marker at time `t`.
    pub fn push(&mut self, t: SimTime, marker: T) {
        self.entries.push((t, marker));
    }

    /// Number of markers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log holds no markers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(SimTime, T)] {
        &self.entries
    }

    /// Iterator over `(time, marker)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.entries.iter()
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<T> FromIterator<(SimTime, T)> for EventLog<T> {
    fn from_iter<I: IntoIterator<Item = (SimTime, T)>>(iter: I) -> Self {
        EventLog {
            entries: iter.into_iter().collect(),
        }
    }
}

impl<T> Extend<(SimTime, T)> for EventLog<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_empties() {
        let mut log: EventLog<u8> = EventLog::new();
        log.push(SimTime::ZERO, 1);
        log.clear();
        assert!(log.is_empty());
    }
}
