//! A protocol's shared schedule, built on first use and keyed on the
//! global knowledge it was built from.
//!
//! Protocols precompute their Linial, Kuhn–Wattenhofer or cover-free
//! schedules from global knowledge — the ID space, and for some the
//! vertex count `n` or the maximum degree Δ — once per instance, then
//! read them from every step. A [`ScheduleCell`] remembers that key, so
//! an instance reused on a run whose key differs panics instead of
//! running the first run's schedule (which, for a larger ID space, is
//! truncated and colors wrongly or runs out of rounds).

use std::sync::OnceLock;

/// The global knowledge a schedule was built from: the ID space as the
/// schedule reads it, plus `n` and Δ for the schedules that read them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ScheduleKey {
    /// The ID space the schedule covers.
    pub(crate) id_space: u64,
    /// The vertex count, for schedules that read `n`.
    pub(crate) n: Option<u64>,
    /// The maximum degree Δ, for schedules that read it.
    pub(crate) max_degree: Option<u64>,
}

impl ScheduleKey {
    /// A key on the ID space alone.
    pub(crate) fn ids(id_space: u64) -> ScheduleKey {
        ScheduleKey {
            id_space,
            n: None,
            max_degree: None,
        }
    }

    /// This key plus the vertex count.
    pub(crate) fn n(self, n: u64) -> ScheduleKey {
        ScheduleKey { n: Some(n), ..self }
    }

    /// This key plus the maximum degree.
    pub(crate) fn max_degree(self, max_degree: u64) -> ScheduleKey {
        ScheduleKey {
            max_degree: Some(max_degree),
            ..self
        }
    }
}

/// A schedule built once per protocol instance, with the key it was
/// built from.
#[derive(Debug)]
pub(crate) struct ScheduleCell<T>(OnceLock<(ScheduleKey, T)>);

impl<T> Default for ScheduleCell<T> {
    fn default() -> Self {
        ScheduleCell(OnceLock::new())
    }
}

impl<T> ScheduleCell<T> {
    /// An empty cell.
    pub(crate) const fn new() -> Self {
        ScheduleCell(OnceLock::new())
    }

    /// The schedule for `key`, built by `build` on first use.
    ///
    /// # Panics
    ///
    /// If the cell holds a schedule built for a different key: the
    /// instance was reused on a run with other global knowledge, and
    /// needs constructing anew.
    pub(crate) fn get(&self, key: ScheduleKey, build: impl FnOnce() -> T) -> &T {
        let (built_for, schedule) = self.0.get_or_init(|| (key, build()));
        assert!(
            *built_for == key,
            "schedule built for {built_for:?} reused for {key:?}: \
             construct a new protocol instance for this run"
        );
        schedule
    }
}
