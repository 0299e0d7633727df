//! Optional latency timers a host hands to a monitor.
//!
//! Monitors are pure data structures; the serving layer is what cares how
//! long each operation takes. [`MonitorTimers`] is a bundle of shared
//! [`LogHistogram`]s the host passes in via
//! [`crate::Monitor::set_timers`]: each present histogram is
//! recorded by the monitor at the corresponding point (nanoseconds), and an
//! absent one costs the monitor nothing — not even a clock read. The
//! histograms are `Arc`-shared, so a sharded host can hand the same bundle
//! to every shard and read one merged distribution.

use std::sync::Arc;

use pm_obs::LogHistogram;

/// Shared duration histograms for a monitor's hot paths (nanoseconds).
/// `None` slots disable both recording and the clock reads around them.
#[derive(Debug, Clone, Default)]
pub struct MonitorTimers {
    /// One arrival: comparing an arrived object against every user (or
    /// cluster) frontier. [`crate::Monitor::process_batch`] applies objects
    /// in batches, so each object records its batch's apply time ÷ the
    /// batch length — one sample per object.
    pub arrival: Option<Arc<LogHistogram>>,
    /// One backfill replay — the history (or window) scan behind
    /// [`crate::Monitor::add_user`] / [`crate::Monitor::update_user`].
    pub backfill: Option<Arc<LogHistogram>>,
    /// One history compaction sweep ([`crate::History`] in
    /// [`crate::HistoryMode::Compact`]).
    pub sweep: Option<Arc<LogHistogram>>,
}

impl MonitorTimers {
    /// A bundle with every slot disabled (same as `default()`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any slot records.
    pub fn is_enabled(&self) -> bool {
        self.arrival.is_some() || self.backfill.is_some() || self.sweep.is_some()
    }
}

/// Runs `body` and records its duration into `timer` when present. The
/// clock is only read when a timer is attached.
#[inline]
pub(crate) fn timed<T>(timer: Option<&Arc<LogHistogram>>, body: impl FnOnce() -> T) -> T {
    timed_each(timer, 1, body)
}

/// Runs `body`, which performs `n` operations, and records its duration ÷
/// `n` into `timer` once per operation when present.
#[inline]
pub(crate) fn timed_each<T>(
    timer: Option<&Arc<LogHistogram>>,
    n: usize,
    body: impl FnOnce() -> T,
) -> T {
    match timer {
        Some(timer) => {
            let start = std::time::Instant::now();
            let result = body();
            let each = start.elapsed().div_f64(n.max(1) as f64);
            for _ in 0..n {
                timer.record_duration(each);
            }
            result
        }
        None => body(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_records_nowhere() {
        let timers = MonitorTimers::disabled();
        assert!(!timers.is_enabled());
        assert_eq!(timed(timers.arrival.as_ref(), || 7), 7);
    }

    #[test]
    fn timed_records_into_an_attached_histogram() {
        let histogram = Arc::new(LogHistogram::new());
        let timer = Some(Arc::clone(&histogram));
        let value = timed(timer.as_ref(), || 41 + 1);
        assert_eq!(value, 42);
        assert_eq!(histogram.count(), 1);
    }

    #[test]
    fn timed_each_records_one_sample_per_operation() {
        let histogram = Arc::new(LogHistogram::new());
        let timer = Some(Arc::clone(&histogram));
        let start = std::time::Instant::now();
        timed_each(timer.as_ref(), 8, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let whole = start.elapsed().as_nanos() as u64;
        assert_eq!(histogram.count(), 8);
        // The samples are shares of the whole, not eight copies of it.
        assert!(histogram.snapshot().sum() <= whole + 8, "{whole}");
    }
}
