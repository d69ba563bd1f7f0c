//! The [`Recorder`] trait and its zero-cost default.

use crate::metric::{Counter, Gauge, Hist};

/// Sink for query-time metrics.
///
/// Engines are generic over `R: Recorder + ?Sized`, so passing [`Noop`]
/// monomorphizes every recording call into nothing — the instrumented hot
/// paths cost zero when observation is off. Passing `&StatsRecorder` (or
/// `&dyn Recorder`) turns the same code paths into relaxed atomic adds.
///
/// The search (`sr_query::search`) counts a query's work in locals and
/// publishes it once per query: one `incr` per non-zero counter and one
/// `gauge_max`, then the query span's `observe`. Only the per-inner-node
/// fan-out sample is observed while the query runs.
pub trait Recorder {
    /// Whether this recorder keeps anything. Lets call sites skip *work
    /// that only exists to be recorded* (e.g. scanning a finished search's
    /// queue to count never-visited branches); plain `incr`/`observe`
    /// calls do not need the guard.
    fn enabled(&self) -> bool;

    /// Add `by` to a monotonic counter.
    fn incr(&self, c: Counter, by: u64);

    /// Raise a high-water-mark gauge to at least `v`.
    fn gauge_max(&self, g: Gauge, v: u64);

    /// Record one sample into a log-scaled histogram.
    fn observe(&self, h: Hist, v: u64);
}

/// The zero-cost recorder: every method is an empty inline body.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noop;

impl Recorder for Noop {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn incr(&self, _c: Counter, _by: u64) {}

    #[inline(always)]
    fn gauge_max(&self, _g: Gauge, _v: u64) {}

    #[inline(always)]
    fn observe(&self, _h: Hist, _v: u64) {}
}

/// References delegate, so `&StatsRecorder` and `&dyn Recorder` both
/// satisfy `R: Recorder` bounds without wrapper types.
impl<R: Recorder + ?Sized> Recorder for &R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn incr(&self, c: Counter, by: u64) {
        (**self).incr(c, by);
    }

    #[inline]
    fn gauge_max(&self, g: Gauge, v: u64) {
        (**self).gauge_max(g, v);
    }

    #[inline]
    fn observe(&self, h: Hist, v: u64) {
        (**self).observe(h, v);
    }
}
