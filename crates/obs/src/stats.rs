//! The collecting recorder and its snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metric::{Counter, Gauge, Hist};
use crate::recorder::Recorder;

const N_COUNTERS: usize = Counter::ALL.len();
const N_GAUGES: usize = Gauge::ALL.len();
const N_HISTS: usize = Hist::ALL.len();

/// Power-of-two buckets: bucket 0 holds the value 0, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i - 1]`. 65 buckets cover all of `u64`.
const N_BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound of bucket `i` (used as the quantile estimate).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

// A racing snapshot may split count/sum by one observation; consumers
// tolerate that.
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl HistCell {
    // srlint: ordering -- relaxed: histogram cells are independent monotone tallies with no cross-counter invariant; a snapshot racing an observe may split count/sum by one observation, which the metrics consumers tolerate
    fn new() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if let Some(b) = self.buckets.get(bucket_of(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fold a whole [`HistSnapshot`] in, bucket by bucket — exact, not
    /// a resampling, so quantiles of the merged cell equal quantiles of
    /// the combined observation streams (within bucket resolution).
    fn absorb(&self, s: &HistSnapshot) {
        self.count.fetch_add(s.count, Ordering::Relaxed);
        self.sum.fetch_add(s.sum, Ordering::Relaxed);
        self.max.fetch_max(s.max, Ordering::Relaxed);
        for (i, n) in s.buckets.iter().enumerate() {
            if *n > 0 {
                if let Some(b) = self.buckets.get(i) {
                    b.fetch_add(*n, Ordering::Relaxed);
                }
            }
        }
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| {
                self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed))
            }),
        }
    }
}

/// A [`Recorder`] that actually keeps the numbers: relaxed atomics, no
/// locks, shareable across threads by reference.
pub struct StatsRecorder {
    counters: [AtomicU64; N_COUNTERS],
    gauges: [AtomicU64; N_GAUGES],
    hists: [HistCell; N_HISTS],
}

impl Default for StatsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsRecorder {
    // srlint: ordering -- relaxed loads: snapshot() is documented best-effort and may miss values recorded mid-query; nothing downstream assumes a consistent cut across counters
    /// Fresh, all-zero recorder.
    pub fn new() -> Self {
        StatsRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistCell::new()),
        }
    }

    /// Fold a finished [`MetricsSnapshot`] into this recorder — what a
    /// long-lived recorder (the serve loop's) does with the merged
    /// per-batch snapshots `sr-exec` returns, so service-lifetime
    /// p50/p99 cover batched and unbatched queries alike.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for c in Counter::ALL {
            let v = snap.counter(c);
            if v > 0 {
                self.incr(c, v);
            }
        }
        for g in Gauge::ALL {
            self.gauge_max(g, snap.gauge(g));
        }
        for (i, cell) in self.hists.iter().enumerate() {
            if let Some(h) = Hist::ALL.get(i) {
                cell.absorb(&snap.hist(*h));
            }
        }
    }

    /// Copy the current values out. Relaxed loads: values recorded by
    /// other threads mid-query may or may not be included.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| {
                self.counters
                    .get(i)
                    .map_or(0, |c| c.load(Ordering::Relaxed))
            }),
            gauges: std::array::from_fn(|i| {
                self.gauges.get(i).map_or(0, |g| g.load(Ordering::Relaxed))
            }),
            hists: std::array::from_fn(|i| {
                self.hists
                    .get(i)
                    .map(HistCell::snapshot)
                    .unwrap_or_default()
            }),
        }
    }
}

impl Recorder for StatsRecorder {
    // srlint: ordering -- relaxed increments: recording sits on the query hot path and each metric is an independent tally; see the StatsRecorder note for the snapshot side
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn incr(&self, c: Counter, by: u64) {
        if let Some(a) = self.counters.get(c.index()) {
            a.fetch_add(by, Ordering::Relaxed);
        }
    }

    #[inline]
    fn gauge_max(&self, g: Gauge, v: u64) {
        if let Some(a) = self.gauges.get(g.index()) {
            a.fetch_max(v, Ordering::Relaxed);
        }
    }

    #[inline]
    fn observe(&self, h: Hist, v: u64) {
        if let Some(cell) = self.hists.get(h.index()) {
            cell.observe(v);
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    buckets: [u64; N_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`) from the
    /// power-of-two buckets, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

/// Point-in-time copy of every metric a [`StatsRecorder`] holds.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    counters: [u64; N_COUNTERS],
    gauges: [u64; N_GAUGES],
    hists: [HistSnapshot; N_HISTS],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; N_COUNTERS],
            gauges: [0; N_GAUGES],
            hists: std::array::from_fn(|_| HistSnapshot::default()),
        }
    }
}

impl MetricsSnapshot {
    /// All-zero snapshot — the identity for [`MetricsSnapshot::merge`].
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.index()).copied().unwrap_or(0)
    }

    /// Value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges.get(g.index()).copied().unwrap_or(0)
    }

    /// One histogram's snapshot.
    pub fn hist(&self, h: Hist) -> HistSnapshot {
        self.hists.get(h.index()).cloned().unwrap_or_default()
    }

    /// Difference `self - earlier` on counters and histogram count/sum
    /// (gauges and histogram max keep `self`'s value: high-water marks
    /// have no meaningful delta). Saturates instead of underflowing.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| {
                let now = self.counters.get(i).copied().unwrap_or(0);
                let then = earlier.counters.get(i).copied().unwrap_or(0);
                now.saturating_sub(then)
            }),
            gauges: self.gauges,
            hists: std::array::from_fn(|i| {
                let now = self.hists.get(i).cloned().unwrap_or_default();
                let then = earlier.hists.get(i).cloned().unwrap_or_default();
                HistSnapshot {
                    count: now.count.saturating_sub(then.count),
                    sum: now.sum.saturating_sub(then.sum),
                    max: now.max,
                    buckets: std::array::from_fn(|j| {
                        let a = now.buckets.get(j).copied().unwrap_or(0);
                        let b = then.buckets.get(j).copied().unwrap_or(0);
                        a.saturating_sub(b)
                    }),
                }
            }),
        }
    }

    /// Combine `self` with `other`, as if one recorder had seen both
    /// streams of events: counters and histogram count/sum/buckets add,
    /// gauges and histogram max take the maximum (they are high-water
    /// marks). This is how the batch executor folds per-worker recorders
    /// into one batch-wide snapshot. Saturates instead of overflowing.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| {
                let a = self.counters.get(i).copied().unwrap_or(0);
                let b = other.counters.get(i).copied().unwrap_or(0);
                a.saturating_add(b)
            }),
            gauges: std::array::from_fn(|i| {
                let a = self.gauges.get(i).copied().unwrap_or(0);
                let b = other.gauges.get(i).copied().unwrap_or(0);
                a.max(b)
            }),
            hists: std::array::from_fn(|i| {
                let a = self.hists.get(i).cloned().unwrap_or_default();
                let b = other.hists.get(i).cloned().unwrap_or_default();
                HistSnapshot {
                    count: a.count.saturating_add(b.count),
                    sum: a.sum.saturating_add(b.sum),
                    max: a.max.max(b.max),
                    buckets: std::array::from_fn(|j| {
                        let x = a.buckets.get(j).copied().unwrap_or(0);
                        let y = b.buckets.get(j).copied().unwrap_or(0);
                        x.saturating_add(y)
                    }),
                }
            }),
        }
    }

    /// Render as a flat JSON object: counters and gauges by name,
    /// histograms as nested `{count, sum, max, mean, p50, p99}` objects.
    /// Keys appear in declaration order; the schema is fixed at compile
    /// time, which is what the CI trace-validation job checks against.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        for c in Counter::ALL {
            let _ = write!(s, "\"{}\":{},", c.name(), self.counter(c));
        }
        for g in Gauge::ALL {
            let _ = write!(s, "\"{}\":{},", g.name(), self.gauge(g));
        }
        for h in Hist::ALL {
            let hs = self.hist(h);
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{}}},",
                h.name(),
                hs.count,
                hs.sum,
                hs.max,
                hs.mean(),
                hs.quantile(0.5),
                hs.quantile(0.99),
            );
        }
        if s.ends_with(',') {
            s.pop();
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = StatsRecorder::new();
        r.incr(Counter::NodeExpansions, 2);
        r.incr(Counter::NodeExpansions, 3);
        r.incr(Counter::PruneSphere, 1);
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::NodeExpansions), 5);
        assert_eq!(s.counter(Counter::PruneSphere), 1);
        assert_eq!(s.counter(Counter::PruneRect), 0);
    }

    #[test]
    fn gauge_keeps_maximum() {
        let r = StatsRecorder::new();
        r.gauge_max(Gauge::HeapHighWater, 4);
        r.gauge_max(Gauge::HeapHighWater, 9);
        r.gauge_max(Gauge::HeapHighWater, 7);
        assert_eq!(r.snapshot().gauge(Gauge::HeapHighWater), 9);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = StatsRecorder::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            r.observe(Hist::NodeFanout, v);
        }
        let h = r.snapshot().hist(Hist::NodeFanout);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1106);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
        // p50 falls in the bucket holding 2 and 3 -> upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // The top quantile is clamped to the observed max.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn snapshot_since_subtracts_counters() {
        let r = StatsRecorder::new();
        r.incr(Counter::PointsScored, 10);
        r.observe(Hist::QueryNs, 50);
        let before = r.snapshot();
        r.incr(Counter::PointsScored, 7);
        r.observe(Hist::QueryNs, 70);
        let d = r.snapshot().since(&before);
        assert_eq!(d.counter(Counter::PointsScored), 7);
        assert_eq!(d.hist(Hist::QueryNs).count, 1);
        assert_eq!(d.hist(Hist::QueryNs).sum, 70);
    }

    #[test]
    fn merge_adds_counts_and_maxes_highwater() {
        let a = StatsRecorder::new();
        a.incr(Counter::NodeExpansions, 3);
        a.gauge_max(Gauge::HeapHighWater, 4);
        a.observe(Hist::QueryNs, 10);
        a.observe(Hist::QueryNs, 100);
        let b = StatsRecorder::new();
        b.incr(Counter::NodeExpansions, 2);
        b.incr(Counter::PruneSphere, 1);
        b.gauge_max(Gauge::HeapHighWater, 9);
        b.observe(Hist::QueryNs, 50);

        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.counter(Counter::NodeExpansions), 5);
        assert_eq!(m.counter(Counter::PruneSphere), 1);
        assert_eq!(m.gauge(Gauge::HeapHighWater), 9);
        let h = m.hist(Hist::QueryNs);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 160);
        assert_eq!(h.max, 100);

        // empty() is the identity on both sides.
        assert_eq!(MetricsSnapshot::empty().merge(&m), m);
        assert_eq!(m.merge(&MetricsSnapshot::empty()), m);
    }

    #[test]
    fn json_is_flat_and_complete() {
        let r = StatsRecorder::new();
        r.incr(Counter::LeafExpansions, 1);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\":", c.name())), "{json}");
        }
        assert!(json.contains("\"leaf_expansions\":1"));
        assert!(json.contains("\"query_ns\":{\"count\":0"));
    }
}
