//! The closed set of metric names.
//!
//! Enums rather than strings: recording compiles to an array index and a
//! relaxed atomic add, and the JSON schema emitted by `srtool --trace` is
//! fixed at compile time.

/// Monotonic counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Internal (non-leaf) nodes expanded by a query.
    NodeExpansions,
    /// Leaf nodes expanded by a query.
    LeafExpansions,
    /// Points whose exact distance to the query was computed.
    PointsScored,
    /// Child branches scored with a region lower bound (pruned or not).
    BranchesConsidered,
    /// Branches skipped because their lower bound could not beat the
    /// current candidate set / range radius.
    PruneEvents,
    /// Prune events where the *sphere* bound alone was sufficient.
    /// Under `DistanceBound::Both` a single event can count toward both
    /// shapes, so `PruneSphere + PruneRect >= PruneEvents` there.
    PruneSphere,
    /// Prune events where the *rectangle* bound alone was sufficient.
    PruneRect,
    /// Leaf points abandoned by the early-abandon distance kernel: their
    /// partial squared distance already exceeded the pruning threshold,
    /// so the remaining dimensions were never accumulated. Every such
    /// point still counts toward `PointsScored` (the scan visited it),
    /// so `points_scored` counts every entry of every expanded leaf.
    EarlyAbandons,
    /// Buffer-pool hits observed by the caller (mirrored from `IoStats`).
    CacheHits,
    /// Buffer-pool misses observed by the caller (mirrored from `IoStats`).
    CacheMisses,
    /// Page-image redo frames appended to the write-ahead log (mirrored
    /// from the pager's `WalStats` by the caller, like the cache pair).
    WalFramesAppended,
    /// Commit markers appended to the WAL (mirrored from `WalStats`).
    WalCommits,
    /// WAL truncations after successful checkpoints (mirrored from
    /// `WalStats`).
    WalTruncations,
    /// Opens that replayed committed WAL frames (mirrored from
    /// `WalStats`). Nonzero in a trace means this store recovered from
    /// a crash when it was opened.
    WalReplays,
    /// Committed page images reapplied across all replays (mirrored
    /// from `WalStats`).
    WalReplayedFrames,
    /// Complete but uncommitted frames discarded at replay (mirrored
    /// from `WalStats`).
    WalDroppedFrames,
    /// Torn or corrupt log tails discarded at replay (mirrored from
    /// `WalStats`).
    WalTornTails,
}

impl Counter {
    /// Every counter, in rendering order.
    pub const ALL: [Counter; 17] = [
        Counter::NodeExpansions,
        Counter::LeafExpansions,
        Counter::PointsScored,
        Counter::BranchesConsidered,
        Counter::PruneEvents,
        Counter::PruneSphere,
        Counter::PruneRect,
        Counter::EarlyAbandons,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::WalFramesAppended,
        Counter::WalCommits,
        Counter::WalTruncations,
        Counter::WalReplays,
        Counter::WalReplayedFrames,
        Counter::WalDroppedFrames,
        Counter::WalTornTails,
    ];

    /// Stable snake_case name used in JSON output and tables.
    pub fn name(self) -> &'static str {
        match self {
            Counter::NodeExpansions => "node_expansions",
            Counter::LeafExpansions => "leaf_expansions",
            Counter::PointsScored => "points_scored",
            Counter::BranchesConsidered => "branches_considered",
            Counter::PruneEvents => "prune_events",
            Counter::PruneSphere => "prune_sphere",
            Counter::PruneRect => "prune_rect",
            Counter::EarlyAbandons => "early_abandons",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::WalFramesAppended => "wal_frames_appended",
            Counter::WalCommits => "wal_commits",
            Counter::WalTruncations => "wal_truncations",
            Counter::WalReplays => "wal_replays",
            Counter::WalReplayedFrames => "wal_replayed_frames",
            Counter::WalDroppedFrames => "wal_dropped_frames",
            Counter::WalTornTails => "wal_torn_tails",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Counter::NodeExpansions => 0,
            Counter::LeafExpansions => 1,
            Counter::PointsScored => 2,
            Counter::BranchesConsidered => 3,
            Counter::PruneEvents => 4,
            Counter::PruneSphere => 5,
            Counter::PruneRect => 6,
            Counter::CacheHits => 7,
            Counter::CacheMisses => 8,
            Counter::WalFramesAppended => 9,
            Counter::WalCommits => 10,
            Counter::WalTruncations => 11,
            Counter::WalReplays => 12,
            Counter::WalReplayedFrames => 13,
            Counter::WalDroppedFrames => 14,
            Counter::WalTornTails => 15,
            Counter::EarlyAbandons => 16,
        }
    }
}

/// High-water-mark gauges (recorded with `max`, never reset implicitly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Largest size a k-NN search's heap reached: best-first's queue of
    /// nodes (points never enter it), or depth-first's candidate set.
    HeapHighWater,
}

impl Gauge {
    /// Every gauge, in rendering order.
    pub const ALL: [Gauge; 1] = [Gauge::HeapHighWater];

    /// Stable snake_case name used in JSON output and tables.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::HeapHighWater => "heap_high_water",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Gauge::HeapHighWater => 0,
        }
    }
}

/// Log-scaled histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hist {
    /// Wall-clock nanoseconds per query (span-timed).
    QueryNs,
    /// Scored branches per internal-node expansion (fan-out actually
    /// considered, before pruning).
    NodeFanout,
}

impl Hist {
    /// Every histogram, in rendering order.
    pub const ALL: [Hist; 2] = [Hist::QueryNs, Hist::NodeFanout];

    /// Stable snake_case name used in JSON output and tables.
    pub fn name(self) -> &'static str {
        match self {
            Hist::QueryNs => "query_ns",
            Hist::NodeFanout => "node_fanout",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Hist::QueryNs => 0,
            Hist::NodeFanout => 1,
        }
    }
}
