//! The three workloads and how much work one run of each does.
//!
//! A run is a number of rounds, one per second of `--seconds`. Each
//! round runs a closed-loop block, a paced block and a write block, in
//! that order, so every timed metric samples the whole run rather than
//! one stretch of it: on a shared host whose speed moves over seconds, a
//! metric measured in one phase of a few seconds moved by up to 40%
//! between runs while the run as a whole moved by under 10%. The counts
//! per round were set so that a round takes about a second at the seed
//! commit on a 2-core x86-64 host. Because the work is a fixed count
//! rather than "whatever fits in the window", the same seed and seconds
//! give the same operation sequence, so page-read, page-write and byte
//! counts repeat exactly.

/// Dimensionality of every data set (the paper's 16-element histograms).
pub const DIM: usize = 16;
/// The paper's page size.
pub const PAGE_SIZE: usize = 8192;
/// The paper's per-entry data area.
pub const DATA_AREA: usize = 512;
/// Neighbors per query (§3.1: "the nearest 21 points").
pub const K: usize = 21;
/// k-NN requests per pipelined burst on `serve_mixed`; each burst ends
/// with one write.
pub const BURST_READS: usize = 8;

/// One named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process k-NN over uniform data, whole index in the pool.
    KnnScanWarm,
    /// In-process k-NN over clustered data, pool at 5% of the index.
    KnnRealCold,
    /// k-NN and writes through the TCP service on loopback.
    ServeMixed,
}

impl Workload {
    /// Every workload, as listed in `BENCHMARK.json`.
    pub const ALL: [Workload; 3] = [
        Workload::KnnScanWarm,
        Workload::KnnRealCold,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KnnScanWarm => "knn_scan_warm",
            Workload::KnnRealCold => "knn_real_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which generator makes the points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    /// `sr_dataset::uniform`: the unit hypercube.
    Uniform,
    /// `sr_dataset::real_sim`: Dirichlet-mixture histograms.
    RealSim,
}

/// How big the buffer pool is once the index is open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pool {
    /// Room for every page of the index.
    Whole,
    /// `1/n` of the index's pages.
    Fraction(usize),
}

/// What a run's writes do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Writes {
    /// Delete random base points (the bulk-loaded `knn_*` indexes, whose
    /// packed pages make each insert a split cascade).
    DeleteBase,
    /// Insert fresh points; every 4th write deletes an earlier insert.
    InsertMostly,
}

/// Inserts (and then deletes) of fresh points in the write probe of a
/// traced run, made on the workload's index after the oracle has run.
pub const WRITE_PROBE: usize = 32;

/// Sizes and settings of one run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload this plan belongs to.
    pub workload: Workload,
    /// Point generator.
    pub data: Data,
    /// Base points in the index before the timed rounds.
    pub n: usize,
    /// Distinct query points, sampled from the base set; requests cycle
    /// through them.
    pub queries: usize,
    /// Set-ups per run, spread over the run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Untimed queries run while opening, to fill the pool.
    pub warmup: usize,
    /// Timed rounds.
    pub rounds: usize,
    /// Closed-loop k-NN requests per round (a multiple of
    /// [`BURST_READS`] when served).
    pub closed: usize,
    /// Paced requests per round.
    pub paced: usize,
    /// Paced requests per second.
    pub paced_rate: f64,
    /// Writes per round.
    pub writes: usize,
    /// Write mix.
    pub write_kind: Writes,
    /// Pool size while queries run.
    pub pool: Pool,
    /// Whether the index sits behind `sr_serve` on loopback.
    pub served: bool,
    /// Whether the index lives in a page file (else an in-memory pager).
    pub file_backed: bool,
    /// Base points inserted one by one after the bulk load of the rest,
    /// during set-up. A bulk-loaded tree has every page packed full, so
    /// its first inserts each set off a split cascade; inserting these
    /// first makes the timed writes see the tree's steady state.
    pub aged: usize,
}

impl Plan {
    /// The plan for a run of `workload` sized for `seconds`: one round
    /// per second.
    pub fn for_run(workload: Workload, seconds: u64) -> Plan {
        let rounds = usize::try_from(seconds).unwrap_or(usize::MAX).max(1);
        match workload {
            Workload::KnnScanWarm => Plan {
                workload,
                data: Data::Uniform,
                n: 50_000,
                queries: 1024,
                setup_reps: 5,
                warmup: 24,
                rounds,
                closed: 50,
                paced: 41,
                paced_rate: 65.0,
                writes: 200,
                write_kind: Writes::DeleteBase,
                pool: Pool::Whole,
                served: false,
                file_backed: false,
                aged: 0,
            },
            Workload::KnnRealCold => Plan {
                workload,
                data: Data::RealSim,
                n: 200_000,
                queries: 1024,
                setup_reps: 3,
                warmup: 256,
                rounds,
                closed: 200,
                paced: 80,
                paced_rate: 200.0,
                writes: 200,
                write_kind: Writes::DeleteBase,
                pool: Pool::Fraction(20),
                served: false,
                file_backed: true,
                aged: 0,
            },
            Workload::ServeMixed => Plan {
                workload,
                data: Data::RealSim,
                n: 50_000,
                queries: 1024,
                setup_reps: 3,
                warmup: 64,
                rounds,
                closed: 60 * BURST_READS,
                paced: 120,
                paced_rate: 300.0,
                writes: 80,
                write_kind: Writes::InsertMostly,
                pool: Pool::Whole,
                served: true,
                file_backed: true,
                aged: 1000,
            },
        }
    }

    /// A plan small enough for the self-tests: every block and every
    /// metric still runs, on a few hundred points.
    pub fn tiny(workload: Workload) -> Plan {
        let mut p = Plan::for_run(workload, 2);
        p.n = 600;
        p.queries = 12;
        p.setup_reps = 2;
        p.warmup = p.warmup.min(4);
        p.closed = if p.served { 3 * BURST_READS } else { 20 };
        p.paced = 9;
        p.paced_rate = 2000.0;
        p.writes = 12;
        p.aged = p.aged.min(50);
        p
    }

    /// Closed-loop k-NN requests over the run.
    pub fn closed_total(&self) -> usize {
        self.closed * self.rounds
    }

    /// Writes issued in closed-loop blocks over the run (one per burst
    /// when served).
    pub fn mixed_writes(&self) -> usize {
        if self.served {
            self.closed_total() / BURST_READS
        } else {
            0
        }
    }

    /// Fresh (never indexed) points the run may insert, the write probe
    /// included.
    pub fn fresh_needed(&self) -> usize {
        let probe = WRITE_PROBE + 64;
        match self.write_kind {
            Writes::InsertMostly => self.writes * self.rounds + self.mixed_writes() + probe,
            Writes::DeleteBase => probe,
        }
    }

    /// The rounds after which a further set-up is timed, so the
    /// set-ups sample the whole run: the first set-up comes before round
    /// 0, the others after evenly spaced rounds, the last after the last
    /// round.
    pub fn setup_after(&self) -> Vec<usize> {
        let extra = self.setup_reps.saturating_sub(1);
        (1..=extra)
            .map(|i| (i * self.rounds).div_ceil(extra).saturating_sub(1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ups_spread_over_the_run() {
        let mut p = Plan::for_run(Workload::KnnScanWarm, 20);
        p.setup_reps = 5;
        assert_eq!(p.setup_after(), vec![4, 9, 14, 19]);
        p.setup_reps = 3;
        assert_eq!(p.setup_after(), vec![9, 19]);
        p.setup_reps = 1;
        assert!(p.setup_after().is_empty());
    }
}
