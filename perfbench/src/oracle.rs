//! The correctness check behind `ok_share`.
//!
//! After the timed rounds, every recorded operation is replayed, in
//! order, into a model of the live point set. Each k-NN answer is
//! compared with `sr_query::brute_force_knn` over the live set at that
//! moment (via `sr_testkit::check_answer`: same ids, distances within its
//! tolerance); each insert must be acknowledged and each delete must find
//! its point. Failed requests count as failures too.

use std::collections::{BTreeMap, BTreeSet};

use sr_query::{brute_force_knn, Neighbor};

use crate::ops::{Inputs, Op};
use crate::plan::K;

/// Which block of a round an operation ran in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Closed-loop block.
    Closed,
    /// Paced (open-loop) block.
    Paced,
    /// Write block.
    Writes,
}

/// What the program answered.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// k-NN rows, nearest first.
    Rows(Vec<Neighbor>),
    /// Acknowledged write; the number of entries it changed.
    Ack(u64),
    /// The request failed; why.
    Failed(String),
}

/// One operation as issued and answered.
#[derive(Clone, Debug)]
pub struct Record {
    /// Block it ran in.
    pub phase: Phase,
    /// The operation.
    pub op: Op,
    /// The answer.
    pub answer: Answer,
}

/// The oracle's tally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
}

impl Verdict {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    /// Share of operations that returned a correct answer.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Compare one k-NN answer with the expected one.
pub fn compare(got: &[Neighbor], want: &[Neighbor]) -> Result<(), String> {
    sr_testkit::check_answer("index", got, want, true)
}

/// Replay `records` against the model and count failures. The base set
/// is live from the start; inserts of ids at or past `inputs.base.len()`
/// add fresh points, and deletes remove whatever they name.
pub fn check(records: &[Record], inputs: &Inputs) -> Verdict {
    let n = inputs.base.len() as u64;
    let base_top = base_answers(records, inputs);
    let mut deleted_base: BTreeSet<u64> = BTreeSet::new();
    let mut live_inserts: BTreeMap<u64, ()> = BTreeMap::new();
    let mut v = Verdict::default();
    for (i, r) in records.iter().enumerate() {
        v.attempted += 1;
        match (r.op, &r.answer) {
            (_, Answer::Failed(why)) => v.fail(format!("op {i} ({:?}) failed: {why}", r.op)),
            (Op::Insert { id }, Answer::Ack(1)) => {
                if id >= n {
                    live_inserts.insert(id, ());
                }
            }
            (Op::Delete { id }, Answer::Ack(1)) => {
                if id < n {
                    deleted_base.insert(id);
                } else {
                    live_inserts.remove(&id);
                }
            }
            (Op::Knn { q }, Answer::Rows(got)) => {
                let Some(query) = inputs.queries.get(q) else {
                    v.fail(format!("op {i}: no query {q}"));
                    continue;
                };
                let top = base_top.get(&q).map(Vec::as_slice).unwrap_or(&[]);
                let q = query.coords();
                let live_top = top.iter().filter(|id| !deleted_base.contains(id)).count();
                // The live base points nearest the query are among its
                // nearest base points as long as K of those are live (or
                // those are the whole base set); otherwise scan the whole
                // live set.
                let want = if live_top >= K || top.len() as u64 == n {
                    let cands = top
                        .iter()
                        .filter(|id| !deleted_base.contains(id))
                        .chain(live_inserts.keys())
                        .filter_map(|&id| inputs.point(id).map(|p| (p.coords(), id)));
                    brute_force_knn(cands, q, K)
                } else {
                    let live = (0..n)
                        .filter(|id| !deleted_base.contains(id))
                        .chain(live_inserts.keys().copied())
                        .filter_map(|id| inputs.point(id).map(|p| (p.coords(), id)));
                    brute_force_knn(live, q, K)
                };
                if let Err(e) = compare(got, &want) {
                    v.fail(format!("op {i} (k-NN of query {:?}): {e}", r.op));
                }
            }
            (op, answer) => v.fail(format!("op {i} ({op:?}) answered {answer:?}")),
        }
    }
    v
}

/// Base candidates kept per query: enough that deleting a few percent
/// of the base set rarely leaves fewer than `K` of them live.
const TOP: usize = 4 * K;

/// The ids of each queried point's [`TOP`] nearest base points, keyed by
/// query index. Computed on up to two threads: this is the costly
/// part of the check (one scan of the base set per distinct query).
fn base_answers(records: &[Record], inputs: &Inputs) -> BTreeMap<usize, Vec<u64>> {
    let mut wanted: BTreeSet<usize> = BTreeSet::new();
    for r in records {
        if let Op::Knn { q } = r.op {
            wanted.insert(q);
        }
    }
    let wanted: Vec<usize> = wanted.into_iter().collect();
    let threads = crate::affinity::cpus().clamp(1, 2);
    let base = &inputs.base;
    let scan = |q: &[f32]| -> Vec<u64> {
        let pts = base.iter().enumerate().map(|(i, p)| (p.coords(), i as u64));
        brute_force_knn(pts, q, TOP)
            .into_iter()
            .map(|nb| nb.data)
            .collect()
    };
    let mut out = BTreeMap::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let wanted = &wanted;
                let scan = &scan;
                s.spawn(move || {
                    wanted
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .filter_map(|&q| inputs.queries.get(q).map(|p| (q, scan(p.coords()))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("oracle worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, Workload};

    fn knn(inputs: &Inputs, q: usize) -> Vec<Neighbor> {
        let pts = inputs
            .base
            .iter()
            .enumerate()
            .map(|(i, p)| (p.coords(), i as u64));
        brute_force_knn(pts, inputs.queries[q].coords(), K)
    }

    fn correct_run(inputs: &Inputs) -> Vec<Record> {
        let n = inputs.base.len() as u64;
        let mut recs: Vec<Record> = (0..4)
            .map(|q| Record {
                phase: Phase::Closed,
                op: Op::Knn { q },
                answer: Answer::Rows(knn(inputs, q)),
            })
            .collect();
        recs.push(Record {
            phase: Phase::Writes,
            op: Op::Insert { id: n },
            answer: Answer::Ack(1),
        });
        recs
    }

    #[test]
    fn correct_answers_pass() {
        let plan = Plan::tiny(Workload::ServeMixed);
        let inputs = Inputs::generate(&plan, 11);
        let v = check(&correct_run(&inputs), &inputs);
        assert_eq!(v.failed, 0, "{:?}", v.first_failure);
        assert_eq!(v.attempted, 5);
        assert_eq!(v.ok_share(), 1.0);
    }

    #[test]
    fn a_wrong_answer_counts_as_a_failure() {
        let plan = Plan::tiny(Workload::ServeMixed);
        let inputs = Inputs::generate(&plan, 11);
        let mut recs = correct_run(&inputs);
        if let Answer::Rows(rows) = &mut recs[2].answer {
            rows[0].data ^= 1;
        }
        let v = check(&recs, &inputs);
        assert_eq!(v.failed, 1);
        assert!(v.ok_share() < 1.0);
    }

    #[test]
    fn a_corrupted_expected_answer_is_a_failure() {
        let plan = Plan::tiny(Workload::KnnScanWarm);
        let inputs = Inputs::generate(&plan, 5);
        let got = knn(&inputs, 0);
        assert!(compare(&got, &got).is_ok());
        let mut want = got.clone();
        want[3].dist2 += 1e-3;
        assert!(compare(&got, &want).is_err());
        let mut want = got.clone();
        want.pop();
        assert!(compare(&got, &want).is_err());
    }

    #[test]
    fn a_deleted_base_point_is_not_expected() {
        let plan = Plan::tiny(Workload::KnnScanWarm);
        let inputs = Inputs::generate(&plan, 4);
        let before = knn(&inputs, 0);
        let gone = before[0].data;
        let live = inputs
            .base
            .iter()
            .enumerate()
            .map(|(i, p)| (p.coords(), i as u64))
            .filter(|&(_, id)| id != gone);
        let after = brute_force_knn(live, inputs.queries[0].coords(), K);
        let run = |answer: Vec<Neighbor>| {
            let recs = vec![
                Record {
                    phase: Phase::Writes,
                    op: Op::Delete { id: gone },
                    answer: Answer::Ack(1),
                },
                Record {
                    phase: Phase::Closed,
                    op: Op::Knn { q: 0 },
                    answer: Answer::Rows(answer),
                },
            ];
            check(&recs, &inputs).failed
        };
        assert_eq!(run(after), 0);
        assert_eq!(run(before), 1, "the deleted point was still expected");
    }

    #[test]
    fn failed_requests_and_unacknowledged_writes_count() {
        let plan = Plan::tiny(Workload::ServeMixed);
        let inputs = Inputs::generate(&plan, 2);
        let n = inputs.base.len() as u64;
        let recs = vec![
            Record {
                phase: Phase::Writes,
                op: Op::Insert { id: n },
                answer: Answer::Ack(0),
            },
            Record {
                phase: Phase::Writes,
                op: Op::Delete { id: 3 },
                answer: Answer::Failed("refused".into()),
            },
        ];
        let v = check(&recs, &inputs);
        assert_eq!((v.attempted, v.failed), (2, 2));
    }
}
