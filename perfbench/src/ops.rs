//! Inputs made from the seed: the base points, fresh points for inserts,
//! the query sample, and the deterministic stream of operations.

use std::collections::BTreeSet;

use sr_dataset::{real_sim, sample_queries, uniform, SeededRng};
use sr_geometry::Point;

use crate::plan::{Data, Plan, Writes, DIM};

/// Everything a run feeds the program: fixed base data, and the queries
/// and writes drawn from `--seed`.
pub struct Inputs {
    /// Indexed points; point `i` carries payload id `i`.
    pub base: Vec<Point>,
    /// Points only ever inserted by writes; point `j` carries id
    /// `base.len() + j`.
    pub fresh: Vec<Point>,
    /// Query points, sampled from the base set (§3.1).
    pub queries: Vec<Point>,
}

/// Seed of the base data sets. They are fixed, as the paper's data sets
/// are: a run's seed draws the query sample and the writes, so two runs
/// differ only in what is asked of the same index, and a seed-to-seed
/// spread measures the program rather than how clustered a freshly drawn
/// mixture happens to be (`real_sim` draws its mixture from its seed).
pub const DATA_SEED: u64 = 1997;

impl Inputs {
    /// Generate the inputs of `plan` for `seed`. Base and fresh points
    /// come from one generator call, so fresh points follow the same
    /// distribution (for `real_sim`, the same mixture); the seed picks
    /// which base points are queried and the order fresh points are
    /// inserted in.
    pub fn generate(plan: &Plan, seed: u64) -> Inputs {
        let total = plan.n + plan.fresh_needed();
        let mut base = match plan.data {
            Data::Uniform => uniform(total, DIM, DATA_SEED),
            Data::RealSim => real_sim(total, DIM, DATA_SEED),
        };
        let mut fresh = base.split_off(plan.n);
        SeededRng::seed_from_u64(seed ^ 0x0046_5245_5348).shuffle(&mut fresh);
        let queries = sample_queries(&base, plan.queries, seed);
        Inputs {
            base,
            fresh,
            queries,
        }
    }

    /// The point stored under payload `id`.
    pub fn point(&self, id: u64) -> Option<&Point> {
        let id = usize::try_from(id).ok()?;
        match id.checked_sub(self.base.len()) {
            None => self.base.get(id),
            Some(j) => self.fresh.get(j),
        }
    }
}

/// One operation of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// k-NN of query point `q` (an index into [`Inputs::queries`]).
    Knn {
        /// Query index.
        q: usize,
    },
    /// Insert the point with payload `id`.
    Insert {
        /// Payload id.
        id: u64,
    },
    /// Delete the point with payload `id`.
    Delete {
        /// Payload id.
        id: u64,
    },
}

/// The deterministic operation sequence of one run. Reads cycle through
/// the query sample; writes follow the plan's write mix.
pub struct OpStream {
    reads: usize,
    n_queries: usize,
    writes: usize,
    kind: Writes,
    n: u64,
    fresh: u64,
    next_fresh: u64,
    live_inserts: Vec<u64>,
    deleted: BTreeSet<u64>,
    rng: SeededRng,
}

impl OpStream {
    /// A fresh stream for `plan` and `seed`.
    pub fn new(plan: &Plan, inputs: &Inputs, seed: u64) -> OpStream {
        OpStream {
            reads: 0,
            n_queries: inputs.queries.len().max(1),
            writes: 0,
            kind: plan.write_kind,
            n: inputs.base.len() as u64,
            fresh: inputs.fresh.len() as u64,
            next_fresh: 0,
            live_inserts: Vec::new(),
            deleted: BTreeSet::new(),
            rng: SeededRng::seed_from_u64(seed ^ 0x5752_4954_4553),
        }
    }

    /// The next k-NN request.
    pub fn next_read(&mut self) -> Op {
        let q = self.reads % self.n_queries;
        self.reads += 1;
        Op::Knn { q }
    }

    /// The next write. `None` once fresh points or deletable points run
    /// out, which a correctly sized plan never reaches.
    pub fn next_write(&mut self) -> Option<Op> {
        let j = self.writes;
        self.writes += 1;
        match self.kind {
            Writes::DeleteBase => {
                if self.deleted.len() as u64 >= self.n {
                    return None;
                }
                loop {
                    let id = self.rng.random_range(0..self.n as usize) as u64;
                    if self.deleted.insert(id) {
                        return Some(Op::Delete { id });
                    }
                }
            }
            Writes::InsertMostly => {
                if j % 4 == 3 && !self.live_inserts.is_empty() {
                    let at = self.rng.random_range(0..self.live_inserts.len());
                    let id = self.live_inserts.swap_remove(at);
                    return Some(Op::Delete { id });
                }
                if self.next_fresh >= self.fresh {
                    return None;
                }
                let id = self.n + self.next_fresh;
                self.next_fresh += 1;
                self.live_inserts.push(id);
                Some(Op::Insert { id })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, Workload};

    #[test]
    fn serve_mix_deletes_every_fourth_write_an_earlier_insert() {
        let plan = Plan::tiny(Workload::ServeMixed);
        let inputs = Inputs::generate(&plan, 7);
        let mut ops = OpStream::new(&plan, &inputs, 7);
        let mut live = BTreeSet::new();
        for j in 0..12 {
            match ops.next_write().expect("fresh points") {
                Op::Insert { id } => {
                    assert_ne!(j % 4, 3);
                    assert!(id >= plan.n as u64);
                    live.insert(id);
                }
                Op::Delete { id } => {
                    assert_eq!(j % 4, 3);
                    assert!(live.remove(&id), "deleted an id that was not inserted");
                }
                Op::Knn { .. } => unreachable!(),
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let plan = Plan::tiny(Workload::ServeMixed);
        let a = Inputs::generate(&plan, 3);
        let b = Inputs::generate(&plan, 3);
        assert_eq!(a.base, b.base);
        assert_eq!(a.queries, b.queries);
        let c = Inputs::generate(&plan, 4);
        assert_eq!(a.base, c.base, "the base set is fixed");
        assert_ne!(a.queries, c.queries);
        assert_ne!(a.fresh, c.fresh, "the insert order follows the seed");
    }
}
