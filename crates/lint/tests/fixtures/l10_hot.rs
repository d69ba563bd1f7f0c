//! Seeded L10 violations: heap allocation, lock acquisition, and store
//! I/O reachable from `// srlint: hot` roots — directly and through
//! the call graph — plus the amortized-scratch pattern that must stay
//! silent.

// srlint: hot
fn hot_direct_alloc(xs: &[f64]) -> Vec<f64> {
    xs.to_vec()
}

// srlint: hot
fn hot_transitive_alloc(xs: &[f64]) -> usize {
    let label = describe(xs);
    label.len()
}

fn describe(xs: &[f64]) -> String {
    format!("{} lanes", xs.len())
}

// srlint: hot
fn hot_takes_lock(counter: &std::sync::Mutex<u64>) -> u64 {
    let g = counter.lock();
    *g
}

/// Reads a page straight off the store.
#[doc = "srlint: io"]
fn load_page(id: u64) -> [u8; 16] {
    [id as u8; 16]
}

// srlint: hot
fn hot_touches_store(id: u64) -> usize {
    let page = load_page(id);
    page.len()
}

/// Amortized scratch growth is allowed on hot paths: `clear`, `push`,
/// and `resize` reuse capacity and are deliberately outside the ban.
// srlint: hot
fn hot_clean(xs: &[f64], out: &mut Vec<f64>) {
    out.clear();
    for x in xs {
        out.push(*x * *x);
    }
}

// srlint: hot
fn hot_hatched(xs: &[f64]) -> Vec<f64> {
    // srlint: allow(hot-alloc) -- one-time warmup, measured off the query path
    xs.to_vec()
}

/// `new` and `insert` are cut from name-match resolution, so both
/// allocations below are reachable only through the typed tier:
/// `Lanes::new` by its path, `self.insert` by the impl's self type.
pub struct Lanes {
    xs: Vec<f64>,
}

impl Lanes {
    fn new(xs: &[f64]) -> Lanes {
        Lanes { xs: xs.to_vec() }
    }

    fn insert(&mut self, x: f64) {
        let mut xs = self.xs.clone();
        xs.push(x);
        self.xs = xs;
    }

    // srlint: hot
    fn hot_self_call_alloc(&mut self, x: f64) {
        self.insert(x);
    }
}

// srlint: hot
fn hot_path_call_alloc(xs: &[f64]) -> usize {
    Lanes::new(xs).xs.len()
}

/// A local `grow` that only reserves capacity. The name is a store
/// method's too, but this fn is not marked as I/O, so the hot root that
/// calls it stays silent.
pub struct Pool {
    xs: Vec<u64>,
}

impl Pool {
    fn grow(&mut self) {
        self.xs.reserve(8);
    }
}

// srlint: hot
fn hot_grows_a_local_pool(pool: &mut Pool) -> usize {
    pool.grow();
    pool.xs.len()
}
