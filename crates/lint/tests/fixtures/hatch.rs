//! Fixture: escape hatches — justified, trailing, unused, and
//! malformed. NOT compiled.

pub fn justified(xs: &[u32]) -> usize {
    // srlint: allow(assert) -- slice is non-empty by construction in the
    // only caller; the invariant is established one frame up.
    assert!(!xs.is_empty());
    xs.len()
}

pub fn trailing(xs: &[u32]) -> usize {
    assert!(!xs.is_empty()); xs.len() // srlint: allow(assert) -- same invariant as above
}

pub fn unused_hatch(x: u32) -> u32 {
    // srlint: allow(assert) -- nothing here actually panics
    x + 1
}

pub fn malformed_hatch(xs: &[u32]) -> usize {
    // srlint: allow(assert)
    assert!(!xs.is_empty()); xs.len()
}
