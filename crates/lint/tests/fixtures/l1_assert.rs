//! Fixture: every L1 violation class, plus test code that must be
//! skipped. NOT compiled — parsed by the lint fixture tests only.
//! (`unwrap`/`expect`/`panic!` and friends are clippy's: see
//! `clippy_gate.rs`.)

pub fn release_asserts_are_flagged(x: usize, y: usize) -> usize {
    assert!(x < 100, "caller contract");
    assert_eq!(x % 2, 0);
    assert_ne!(y, 0);
    debug_assert!(x != 7);
    // srlint: allow(assert) -- fixture: a documented contract panic.
    assert!(y < 100);
    x + y
}

pub fn panics_are_not_srlint_findings(x: Option<u32>) -> u32 {
    x.unwrap_or(0).max(x.expect("clippy's, not srlint's"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_assert() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
        assert!(v.is_some());
    }
}
