//! Fixture for `clippy_gate.rs`: the panic-freedom lines srlint once
//! flagged itself (L1/panic, L2/index, L2/cast), now clippy's. It is
//! compiled as the library of a throwaway crate whose `[lints.clippy]`
//! is the root manifest's deny-set plus `as_conversions`. Each `//~`
//! marker names the lints clippy must report on its line; a line
//! without one must stay clean.

pub fn lookup(xs: &[u32]) -> u32 {
    let first = xs.first().unwrap(); //~ unwrap_used
    let second = xs.get(1).expect("second element"); //~ expect_used
    if *first > *second {
        panic!("out of order"); //~ panic
    }
    match first {
        0 => todo!(), //~ todo
        1 => unreachable!(), //~ unreachable
        2 => unimplemented!(), //~ unimplemented
        _ => *first,
    }
}

pub fn gap2(q: &[f32], lo: &[f32], i: usize) -> f64 {
    let d = (q[i] - lo[i]) as f64; //~ indexing_slicing indexing_slicing as_conversions
    d * d
}

pub fn fallbacks_are_fine(x: Option<u32>, q: &[f32]) -> f64 {
    // Total functions and widening conversions are not findings.
    let n = x.unwrap_or(0).max(x.unwrap_or_default());
    q.first().map_or(0.0, |&v| f64::from(v)) + f64::from(n)
}
