//! Fixture: a fully clean library file — no diagnostics expected.
//! NOT compiled.

/// The crate-local Result alias.
pub type Result<T> = std::result::Result<T, CleanError>;

/// A typed error, all variants constructed.
pub enum CleanError {
    Empty,
    Bad(String),
}

pub fn head(xs: &[u32]) -> Result<u32> {
    match xs.first() {
        Some(v) => Ok(*v),
        None => Err(CleanError::Empty),
    }
}

pub fn parse(s: &str) -> Result<u32> {
    s.parse().map_err(|_| CleanError::Bad(s.to_string()))
}

pub fn dist2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = f64::from(x - y);
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwraps_allowed_here() {
        assert_eq!(head(&[5]).ok().unwrap(), 5);
    }
}
