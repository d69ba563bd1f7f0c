//! Fixture: L3 violations — public fns whose `Result` names no typed
//! error. NOT compiled.

/// A typed error.
pub enum FixtureError {
    Bad(String),
}

pub fn stringly(x: u32) -> Result<u32, String> {
    if x > 0 {
        Ok(x)
    } else {
        Err("zero".to_string())
    }
}

pub fn io_result(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

pub fn typed(x: u32) -> Result<u32, FixtureError> {
    if x > 0 {
        Ok(x)
    } else {
        Err(FixtureError::Bad("zero".into()))
    }
}
