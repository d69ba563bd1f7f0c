//! L6 fixture: silent swallowing of typed errors, and a stale
//! `#[deprecated]` item.

pub enum OtherError {
    Bad,
}

pub enum ThirdError {
    Worse,
}

pub fn make_other() -> Result<u32, OtherError> {
    Err(OtherError::Bad)
}

pub fn make_third() -> Result<u32, ThirdError> {
    Err(ThirdError::Worse)
}

pub fn swallows() -> u32 {
    let a = make_third().ok();
    let b = make_other().unwrap_or_default();
    b + u32::from(a.is_some())
}

#[deprecated(since = "0.1.0", note = "renamed")]
pub fn old_spelling() -> u32 {
    3
}
