//! L6 fixture: a stale `#[deprecated]` item.

#[deprecated(since = "0.1.0", note = "renamed")]
pub fn old_spelling() -> u32 {
    3
}
