//! Stand-in for `serde`: marker traits plus no-op derives (see
//! `serde_derive`). Nothing the benchmark drives serializes through it.

/// Marker for serializable types; the stand-in derive does not implement it.
pub trait Serialize {}

/// Marker for deserializable types; the stand-in derive does not implement it.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
