//! What is left of the statistics gate.
//!
//! Statistics are no longer collected while the engine runs: they are a
//! function of an instance, computed on demand by
//! `dtr_core::tagged::TaggedInstance::statistics`. Nothing here records
//! anything.

/// Does nothing. It remains only for callers built against the old
/// statistics gate (the repository benchmark still switches it off); it
/// goes once they stop calling it.
pub fn set_enabled(_on: bool) {}
