//! Synchronization facade: std primitives normally, `loom` models under
//! `--cfg loom`.
//!
//! The registry ([`crate::Telemetry`]), metrics, and sink import their
//! primitives from here. Ordinary builds re-export the std mutex and
//! atomics unchanged — zero wrappers on the hot path. Under
//! `RUSTFLAGS="--cfg loom"` the same names resolve to model-aware types so
//! `tests/loom_registry.rs` can exhaustively check the registration and
//! recording protocols. See `DESIGN.md` §13.

#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(not(loom))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(loom)]
pub use loom::sync::{Mutex, MutexGuard};

use std::sync::PoisonError;

/// Acquires `m`, recovering the guard if an earlier holder panicked, so
/// telemetry survives a contained employee panic. The same under both cfgs:
/// the loom shim reuses std's `LockResult` and never poisons.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
