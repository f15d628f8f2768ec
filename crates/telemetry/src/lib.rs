//! `er-telemetry`: structured spans, per-thread counters, and a JSONL event
//! journal for the ER reconstruction pipeline.
//!
//! Design goals, in priority order:
//!
//! 1. **Zero overhead when disabled.** Every instrumentation macro checks a
//!    single process-global atomic ([`enabled`]) before doing anything
//!    else; the disabled path is one relaxed load and a predictable
//!    branch (< 2 ns, verified by `crates/bench/benches/telemetry.rs`).
//! 2. **Lock-free hot path when enabled.** Counters are relaxed
//!    `AtomicU64` slots in per-thread tables. No mutex is ever taken on
//!    the increment path (registration of a *new* counter name takes a lock
//!    once per callsite, cached thereafter).
//! 3. **Exact attribution.** Per-thread counter tables mean a
//!    reconstruction running on one thread can take before/after
//!    snapshots ([`local_snapshot`]) whose deltas are unaffected by
//!    other threads (e.g. parallel `cargo test`). Global aggregation
//!    across threads is available via [`global_snapshot`].
//!
//! # Modes
//!
//! The mode comes from the `ER_TELEMETRY` environment variable:
//!
//! | value | spans | counters | journal |
//! |---|---|---|---|
//! | `off` (default) | no | no | no |
//! | `counters` | timed, aggregated into counters | yes | no |
//! | `full` | timed | yes | JSONL events under `ER_TELEMETRY_DIR` |
//!
//! Telemetry only observes: no algorithm reads a counter, so every mode
//! yields the same reconstruction results (`IterationStats` comes from
//! the symbolic run's own work counters). Harnesses that report counter
//! deltas themselves (benchmarks, sweeps) hold a [`CountersGuard`] from
//! [`ensure_counters`], which raises `off` to `counters` for its lifetime
//! without affecting an explicitly configured mode.
//!
//! # Example
//!
//! ```
//! use er_telemetry::{counter, span};
//!
//! let _g = er_telemetry::ensure_counters();
//! let before = er_telemetry::local_snapshot();
//! {
//!     let _span = span!("demo.phase");
//!     counter!("demo.widgets").add(3);
//! }
//! let delta = er_telemetry::local_snapshot().delta(&before);
//! assert_eq!(delta.get("demo.widgets"), 3);
//! ```

pub mod counters;
pub mod journal;
pub mod logging;
pub mod span;

pub use counters::{local_snapshot, CounterSnapshot};
pub use journal::{read_journal, Event};
pub use span::set_context;

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Mutex;

/// Telemetry collection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// No collection; instrumentation macros are no-ops.
    Off = 0,
    /// Counters collected; span timings aggregated into counters; no
    /// journal.
    Counters = 1,
    /// Everything in `Counters`, plus every span emits a JSONL event.
    Full = 2,
}

const MODE_UNINIT: u8 = 0xff;

/// Effective mode, read on every hot path. `0xff` = not yet initialized.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);
/// Configured base mode (from env or [`set_mode`]), before guard forcing.
static BASE: AtomicU8 = AtomicU8::new(MODE_UNINIT);
/// Number of outstanding [`CountersGuard`]s.
static FORCE_COUNTERS: AtomicU32 = AtomicU32::new(0);
/// Serializes mode recomputation (never on the hot path).
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn env_mode() -> Mode {
    match std::env::var("ER_TELEMETRY").as_deref() {
        Ok("counters") => Mode::Counters,
        Ok("full") => Mode::Full,
        _ => Mode::Off,
    }
}

/// Recomputes `MODE` from `BASE` + guard count. Caller holds `MODE_LOCK`.
fn recompute_locked() -> u8 {
    let base = match BASE.load(Ordering::Relaxed) {
        MODE_UNINIT => {
            let m = env_mode();
            BASE.store(m as u8, Ordering::Relaxed);
            m
        }
        1 => Mode::Counters,
        2 => Mode::Full,
        _ => Mode::Off,
    };
    let eff = if base == Mode::Off && FORCE_COUNTERS.load(Ordering::Relaxed) > 0 {
        Mode::Counters
    } else {
        base
    };
    MODE.store(eff as u8, Ordering::Relaxed);
    eff as u8
}

#[cold]
fn init_mode() -> u8 {
    let _l = MODE_LOCK.lock().unwrap();
    let raw = MODE.load(Ordering::Relaxed);
    if raw != MODE_UNINIT {
        return raw;
    }
    recompute_locked()
}

/// The current telemetry mode.
#[inline]
pub fn mode() -> Mode {
    let raw = MODE.load(Ordering::Relaxed);
    let raw = if raw == MODE_UNINIT { init_mode() } else { raw };
    match raw {
        1 => Mode::Counters,
        2 => Mode::Full,
        _ => Mode::Off,
    }
}

/// Whether any collection is active. This is the hot-path check: one
/// relaxed atomic load and a compare.
#[inline(always)]
pub fn enabled() -> bool {
    // The uninit sentinel (0xff) counts as "maybe enabled" so the first
    // instrumentation hit initializes the mode; thereafter the load is a
    // plain 0/1/2 compare.
    MODE.load(Ordering::Relaxed) != Mode::Off as u8
}

/// Overrides the mode (tests and benchmarks). Prefer `ER_TELEMETRY` in
/// production use.
pub fn set_mode(m: Mode) {
    let _l = MODE_LOCK.lock().unwrap();
    BASE.store(m as u8, Ordering::Relaxed);
    recompute_locked();
}

/// Keeps counters collection alive while held (see [`ensure_counters`]).
#[must_use = "counters stay enabled only while the guard lives"]
pub struct CountersGuard(());

/// Raises the mode from `Off` to `Counters` for the guard's lifetime.
///
/// Used by harnesses that report counter deltas and therefore need
/// collection even when the user asked for no telemetry output. Nested/concurrent guards are reference-counted;
/// an explicit `counters`/`full` mode is left untouched.
pub fn ensure_counters() -> CountersGuard {
    let _l = MODE_LOCK.lock().unwrap();
    FORCE_COUNTERS.fetch_add(1, Ordering::Relaxed);
    recompute_locked();
    CountersGuard(())
}

impl Drop for CountersGuard {
    fn drop(&mut self) {
        let _l = MODE_LOCK.lock().unwrap();
        FORCE_COUNTERS.fetch_sub(1, Ordering::Relaxed);
        recompute_locked();
    }
}

/// A process-wide aggregate counter snapshot (sums across all threads
/// that ever recorded).
pub fn global_snapshot() -> CounterSnapshot {
    counters::global_snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_counters_raises_and_restores() {
        // Serialize against other tests that touch the global mode.
        let _l = crate::counters::test_mutex().lock().unwrap();
        set_mode(Mode::Off);
        assert_eq!(mode(), Mode::Off);
        {
            let _a = ensure_counters();
            assert_eq!(mode(), Mode::Counters);
            {
                let _b = ensure_counters();
                assert_eq!(mode(), Mode::Counters);
            }
            assert_eq!(mode(), Mode::Counters);
        }
        assert_eq!(mode(), Mode::Off);
    }

    #[test]
    fn explicit_mode_survives_guard() {
        let _l = crate::counters::test_mutex().lock().unwrap();
        set_mode(Mode::Full);
        {
            let _a = ensure_counters();
            assert_eq!(mode(), Mode::Full);
        }
        assert_eq!(mode(), Mode::Full);
        set_mode(Mode::Off);
    }
}
