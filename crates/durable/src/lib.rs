//! Crash-consistent durability for reconstruction sessions.
//!
//! ER's convergence loop accumulates state across failure occurrences —
//! traces, instrumentation plans, symbex checkpoints, selected key values.
//! Before this crate, that state lived only in the scheduler's process
//! memory: a reconstructor crash threw away every occurrence observed so
//! far and restarted from zero. This crate makes session progress durable
//! and supervised:
//!
//! * [`record`] — length-prefixed, FNV-checksummed framing with torn-tail
//!   classification: a crash mid-append loses at most the in-flight record.
//! * [`event`] — the logical events a scheduler journals
//!   ([`event::DurableEvent`]): occurrence ingested (trace bytes
//!   included), occurrence consumed, symbex/solver checkpoints, key-value
//!   selection, plan deployment, watchdog escalation, terminal verdict.
//! * [`wal`] — the append-only log itself: flush-per-record fsync points
//!   (simulated — see DESIGN.md §12), [`er_chaos::Fault::WalTear`] crash
//!   injection, and recovery-on-open.
//! * [`watchdog`] — the supervision policy layered on
//!   [`er_solver::meter`]: per-phase work budgets, an escalation ladder,
//!   and a typed give-up at the cap.
//!
//! The WAL journals *events*, not state snapshots: symbolic machine state
//! is not serializable (it owns an expression pool and a live incremental
//! SAT instance), so recovery replays the logged occurrences through fresh
//! sessions in logged order. Determinism makes replay reconverge —
//! including re-entering mid-trace via the symbex checkpoints the replayed
//! occurrences re-create — which is what `fleet::sched`'s recovery path
//! (and the `crash_sweep` harness that kills it at seeded WAL positions)
//! builds on.

pub mod event;
pub mod record;
pub mod wal;
pub mod watchdog;

pub use event::{ConsumeOutcome, DecodeError, DurableEvent};
pub use record::{fnv64, frame, scan, ScanResult};
pub use wal::{CrashSignal, RecoveryInfo, Wal, WAL_IO_ATTEMPTS};
pub use watchdog::{WatchdogConfig, WatchdogState};

#[cfg(test)]
pub(crate) mod testsync {
    //! The chaos plan is process-global; unit tests across this crate's
    //! modules that arm one must serialize on this lock.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn chaos_lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
