//! End-to-end durability and supervision: a crashed durable fleet must
//! resume from its WAL and converge on the bit-identical answer; replaying
//! the same WAL twice must rebuild identical scheduler state; and the
//! watchdog must escalate stalled iterations without changing the answer —
//! or give up with a typed reason when its ladder is exhausted.
//!
//! Lives in its own integration-test binary because chaos arming is
//! process-global; every test takes the local mutex.

use er_core::reconstruct::{GiveUpReason, Outcome};
use er_durable::{CrashSignal, DurableEvent, Wal, WatchdogConfig};
use er_fleet::sched::{Scheduler, SchedulerConfig};
use er_fleet::sim::{Fleet, FleetConfig, FleetReport, FleetSpec, Traffic};
use er_fleet::{StoreConfig, TraceStore};
use er_solver::meter::PhaseBudgets;
use er_workloads::{by_name, Scale, Workload};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec_for(w: &Workload) -> FleetSpec {
    let input = w.input_gen;
    FleetSpec {
        program: w.program(Scale::TEST),
        input_gen: Arc::new(input),
        sched_gen: w.sched_gen.map(|s| {
            let f: Arc<dyn Fn(u64) -> er_minilang::interp::SchedConfig + Send + Sync> = Arc::new(s);
            f
        }),
        pt: er_pt::PtConfig::default(),
        reoccurrence: w.reoccurrence_model(1_000),
        er: w.er_config(),
        label: w.name.to_string(),
    }
}

fn fleet_with(w: &Workload, durable: Option<PathBuf>, watchdog: Option<WatchdogConfig>) -> Fleet {
    Fleet::new(
        spec_for(w),
        FleetConfig {
            instances: 2,
            serial: true,
            traffic: Traffic::Mirrored,
            durable,
            sched: SchedulerConfig {
                watchdog,
                ..SchedulerConfig::default()
            },
            ..FleetConfig::default()
        },
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("er-durable-e2e-{}-{name}", std::process::id()))
}

/// One group's answer row: group id, reproduced?, occurrences, test-case
/// inputs — everything a crash or a watchdog must not change.
type GroupAnswer = (u64, bool, u32, Vec<(u32, Vec<u8>)>);

fn answer(r: &FleetReport) -> Vec<GroupAnswer> {
    let mut rows: Vec<_> = r
        .groups
        .iter()
        .map(|g| {
            (
                g.group,
                g.report.reproduced(),
                g.report.occurrences,
                g.report
                    .outcome
                    .test_case()
                    .map(|t| t.inputs.clone())
                    .unwrap_or_default(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn durable_journal_does_not_change_the_answer() {
    let _l = chaos_lock();
    let w = &by_name("PHP-74194").unwrap();
    let clean = answer(&fleet_with(w, None, None).run());
    let path = tmp("journal.wal");
    let durable = answer(&fleet_with(w, Some(path.clone()), None).run());
    assert_eq!(durable, clean, "journaling must be invisible to the answer");

    let (_, events, info) = Wal::open(&path).expect("completed run leaves a clean WAL");
    assert_eq!(info.torn_bytes, 0);
    assert!(events
        .iter()
        .any(|e| matches!(e, DurableEvent::SessionStarted { .. })));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, DurableEvent::SymexCheckpoint { .. })),
        "multi-occurrence workload must journal symbex checkpoints"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, DurableEvent::PlanDeployed { .. })),
        "iterative workload must journal a rollout"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, DurableEvent::Terminal { reproduced, .. } if *reproduced)));
    std::fs::remove_file(&path).ok();
}

/// Satellite: recovery idempotence — replaying the same WAL twice yields
/// byte-identical scheduler state.
#[test]
fn replaying_the_same_wal_twice_rebuilds_identical_state() {
    let _l = chaos_lock();
    let w = &by_name("PHP-74194").unwrap();
    let path = tmp("idempotent.wal");
    let report = fleet_with(w, Some(path.clone()), None).run();
    assert!(report.all_reproduced());

    let recover = || {
        let (wal, events, _) = Wal::open(&path).expect("open");
        let mut store = TraceStore::new(StoreConfig::default());
        let sched = Scheduler::recover(
            w.er_config(),
            SchedulerConfig::default(),
            &w.program(Scale::TEST),
            wal,
            &events,
            &mut store,
        );
        let mut digest: Vec<_> = sched
            .groups()
            .map(|g| {
                (
                    g.id,
                    g.version,
                    g.next_run(),
                    g.occurrences_consumed(),
                    g.pending_len(),
                    g.sites().to_vec(),
                    g.report.as_ref().map(|r| {
                        (
                            r.reproduced(),
                            r.occurrences,
                            r.outcome.test_case().map(|t| t.inputs.clone()),
                        )
                    }),
                )
            })
            .collect();
        digest.sort_by_key(|row| row.0);
        digest
    };
    let first = recover();
    let second = recover();
    assert!(!first.is_empty(), "replay must rebuild the group");
    assert!(
        first.iter().all(|row| row.6.is_some()),
        "completed run replays to closed sessions"
    );
    assert_eq!(first, second, "recovery must be idempotent");
    std::fs::remove_file(&path).ok();
}

#[test]
fn kill_restart_resumes_and_matches_the_uncrashed_answer() {
    let _l = chaos_lock();
    let w = &by_name("PHP-74194").unwrap();
    let reference = answer(&fleet_with(w, None, None).run());
    let path = tmp("crash.wal");
    let fleet = fleet_with(w, Some(path.clone()), None);

    // Crash the scheduler mid-append: the 5th WAL append tears and the
    // "process" dies.
    let guard = er_chaos::arm(
        er_chaos::ChaosPlan::new(0xdead)
            .with(er_chaos::Fault::WalTear, er_chaos::FaultPolicy::at_nth(4)),
    );
    let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fleet.run()))
        .expect_err("armed tear must crash the run");
    drop(guard);
    assert!(
        crash.downcast_ref::<CrashSignal>().is_some(),
        "the crash carries the WAL position"
    );

    // Restart: replay the WAL, resume, converge.
    let resumed = fleet.resume().expect("resume after crash");
    assert!(resumed.all_reproduced(), "resumed run must converge");
    assert_eq!(
        answer(&resumed),
        reference,
        "bit-identical answer across kill-restart"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn watchdog_escalates_stalls_and_still_converges() {
    let _l = chaos_lock();
    let w = &by_name("PHP-74194").unwrap();
    let reference = answer(&fleet_with(w, None, None).run());
    // A shepherd budget far below one occurrence's symex step count: the
    // first attempts trip, the ladder scales 8x per rung, and some rung
    // is big enough.
    let wd = WatchdogConfig {
        budgets: PhaseBudgets {
            shepherd: 50,
            ..PhaseBudgets::unlimited()
        },
        escalation_factor: 8,
        max_escalations: 10,
    };
    let report = fleet_with(w, None, Some(wd)).run();
    assert!(
        report.groups.iter().any(|g| g.watchdog_escalations > 0),
        "a 50-step shepherd budget must trip at least once"
    );
    assert_eq!(
        answer(&report),
        reference,
        "cancelled iterations must leave no trace on the answer"
    );
}

#[test]
fn exhausted_watchdog_ladder_is_a_typed_give_up() {
    let _l = chaos_lock();
    let w = &by_name("Libpng-2004-0597").unwrap();
    // Escalation factor 1: budgets never grow, every retry trips, the cap
    // is reached, and the session must close with the typed reason — no
    // panic, no livelock.
    let wd = WatchdogConfig {
        budgets: PhaseBudgets {
            shepherd: 10,
            ..PhaseBudgets::unlimited()
        },
        escalation_factor: 1,
        max_escalations: 2,
    };
    let report = fleet_with(w, None, Some(wd)).run();
    assert_eq!(report.groups.len(), 1);
    let g = &report.groups[0];
    assert!(!g.report.reproduced());
    assert_eq!(g.watchdog_escalations, 2);
    match &g.report.outcome {
        Outcome::GaveUp(GiveUpReason::WatchdogExhausted { phase, escalations }) => {
            assert_eq!(*phase, "shepherd");
            assert_eq!(*escalations, 2);
        }
        other => panic!("expected WatchdogExhausted, got {other:?}"),
    }
}
