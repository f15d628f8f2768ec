//! Fault injection at the solver boundary: an injected stall must look
//! exactly like the conflict budget tripping — `Unknown(Conflicts)` with the
//! count a real search stops at, billed the same under a watchdog meter,
//! never a panic, never a wrong `Sat`/`Unsat`. Lives in its own integration
//! test binary because chaos arming is process-global; the tests below
//! serialise on `LOCK` for the same reason.

use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef};
use er_solver::meter::{Meter, Phase, PhaseBudgets};
use er_solver::solve::{Budget, SatResult, Solver, StallReason};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn stall_plan(policy: er_chaos::FaultPolicy) -> er_chaos::ChaosPlan {
    er_chaos::ChaosPlan::new(0xd00d).with(er_chaos::Fault::SolverStall, policy)
}

fn satisfiable_solver(pool: &mut ExprPool) -> Solver<'_> {
    let x = pool.var("x", 32);
    let ten = pool.bv_const(10, 32);
    let lt = pool.cmp(CmpKind::Ult, x, ten);
    let mut s = Solver::new(pool);
    s.assert(lt);
    s
}

#[test]
fn injected_stall_is_a_budget_stall_and_then_clears() {
    let _l = lock();
    let guard = er_chaos::arm(stall_plan(er_chaos::FaultPolicy::always(1)));

    let budget = Budget::small();
    let mut pool = ExprPool::new();
    let mut s = satisfiable_solver(&mut pool);
    // First check eats the injection: a plain budget stall, no panic. A
    // real search stops at the conflict after its limit.
    assert_eq!(
        s.check(&budget),
        SatResult::Unknown(StallReason::Conflicts {
            conflicts: budget.max_conflicts + 1
        })
    );
    assert_eq!(s.last_stats().conflicts, budget.max_conflicts + 1);
    // Budget spent: the very next check (the "retry") succeeds.
    assert!(matches!(s.check(&budget), SatResult::Sat(_)));

    let stats = er_chaos::stats().expect("armed");
    let dom = stats.domain(er_chaos::Domain::Solver);
    assert_eq!(dom.injected, 1);
    assert_eq!(dom.degraded, 1);
    drop(guard);

    // Disarmed: no injection at all.
    let mut pool = ExprPool::new();
    let mut s = satisfiable_solver(&mut pool);
    assert!(matches!(s.check(&budget), SatResult::Sat(_)));
}

/// A factoring query that needs thousands of conflicts, so every small
/// limit below stops a real search.
fn hard_solver(pool: &mut ExprPool) -> Solver<'_> {
    let x = pool.var("x", 32);
    let y = pool.var("y", 32);
    let n = pool.bv_const(65_521 * 251, 32);
    let one = pool.bv_const(1, 32);
    let lim = pool.bv_const(65_536, 32);
    let prod = pool.bin(BvOp::Mul, x, y);
    let query: Vec<ExprRef> = vec![
        pool.cmp(CmpKind::Eq, prod, n),
        pool.cmp(CmpKind::Ult, one, x),
        pool.cmp(CmpKind::Ult, one, y),
        pool.cmp(CmpKind::Ult, x, lim),
        pool.cmp(CmpKind::Ult, y, lim),
    ];
    let mut s = Solver::new(pool);
    for c in query {
        s.assert(c);
    }
    s
}

/// One metered query with a solve budget of `solve` and a query limit of
/// `max_conflicts`: (result, spend on the solve phase, tripped).
fn metered(solve: u64, max_conflicts: u64) -> (SatResult, u64, bool) {
    let mut m = Meter::new(PhaseBudgets {
        solve,
        ..PhaseBudgets::unlimited()
    });
    m.begin(Phase::Solve);
    let mut pool = ExprPool::new();
    let mut s = hard_solver(&mut pool);
    // A stale count from an earlier query must not leak into the bill.
    let _ = s.check(&Budget {
        max_conflicts: 40,
        ..Budget::default()
    });
    let budget = Budget {
        max_conflicts,
        ..Budget::default()
    };
    let got = m.check(&budget, |b| {
        let r = s.check(b);
        (r, s.last_stats().conflicts)
    });
    (got, m.spent()[Phase::Solve as usize], m.tripped().is_some())
}

#[test]
fn injected_stall_bills_like_a_real_stall_under_the_meter() {
    let _l = lock();
    er_chaos::disarm();
    // The real-query table of `meter::tests::clamp_keeps_the_trip_points_of_the_query_limit`.
    let cancelled = SatResult::Unknown(StallReason::Cancelled);
    let stalled = |conflicts| SatResult::Unknown(StallReason::Conflicts { conflicts });
    let table = [
        // remaining < max: the meter trips first.
        ((0, 5), (cancelled.clone(), 1, true)),
        ((3, 5), (cancelled.clone(), 4, true)),
        ((4, 5), (cancelled, 5, true)),
        // remaining == max: the query's own limit wins the tie.
        ((5, 5), (stalled(6), 5, false)),
        ((0, 0), (stalled(1), 0, false)),
        // remaining > max: an ordinary conflict stall.
        ((6, 5), (stalled(6), 5, false)),
        ((10, 5), (stalled(6), 5, false)),
    ];
    for ((solve, max_conflicts), want) in table {
        let case = format!("solve budget {solve}, max_conflicts {max_conflicts}");
        assert_eq!(metered(solve, max_conflicts), want, "real: {case}");
        // Armed, the metered query (the second check) is the injected one.
        let guard = er_chaos::arm(stall_plan(er_chaos::FaultPolicy::at_nth(1)));
        let got = metered(solve, max_conflicts);
        let injected = er_chaos::stats()
            .expect("armed")
            .domain(er_chaos::Domain::Solver)
            .injected;
        drop(guard);
        assert_eq!(injected, 1, "injected: {case}");
        assert_eq!(got, want, "injected: {case}");
    }
}
