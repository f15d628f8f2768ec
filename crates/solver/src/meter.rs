//! Per-phase work metering for watchdog supervision.
//!
//! The fleet watchdog cannot preempt a stuck phase — symbolic execution and
//! CDCL search are single-threaded loops — so a supervised iteration runs
//! under a [`Meter`]: per-phase work budgets plus the work spent so far.
//! The meter is an explicit value. The session that owns it hands it to the
//! loops that burn work: the symex step loop bills one unit per step,
//! selection bills its graph size, and every solver query goes through
//! [`Meter::check`], which clamps the query's conflict limit to the
//! remaining budget and bills the conflicts the query used. The solver
//! itself never sees the meter. Work units (events stepped, conflicts
//! resolved) stand in for wall-clock deadlines so supervision stays
//! deterministic and replayable.
//!
//! An unsupervised run carries [`Meter::default`], whose budgets are
//! unlimited: it bills like any other meter and never trips.

use crate::solve::{Budget, SatResult, StallReason};

/// A supervised phase of one session iteration, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Trace packet decoding.
    Decode,
    /// Shepherded symbolic execution along the trace.
    Shepherd,
    /// Constraint solving (initial and final queries).
    Solve,
    /// Key data value selection.
    Select,
}

impl Phase {
    /// Stable lower-case name (used in counter names and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Shepherd => "shepherd",
            Phase::Solve => "solve",
            Phase::Select => "select",
        }
    }
}

/// Per-phase work budgets, in phase-native units: packets for decode,
/// events stepped (plus the SAT conflicts of address queries) for
/// shepherd, SAT conflicts for solve, constraint-graph nodes for select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBudgets {
    /// Decode budget (packets).
    pub decode: u64,
    /// Shepherd budget (symex events stepped).
    pub shepherd: u64,
    /// Solve budget (SAT conflicts).
    pub solve: u64,
    /// Select budget (constraint-graph nodes).
    pub select: u64,
}

impl PhaseBudgets {
    /// No limits — a meter that never trips.
    pub fn unlimited() -> PhaseBudgets {
        PhaseBudgets {
            decode: u64::MAX,
            shepherd: u64::MAX,
            solve: u64::MAX,
            select: u64::MAX,
        }
    }

    /// All budgets multiplied by `factor` (saturating) — the watchdog's
    /// escalation step after it cancels a stalled iteration.
    #[must_use]
    pub fn scaled(self, factor: u64) -> PhaseBudgets {
        PhaseBudgets {
            decode: self.decode.saturating_mul(factor),
            shepherd: self.shepherd.saturating_mul(factor),
            solve: self.solve.saturating_mul(factor),
            select: self.select.saturating_mul(factor),
        }
    }
}

/// The work budget of one iteration: per-phase budgets, the work billed to
/// each phase so far, the phase currently billed, and the phase that
/// tripped, if any. A trip is final: once a phase overspends, the meter
/// stays tripped and every caller must unwind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meter {
    /// Budgets indexed by `Phase as usize`, like `spent`.
    budgets: [u64; 4],
    spent: [u64; 4],
    phase: Phase,
    tripped: Option<Phase>,
}

impl Default for Meter {
    /// An unlimited meter (the unsupervised default).
    fn default() -> Meter {
        Meter::new(PhaseBudgets::unlimited())
    }
}

impl Meter {
    /// A fresh meter with `budgets`, billing [`Phase::Decode`] first.
    pub fn new(budgets: PhaseBudgets) -> Meter {
        Meter {
            budgets: [
                budgets.decode,
                budgets.shepherd,
                budgets.solve,
                budgets.select,
            ],
            spent: [0; 4],
            phase: Phase::Decode,
            tripped: None,
        }
    }

    /// Marks the start of `phase`; later bills go against its budget.
    /// Phase spend accumulates across re-entries (a solve after a resume
    /// continues the solve budget, it does not reset it).
    pub fn begin(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Bills `work` units against the current phase. Returns `true` when
    /// the meter has tripped — the caller must unwind with a
    /// [`StallReason::Cancelled`] stall as soon as it can do so safely.
    #[inline]
    pub fn bill(&mut self, work: u64) -> bool {
        if self.tripped.is_none() {
            let i = self.phase as usize;
            self.spent[i] = self.spent[i].saturating_add(work);
            if self.spent[i] > self.budgets[i] {
                self.trip();
            }
        }
        self.tripped.is_some()
    }

    /// Kept out of line: the symex step loop bills every step.
    #[cold]
    fn trip(&mut self) {
        self.tripped = Some(self.phase);
        match self.phase {
            Phase::Decode => er_telemetry::counter!("watchdog.tripped.decode").incr(),
            Phase::Shepherd => er_telemetry::counter!("watchdog.tripped.shepherd").incr(),
            Phase::Solve => er_telemetry::counter!("watchdog.tripped.solve").incr(),
            Phase::Select => er_telemetry::counter!("watchdog.tripped.select").incr(),
        }
    }

    /// The phase whose budget tripped, if any.
    pub fn tripped(&self) -> Option<Phase> {
        self.tripped
    }

    /// Work billed per phase so far, in pipeline order (decode, shepherd,
    /// solve, select).
    pub fn spent(&self) -> [u64; 4] {
        self.spent
    }

    /// Runs one solver query under the meter. `query` receives `budget`
    /// with its conflict limit clamped to the current phase's remaining
    /// budget and returns its result plus the SAT conflicts it used; those
    /// are billed, and a query that tripped the meter reports
    /// [`StallReason::Cancelled`].
    ///
    /// The query's own limit counts first: a search that stops on it has
    /// used `max_conflicts + 1` conflicts but bills only `max_conflicts`,
    /// so when the remaining budget equals the query's limit the result is
    /// an ordinary conflict stall, not a cancellation.
    pub fn check(
        &mut self,
        budget: &Budget,
        query: impl FnOnce(&Budget) -> (SatResult, u64),
    ) -> SatResult {
        let i = self.phase as usize;
        let remaining = self.budgets[i].saturating_sub(self.spent[i]);
        let clamped = Budget {
            max_conflicts: budget.max_conflicts.min(remaining),
            ..*budget
        };
        let (result, conflicts) = query(&clamped);
        if self.bill(conflicts.min(budget.max_conflicts)) {
            return SatResult::Unknown(StallReason::Cancelled);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BvOp, CmpKind, ExprPool};
    use crate::solve::Solver;

    #[test]
    fn unlimited_meter_never_trips() {
        let mut m = Meter::default();
        assert!(!m.bill(u64::MAX));
        assert!(!m.bill(1), "saturates instead of wrapping");
        assert_eq!(m.tripped(), None);
        assert_eq!(m.spent(), [u64::MAX, 0, 0, 0]);
    }

    #[test]
    fn trips_only_the_overspent_phase() {
        let mut m = Meter::new(PhaseBudgets {
            decode: 10,
            shepherd: 5,
            solve: 100,
            select: 100,
        });
        assert!(!m.bill(10), "decode within budget");
        m.begin(Phase::Shepherd);
        assert!(!m.bill(5));
        assert!(m.bill(1), "shepherd budget tripped");
        assert_eq!(m.tripped(), Some(Phase::Shepherd));
        // Once tripped, every bill keeps reporting the trip and bills
        // nothing more.
        m.begin(Phase::Solve);
        assert!(m.bill(0));
        assert!(m.bill(7));
        assert_eq!(m.spent(), [10, 6, 0, 0]);
    }

    #[test]
    fn restoring_a_clone_rolls_the_trip_back() {
        // A supervisor snapshots the session (and its meter) before an
        // iteration and restores it after a trip: nothing of the cancelled
        // iteration's spend may survive.
        let mut m = Meter::new(PhaseBudgets {
            decode: 4,
            ..PhaseBudgets::unlimited()
        });
        let before = m.clone();
        assert!(m.bill(5));
        m = before;
        assert_eq!(m.tripped(), None);
        assert_eq!(m.spent(), [0; 4]);
    }

    #[test]
    fn scaled_escalates_saturating() {
        let b = PhaseBudgets {
            decode: 2,
            shepherd: 3,
            solve: u64::MAX / 2 + 1,
            select: 4,
        };
        let s = b.scaled(4);
        assert_eq!((s.decode, s.shepherd, s.select), (8, 12, 16));
        assert_eq!(s.solve, u64::MAX, "saturates instead of wrapping");
    }

    #[test]
    fn phase_spend_accumulates_across_reentries() {
        let mut m = Meter::new(PhaseBudgets {
            solve: 10,
            ..PhaseBudgets::unlimited()
        });
        m.begin(Phase::Solve);
        assert!(!m.bill(6));
        m.begin(Phase::Shepherd);
        assert!(!m.bill(1));
        m.begin(Phase::Solve);
        assert!(!m.bill(4), "6+4 = 10, exactly at budget");
        assert!(m.bill(1), "re-entered solve continues its spend");
    }

    /// A factoring query that needs thousands of conflicts, so every small
    /// limit below stops the search.
    fn hard_query(pool: &mut ExprPool) -> Vec<crate::ExprRef> {
        let x = pool.var("x", 32);
        let y = pool.var("y", 32);
        let n = pool.bv_const(65_521 * 251, 32);
        let one = pool.bv_const(1, 32);
        let lim = pool.bv_const(65_536, 32);
        let prod = pool.bin(BvOp::Mul, x, y);
        vec![
            pool.cmp(CmpKind::Eq, prod, n),
            pool.cmp(CmpKind::Ult, one, x),
            pool.cmp(CmpKind::Ult, one, y),
            pool.cmp(CmpKind::Ult, x, lim),
            pool.cmp(CmpKind::Ult, y, lim),
        ]
    }

    #[test]
    fn clamp_keeps_the_trip_points_of_the_query_limit() {
        // (solve budget, query max_conflicts) -> (result, spend on the
        // solve phase, tripped). The expectations were recorded with the
        // earlier cooperative token, which ticked once per conflict after
        // the query's own limit check; the clamp must trip at the same
        // conflict and bill the same spend.
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
        for ((solve, max_conflicts), (want, want_spent, want_trip)) in table {
            let mut m = Meter::new(PhaseBudgets {
                solve,
                ..PhaseBudgets::unlimited()
            });
            m.begin(Phase::Solve);
            let mut pool = ExprPool::new();
            let query = hard_query(&mut pool);
            let mut s = Solver::new(&mut pool);
            for c in query {
                s.assert(c);
            }
            let budget = Budget {
                max_conflicts,
                ..Budget::default()
            };
            let got = m.check(&budget, |b| {
                let r = s.check(b);
                (r, s.last_stats().conflicts)
            });
            let case = format!("solve budget {solve}, max_conflicts {max_conflicts}");
            assert_eq!(got, want, "{case}");
            assert_eq!(m.spent(), [0, 0, want_spent, 0], "{case}");
            assert_eq!(m.tripped().is_some(), want_trip, "{case}");
        }
    }
}
