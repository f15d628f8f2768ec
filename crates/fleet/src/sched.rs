//! The concurrent reconstruction scheduler.
//!
//! One [`ReconstructionSession`] per failure group, parked between
//! reoccurrences. Each analyze round picks the highest-priority groups —
//! priority is reoccurrence rate × (1 + stall depth), i.e. "fails often
//! and still needs data" — and drives at most `max_concurrent` of them one
//! iteration each, fanning out over [`crate::pool::parallel_map`].
//!
//! Version discipline keeps the fleet path bit-identical to the serial
//! loop: a group only consumes occurrences produced by its *current*
//! instrumented binary, in run order, and never re-consumes a run it has
//! already advanced past. When an iteration grows the recording set, the
//! group's version bumps, queued stale occurrences are dropped (counted),
//! and the new binary rolls out to the instrumented slice of instances.

use crate::ingest::PendingOccurrence;
use crate::pool;
use crate::store::TraceStore;
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::{
    ErConfig, GiveUpReason, Outcome, ReconstructionReport, ReconstructionSession, SessionStep,
};
use er_durable::{ConsumeOutcome, DurableEvent, Wal, WatchdogConfig, WatchdogState};
use er_minilang::ir::Program;
use er_pt::packets_to_events;
use er_solver::meter::{Meter, Phase};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Reconstruction iterations driven concurrently per analyze round.
    pub max_concurrent: usize,
    /// Fraction of instances that receive a group's instrumented binary
    /// (at least one instance always does).
    pub rollout: f64,
    /// Watchdog supervision of analyze iterations: per-phase work budgets
    /// plus the escalation ladder. `None` disables supervision (iterations
    /// run unbudgeted, as before).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_concurrent: 2,
            rollout: 1.0,
            watchdog: None,
        }
    }
}

/// One failure group's investigation state.
#[derive(Debug)]
pub struct GroupState {
    /// Group id (signature hash).
    pub id: u64,
    /// Short label for telemetry context.
    pub label: String,
    /// Current instrumentation version (0 = uninstrumented).
    pub version: u32,
    session: ReconstructionSession,
    inst: InstrumentedProgram,
    pending: VecDeque<PendingOccurrence>,
    /// Runs at or below this index are already consumed; later-arriving
    /// occurrences of them are duplicates from other instances.
    next_run: u64,
    /// Final report, once the investigation closed.
    pub report: Option<ReconstructionReport>,
    /// Analyze rounds in which this group consumed an occurrence.
    pub iterations: u64,
    /// Total sightings across all instances (triage's count, including
    /// redundant ones) — the numerator of the reoccurrence rate.
    pub occurrences_seen: u64,
    /// Position on the watchdog escalation ladder (present iff the
    /// scheduler supervises iterations).
    watchdog: Option<WatchdogState>,
}

impl GroupState {
    /// Whether this group still wants occurrences.
    fn open(&self) -> bool {
        self.report.is_none() && self.session.wants_more()
    }

    /// Watchdog escalations this group has taken (0 when unsupervised).
    pub fn watchdog_escalations(&self) -> u32 {
        self.watchdog.map(|w| w.escalations()).unwrap_or(0)
    }

    /// Runs at or below this index are already consumed.
    pub fn next_run(&self) -> u64 {
        self.next_run
    }

    /// The session's accumulated recording set (original coordinates).
    pub fn sites(&self) -> &[er_minilang::ir::InstrId] {
        self.session.sites()
    }

    /// Occurrences the session has consumed.
    pub fn occurrences_consumed(&self) -> u32 {
        self.session.occurrences()
    }

    /// Queued occurrences not yet consumed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The oldest queued occurrence consumable right now: produced by the
    /// current-version binary for this group (or the baseline binary while
    /// the group is still at version 0), at a run not yet consumed.
    fn next_eligible(&self) -> Option<usize> {
        self.pending.iter().position(|p| {
            p.version == self.version
                && (p.for_group.is_none() || p.for_group == Some(self.id))
                && p.info.run_index >= self.next_run
        })
    }

    /// Stall depth of the underlying session.
    pub fn stall_depth(&self) -> u32 {
        self.session.stall_depth()
    }
}

/// What one analyze iteration did to a group.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum StepOutcome {
    /// Consumed an occurrence; the group wants another under the same
    /// binary.
    NeedMore,
    /// Consumed an occurrence; the recording set grew and version bumped.
    Reinstrumented,
    /// The investigation closed (report available on the group).
    Closed,
}

/// What a (possibly supervised) analyze worker reported back.
#[derive(Debug, Clone, Copy)]
enum IterResult {
    /// The iteration ran to completion.
    Done(StepOutcome),
    /// The watchdog tripped `phase` mid-iteration; the worker restored the
    /// pre-iteration session, so the occurrence can be retried.
    Cancelled { phase: &'static str },
}

/// The per-fleet scheduler.
#[derive(Debug)]
pub struct Scheduler {
    er: ErConfig,
    policy: SchedulerConfig,
    groups: BTreeMap<u64, GroupState>,
    /// Durable event log; every scheduler decision that must survive a
    /// crash is appended (and flushed) before the next one is made.
    wal: Option<Wal>,
}

impl Scheduler {
    /// A scheduler creating sessions with `er` for every new group.
    pub fn new(er: ErConfig, policy: SchedulerConfig) -> Scheduler {
        Scheduler {
            er,
            policy,
            groups: BTreeMap::new(),
            wal: None,
        }
    }

    /// Attaches a durable event log: session lifecycle, accepted
    /// occurrences (trace bytes included), consumption, checkpoints,
    /// rollouts, and verdicts are journaled so [`Scheduler::recover`] can
    /// rebuild this scheduler after a crash.
    pub fn with_wal(mut self, wal: Wal) -> Scheduler {
        self.wal = Some(wal);
        self
    }

    /// Appends one event to the WAL, if one is attached. An I/O failure
    /// degrades durability (logged and counted) rather than killing the
    /// investigation; an injected [`er_chaos::Fault::WalTear`] panics
    /// through here by design — that *is* the simulated crash.
    fn append_wal(&mut self, ev: &DurableEvent) {
        let Some(wal) = self.wal.as_mut() else { return };
        if let Err(e) = wal.append(ev) {
            er_telemetry::counter!("durable.append_failures").incr();
            er_telemetry::log!(warn, "wal append failed ({e}); durability degraded");
        }
    }

    /// Ensures a group exists, creating its session on first sight.
    pub fn note_group(&mut self, id: u64, program: &Program, label: &str) {
        let er = self.er;
        let watchdog = self.policy.watchdog.as_ref().map(WatchdogState::new);
        let mut started = false;
        self.groups.entry(id).or_insert_with(|| {
            started = true;
            let session = ReconstructionSession::new(er, program.clone());
            let inst = session.instrumented();
            GroupState {
                id,
                label: label.to_string(),
                version: 0,
                session,
                inst,
                pending: VecDeque::new(),
                next_run: 0,
                report: None,
                iterations: 0,
                occurrences_seen: 0,
                watchdog,
            }
        });
        if started {
            self.append_wal(&DurableEvent::SessionStarted {
                group: id,
                label: label.to_string(),
            });
        }
    }

    /// Refreshes each group's sighting count from the triage table (called
    /// after every drain, so priorities track live reoccurrence rates).
    pub fn update_rates(&mut self, triage: &crate::triage::Triage) {
        for g in self.groups.values_mut() {
            if let Some(t) = triage.group(g.id) {
                g.occurrences_seen = t.occurrences;
            }
        }
    }

    /// Queues drained occurrences on their groups, pinning their traces.
    /// Stale occurrences (old version, already-consumed run, or a
    /// duplicate of a queued one from another instance) are dropped
    /// immediately and counted.
    pub fn enqueue(&mut self, pending: Vec<PendingOccurrence>, store: &mut TraceStore) {
        let journaling = self.wal.is_some();
        for p in pending {
            let Some(g) = self.groups.get_mut(&p.group) else {
                continue; // group must be noted first
            };
            let stale = g.report.is_some()
                || p.version != g.version
                || (p.for_group.is_some() && p.for_group != Some(g.id))
                || p.info.run_index < g.next_run;
            let duplicate = g.pending.iter().any(|q| {
                q.version == p.version && q.info.run_index == p.info.run_index && q.trace == p.trace
            });
            if stale {
                er_telemetry::counter!("fleet.sched.stale_dropped").incr();
            } else if duplicate {
                er_telemetry::counter!("fleet.sched.redundant").incr();
            } else {
                if let Some(id) = p.trace {
                    store.pin(id);
                }
                let journal = journaling.then(|| DurableEvent::OccurrenceIngested {
                    group: p.group,
                    for_group: p.for_group,
                    version: p.version,
                    leading_gap: p.leading_gap,
                    info: Box::new(p.info.clone()),
                    trace: p.trace.and_then(|id| store.compressed_bytes(id).ok()),
                    error: p.error.clone(),
                });
                g.pending.push_back(p);
                if let Some(ev) = journal {
                    self.append_wal(&ev);
                }
            }
        }
    }

    /// Whether any open group has a consumable occurrence queued — the
    /// production pause signal: analysis must catch up before instances
    /// run further ahead.
    pub fn has_eligible_pending(&self) -> bool {
        self.groups
            .values()
            .any(|g| g.open() && g.next_eligible().is_some())
    }

    /// Whether any group's investigation is still open.
    pub fn any_open(&self) -> bool {
        self.groups.values().any(|g| g.open())
    }

    /// All groups, by id.
    pub fn groups(&self) -> impl Iterator<Item = &GroupState> {
        self.groups.values()
    }

    /// The binary instance `idx` of `total` should run right now: the
    /// highest-priority open group's current binary on the instrumented
    /// slice (`ceil(rollout × total)`, at least 1), the uninstrumented
    /// baseline elsewhere. Returns `(group, version, binary)`.
    pub fn binary_for(
        &self,
        idx: usize,
        total: usize,
        runs_observed: u64,
        baseline: &InstrumentedProgram,
    ) -> (Option<u64>, u32, InstrumentedProgram) {
        let instrumented = ((self.policy.rollout * total as f64).ceil() as usize).clamp(1, total);
        let lead = self
            .priority_order(runs_observed)
            .into_iter()
            .next()
            .and_then(|id| self.groups.get(&id));
        match lead {
            Some(g) if idx < instrumented && g.version > 0 => {
                (Some(g.id), g.version, g.inst.clone())
            }
            _ => (None, 0, baseline.clone()),
        }
    }

    /// Open groups in descending priority order: reoccurrence rate ×
    /// (1 + stall depth), rate in occurrences per 1000 observed runs.
    /// Ties break toward the smaller group id, so the order is total and
    /// deterministic.
    fn priority_order(&self, runs_observed: u64) -> Vec<u64> {
        let mut scored: Vec<(u64, u64)> = self
            .groups
            .values()
            .filter(|g| g.open())
            .map(|g| {
                let rate = g.occurrences_seen.max(1) * 1000 / runs_observed.max(1);
                let score = rate.max(1) * (1 + u64::from(g.stall_depth()));
                (score, g.id)
            })
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, id)| id).collect()
    }

    /// Runs one analyze round: up to `max_concurrent` highest-priority
    /// groups each consume their oldest eligible occurrence, in parallel
    /// unless `serial`. Returns `(group, outcome)` per iteration driven.
    pub fn analyze_round(
        &mut self,
        store: &mut TraceStore,
        runs_observed: u64,
        serial: bool,
    ) -> Vec<(u64, StepOutcome)> {
        // Pick and detach the work: group state + its popped occurrence.
        let mut selected: Vec<(GroupState, PendingOccurrence)> = Vec::new();
        for id in self.priority_order(runs_observed) {
            if selected.len() >= self.policy.max_concurrent {
                break;
            }
            let g = self.groups.get_mut(&id).expect("scored group exists");
            if let Some(at) = g.next_eligible() {
                let p = g.pending.remove(at).expect("eligible index valid");
                let g = self.groups.remove(&id).expect("group present");
                selected.push((g, p));
            }
        }
        if selected.is_empty() {
            return Vec::new();
        }

        // Sessions of different groups are independent, so their
        // iterations run concurrently; the store is only read here.
        let work: Vec<Mutex<Option<(GroupState, PendingOccurrence)>>> =
            selected.into_iter().map(|w| Mutex::new(Some(w))).collect();
        let outcomes = pool::try_parallel_map(&work, serial, |_, slot| {
            let (mut g, p) = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("work present");
            let label = g.label.clone();
            er_telemetry::set_context(&label);
            let result = Self::run_supervised(&mut g, &p, store);
            er_telemetry::set_context("");
            *slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some((g, p));
            result
        });

        let mut out = Vec::with_capacity(outcomes.len());
        for (slot, outcome) in work.into_iter().zip(outcomes) {
            let slot = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (mut g, p, result) = match (outcome, slot) {
                // Normal completion: the worker put the state back.
                (Ok(result), Some((g, p))) => (g, p, result),
                (Err(panic), Some((mut g, p))) => {
                    // The worker died *before* touching the work (the pool
                    // kills at its boundary under chaos): group state and
                    // occurrence are intact, so requeue the occurrence and
                    // let a later round consume it. The trace stays pinned.
                    er_telemetry::counter!("fleet.sched.requeued").incr();
                    er_telemetry::log!(
                        warn,
                        "analyze worker died for group {:#x} ({}); occurrence requeued",
                        g.id,
                        panic.message
                    );
                    er_chaos::note_recovered(er_chaos::Domain::Pool);
                    g.pending.push_front(p);
                    self.groups.insert(g.id, g);
                    continue;
                }
                (_, None) => {
                    // The closure panicked mid-iteration: the session state
                    // unwound with it. The group is lost — log it, count
                    // it, and keep the round (and every other group) alive.
                    er_telemetry::counter!("fleet.sched.lost_groups").incr();
                    er_telemetry::log!(
                        warn,
                        "analyze worker panicked mid-iteration; group state lost"
                    );
                    er_chaos::note_typed_error(er_chaos::Domain::Pool);
                    continue;
                }
            };
            let outcome = match result {
                IterResult::Done(outcome) => outcome,
                IterResult::Cancelled { phase } => {
                    // The watchdog tripped: the worker already restored the
                    // pre-iteration session, so the occurrence is intact.
                    // Climb the escalation ladder and retry, or give up.
                    er_telemetry::counter!("watchdog.cancelled").incr();
                    let cfg = self
                        .policy
                        .watchdog
                        .expect("cancellation implies supervision");
                    let wd = g.watchdog.as_mut().expect("supervised group has a ladder");
                    if wd.escalate(&cfg) {
                        let level = wd.escalations();
                        er_telemetry::counter!("watchdog.escalations").incr();
                        er_telemetry::counter!("watchdog.requeued").incr();
                        er_telemetry::log!(
                            warn,
                            "watchdog tripped {phase} for group {:#x}; retrying at escalation {level}",
                            g.id
                        );
                        self.append_wal(&DurableEvent::Escalated {
                            group: g.id,
                            level,
                            phase: phase.to_string(),
                        });
                        // Trace stays pinned for the retry.
                        g.pending.push_front(p);
                    } else {
                        let escalations = wd.escalations();
                        er_telemetry::counter!("watchdog.gave_up").incr();
                        er_telemetry::log!(
                            warn,
                            "watchdog exhausted for group {:#x} in {phase} after {escalations} escalations",
                            g.id
                        );
                        if let Some(id) = p.trace {
                            store.unpin(id);
                        }
                        for rest in g.pending.drain(..) {
                            if let Some(id) = rest.trace {
                                store.unpin(id);
                            }
                        }
                        g.report = Some(
                            g.session
                                .give_up(GiveUpReason::WatchdogExhausted { phase, escalations }),
                        );
                        if let Some(ev) = Self::terminal_event(&g) {
                            self.append_wal(&ev);
                        }
                        out.push((g.id, StepOutcome::Closed));
                    }
                    self.groups.insert(g.id, g);
                    continue;
                }
            };
            if let Some(id) = p.trace {
                store.unpin(id);
            }
            er_telemetry::counter!("fleet.sched.consumed").incr();
            if self.wal.is_some() {
                self.append_wal(&DurableEvent::OccurrenceConsumed {
                    group: g.id,
                    run_index: p.info.run_index,
                    outcome: match outcome {
                        StepOutcome::NeedMore => ConsumeOutcome::NeedMore,
                        StepOutcome::Reinstrumented => ConsumeOutcome::Reinstrumented,
                        StepOutcome::Closed => ConsumeOutcome::Closed,
                    },
                });
                let occurrence = g.session.occurrences();
                if let Some(it) = g.session.last_iteration() {
                    let (symbex_steps, solver_work) = (it.symbex_steps, it.solver_work);
                    let new_sites = it.new_sites.clone();
                    self.append_wal(&DurableEvent::SolverCheckpoint {
                        group: g.id,
                        occurrence,
                        symbex_steps,
                        solver_work,
                    });
                    if !new_sites.is_empty() {
                        self.append_wal(&DurableEvent::SelectionMade {
                            group: g.id,
                            occurrence,
                            new_sites,
                        });
                    }
                }
                let cursors: Vec<u64> = g
                    .session
                    .checkpoint_cursors()
                    .into_iter()
                    .map(|c| c as u64)
                    .collect();
                if !cursors.is_empty() {
                    self.append_wal(&DurableEvent::SymexCheckpoint {
                        group: g.id,
                        occurrence,
                        cursors,
                    });
                }
            }
            match outcome {
                StepOutcome::Reinstrumented => {
                    er_telemetry::counter!("fleet.sched.rollouts").incr();
                    // Everything queued was produced by the old binary.
                    for stale in g.pending.drain(..) {
                        if let Some(id) = stale.trace {
                            store.unpin(id);
                        }
                        er_telemetry::counter!("fleet.sched.stale_dropped").incr();
                    }
                    if self.wal.is_some() {
                        self.append_wal(&DurableEvent::PlanDeployed {
                            group: g.id,
                            version: g.version,
                            sites: g.session.sites().to_vec(),
                        });
                    }
                }
                StepOutcome::Closed => {
                    for rest in g.pending.drain(..) {
                        if let Some(id) = rest.trace {
                            store.unpin(id);
                        }
                    }
                    if let Some(ev) = Self::terminal_event(&g) {
                        self.append_wal(&ev);
                    }
                }
                StepOutcome::NeedMore => {}
            }
            out.push((g.id, outcome));
            self.groups.insert(g.id, g);
        }
        out
    }

    /// One worker-side iteration, under the watchdog when configured:
    /// snapshots the session first, installs a [`Meter`] with the group's
    /// current phase budgets, and — if any phase budget trips mid-iteration
    /// — restores the snapshot (meter included) so the cancelled work
    /// leaves no trace on the session.
    fn run_supervised(g: &mut GroupState, p: &PendingOccurrence, store: &TraceStore) -> IterResult {
        let Some(budgets) = g.watchdog.map(|w| w.budgets()) else {
            return IterResult::Done(Self::run_iteration(g, p, store));
        };
        let snapshot = (
            g.session.clone(),
            g.inst.clone(),
            g.next_run,
            g.iterations,
            g.version,
        );
        *g.session.meter_mut() = Meter::new(budgets);
        let outcome = Self::run_iteration(g, p, store);
        match g.session.meter().tripped() {
            Some(phase) => {
                let (session, inst, next_run, iterations, version) = snapshot;
                g.session = session;
                g.inst = inst;
                g.next_run = next_run;
                g.iterations = iterations;
                g.version = version;
                g.report = None;
                IterResult::Cancelled {
                    phase: phase.name(),
                }
            }
            None => IterResult::Done(outcome),
        }
    }

    /// The [`DurableEvent::Terminal`] record for a closed group.
    fn terminal_event(g: &GroupState) -> Option<DurableEvent> {
        let r = g.report.as_ref()?;
        let reason = match &r.outcome {
            Outcome::Reproduced(_) => "reproduced".to_string(),
            Outcome::GaveUp(why) => format!("{why:?}"),
        };
        Some(DurableEvent::Terminal {
            group: g.id,
            reproduced: r.reproduced(),
            reason,
            occurrences: r.occurrences,
        })
    }

    /// One group iteration: retrieve the trace, flatten to events, feed
    /// the session. Mutates only `g`.
    fn run_iteration(g: &mut GroupState, p: &PendingOccurrence, store: &TraceStore) -> StepOutcome {
        let _iter = er_telemetry::span!("reconstruct.iteration");
        g.iterations += 1;
        g.next_run = p.info.run_index + 1;
        let step = match p.trace {
            Some(id) => match store.get(id) {
                Ok((packets, gap)) => {
                    let events = {
                        let _s = er_telemetry::span!("shepherd.decode");
                        packets_to_events(&packets, gap)
                    };
                    // A decode-phase trip cancels the iteration before it
                    // shepherds.
                    let meter = g.session.meter_mut();
                    meter.begin(Phase::Decode);
                    if meter.bill(packets.len() as u64) {
                        return StepOutcome::NeedMore;
                    }
                    g.session.consume_events(&g.inst, p.info.clone(), events)
                }
                Err(e) => g
                    .session
                    .note_undecodable(p.info.clone(), format!("trace unavailable: {e}")),
            },
            None => g.session.note_undecodable(
                p.info.clone(),
                p.error.clone().unwrap_or_else(|| "undecodable".into()),
            ),
        };
        match step {
            SessionStep::Done(report) => {
                g.report = Some(report);
                StepOutcome::Closed
            }
            SessionStep::NeedOccurrence {
                reinstrumented: true,
            } => {
                g.version += 1;
                g.inst = g.session.instrumented();
                StepOutcome::Reinstrumented
            }
            SessionStep::NeedOccurrence {
                reinstrumented: false,
            } => StepOutcome::NeedMore,
        }
    }

    /// Consumes the scheduler, yielding every group's final state by id.
    pub fn into_states(self) -> Vec<GroupState> {
        self.groups.into_values().collect()
    }

    /// Closes every still-open group as having seen no (further) failure
    /// reoccurrence — the fleet stopped producing.
    pub fn close_all(&mut self, store: &mut TraceStore) {
        let mut closed: Vec<u64> = Vec::new();
        for g in self.groups.values_mut() {
            for rest in g.pending.drain(..) {
                if let Some(id) = rest.trace {
                    store.unpin(id);
                }
            }
            if g.report.is_none() {
                g.report = Some(g.session.give_up(GiveUpReason::NoFailureObserved));
                closed.push(g.id);
            }
        }
        for id in closed {
            if let Some(ev) = self.groups.get(&id).and_then(Self::terminal_event) {
                self.append_wal(&ev);
            }
        }
    }

    /// Rebuilds a scheduler from a recovered WAL: replays the logged
    /// events in order, re-feeding every consumed occurrence (journaled
    /// trace bytes re-enter the content-addressed store, yielding the
    /// original [`crate::store::TraceId`]s) through fresh sessions. The
    /// pipeline is deterministic, so replay reconverges on the crashed
    /// scheduler's state — including the symbex checkpoints, which resume
    /// exactly as they did pre-crash. Divergence between replay and what
    /// the log acknowledged is counted (`durable.replay_divergence`), not
    /// fatal.
    ///
    /// `wal` is attached only *after* replay, so replay appends nothing.
    pub fn recover(
        er: ErConfig,
        policy: SchedulerConfig,
        program: &Program,
        wal: Wal,
        events: &[DurableEvent],
        store: &mut TraceStore,
    ) -> Scheduler {
        let _span = er_telemetry::span!("durable.recover");
        let mut s = Scheduler::new(er, policy);
        for ev in events {
            match ev {
                DurableEvent::SessionStarted { group, label } => {
                    s.note_group(*group, program, label);
                }
                DurableEvent::OccurrenceIngested {
                    group,
                    for_group,
                    version,
                    leading_gap,
                    info,
                    trace,
                    error,
                } => {
                    let trace_id = trace.as_ref().and_then(|bytes| {
                        match store.put_compressed(*group, bytes, *leading_gap) {
                            Ok(put) => Some(put.id),
                            Err(e) => {
                                er_telemetry::counter!("durable.replay_divergence").incr();
                                er_telemetry::log!(
                                    warn,
                                    "replay: journaled trace for group {group:#x} unusable: {e}"
                                );
                                None
                            }
                        }
                    });
                    er_telemetry::counter!("durable.replayed_occurrences").incr();
                    s.enqueue(
                        vec![PendingOccurrence {
                            group: *group,
                            for_group: *for_group,
                            version: *version,
                            trace: trace_id,
                            leading_gap: *leading_gap,
                            info: info.as_ref().clone(),
                            error: error.clone(),
                        }],
                        store,
                    );
                }
                DurableEvent::OccurrenceConsumed {
                    group,
                    run_index,
                    outcome,
                } => s.replay_consume(*group, *run_index, *outcome, store),
                DurableEvent::Escalated { group, level, .. } => {
                    if let (Some(cfg), Some(g)) = (policy.watchdog, s.groups.get_mut(group)) {
                        if let Some(wd) = g.watchdog.as_mut() {
                            wd.restore(&cfg, *level);
                        }
                    }
                }
                DurableEvent::Terminal {
                    group, reproduced, ..
                } => {
                    // Durable assertion: replay must have re-derived the
                    // same verdict the crashed process acknowledged.
                    let got = s
                        .groups
                        .get(group)
                        .and_then(|g| g.report.as_ref())
                        .map(ReconstructionReport::reproduced);
                    if got != Some(*reproduced) {
                        er_telemetry::counter!("durable.replay_divergence").incr();
                        er_telemetry::log!(
                            warn,
                            "replay: group {group:#x} verdict {got:?} != journaled {reproduced}"
                        );
                    }
                }
                // Progress markers: replay re-derives checkpoints and
                // plans from the consumed occurrences themselves.
                DurableEvent::SymexCheckpoint { .. }
                | DurableEvent::SolverCheckpoint { .. }
                | DurableEvent::SelectionMade { .. }
                | DurableEvent::PlanDeployed { .. } => {}
            }
        }
        er_telemetry::counter!("durable.resumes").incr();
        er_telemetry::log!(
            info,
            "recovered scheduler from {} WAL events ({} groups)",
            events.len(),
            s.groups.len()
        );
        s.wal = Some(wal);
        s
    }

    /// Replays one journaled consumption: pops the matching queued
    /// occurrence and runs the iteration serially, mirroring
    /// [`Scheduler::analyze_round`]'s post-processing (without the WAL
    /// appends — the records already exist).
    fn replay_consume(
        &mut self,
        group: u64,
        run_index: u64,
        logged: ConsumeOutcome,
        store: &mut TraceStore,
    ) {
        let Some(mut g) = self.groups.remove(&group) else {
            er_telemetry::counter!("durable.replay_divergence").incr();
            er_telemetry::log!(warn, "replay: consumed event for unknown group {group:#x}");
            return;
        };
        let at = g.next_eligible().filter(|&at| {
            g.pending
                .get(at)
                .is_some_and(|p| p.info.run_index == run_index)
        });
        let Some(at) = at else {
            er_telemetry::counter!("durable.replay_divergence").incr();
            er_telemetry::log!(
                warn,
                "replay: group {group:#x} run {run_index} not next-eligible; skipping"
            );
            self.groups.insert(group, g);
            return;
        };
        let p = g.pending.remove(at).expect("eligible index valid");
        if let Some(id) = p.trace {
            store.unpin(id);
        }
        let label = g.label.clone();
        er_telemetry::set_context(&label);
        let outcome = Self::run_iteration(&mut g, &p, store);
        er_telemetry::set_context("");
        er_telemetry::counter!("fleet.sched.consumed").incr();
        let got = match outcome {
            StepOutcome::NeedMore => ConsumeOutcome::NeedMore,
            StepOutcome::Reinstrumented => ConsumeOutcome::Reinstrumented,
            StepOutcome::Closed => ConsumeOutcome::Closed,
        };
        if got != logged {
            er_telemetry::counter!("durable.replay_divergence").incr();
            er_telemetry::log!(
                warn,
                "replay: group {group:#x} run {run_index} outcome {got:?} != journaled {logged:?}"
            );
        }
        match outcome {
            StepOutcome::Reinstrumented => {
                er_telemetry::counter!("fleet.sched.rollouts").incr();
                for stale in g.pending.drain(..) {
                    if let Some(id) = stale.trace {
                        store.unpin(id);
                    }
                    er_telemetry::counter!("fleet.sched.stale_dropped").incr();
                }
            }
            StepOutcome::Closed => {
                for rest in g.pending.drain(..) {
                    if let Some(id) = rest.trace {
                        store.unpin(id);
                    }
                }
            }
            StepOutcome::NeedMore => {}
        }
        self.groups.insert(group, g);
    }
}
