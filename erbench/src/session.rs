//! The `table1-*` workloads: one reconstruction session per Table-1
//! program, driven through the public session API exactly as
//! `Reconstructor::reconstruct_from` drives it, with a span around each
//! layer call.

use crate::spans::{Kind, Tracer, ROOT};
use er_core::deploy::{Deployment, DeploymentSource, FailureSource};
use er_core::reconstruct::{
    ErConfig, GiveUpReason, OccurrenceInfo, ReconstructionReport, ReconstructionSession,
    SessionStep,
};
use er_core::testcase::TestCase;
use er_minilang::error::Failure;
use er_minilang::interp::{Machine, RunOutcome};
use er_minilang::ir::Program;
use std::time::{Duration, Instant};

/// What a session must reproduce identically across fast-forward modes,
/// passes and crashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub reproduced: bool,
    pub occurrences: u32,
    /// Production run of each analyzed occurrence, in order.
    pub runs: Vec<u64>,
    pub inputs: Vec<(u32, Vec<u8>)>,
}

impl Answer {
    pub fn of(report: &ReconstructionReport) -> Answer {
        Answer {
            reproduced: report.reproduced(),
            occurrences: report.occurrences,
            runs: report.iterations.iter().map(|it| it.run_index).collect(),
            inputs: report
                .outcome
                .test_case()
                .map(|tc| tc.inputs.clone())
                .unwrap_or_default(),
        }
    }
}

/// Replays `tc` on the original program with its own inputs and schedule;
/// it must hit `expected`, the first failure shipped in the session.
pub fn replay(program: &Program, tc: &TestCase, expected: &Failure) -> Result<(), String> {
    let report = Machine::new(program, tc.env()).with_sched(tc.sched).run();
    match report.outcome {
        RunOutcome::Failure(f) if f.same_failure(expected) => Ok(()),
        RunOutcome::Failure(f) => Err(format!("replay hit a different failure: {f:?}")),
        RunOutcome::Completed => Err("replay completed without failing".to_string()),
    }
}

/// One finished session.
#[derive(Debug)]
pub struct Session {
    pub wall: Duration,
    pub report: ReconstructionReport,
}

impl Session {
    pub fn answer(&self) -> Answer {
        Answer::of(&self.report)
    }
}

/// Runs one reconstruction session on `d` and checks its test case.
pub fn run(d: &Deployment, config: ErConfig, tr: &mut Tracer) -> Result<Session, String> {
    tr.start_session();
    let start = Instant::now();
    let root = tr.begin(ROOT, Kind::Session);
    let mut source = DeploymentSource::new(d, config.max_runs_per_occurrence);
    let mut session = ReconstructionSession::new(config, d.program().clone());
    let mut first: Option<Failure> = None;
    let mut runs = Vec::new();
    let report = loop {
        if !session.wants_more() {
            break session.give_up(GiveUpReason::OccurrenceLimit);
        }
        let inst = tr.time("instrument", Kind::Session, || session.instrumented());
        let target = session.target().cloned();
        let deployed = tr.time("deploy", Kind::Session, || {
            source.next_occurrence(&inst, target.as_ref())
        });
        let Some(occ) = deployed else {
            break session.give_up(GiveUpReason::NoFailureObserved);
        };
        first.get_or_insert_with(|| occ.failure.clone());
        runs.push(occ.run_index);
        let info = OccurrenceInfo::of(&occ);
        let step = match tr.time("decode", Kind::Session, || occ.trace.decode()) {
            Ok(decoded) => tr.time("analyze", Kind::Session, || {
                session.consume_events(&inst, info, decoded.events)
            }),
            Err(e) => session.note_undecodable(info, e.to_string()),
        };
        if let SessionStep::Done(report) = step {
            break report;
        }
    };
    let checked = match (report.outcome.test_case(), &first) {
        (Some(tc), Some(first)) => {
            tr.time("verify", Kind::Session, || replay(d.program(), tc, first))
        }
        _ => Err(format!("not reproduced: {:?}", report.outcome)),
    };
    tr.end(root);
    let wall = start.elapsed();
    checked?;
    let analyzed: Vec<u64> = report.iterations.iter().map(|it| it.run_index).collect();
    if analyzed != runs {
        return Err(format!(
            "session analyzed runs {analyzed:?}, deployment shipped {runs:?}"
        ));
    }
    Ok(Session { wall, report })
}
