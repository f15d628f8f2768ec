//! The `fleet-durable` workload: per program, a durable two-instance
//! mirrored fleet runs uncrashed, runs again until a seeded WAL tear
//! kills it, and is resumed from the torn log.

use crate::seed::{fnv64, splitmix64, Stream};
use crate::session::{replay, Answer};
use crate::spans::{Kind, Tracer, ROOT};
use er_chaos::{ChaosPlan, Fault, FaultPolicy};
use er_durable::{CrashSignal, DurableEvent, Wal};
use er_fleet::sched::SchedulerConfig;
use er_fleet::sim::{Fleet, FleetConfig, FleetReport, FleetSpec, Traffic};
use er_minilang::ir::Program;
use er_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Instances per fleet.
const INSTANCES: usize = 2;

/// One group's answer: the group id plus what the session must reproduce.
pub type GroupAnswer = (u64, Answer);

/// Every group's answer, ordered by group id.
pub fn answers(report: &FleetReport) -> Vec<GroupAnswer> {
    let mut rows: Vec<GroupAnswer> = report
        .groups
        .iter()
        .map(|g| (g.group, Answer::of(&g.report)))
        .collect();
    rows.sort_by_key(|(group, _)| *group);
    rows
}

/// The two fleets of one program's leg: `clean` journals to its own WAL
/// and is never crashed; `torn` is crashed and resumed.
pub struct Leg {
    name: &'static str,
    program: Program,
    clean: Fleet,
    clean_wal: PathBuf,
    torn: Fleet,
}

fn fleet(w: &Workload, stream: &Stream, program: &Program, wal: &Path) -> Fleet {
    let spec = FleetSpec {
        program: program.clone(),
        input_gen: stream.input_gen(),
        sched_gen: Some(stream.sched_gen()),
        pt: er_pt::PtConfig::default(),
        reoccurrence: stream.fast_forward(),
        er: w.er_config(),
        label: w.name.to_string(),
    };
    Fleet::new(
        spec,
        FleetConfig {
            instances: INSTANCES,
            serial: false,
            traffic: Traffic::Mirrored,
            durable: Some(wal.to_path_buf()),
            sched: SchedulerConfig::default(),
            ..FleetConfig::default()
        },
    )
}

impl Leg {
    pub fn new(w: &Workload, stream: &Stream, program: Program, dir: &Path) -> Leg {
        let clean_wal = dir.join(format!("{}-clean.wal", w.name));
        let torn_wal = dir.join(format!("{}-torn.wal", w.name));
        Leg {
            name: w.name,
            clean: fleet(w, stream, &program, &clean_wal),
            torn: fleet(w, stream, &program, &torn_wal),
            clean_wal,
            program,
        }
    }

    /// Runs the clean fleet only (the set-up warm-up).
    pub fn warm_up(&self) -> Result<(), String> {
        let report = self.clean.run();
        self.check(&report)
    }

    /// Every group reproduced, and each test case replays to its group's
    /// target failure.
    fn check(&self, report: &FleetReport) -> Result<(), String> {
        if !report.all_reproduced() {
            return Err(format!(
                "{}: fleet did not reproduce every group",
                self.name
            ));
        }
        for g in &report.groups {
            let tc = g.report.outcome.test_case().expect("reproduced");
            let target = g
                .report
                .target
                .as_ref()
                .ok_or("reproduced without a target")?;
            replay(&self.program, tc, target).map_err(|e| format!("{}: {e}", self.name))?;
        }
        Ok(())
    }

    /// Runs the three steps of the leg. `salt` picks the tear position.
    pub fn run(&self, salt: u64, tr: &mut Tracer) -> Result<LegResult, String> {
        tr.start_session();
        let root = tr.begin(ROOT, Kind::Session);
        let out = self.steps(salt, tr);
        tr.end(root);
        out
    }

    fn steps(&self, salt: u64, tr: &mut Tracer) -> Result<LegResult, String> {
        let start = Instant::now();
        let report = tr.time("fleet.run", Kind::Session, || self.clean.run());
        let run_wall = start.elapsed();
        tr.time("verify", Kind::Session, || self.check(&report))?;
        let reference = answers(&report);

        let (_, events, _) = tr
            .time("wal.open", Kind::Session, || Wal::open(&self.clean_wal))
            .map_err(|e| format!("{}: clean WAL unreadable: {e}", self.name))?;
        if events.len() < 2 {
            return Err(format!(
                "{}: clean WAL holds {} records",
                self.name,
                events.len()
            ));
        }
        // Tear a seeded append in [1, appends - 1]: never the empty log,
        // which would be a cold start rather than a resume.
        let n = events.len() as u64;
        let at = 1 + splitmix64(salt ^ fnv64(self.name.as_bytes())) % (n - 1);
        let crashed = tr.time("fleet.crash", Kind::Session, || {
            let _armed =
                er_chaos::arm(ChaosPlan::new(salt).with(Fault::WalTear, FaultPolicy::at_nth(at)));
            catch_unwind(AssertUnwindSafe(|| self.torn.run()))
        });
        let torn_at = match crashed {
            Err(payload) => payload
                .downcast_ref::<CrashSignal>()
                .map(|s| s.records_appended)
                .ok_or_else(|| format!("{}: crash payload is not a CrashSignal", self.name))?,
            Ok(_) => {
                return Err(format!(
                    "{}: the tear at append {at} did not fire",
                    self.name
                ))
            }
        };
        if torn_at != at {
            return Err(format!(
                "{}: tear armed at append {at} fired at {torn_at}",
                self.name
            ));
        }

        let start = Instant::now();
        let resumed = tr.time("fleet.resume", Kind::Session, || {
            catch_unwind(AssertUnwindSafe(|| self.torn.resume()))
        });
        let resume_wall = start.elapsed();
        let resumed = match resumed {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => return Err(format!("{}: resume failed: {e}", self.name)),
            Err(_) => return Err(format!("{}: resume panicked", self.name)),
        };
        tr.time("verify", Kind::Session, || self.check(&resumed))?;
        if answers(&resumed) != reference {
            return Err(format!(
                "{}: resumed answer differs from the uncrashed one (tear at append {at})",
                self.name
            ));
        }
        Ok(LegResult {
            run_wall,
            resume_wall,
            report,
            events,
        })
    }
}

/// One finished leg.
pub struct LegResult {
    /// Wall of the uncrashed `Fleet::run`.
    pub run_wall: Duration,
    /// Wall of `Fleet::resume` after the tear.
    pub resume_wall: Duration,
    /// The uncrashed run's report.
    pub report: FleetReport,
    /// The uncrashed run's journal.
    pub events: Vec<DurableEvent>,
}
