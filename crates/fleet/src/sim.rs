//! The fleet simulator: M concurrent instances of one deployed program,
//! wired to ingestion, triage, the trace store, and the reconstruction
//! scheduler.
//!
//! The simulation advances in *rounds* of three phases:
//!
//! 1. **produce** — every instance runs production traffic from its cursor
//!    until its first failure or the batch cap, in parallel over the
//!    worker pool. Production pauses while analysis has a consumable
//!    occurrence queued, so no instance runs ahead of the binary its
//!    group's next iteration will deploy.
//! 2. **ingest** — queued crash reports drain in deterministic
//!    `(run, instance)` order: trace compressed into the content-addressed
//!    store (reoccurrences dedup), failure triaged to its group.
//! 3. **analyze** — the scheduler drives the highest-priority groups one
//!    reconstruction iteration each (bounded concurrency); a grown
//!    recording set bumps the group's version and rolls the new binary
//!    out to the instrumented slice of instances.
//!
//! Under [`Traffic::Mirrored`] every instance executes the *same* global
//! run stream — the model of one failing request class hitting all
//! replicas — which makes the consumed occurrence sequence, and therefore
//! the reconstructed test case, bit-identical to the serial
//! `Reconstructor::reconstruct` loop for any fleet size, while every
//! additional instance contributes one dedup hit per occurrence.
//! [`Traffic::Partitioned`] shards the stream (instance `i` owns runs
//! `i, i+M, …`) — more realistic, but reconstruction order then depends
//! on fleet size, so nothing is promised beyond per-group correctness.

use crate::ingest::{CrashReport, IngestConfig, IngestStats, Ingestor};
use crate::pool;
use crate::sched::{Scheduler, SchedulerConfig};
use crate::store::{StoreConfig, StoreStats, TraceStore};
use crate::triage::Triage;
use er_core::deploy::{Deployment, ReoccurrenceModel};
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::{ErConfig, ReconstructionReport};
use er_durable::Wal;
use er_minilang::env::Env;
use er_minilang::interp::SchedConfig;
use er_minilang::ir::Program;
use er_pt::PtConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How production traffic maps onto instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every instance executes the same global run stream.
    Mirrored,
    /// Instance `i` of `M` owns global runs `i, i+M, i+2M, …`.
    Partitioned,
}

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of concurrent instances (M).
    pub instances: usize,
    /// Run every phase single-threaded (the determinism baseline).
    pub serial: bool,
    /// Traffic model.
    pub traffic: Traffic,
    /// Production runs per instance per produce phase.
    pub batch_runs: u64,
    /// Safety cap on rounds.
    pub max_rounds: u64,
    /// Ingest queue sizing.
    pub ingest: IngestConfig,
    /// Trace-store retention policy.
    pub store: StoreConfig,
    /// Scheduler policy.
    pub sched: SchedulerConfig,
    /// Durable session WAL path. When set, [`Fleet::run`] journals every
    /// scheduler decision there and [`Fleet::resume`] can rebuild the
    /// investigation after a crash.
    pub durable: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            instances: 4,
            serial: false,
            traffic: Traffic::Mirrored,
            batch_runs: 2_000,
            max_rounds: 10_000,
            ingest: IngestConfig::default(),
            store: StoreConfig::default(),
            sched: SchedulerConfig::default(),
            durable: None,
        }
    }
}

/// What the fleet deploys: the program, its production traffic, and the
/// reconstruction configuration. Generators are shared (`Arc`) so each
/// instance can own a partition-shifted view of the same stream.
pub struct FleetSpec {
    /// The deployed program.
    pub program: Program,
    /// Global production input stream: run index to environment.
    pub input_gen: Arc<dyn Fn(u64) -> Env + Send + Sync>,
    /// Per-run scheduler configuration; `None` uses the deployment default.
    pub sched_gen: Option<Arc<dyn Fn(u64) -> SchedConfig + Send + Sync>>,
    /// PT tracing configuration.
    pub pt: PtConfig,
    /// Reoccurrence inter-arrival model (fast-forward only applies under
    /// [`Traffic::Mirrored`]; partitioned streams break the predictor's
    /// periodicity, so it is ignored there).
    pub reoccurrence: ReoccurrenceModel,
    /// Reconstruction configuration for every failure group.
    pub er: ErConfig,
    /// Telemetry/report label, e.g. the workload name.
    pub label: String,
}

impl std::fmt::Debug for FleetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSpec")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// One group's slice of the final report.
#[derive(Debug)]
pub struct FleetGroupReport {
    /// Group id (fault-signature hash).
    pub group: u64,
    /// Human label (`triage::FailureGroup::label`).
    pub label: String,
    /// Total sightings across instances, including deduplicated ones.
    pub occurrences_seen: u64,
    /// Reoccurrence rate, occurrences per 1000 observed runs.
    pub rate_per_mille: u64,
    /// Analyze iterations the group consumed.
    pub iterations: u64,
    /// Final instrumentation version.
    pub version: u32,
    /// Watchdog escalations taken (0 when unsupervised).
    pub watchdog_escalations: u32,
    /// The reconstruction outcome.
    pub report: ReconstructionReport,
}

/// The full fleet run record.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-group outcomes, by group id.
    pub groups: Vec<FleetGroupReport>,
    /// Rounds executed.
    pub rounds: u64,
    /// Global production runs observed (max instance cursor).
    pub runs_observed: u64,
    /// Store statistics.
    pub store: StoreStats,
    /// Ingestion statistics.
    pub ingest: IngestStats,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Wall time until the first verified reproduction, if any.
    pub time_to_first_repro: Option<Duration>,
}

impl FleetReport {
    /// Whether every group reproduced its failure.
    pub fn all_reproduced(&self) -> bool {
        !self.groups.is_empty() && self.groups.iter().all(|g| g.report.reproduced())
    }
}

struct Instance {
    /// Next *local* run index this instance would execute.
    cursor: u64,
}

/// The simulator.
pub struct Fleet {
    spec: FleetSpec,
    config: FleetConfig,
    deployments: Vec<Deployment>,
}

impl Fleet {
    /// Builds a fleet of `config.instances` deployments of `spec`.
    pub fn new(spec: FleetSpec, config: FleetConfig) -> Fleet {
        let m = config.instances.max(1) as u64;
        let mut deployments = Vec::with_capacity(config.instances);
        for i in 0..m {
            let input = spec.input_gen.clone();
            let gen: Box<dyn Fn(u64) -> Env + Send + Sync> = match config.traffic {
                Traffic::Mirrored => Box::new(move |run| input(run)),
                Traffic::Partitioned => Box::new(move |run| input(run * m + i)),
            };
            let mut d = Deployment::new(spec.program.clone(), gen).with_pt_config(spec.pt);
            if let Some(sg) = &spec.sched_gen {
                let sg = sg.clone();
                d = match config.traffic {
                    Traffic::Mirrored => d.with_sched(move |run| sg(run)),
                    Traffic::Partitioned => d.with_sched(move |run| sg(run * m + i)),
                };
            } else if config.traffic == Traffic::Partitioned {
                // Default schedule seeds by run index; shift it the same
                // way inputs are sharded so global run identity holds.
                d = d.with_sched(move |run| SchedConfig {
                    quantum: 1_000,
                    seed: run * m + i + 1,
                    max_instrs: 500_000_000,
                });
            }
            let reocc = match config.traffic {
                Traffic::Mirrored => spec.reoccurrence,
                // A periodic predictor over global runs is not periodic
                // over one shard; scan instead of mispredicting.
                Traffic::Partitioned => ReoccurrenceModel {
                    fast_forward: false,
                    predictor: None,
                    ..spec.reoccurrence
                },
            };
            deployments.push(d.with_reoccurrence(reocc));
        }
        Fleet {
            spec,
            config,
            deployments,
        }
    }

    fn global_run(&self, instance: usize, local: u64) -> u64 {
        match self.config.traffic {
            Traffic::Mirrored => local,
            Traffic::Partitioned => local * self.config.instances.max(1) as u64 + instance as u64,
        }
    }

    /// Runs the fleet to completion: until every discovered failure group
    /// closed its investigation, or production ran `er.max_runs_per_occurrence`
    /// runs past the last sighting without a reoccurrence, or the round cap.
    ///
    /// With [`FleetConfig::durable`] set, a fresh WAL is created at that
    /// path and every scheduler decision is journaled; if the WAL cannot
    /// be created the run proceeds without durability (logged).
    pub fn run(&self) -> FleetReport {
        let scheduler = Scheduler::new(self.spec.er, self.config.sched);
        let scheduler = match &self.config.durable {
            Some(path) => match Wal::create(path) {
                Ok(wal) => scheduler.with_wal(wal),
                Err(e) => {
                    er_telemetry::log!(
                        warn,
                        "durable WAL unavailable at {} ({e}); running without durability",
                        path.display()
                    );
                    scheduler
                }
            },
            None => scheduler,
        };
        self.drive(scheduler, TraceStore::new(self.config.store.clone()))
    }

    /// Restarts a crashed durable fleet: opens the WAL at
    /// [`FleetConfig::durable`] (truncating any torn tail), replays it
    /// into a recovered scheduler — re-deriving session state, symbex
    /// checkpoints, and watchdog ladders from the journaled occurrences —
    /// and drives the fleet to completion. Production cursors restart at
    /// zero: re-produced occurrences dedup in the content-addressed store
    /// and runs the recovered sessions already consumed are dropped at the
    /// scheduler's per-group run watermark, so nothing is double-counted.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the config has no durable path; otherwise the
    /// WAL-open I/O error.
    pub fn resume(&self) -> std::io::Result<FleetReport> {
        let path = self.config.durable.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "resume requires FleetConfig::durable",
            )
        })?;
        er_telemetry::set_context(&self.spec.label);
        let (wal, events, info) = Wal::open(path)?;
        er_telemetry::log!(
            info,
            "resuming from {}: {} records ({} torn bytes truncated)",
            path.display(),
            info.records,
            info.torn_bytes
        );
        let mut store = TraceStore::new(self.config.store.clone());
        let scheduler = Scheduler::recover(
            self.spec.er,
            self.config.sched,
            &self.spec.program,
            wal,
            &events,
            &mut store,
        );
        er_telemetry::set_context("");
        Ok(self.drive(scheduler, store))
    }

    fn drive(&self, mut scheduler: Scheduler, mut store: TraceStore) -> FleetReport {
        er_telemetry::set_context(&self.spec.label);
        let _span = er_telemetry::span!("fleet.run");
        let start = Instant::now();
        let m = self.config.instances.max(1);
        er_telemetry::counter!("fleet.instances").add(m as u64);

        let baseline = InstrumentedProgram::unmodified(&self.spec.program);
        let mut triage = Triage::new();
        let mut ingestor = Ingestor::new(self.config.ingest);
        let mut instances: Vec<Instance> = (0..m).map(|_| Instance { cursor: 0 }).collect();

        let mut rounds = 0u64;
        let mut time_to_first_repro = None;
        // Global runs observed at the last failure sighting; the give-up
        // budget counts from here.
        let mut last_sighting = 0u64;

        while rounds < self.config.max_rounds {
            rounds += 1;
            er_telemetry::counter!("fleet.rounds").incr();
            let _round = er_telemetry::span!("fleet.round");
            let runs_observed = self.runs_observed(&instances);

            // Produce, unless analysis still owes a queued occurrence its
            // iteration (pause keeps instances from running ahead of the
            // binary that iteration may roll out).
            let pause = scheduler.has_eligible_pending() || !ingestor.is_empty();
            if !pause {
                let _p = er_telemetry::span!("fleet.produce");
                let assignments: Vec<(Option<u64>, u32, InstrumentedProgram)> = (0..m)
                    .map(|i| scheduler.binary_for(i, m, runs_observed.max(1), &baseline))
                    .collect();
                let cursors: Vec<u64> = instances.iter().map(|s| s.cursor).collect();
                let label = self.spec.label.clone();
                let produced = pool::try_parallel_map(
                    &(0..m).collect::<Vec<usize>>(),
                    self.config.serial,
                    |_, &i| {
                        er_telemetry::set_context(&label);
                        let (_, _, inst) = &assignments[i];
                        let occ = self.deployments[i].run_until_failure(
                            inst,
                            None,
                            cursors[i],
                            self.config.batch_runs,
                        );
                        er_telemetry::set_context("");
                        occ
                    },
                );
                for (i, occ) in produced.into_iter().enumerate() {
                    match occ {
                        Err(panic) => {
                            // The producer worker died: nothing was
                            // observed, the cursor stays put, and the same
                            // batch re-runs (identically) next round.
                            er_telemetry::counter!("fleet.produce.worker_panics").incr();
                            er_telemetry::log!(
                                warn,
                                "produce worker died for instance {i}: {}",
                                panic.message
                            );
                            er_chaos::note_recovered(er_chaos::Domain::Pool);
                        }
                        Ok(Some(occ)) => {
                            er_telemetry::counter!("fleet.occurrences").incr();
                            let mut occ = occ;
                            instances[i].cursor = occ.run_index + 1;
                            occ.run_index = self.global_run(i, occ.run_index);
                            let (for_group, version, _) = &assignments[i];
                            let report = CrashReport {
                                instance: i,
                                for_group: *for_group,
                                version: *version,
                                occ,
                            };
                            if !ingestor.offer(report) {
                                // Backpressure: hold the cursor so the run
                                // re-executes and re-offers next round.
                                instances[i].cursor -= 1;
                            }
                        }
                        Ok(None) => instances[i].cursor += self.config.batch_runs,
                    }
                }
            }

            // Ingest: compress, store, triage, queue.
            {
                let _s = er_telemetry::span!("fleet.ingest");
                let pending = ingestor.drain(&mut triage, &mut store);
                if !pending.is_empty() {
                    last_sighting = self.runs_observed(&instances);
                }
                for p in &pending {
                    scheduler.note_group(
                        p.group,
                        &self.spec.program,
                        &self.label_for(p.group, &triage),
                    );
                }
                scheduler.enqueue(pending, &mut store);
                scheduler.update_rates(&triage);
            }

            // Analyze: bounded-concurrency reconstruction iterations.
            {
                let _s = er_telemetry::span!("fleet.analyze");
                let runs = self.runs_observed(&instances).max(1);
                let stepped = scheduler.analyze_round(&mut store, runs, self.config.serial);
                if time_to_first_repro.is_none()
                    && stepped.iter().any(|&(id, _)| {
                        scheduler
                            .groups()
                            .find(|g| g.id == id)
                            .and_then(|g| g.report.as_ref())
                            .is_some_and(|r| r.reproduced())
                    })
                {
                    time_to_first_repro = Some(start.elapsed());
                }
            }

            // Termination: all discovered investigations closed and
            // nothing in flight…
            let quiet = !scheduler.has_eligible_pending() && ingestor.is_empty();
            if quiet && !scheduler.any_open() && triage.groups().is_empty() {
                // no failures at all: give up after the serial loop's
                // budget of failure-free runs.
                if self.runs_observed(&instances) >= self.spec.er.max_runs_per_occurrence {
                    break;
                }
            } else if quiet && !scheduler.any_open() {
                break;
            } else if quiet
                && self.runs_observed(&instances).saturating_sub(last_sighting)
                    >= self.spec.er.max_runs_per_occurrence
            {
                // …or open groups starved of reoccurrences for the serial
                // loop's per-wait budget: close them as NoFailureObserved.
                scheduler.close_all(&mut store);
                break;
            }
        }
        scheduler.close_all(&mut store);

        let runs_observed = self.runs_observed(&instances);
        let groups = scheduler
            .into_states()
            .into_iter()
            .map(|mut g| {
                let t = triage.group(g.id);
                FleetGroupReport {
                    group: g.id,
                    label: t.map(|t| t.label()).unwrap_or_else(|| g.label.clone()),
                    occurrences_seen: g.occurrences_seen,
                    rate_per_mille: t
                        .map(|t| t.rate_per_mille(runs_observed.max(1)))
                        .unwrap_or(0),
                    iterations: g.iterations,
                    version: g.version,
                    watchdog_escalations: g.watchdog_escalations(),
                    report: g.report.take().expect("all groups closed"),
                }
            })
            .collect();
        let report = FleetReport {
            groups,
            rounds,
            runs_observed: self.runs_observed(&instances),
            store: store.stats(),
            ingest: ingestor.stats(),
            wall: start.elapsed(),
            time_to_first_repro,
        };
        // The journal reads the context at span close, and pool closures
        // (which can run on this thread) reset it: restore the label, close
        // the span so the fleet.run event carries it, then clear.
        er_telemetry::set_context(&self.spec.label);
        drop(_span);
        er_telemetry::set_context("");
        report
    }

    fn label_for(&self, group: u64, triage: &Triage) -> String {
        triage
            .group(group)
            .map(|g| format!("{}/{}", self.spec.label, g.label()))
            .unwrap_or_else(|| self.spec.label.clone())
    }

    /// Global runs observed so far: the furthest cursor under mirrored
    /// traffic (all instances see the same stream), the sum under
    /// partitioned (each run is distinct).
    fn runs_observed(&self, instances: &[Instance]) -> u64 {
        match self.config.traffic {
            Traffic::Mirrored => instances.iter().map(|s| s.cursor).max().unwrap_or(0),
            Traffic::Partitioned => instances.iter().map(|s| s.cursor).sum(),
        }
    }
}
