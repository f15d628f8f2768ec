//! Per-layer probes: standalone re-invocations of each layer on the
//! occurrences a measured pass shipped. Every call runs inside a probe
//! span; busy times come from those spans, and rates divide the work
//! counted here by them.

use crate::spans::{Kind, Tracer};
use er_core::deploy::Deployment;
use er_core::graph::ConstraintGraph;
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::{ErConfig, OccurrenceInfo, ReconstructionReport};
use er_core::select::{select_from_elements, RecordingSet, SelectionInput};
use er_core::shepherd::{shepherd_events, solve_inputs};
use er_durable::{DurableEvent, Wal};
use er_fleet::store::{StoreConfig, StoreStats, TraceStore};
use er_fleet::triage::Triage;
use er_minilang::interp::RunOutcome;
use er_minilang::ir::{InstrId, Program};
use er_pt::compress::{compress, decompress};
use er_solver::ExprRef;
use er_symex::{ShepherdStatus, SymRunResult};
use std::collections::HashMap;
use std::path::Path;

/// Work counted across the probes of one pass.
#[derive(Debug, Default)]
pub struct Probes {
    /// Instructions of the re-run shipped runs (per mode).
    pub instrs: u64,
    /// Raw PT bytes of the re-run traces.
    pub trace_bytes: u64,
    /// Symex steps from scratch, and what the sessions spent on the same
    /// occurrences.
    pub scratch_steps: u64,
    pub session_steps: u64,
    pub solver_work: u64,
    pub graph_nodes: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    /// Statistics of the probe store.
    pub store: StoreStats,
}

/// Adds the traffic counts of `s` (puts, dedup hits and bytes) to `total`.
pub fn add_store(total: &mut StoreStats, s: StoreStats) {
    total.puts += s.puts;
    total.dedup_hits += s.dedup_hits;
    total.raw_bytes += s.raw_bytes;
    total.stored_bytes += s.stored_bytes;
}

/// Key data value selection on `run`, translated to original
/// coordinates exactly as a stalled session selects.
fn select(run: &SymRunResult, inst: &InstrumentedProgram) -> RecordingSet {
    let origins: HashMap<ExprRef, InstrId> = run
        .origins
        .iter()
        .filter_map(|(&e, &site)| Some((e, inst.to_original(site)?)))
        .collect();
    let mut site_counts: HashMap<InstrId, u64> = HashMap::new();
    for (&site, &count) in &run.site_counts {
        if let Some(o) = inst.to_original(site) {
            *site_counts.entry(o).or_insert(0) += count;
        }
    }
    let input = SelectionInput {
        pool: &run.pool,
        origins: &origins,
        site_counts: &site_counts,
    };
    let graph = ConstraintGraph::analyze(&run.pool);
    let mut elements: Vec<ExprRef> = graph.bottleneck.iter().map(|b| b.expr).collect();
    elements.extend(run.stall_subject);
    select_from_elements(&elements, &input)
}

/// The binary a session deploys for a given recording set.
fn instrumented(program: &Program, sites: &[InstrId]) -> InstrumentedProgram {
    if sites.is_empty() {
        return InstrumentedProgram::unmodified(program);
    }
    InstrumentedProgram::try_new(program, sites)
        .unwrap_or_else(|_| InstrumentedProgram::unmodified(program))
}

impl Probes {
    /// Re-runs every occurrence `report` analyzed on `d` and probes each
    /// layer with it. Returns the occurrences as WAL events, for
    /// [`wal`](Self::wal) when no journal of the session exists.
    pub fn session(
        &mut self,
        d: &Deployment,
        config: &ErConfig,
        report: &ReconstructionReport,
        group: u64,
        tr: &mut Tracer,
    ) -> Result<Vec<DurableEvent>, String> {
        let program = d.program();
        let mut store = TraceStore::new(StoreConfig::default());
        let mut triage = Triage::new();
        let mut sites: Vec<InstrId> = Vec::new();
        let mut version = 0u32;
        let mut journal = Vec::new();
        for it in &report.iterations {
            let inst = instrumented(program, &sites);
            let run = it.run_index;
            let (untraced, n) = tr.time("probe.interp", Kind::Probe, || {
                d.run_once_untraced(&inst, run)
            });
            let (traced, trace, n_traced) =
                tr.time("probe.sink", Kind::Probe, || d.run_once(&inst, run));
            let failure = match (untraced, traced) {
                (RunOutcome::Failure(a), RunOutcome::Failure(b)) if a == b => b,
                _ => return Err(format!("shipped run {run} no longer fails the same way")),
            };
            if n != n_traced || n != it.instr_count {
                return Err(format!("run {run}: instruction counts differ on re-run"));
            }
            self.instrs += n;
            self.trace_bytes += trace.bytes.len() as u64;
            let decoded = tr
                .time("probe.decode", Kind::Probe, || trace.decode())
                .map_err(|e| format!("run {run}: re-run trace undecodable: {e}"))?;
            let (packets, gap) = trace.packets().map_err(|e| e.to_string())?;
            let packed = tr.time("probe.compress", Kind::Probe, || compress(&packets));
            let unpacked = tr.time("probe.decompress", Kind::Probe, || decompress(&packed));
            if unpacked.as_ref() != Ok(&packets) {
                return Err(format!("run {run}: compress round trip lost packets"));
            }
            let put = tr.time("probe.store_put", Kind::Probe, || {
                store.put(group, &packets, gap)
            });
            let got = tr.time("probe.store_get", Kind::Probe, || store.get(put.id));
            if got != Ok((packets, gap)) {
                return Err(format!("run {run}: store returned a different trace"));
            }
            let original = inst.failure_to_original(&failure);
            tr.time("probe.triage", Kind::Probe, || {
                triage.classify(&original, run)
            });

            let before = er_telemetry::local_snapshot();
            let mut shepherded = tr.time("probe.shepherd", Kind::Probe, || {
                shepherd_events(&inst.program, &decoded.events, Some(&failure), config.sym)
            });
            self.scratch_steps += er_telemetry::local_snapshot()
                .delta(&before)
                .get("symex.steps");
            self.session_steps += it.symbex_steps;
            match shepherded.run.status {
                ShepherdStatus::Completed => {
                    let before = er_telemetry::local_snapshot();
                    let solved = tr.time("probe.solve", Kind::Probe, || {
                        solve_inputs(&mut shepherded.run, &config.final_budget)
                    });
                    self.solver_work += er_telemetry::local_snapshot()
                        .delta(&before)
                        .get("solver.work_units");
                    if solved.is_err() && it.stalled.is_none() {
                        return Err(format!("run {run}: final solve failed on re-run"));
                    }
                }
                ShepherdStatus::Stalled { .. } => {
                    tr.time("probe.select", Kind::Probe, || {
                        select(&shepherded.run, &inst)
                    });
                    self.graph_nodes += shepherded.run.pool.len() as u64;
                }
                ShepherdStatus::Diverged(_) => {}
            }

            journal.push(DurableEvent::OccurrenceIngested {
                group,
                for_group: None,
                version,
                leading_gap: gap,
                info: Box::new(OccurrenceInfo {
                    run_index: run,
                    instr_count: n,
                    trace_bytes: trace.stats.bytes,
                    sched: d.sched_for(run),
                    failure: original,
                    failure_instrumented: failure,
                }),
                trace: Some(packed),
                error: None,
            });
            if !it.new_sites.is_empty() {
                sites.extend(&it.new_sites);
                sites.sort_unstable();
                sites.dedup();
                version += 1;
            }
        }
        add_store(&mut self.store, store.stats());
        Ok(journal)
    }

    /// Appends `events` to a fresh WAL at `path`, then re-opens it.
    pub fn wal(
        &mut self,
        events: &[DurableEvent],
        path: &Path,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let appended = tr.time("probe.wal_append", Kind::Probe, || {
            let mut wal = Wal::create(path)?;
            events.iter().try_for_each(|ev| wal.append(ev))
        });
        appended.map_err(|e| format!("scratch WAL append failed: {e}"))?;
        self.wal_bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        let (_, back, _) = tr
            .time("probe.wal_open", Kind::Probe, || Wal::open(path))
            .map_err(|e| format!("scratch WAL unreadable: {e}"))?;
        if back != events {
            return Err("scratch WAL replayed different events".to_string());
        }
        self.wal_records += back.len() as u64;
        std::fs::remove_file(path).ok();
        Ok(())
    }
}
