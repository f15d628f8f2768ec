//! The ER benchmark: one seeded command per workload that measures the
//! reconstruction pipeline end to end, checks every answer it produces,
//! and (with `--trace 1`) attributes time to the layers from outside.
//!
//! ```text
//! cargo run --release --manifest-path erbench/Cargo.toml -- \
//!     --workload table1-scan --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads, all over the 13 Table-1 programs at `Scale(8)`, run as a
//! closed loop (one session or fleet leg at a time) on at most two
//! threads:
//!
//! * `table1-scan`: one session per program; every healthy run between
//!   failures executes traced and its trace is discarded.
//! * `table1-ffwd`: the same sessions and occurrences, but the exact
//!   failure predictor fast-forwards over healthy runs of the
//!   single-threaded programs.
//! * `fleet-durable`: per program, a durable two-instance mirrored fleet
//!   runs uncrashed, runs again until a seeded WAL tear kills it, and
//!   resumes from the torn log.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero when any check fails.

mod fleet;
mod probe;
mod seed;
mod session;
mod spans;
mod stats;

use er_core::deploy::Deployment;
use er_core::reconstruct::{ErConfig, ReconstructionReport, Reconstructor};
use er_durable::CrashSignal;
use er_workloads::{Scale, Workload};
use fleet::{GroupAnswer, Leg, LegResult};
use probe::Probes;
use seed::Stream;
use session::Answer;
use spans::{Kind, Tracer, ROOT};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Program size of every workload.
const SCALE: Scale = Scale(8);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Passes a run makes at least.
const MIN_PASSES: usize = 4;
/// The warm-up session of every set-up.
const WARMUP: &str = "Libpng-2004-0597";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Scan,
    Ffwd,
    Fleet,
}

impl Mode {
    fn parse(name: &str) -> Option<Mode> {
        match name {
            "table1-scan" => Some(Mode::Scan),
            "table1-ffwd" => Some(Mode::Ffwd),
            "fleet-durable" => Some(Mode::Fleet),
            _ => None,
        }
    }
}

/// Passes a run of `seconds` makes: 7 per 30 s, 10 to 30 s of work on a
/// 2-core x86-64 host. The count is fixed by the run length, not timed,
/// so both sides of a comparison measure the same work and the tail
/// percentile always ranks the same sample multiset. At 7 passes the tail
/// (p89 of 91 samples, 10 beyond it) is the middle one of the second
/// slowest program's 7 samples on `table1-ffwd` and `fleet-durable`, and
/// lies among the two slowest programs' samples on `table1-scan`; it
/// never falls on the boundary between two programs, whose order shifts
/// with the seed and with contention.
fn passes(seconds: f64) -> usize {
    ((seconds * 7.0 / 30.0).round() as usize).max(MIN_PASSES)
}

#[derive(Debug)]
struct Args {
    workload: String,
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str, default: &str| kv.get(k).cloned().unwrap_or_else(|| default.to_string());
    let workload = get("workload", "table1-scan");
    let mode = Mode::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let num = |k: &str, default: &str| {
        get(k, default)
            .parse::<u64>()
            .map_err(|e| format!("--{k}: {e}"))
    };
    Ok(Args {
        workload,
        mode,
        seed: num("seed", "1")?,
        seconds: num("seconds", "30")? as f64,
        trace: match get("trace", "0").as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// One Table-1 program on its seeded stream.
struct Prog {
    w: Workload,
    config: ErConfig,
    /// The deployment this workload's sessions (or the fleet's instances)
    /// run on.
    deployment: Deployment,
    /// The same stream in the other fast-forward mode, for the cross-check.
    other: Deployment,
}

struct Setup {
    progs: Vec<Prog>,
    legs: Vec<Leg>,
}

fn setup(mode: Mode, seed: u64, wal_dir: &Path) -> Result<Setup, String> {
    let mut progs = Vec::new();
    let mut legs = Vec::new();
    for w in er_workloads::all() {
        let program = w.program(SCALE);
        let stream = Stream::new(&w, seed);
        let ffwd = mode != Mode::Scan;
        let deployment = stream.deployment(program.clone(), ffwd);
        stream
            .check_predictor(&deployment)
            .map_err(|e| format!("{}: {e}", w.name))?;
        let config = w.er_config();
        if config.tracing_warmup != 0 {
            return Err(format!("{}: untraced warm-up is not benchmarked", w.name));
        }
        if mode == Mode::Fleet {
            legs.push(Leg::new(&w, &stream, program.clone(), wal_dir));
        }
        progs.push(Prog {
            other: stream.deployment(program, !ffwd),
            w,
            config,
            deployment,
        });
    }
    let warm = progs
        .iter()
        .position(|p| p.w.name == WARMUP)
        .expect("warm-up program exists");
    match mode {
        Mode::Fleet => legs[warm].warm_up()?,
        _ => {
            let p = &progs[warm];
            session::run(&p.deployment, p.config, &mut Tracer::new(false))?;
        }
    }
    Ok(Setup { progs, legs })
}

/// One session or leg of a measured pass.
struct Sample {
    prog: usize,
    traced: bool,
    wall: f64,
    resume: Option<f64>,
    occurrences: u32,
    /// Traced runs that did not fail, across every instance and step.
    healthy: u64,
    result: Result<Vec<GroupAnswer>, String>,
}

/// What the last pass left for the probes.
enum Kept {
    Session(ReconstructionReport),
    Leg(LegResult),
}

fn run_one(mode: Mode, s: &Setup, i: usize, salt: u64, tr: &mut Tracer) -> (Sample, Option<Kept>) {
    let name = s.progs[i].w.name;
    let mut sample = Sample {
        prog: i,
        traced: tr.enabled(),
        wall: 0.0,
        resume: None,
        occurrences: 0,
        healthy: 0,
        result: Err(format!("{name}: panicked")),
    };
    let before = er_telemetry::global_snapshot();
    let out = catch_unwind(AssertUnwindSafe(|| match mode {
        Mode::Fleet => s.legs[i].run(salt, tr).map(|r| {
            let groups = fleet::answers(&r.report);
            (groups, r.run_wall, Some(r.resume_wall), Kept::Leg(r))
        }),
        _ => {
            let p = &s.progs[i];
            session::run(&p.deployment, p.config, tr)
                .map(|r| (vec![(0, r.answer())], r.wall, None, Kept::Session(r.report)))
                .map_err(|e| format!("{name}: {e}"))
        }
    }));
    let deployed = er_telemetry::global_snapshot().delta(&before);
    sample.healthy = deployed
        .get("deploy.runs")
        .saturating_sub(deployed.get("deploy.failures"));
    let kept = match out {
        Ok(Ok((groups, wall, resume, kept))) => {
            sample.wall = wall.as_secs_f64();
            sample.resume = resume.map(|d| d.as_secs_f64());
            sample.occurrences = groups.iter().map(|(_, a)| a.occurrences).sum();
            sample.result = Ok(groups);
            Some(kept)
        }
        failed => {
            tr.close_open();
            if let Ok(Err(e)) = failed {
                sample.result = Err(e);
            }
            None
        }
    };
    (sample, kept)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("erbench: {e}");
            eprintln!(
                "usage: --workload table1-scan|table1-ffwd|fleet-durable --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // A seeded WAL tear unwinds with a `CrashSignal`; that unwind is the
    // point of the fleet leg, so keep it off stderr.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<CrashSignal>().is_none() {
            default_hook(info);
        }
    }));
    // The fleet logs every recovered tear; keep stderr for real errors
    // unless a log level is asked for.
    if std::env::var_os("ER_LOG").is_none() {
        er_telemetry::logging::set_level(er_telemetry::logging::Level::Error);
    }
    // Counter deltas are this benchmark's per-layer counts.
    let _counters = er_telemetry::ensure_counters();
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let wal_dir = out_dir.join(format!("wal-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&wal_dir) {
        eprintln!("erbench: cannot create {}: {e}", wal_dir.display());
        std::process::exit(1);
    }
    let code = run(&args, &out_dir, &wal_dir);
    std::fs::remove_dir_all(&wal_dir).ok();
    std::process::exit(code);
}

/// The measured passes of one run.
struct Measured {
    samples: Vec<Sample>,
    /// The last pass's reports, for the probes.
    kept: Vec<Option<Kept>>,
    /// Counter deltas over all passes.
    counts: er_telemetry::CounterSnapshot,
    passes: usize,
    /// Wall of each pass, in order.
    pass_walls: Vec<f64>,
    tr: Tracer,
}

/// Measures [`Mode::passes`] whole passes over the programs. A traced run
/// makes its first half of the passes untraced and the second half
/// traced; the tracing overhead is the difference of the halves.
fn measure(args: &Args, s: &Setup) -> Measured {
    let passes = passes(args.seconds);
    let untraced = if args.trace {
        passes.div_ceil(2)
    } else {
        passes
    };
    let mut m = Measured {
        samples: Vec::new(),
        kept: Vec::new(),
        counts: er_telemetry::CounterSnapshot::default(),
        passes,
        pass_walls: Vec::new(),
        tr: Tracer::new(false),
    };
    let before = er_telemetry::global_snapshot();
    for pass in 0..passes {
        let traced = pass >= untraced;
        m.tr.set_enabled(traced);
        let start = Instant::now();
        m.kept.clear();
        for i in 0..s.progs.len() {
            let salt = args.seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let (sample, k) = run_one(args.mode, s, i, salt, &mut m.tr);
            m.samples.push(sample);
            m.kept.push(k);
        }
        let wall = start.elapsed().as_secs_f64();
        let tag = if traced { " (traced)" } else { "" };
        eprintln!("erbench: pass {pass}: {wall:.3} s{tag}");
        m.pass_walls.push(wall);
    }
    m.counts = er_telemetry::global_snapshot().delta(&before);
    m.tr.set_enabled(args.trace);
    m
}

/// Checks beyond each sample's own: every pass answers like the first,
/// and the other fast-forward mode, run through `Reconstructor`, answers
/// like this one. Returns every failure, samples' own included.
fn cross_check(mode: Mode, s: &Setup, samples: &mut [Sample]) -> Vec<String> {
    let mut reference: Vec<Option<Vec<GroupAnswer>>> = vec![None; s.progs.len()];
    for smp in samples.iter_mut() {
        let Ok(groups) = &smp.result else { continue };
        match &reference[smp.prog] {
            None => reference[smp.prog] = Some(groups.clone()),
            Some(r) if r == groups => {}
            Some(_) => {
                let name = s.progs[smp.prog].w.name;
                smp.result = Err(format!("{name}: answer differs from the first pass"));
            }
        }
    }
    let mut failures: Vec<String> = samples
        .iter()
        .filter_map(|smp| smp.result.as_ref().err().cloned())
        .collect();
    for (p, reference) in s.progs.iter().zip(&reference) {
        // The fleet runs on the fast-forward stream; so does its check.
        let other = if mode == Mode::Fleet {
            &p.deployment
        } else {
            &p.other
        };
        let cross = catch_unwind(AssertUnwindSafe(|| {
            Answer::of(&Reconstructor::new(p.config).reconstruct(other))
        }));
        let agrees = match (&cross, reference) {
            (Ok(a), Some(groups)) => groups.len() == 1 && &groups[0].1 == a,
            _ => false,
        };
        if !agrees {
            failures.push(format!(
                "{}: cross-check answer differs from the measured one",
                p.w.name
            ));
        }
    }
    failures
}

/// One row per program: its offset, occurrences against Table 1's, the
/// healthy runs it traced, and its verified sessions.
fn print_rows(args: &Args, s: &Setup, m: &Measured) {
    println!(
        "# {} seed {}: {} passes over {} programs in {:.2} s",
        args.workload,
        args.seed,
        m.passes,
        s.progs.len(),
        m.pass_walls.iter().sum::<f64>()
    );
    println!(
        "{:<22} {:>8} {:>12} {:>8} {:>8} {:>10} {:>10}",
        "program", "offset", "occurrences", "expected", "healthy", "verified", "p50_s"
    );
    for (i, p) in s.progs.iter().enumerate() {
        let mine: Vec<&Sample> = m.samples.iter().filter(|x| x.prog == i).collect();
        let ok: Vec<f64> = mine
            .iter()
            .filter(|x| x.result.is_ok())
            .map(|x| x.wall)
            .collect();
        let first = mine.iter().find(|x| x.result.is_ok());
        let show = |f: fn(&Sample) -> u64| first.map_or("-".to_string(), |x| f(x).to_string());
        println!(
            "{:<22} {:>8} {:>12} {:>8} {:>8} {:>10} {:>10}",
            p.w.name,
            seed::offset(args.seed, p.w.name),
            show(|x| u64::from(x.occurrences)),
            p.w.expected_occurrences,
            show(|x| x.healthy),
            format!("{}/{}", ok.len(), mine.len()),
            if ok.is_empty() {
                "-".to_string()
            } else {
                format!("{:.4}", stats::median(&ok))
            }
        );
    }
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        stats::median(xs)
    }
}

/// Verified sessions per wall second of each traced or untraced pass.
fn pass_rates(m: &Measured, traced: bool) -> Vec<f64> {
    let per_pass = m.samples.len() / m.passes;
    m.samples
        .chunks(per_pass)
        .zip(&m.pass_walls)
        .filter(|(pass, _)| pass[0].traced == traced)
        .map(|(pass, wall)| pass.iter().filter(|x| x.result.is_ok()).count() as f64 / wall)
        .collect()
}

/// Verified sessions of the traced or the untraced passes: their walls,
/// resume walls, count and occurrences.
fn verified(m: &Measured, traced: bool) -> (Vec<f64>, Vec<f64>, usize, u32) {
    let ok: Vec<&Sample> = m
        .samples
        .iter()
        .filter(|x| x.traced == traced && x.result.is_ok())
        .collect();
    let walls = ok.iter().map(|x| x.wall).collect();
    let resumes = ok.iter().filter_map(|x| x.resume).collect();
    let occurrences = ok.iter().map(|x| x.occurrences).sum();
    (walls, resumes, ok.len(), occurrences)
}

/// The end-to-end metrics, from the untraced passes. `repro_per_s` is the
/// median over passes, so one pass slowed by a burst of contention from
/// other tenants of the host does not move it.
fn end_to_end(args: &Args, m: &Measured, setup_s: f64, failed_frac: f64) -> Metrics {
    let (walls, resumes, verified, occurrences) = verified(m, false);
    let tail = stats::tail(&walls, stats::TAIL_BEYOND);
    let metrics: Metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        (
            "repro_per_s".into(),
            median_or_nan(&pass_rates(m, false)),
            "1/s",
        ),
        ("repro_s.p50".into(), median_or_nan(&walls), "s"),
        (
            "repro_s.tail".into(),
            tail.map_or(f64::NAN, |t| t.value),
            "s",
        ),
        (
            "occurrences_per_repro".into(),
            ratio(f64::from(occurrences), verified as f64),
            "count",
        ),
        ("verified_frac".into(), 1.0 - failed_frac, "ratio"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ];
    let tried = m.samples.iter().filter(|x| !x.traced).count();
    println!("# end-to-end (untraced, {tried} attempted)");
    for (name, value, unit) in &metrics {
        println!("{name:<24} {value:>14.6} {unit}");
    }
    if let Some(t) = tail {
        println!("repro_s.tail is p{} over n={}", t.pct, t.n);
    }
    println!("{:<24} {:>14.6} ratio", "failed_frac", failed_frac);
    if args.mode == Mode::Fleet {
        println!("{:<24} {:>14.6} s", "resume_s.p50", median_or_nan(&resumes));
        match stats::tail(&resumes, stats::TAIL_BEYOND) {
            Some(t) => println!(
                "{:<24} {:>14.6} s (p{} over n={})",
                "resume_s.tail", t.value, t.pct, t.n
            ),
            None => println!("resume_s.tail: fewer than 20 resumes"),
        }
    }
    if args.trace {
        let (twalls, _, _, _) = self::verified(m, true);
        println!("# tracing overhead (traced minus untraced passes)");
        println!(
            "repro_s.p50   {:+.6} s",
            median_or_nan(&twalls) - median_or_nan(&walls)
        );
        println!(
            "repro_per_s   {:+.6} 1/s",
            median_or_nan(&pass_rates(m, true)) - median_or_nan(&pass_rates(m, false))
        );
    }
    metrics
}

fn run(args: &Args, out_dir: &Path, wal_dir: &Path) -> i32 {
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        match setup(args.mode, args.seed, wal_dir) {
            Ok(s) => state = Some(s),
            Err(e) => {
                eprintln!("erbench: set-up failed: {e}");
                return 1;
            }
        }
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let s = state.expect("set up at least once");

    let mut m = measure(args, &s);
    let failures = cross_check(args.mode, &s, &mut m.samples);
    for f in &failures {
        eprintln!("erbench: FAILED {f}");
    }
    let attempted = m.samples.len() + s.progs.len();
    let failed = failures.len();
    print_rows(args, &s, &m);
    let failed_frac = ratio(failed as f64, attempted as f64);
    let e2e = end_to_end(args, &m, stats::median(&setup_times), failed_frac);
    let metrics = if args.trace {
        match per_layer(args, &s, &mut m, out_dir) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("erbench: FAILED probe: {e}");
                return 1;
            }
        }
    } else {
        e2e
    };
    let correct = failed == 0;
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// Traced-run output: the attribution table, the probe table, the spans
/// file, and the per-layer metrics.
fn per_layer(args: &Args, s: &Setup, m: &mut Measured, out_dir: &Path) -> Result<Metrics, String> {
    let Measured {
        samples,
        kept,
        counts,
        passes,
        tr,
        ..
    } = m;
    let passes = *passes as f64;
    // Probes on the last pass's occurrences.
    let mut probes = Probes::default();
    let mut journal = Vec::new();
    let (mut iterations, mut stalled, mut steps) = (0u64, 0u64, 0u64);
    let mut fleet_store = er_fleet::store::StoreStats::default();
    let (mut backpressure, mut truncated) = (0u64, 0u64);
    for (i, k) in kept.iter().enumerate() {
        let p = &s.progs[i];
        let reports: Vec<(u64, &ReconstructionReport)> = match k {
            Some(Kept::Session(r)) => vec![(seed::fnv64(p.w.name.as_bytes()), r)],
            Some(Kept::Leg(leg)) => {
                journal.extend(leg.events.iter().cloned());
                probe::add_store(&mut fleet_store, leg.report.store);
                backpressure += leg.report.ingest.backpressure;
                truncated += leg.report.ingest.truncated;
                leg.report
                    .groups
                    .iter()
                    .map(|g| (g.group, &g.report))
                    .collect()
            }
            None => return Err(format!("{}: no answer to probe", p.w.name)),
        };
        for (group, r) in reports {
            iterations += r.iterations.len() as u64;
            stalled += r
                .iterations
                .iter()
                .filter(|it| it.stalled.is_some())
                .count() as u64;
            steps += r.iterations.iter().map(|it| it.symbex_steps).sum::<u64>();
            let events = probes
                .session(&p.deployment, &p.config, r, group, tr)
                .map_err(|e| format!("{}: {e}", p.w.name))?;
            if args.mode != Mode::Fleet {
                journal.extend(events);
            }
        }
    }
    let wal_path = out_dir.join(format!("probe-{}.wal", std::process::id()));
    probes.wal(&journal, &wal_path, tr)?;

    let spans = tr.spans();
    let session = spans::totals(spans, Kind::Session);
    let wall_ns = spans::session_wall_ns(spans).max(1) as f64;
    println!("# attribution: self time per layer over traced sessions");
    println!(
        "{:<16} {:>8} {:>12} {:>10}",
        "layer", "calls", "self_s", "share"
    );
    for (name, t) in &session {
        let label = if *name == ROOT { "unattributed" } else { name };
        println!(
            "{label:<16} {:>8} {:>12.6} {:>9.2}%",
            t.calls,
            t.self_ns as f64 / 1e9,
            100.0 * t.self_ns as f64 / wall_ns
        );
    }
    println!(
        "{:<16} {:>8} {:>12.6} {:>9.2}%",
        "session wall",
        "",
        wall_ns / 1e9,
        100.0
    );
    let probe = spans::totals(spans, Kind::Probe);
    println!("# probes: standalone layer calls on the last pass (not attributed)");
    for (name, t) in &probe {
        println!("{name:<16} {:>8} {:>12.6}", t.calls, t.self_ns as f64 / 1e9);
    }
    let spans_path = out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    tr.write(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    println!("# spans written to {}", spans_path.display());

    // The workload design, confirmed or refuted by this run.
    let busy = |name: &str| probe.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let design = |claim: &str, holds: bool| {
        let verdict = if holds { "holds" } else { "does NOT hold" };
        println!("design: {claim}: {verdict}");
    };
    println!("# design checks");
    let top = session
        .iter()
        .filter(|(name, _)| **name != ROOT)
        .max_by_key(|(_, t)| t.self_ns)
        .map(|(name, _)| *name);
    match args.mode {
        Mode::Scan => design(
            "deploy has the largest session share",
            top == Some("deploy"),
        ),
        Mode::Ffwd => design(
            "deploy does not have the largest session share",
            top.is_some_and(|t| t != "deploy"),
        ),
        Mode::Fleet => {
            let last = samples.len().saturating_sub(s.progs.len());
            let resume: f64 = samples[last..].iter().filter_map(|x| x.resume).sum();
            let share = ratio(busy("probe.wal_open"), resume);
            println!(
                "wal.open_busy_s is {:.3}% of the last pass's resume wall ({resume:.3} s)",
                100.0 * share
            );
            design("WAL open is a small fraction (<5%) of resume", share < 0.05);
        }
    }
    let single_threaded_healthy: u64 = s
        .progs
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.w.multithreaded)
        .filter_map(|(i, _)| samples.iter().find(|x| x.prog == i && x.result.is_ok()))
        .map(|x| x.healthy)
        .sum();
    println!(
        "healthy traced runs of the single-threaded programs per pass: {single_threaded_healthy}"
    );
    if args.mode != Mode::Scan {
        design(
            "fast-forward traces no healthy run of a single-threaded program",
            single_threaded_healthy == 0,
        );
    }

    let per_pass = |name: &str| counts.get(name) as f64 / passes;
    let mb = |bytes: u64, secs: f64| ratio(bytes as f64 / 1e6, secs);
    let (store_stats, ingest_bp, ingest_tr) = if args.mode == Mode::Fleet {
        (fleet_store, backpressure, truncated)
    } else {
        (probes.store, 0, 0)
    };
    let runs = per_pass("deploy.runs");
    let failing = per_pass("deploy.failures");
    let metrics: Metrics = vec![
        ("deploy.runs".into(), runs, "count"),
        ("deploy.healthy_traced_runs".into(), runs - failing, "count"),
        ("deploy.useful_frac".into(), ratio(failing, runs), "ratio"),
        (
            "interp.minstr_per_s".into(),
            ratio(probes.instrs as f64 / 1e6, busy("probe.interp")),
            "Minstr/s",
        ),
        (
            "pt.sink_minstr_per_s".into(),
            ratio(probes.instrs as f64 / 1e6, busy("probe.sink")),
            "Minstr/s",
        ),
        (
            "pt.sink_overhead".into(),
            ratio(busy("probe.sink"), busy("probe.interp")),
            "x",
        ),
        (
            "pt.decode_mb_per_s".into(),
            mb(probes.trace_bytes, busy("probe.decode")),
            "MB/s",
        ),
        (
            "pt.compress_mb_per_s".into(),
            mb(probes.trace_bytes, busy("probe.compress")),
            "MB/s",
        ),
        (
            "pt.decompress_mb_per_s".into(),
            mb(probes.trace_bytes, busy("probe.decompress")),
            "MB/s",
        ),
        ("analyze.iterations".into(), iterations as f64, "count"),
        (
            "analyze.stalled_frac".into(),
            ratio(stalled as f64, iterations as f64),
            "ratio",
        ),
        ("symex.steps".into(), steps as f64, "count"),
        ("symex.busy_s".into(), busy("probe.shepherd"), "s"),
        (
            "symex.steps_per_s".into(),
            ratio(probes.scratch_steps as f64, busy("probe.shepherd")),
            "1/s",
        ),
        (
            "symex.resume_frac".into(),
            1.0 - ratio(probes.session_steps as f64, probes.scratch_steps as f64),
            "ratio",
        ),
        (
            "symex.checkpoint_resumes".into(),
            per_pass("symex.checkpoint_resumes"),
            "count",
        ),
        ("solver.busy_s".into(), busy("probe.solve"), "s"),
        (
            "solver.work_units".into(),
            probes.solver_work as f64,
            "count",
        ),
        ("select.busy_s".into(), busy("probe.select"), "s"),
        (
            "select.graph_nodes".into(),
            probes.graph_nodes as f64,
            "count",
        ),
        ("store.put_busy_s".into(), busy("probe.store_put"), "s"),
        ("store.get_busy_s".into(), busy("probe.store_get"), "s"),
        (
            "store.dedup_frac".into(),
            ratio(store_stats.dedup_hits as f64, store_stats.puts as f64),
            "ratio",
        ),
        (
            "store.compression_ratio".into(),
            store_stats.compression_ratio(),
            "x",
        ),
        ("triage.classify_busy_s".into(), busy("probe.triage"), "s"),
        ("ingest.backpressure".into(), ingest_bp as f64, "count"),
        ("ingest.truncated".into(), ingest_tr as f64, "count"),
        (
            "wal.append_mb_per_s".into(),
            mb(probes.wal_bytes, busy("probe.wal_append")),
            "MB/s",
        ),
        ("wal.open_busy_s".into(), busy("probe.wal_open"), "s"),
        ("wal.records".into(), probes.wal_records as f64, "count"),
        ("wal.bytes".into(), probes.wal_bytes as f64, "count"),
        (
            "durable.resumes".into(),
            per_pass("durable.resumes"),
            "count",
        ),
    ];
    println!("# per-layer");
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    Ok(metrics)
}
