//! Regression test: telemetry observes, it never drives results.
//!
//! Reconstructs three Table-1 workloads at test scale, first with
//! telemetry off and then with the full journal on, and asserts the two
//! runs agree on everything but wall-clock time: outcome (test case
//! inputs and schedule), occurrences, analyzed run indices, and every
//! `IterationStats` field except `symbex_wall`. The work counters in
//! `IterationStats` come from the symbolic run itself, so they must be
//! live (nonzero) even with telemetry off.
//!
//! Lives in its own integration-test binary so switching the process-wide
//! telemetry mode cannot disturb other tests.

use er_core::{ReconstructionReport, Reconstructor};
use er_telemetry::Mode;
use er_workloads::{by_name, Scale};
use std::time::Duration;

/// Everything a report says, with wall-clock fields zeroed.
fn summary(report: &ReconstructionReport) -> String {
    let iterations: Vec<_> = report
        .iterations
        .iter()
        .cloned()
        .map(|mut it| {
            it.symbex_wall = Duration::ZERO;
            it
        })
        .collect();
    format!(
        "{:?}\noccurrences {}\ntarget {:?}\n{iterations:#?}",
        report.outcome, report.occurrences, report.target
    )
}

#[test]
fn telemetry_mode_does_not_change_reconstruction() {
    let dir = std::env::temp_dir().join(format!("er-telemetry-invisible-{}", std::process::id()));
    std::env::set_var("ER_TELEMETRY_DIR", &dir);

    for name in [
        "SQLite-7be932d",
        "Matrixssl-2014-1569",
        "Memcached-2019-11596",
    ] {
        let w = by_name(name).expect("registered workload");
        let reconstruct = |mode: Mode| {
            er_telemetry::set_mode(mode);
            Reconstructor::new(w.er_config()).reconstruct(&w.deployment(Scale::TEST))
        };
        let off = reconstruct(Mode::Off);
        let full = reconstruct(Mode::Full);
        er_telemetry::set_mode(Mode::Off);

        assert!(off.reproduced(), "{name}: {:?}", off.outcome);
        assert!(
            off.iterations.iter().all(|it| it.symbex_steps > 0),
            "{name}: IterationStats must count steps with telemetry off"
        );
        assert_eq!(summary(&off), summary(&full), "{name}");
    }
    er_telemetry::journal::flush();
    std::fs::remove_dir_all(&dir).ok();
}
