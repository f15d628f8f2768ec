//! Seeded workload generation.
//!
//! The seed derives one run offset `off` per program. The program then
//! sees the production run stream starting `off` runs later: run `r` gets
//! the inputs and schedule of Table-1 run `r + off`, and a periodic
//! failure phase `(o, p)` becomes `((o - off) mod p, p)`. The program
//! receives only these generated deployments.

use er_core::deploy::{Deployment, NextFailing, ReoccurrenceModel};
use er_core::instrument::InstrumentedProgram;
use er_minilang::env::Env;
use er_minilang::interp::{RunOutcome, SchedConfig};
use er_minilang::ir::Program;
use er_workloads::Workload;
use std::sync::Arc;

/// Offsets are drawn from `[0, MAX_OFFSET)`.
const MAX_OFFSET: u64 = 100_000;

/// Simulated time between production runs on the fast-forward path (the
/// setting the fleet sweeps use).
const INTER_ARRIVAL_NS: u64 = 1_000;

/// One step of the splitmix64 generator, as a pure function of its state.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`: a stable per-program salt.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The run offset of `program` under `seed`.
pub fn offset(seed: u64, program: &str) -> u64 {
    splitmix64(seed ^ fnv64(program.as_bytes())) % MAX_OFFSET
}

/// The failure phase of the shifted stream: `(o, p) -> ((o - off) mod p, p)`.
pub fn shift_phase((o, p): (u64, u64), off: u64) -> (u64, u64) {
    ((o + p - off % p) % p, p)
}

/// The schedule of shifted run `run`: the workload's own generator, or
/// the deployment default with `seed = run + off + 1`.
pub fn sched_at(sched: Option<fn(u64) -> SchedConfig>, run: u64, off: u64) -> SchedConfig {
    match sched {
        Some(s) => s(run + off),
        None => SchedConfig {
            quantum: 1_000,
            seed: run + off + 1,
            max_instrs: 500_000_000,
        },
    }
}

type InputGen = Arc<dyn Fn(u64) -> Env + Send + Sync>;
type SchedGen = Arc<dyn Fn(u64) -> SchedConfig + Send + Sync>;

/// One Table-1 program's production stream, shifted by its seeded offset.
pub struct Stream {
    /// The program's offset under the benchmark seed.
    off: u64,
    input: fn(u64) -> Env,
    sched: Option<fn(u64) -> SchedConfig>,
    phase: Option<(u64, u64)>,
}

impl Stream {
    /// `w`'s stream under `seed`.
    pub fn new(w: &Workload, seed: u64) -> Stream {
        Stream {
            off: offset(seed, w.name),
            input: w.input_gen,
            sched: w.sched_gen,
            phase: w.failure_phase,
        }
    }

    /// The shifted input generator.
    pub fn input_gen(&self) -> InputGen {
        let (input, off) = (self.input, self.off);
        Arc::new(move |run| input(run + off))
    }

    /// The shifted schedule generator.
    pub fn sched_gen(&self) -> SchedGen {
        let (sched, off) = (self.sched, self.off);
        Arc::new(move |run| sched_at(sched, run, off))
    }

    /// The shifted failure phase, for single-threaded programs.
    pub fn phase(&self) -> Option<(u64, u64)> {
        self.phase.map(|p| shift_phase(p, self.off))
    }

    /// The fast-forward model: the shifted exact predictor, when the
    /// program has a failure phase.
    pub fn fast_forward(&self) -> ReoccurrenceModel {
        ReoccurrenceModel {
            inter_arrival_ns: INTER_ARRIVAL_NS,
            fast_forward: self.phase.is_some(),
            predictor: self
                .phase()
                .map(|(offset, period)| NextFailing::Periodic { offset, period }),
        }
    }

    /// The deployment of `program` on this stream: a plain scan of every
    /// run, or fast-forward over predicted healthy runs.
    pub fn deployment(&self, program: Program, ffwd: bool) -> Deployment {
        let (input, sched) = (self.input_gen(), self.sched_gen());
        let d = Deployment::new(program, move |run| input(run)).with_sched(move |run| sched(run));
        if ffwd {
            d.with_reoccurrence(self.fast_forward())
        } else {
            d
        }
    }

    /// Confirms that the shifted predictor agrees with a plain scan of the
    /// first two periods of `d`: the predicted runs fail and no other run
    /// does.
    pub fn check_predictor(&self, d: &Deployment) -> Result<(), String> {
        let Some((o, p)) = self.phase() else {
            return Ok(());
        };
        let inst = InstrumentedProgram::unmodified(d.program());
        for run in 0..2 * p {
            let failed = matches!(d.run_once_untraced(&inst, run).0, RunOutcome::Failure(_));
            if failed != (run % p == o) {
                return Err(format!(
                    "run {run} (offset {}) contradicts shifted phase ({o}, {p})",
                    self.off
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::deploy::NextFailing;

    #[test]
    fn shifted_phase_selects_the_runs_the_unshifted_phase_fails() {
        for (o, p) in [(4, 5), (3, 4), (5, 6), (0, 1)] {
            for off in [0, 1, 7, 123, 99_991] {
                let (o2, p2) = shift_phase((o, p), off);
                assert_eq!(p2, p);
                assert!(o2 < p);
                for run in 0..3 * p {
                    assert_eq!(run % p == o2, (run + off) % p == o, "({o},{p}) off {off}");
                }
            }
        }
    }

    #[test]
    fn shifted_predictor_jumps_to_the_same_runs_a_scan_finds() {
        let (o, p) = shift_phase((4, 5), 123);
        let predictor = NextFailing::Periodic {
            offset: o,
            period: p,
        };
        let scan = |from: u64| (from..).find(|r| (r + 123) % 5 == 4).unwrap();
        for from in 0..20 {
            assert_eq!(predictor.next(from), scan(from));
        }
    }

    #[test]
    fn offsets_are_seeded_bounded_and_per_program() {
        assert_eq!(offset(7, "Pbzip2"), offset(7, "Pbzip2"));
        assert_ne!(offset(7, "Pbzip2"), offset(8, "Pbzip2"));
        assert_ne!(offset(7, "Pbzip2"), offset(7, "Bash-108885"));
        assert!((0..1000).all(|s| offset(s, "Libpng-2004-0597") < MAX_OFFSET));
    }

    #[test]
    fn default_schedule_seed_is_run_plus_offset_plus_one() {
        assert_eq!(sched_at(None, 0, 0).seed, 1);
        assert_eq!(sched_at(None, 5, 10).seed, 16);
        fn fixed(run: u64) -> SchedConfig {
            SchedConfig {
                quantum: 7,
                seed: run * 2,
                max_instrs: 9,
            }
        }
        assert_eq!(sched_at(Some(fixed), 3, 4).seed, 14);
    }
}
