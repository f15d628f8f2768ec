//! Golden runs of the concrete interpreter.
//!
//! The expected values were recorded with the one-instruction-per-step
//! interpreter that predates the straight-line block loop. Any drift in the
//! instruction count, the quantum deadline or the hang check shows up here:
//! thread-resume packets carry the instruction count as their timestamp, so
//! the trace bytes change with it.

use er_minilang::env::Env;
use er_minilang::interp::{Machine, RunOutcome, SchedConfig};
use er_pt::packet::TraceEvent;
use er_pt::sink::{PtConfig, PtSink};
use er_workloads::{all, Scale};

fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Per workload at `Scale::TEST`, runs 0..8 under `PtSink`: the instruction
/// count of each run, and an FNV digest over every run's outcome, instruction
/// count, printed output and trace bytes.
const GOLDEN: [(&str, [u64; 8], u64); 13] = [
    (
        "PHP-2012-2386",
        [
            121269, 121269, 121269, 121269, 123253, 121269, 121269, 121269,
        ],
        0xa10712e07dc7ddf9,
    ),
    (
        "PHP-74194",
        [
            132269, 132269, 132269, 132269, 132969, 132269, 132269, 132269,
        ],
        0xa7be7a3b940a36c7,
    ),
    (
        "SQLite-7be932d",
        [32170, 32170, 32170, 32170, 32195, 32170, 32170, 32170],
        0x2175030eea8e1fc7,
    ),
    (
        "SQLite-787fa71",
        [25569, 25569, 25569, 25569, 25615, 25569, 25569, 25569],
        0xa8b62235497de4ed,
    ),
    (
        "SQLite-4e8e485",
        [27770, 27770, 27770, 27770, 27858, 27770, 27770, 27770],
        0x66efbf42e37f3de7,
    ),
    (
        "Nasm-2004-1287",
        [34143, 34143, 34143, 34143, 34506, 34143, 34143, 34143],
        0x731c561deba25d1b,
    ),
    (
        "Objdump-2018-6323",
        [7641, 7641, 7641, 7641, 8233, 7641, 7641, 7641],
        0xa08a1823a1982fad,
    ),
    (
        "Matrixssl-2014-1569",
        [50871, 50871, 50871, 50871, 101836, 50871, 50871, 50871],
        0x15cb7e299be8f5e7,
    ),
    (
        "Memcached-2019-11596",
        [50107, 45320, 45320, 50107, 45769, 45923, 50107, 45956],
        0x1bfc8524d025b879,
    ),
    (
        "Libpng-2004-0597",
        [1937, 1937, 1937, 2319, 1937, 1937, 1937, 2319],
        0x8df1aa3fbeb78ac7,
    ),
    (
        "Bash-108885",
        [19832, 19832, 19832, 19832, 19832, 19836, 19832, 19832],
        0x6fdef3e7192ef7e2,
    ),
    (
        "Python-2018-1000030",
        [
            833654, 829676, 829787, 833654, 829898, 830151, 833654, 829488,
        ],
        0xde799ba716228b27,
    ),
    (
        "Pbzip2",
        [
            157047, 163357, 163357, 157047, 163357, 163357, 157047, 163357,
        ],
        0x4aecf8b0454bb2be,
    ),
];

#[test]
fn workload_runs_match_the_golden_digests() {
    let workloads = all();
    assert_eq!(workloads.len(), GOLDEN.len());
    for (w, (name, want_counts, want_digest)) in workloads.iter().zip(GOLDEN) {
        assert_eq!(w.name, name);
        let d = w.deployment(Scale::TEST);
        let mut counts = [0u64; 8];
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (run, count) in (0..8u64).zip(&mut counts) {
            let r = Machine::with_sink(
                d.program(),
                d.env_for(run),
                PtSink::new(PtConfig::default()),
            )
            .with_sched(d.sched_for(run))
            .run();
            let trace = r.sink.finish();
            *count = r.instr_count;
            digest = fnv(format!("{:?}", r.outcome).as_bytes(), digest);
            digest = fnv(&r.instr_count.to_le_bytes(), digest);
            for v in &r.output {
                digest = fnv(&v.to_le_bytes(), digest);
            }
            digest = fnv(&trace.bytes, digest);
        }
        assert_eq!(counts, want_counts, "{name}: instruction counts");
        assert_eq!(digest, want_digest, "{name}: outcome/output/trace digest");
    }
}

#[test]
fn hang_mid_block_stops_at_exactly_max_instrs() {
    // The loop body is one straight-line block of ten `Bin`s (f0.b2).
    let p = er_minilang::compile(
        r#"
        fn main() {
            let x: u32 = 1;
            while true {
                x = x * 3 + 1;
                x = x ^ 5;
                x = x + (x >> 3);
                x = x - 7;
            }
        }
        "#,
    )
    .unwrap();
    for (max_instrs, want_at) in [
        (1000, "f0.b2.i1"),
        (1005, "f0.b2.i6"),
        (1008, "f0.b2.i9"),
        (1009, "f0.b2.term"),
    ] {
        let r = Machine::new(&p, Env::new())
            .with_sched(SchedConfig {
                quantum: 64,
                seed: 3,
                max_instrs,
            })
            .run();
        let RunOutcome::Failure(f) = r.outcome else {
            panic!("max_instrs {max_instrs}: the loop never ends")
        };
        assert!(matches!(f.fault, er_minilang::error::RuntimeFault::Hang));
        assert_eq!(r.instr_count, max_instrs);
        assert_eq!(f.at.to_string(), want_at, "max_instrs {max_instrs}");
    }
}

#[test]
fn quanta_ending_mid_block_keep_their_timestamps() {
    // Each worker iteration is a 13-instruction straight-line block, so
    // almost every jittered quantum of ~41 instructions ends inside one.
    let p = er_minilang::compile(
        r#"
        global out: [u32; 2];
        fn worker(k: u32, n: u32) {
            let x: u32 = k;
            for i: u32 = 0; i < n; i = i + 1 {
                x = x * 3 + 1;
                x = x ^ (i + k);
                x = x + (x >> 3);
                x = x - 7;
            }
            out[k] = x;
        }
        fn main() {
            let a: u64 = spawn worker(0, 40);
            let b: u64 = spawn worker(1, 40);
            join(a);
            join(b);
            print(out[0]);
            print(out[1]);
        }
        "#,
    )
    .unwrap();
    let r = Machine::with_sink(&p, Env::new(), PtSink::new(PtConfig::default()))
        .with_sched(SchedConfig {
            quantum: 41,
            seed: 7,
            max_instrs: 1_000_000,
        })
        .run();
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![1_097_160_405, 1_281_997_638]);
    assert_eq!(r.instr_count, 1321);
    let events = r.sink.finish().decode().unwrap().events;
    let timestamps: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Timestamp(t) => Some(*t),
            _ => None,
        })
        .collect();
    let resumes: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ThreadResume(t) => Some(*t),
            _ => None,
        })
        .collect();
    assert_eq!(
        timestamps,
        [
            0, 5, 40, 65, 90, 110, 139, 178, 206, 234, 277, 322, 354, 378, 423, 470, 511, 534, 576,
            621, 656, 687, 733, 772, 797, 851, 889, 915, 966, 989, 1027, 1062, 1101, 1155, 1212,
            1241, 1244, 1277, 1278, 1300, 1310
        ]
    );
    let mut want_resumes = vec![0];
    for _ in 0..18 {
        want_resumes.extend([1, 2]);
    }
    want_resumes.extend([0, 2, 2, 0]);
    assert_eq!(resumes, want_resumes);
}
