//! Property tests for the language substrate: machine arithmetic, the
//! memory model against a reference map, and interpreter determinism.

use er_minilang::compile;
use er_minilang::env::Env;
use er_minilang::interp::{Machine, RunOutcome, SchedConfig};
use er_minilang::ir::Program;
use er_minilang::mem::{Memory, HEAP_BASE};
use er_minilang::trace::VecSink;
use er_minilang::value::{BinOp, CmpOp, UnOp, Width};
use proptest::prelude::*;
use std::collections::HashMap;

fn width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W8),
        Just(Width::W16),
        Just(Width::W32),
        Just(Width::W64)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wrapping arithmetic agrees with 128-bit reference arithmetic.
    #[test]
    fn binops_match_wide_reference(w in width(), a in any::<u64>(), b in any::<u64>()) {
        let mask = u128::from(w.mask());
        let (ta, tb) = (u128::from(w.trunc(a)), u128::from(w.trunc(b)));
        let sh = tb % u128::from(w.bits());
        let signed = i128::from(w.sext(a) as i64);
        let cases = [
            (BinOp::Add, (ta + tb) & mask),
            (BinOp::Sub, (ta.wrapping_sub(tb)) & mask),
            (BinOp::Mul, (ta * tb) & mask),
            (BinOp::And, ta & tb),
            (BinOp::Or, ta | tb),
            (BinOp::Xor, ta ^ tb),
            (BinOp::Shl, (ta << sh) & mask),
            (BinOp::LShr, ta >> sh),
            (BinOp::AShr, ((signed >> sh) as u128) & mask),
        ];
        for (op, expect) in cases {
            prop_assert_eq!(op.eval(w, a, b), Some(expect as u64), "{:?}", op);
        }
        if w.trunc(b) != 0 {
            prop_assert_eq!(BinOp::UDiv.eval(w, a, b), Some((ta / tb) as u64));
            prop_assert_eq!(BinOp::URem.eval(w, a, b), Some((ta % tb) as u64));
        } else {
            prop_assert_eq!(BinOp::UDiv.eval(w, a, b), None);
        }
    }

    /// Results always fit the operation width.
    #[test]
    fn results_fit_width(w in width(), a in any::<u64>(), b in any::<u64>()) {
        for op in [
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or,
            BinOp::Xor, BinOp::Shl, BinOp::LShr, BinOp::AShr,
        ] {
            if let Some(v) = op.eval(w, a, b) {
                prop_assert_eq!(v & !w.mask(), 0);
            }
        }
        for op in [UnOp::Neg, UnOp::Not, UnOp::LNot] {
            prop_assert_eq!(op.eval(w, a) & !w.mask(), 0);
        }
    }

    /// Comparison predicates are mutually consistent.
    #[test]
    fn comparisons_are_consistent(w in width(), a in any::<u64>(), b in any::<u64>()) {
        let eq = CmpOp::Eq.eval(w, a, b);
        let ne = CmpOp::Ne.eval(w, a, b);
        prop_assert_ne!(eq, ne);
        let ult = CmpOp::Ult.eval(w, a, b);
        let ule = CmpOp::Ule.eval(w, a, b);
        prop_assert_eq!(ule, ult || eq);
        let slt = CmpOp::Slt.eval(w, a, b);
        let sle = CmpOp::Sle.eval(w, a, b);
        prop_assert_eq!(sle, slt || eq);
        // Total order: exactly one of a<b, a==b, b<a.
        let gt = CmpOp::Ult.eval(w, b, a);
        prop_assert_eq!(u8::from(ult) + u8::from(eq) + u8::from(gt), 1);
    }

    /// The heap behaves like a byte map: random aligned stores and loads
    /// agree with a HashMap reference model.
    #[test]
    fn memory_matches_reference_model(
        ops in prop::collection::vec(
            (0u64..256, width(), any::<u64>(), any::<bool>()),
            1..80,
        ),
    ) {
        let mut mem = Memory::new(&Program::default());
        let base = mem.heap_alloc(512);
        prop_assert_eq!(base, HEAP_BASE);
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for (off, w, value, is_store) in ops {
            let addr = base + (off % (512 - 8));
            if is_store {
                mem.store(addr, w, value).unwrap();
                for k in 0..w.bytes() {
                    reference.insert(addr + k, (value >> (8 * k)) as u8);
                }
            } else {
                let got = mem.load(addr, w).unwrap();
                let mut expect = 0u64;
                for k in 0..w.bytes() {
                    expect |= u64::from(*reference.get(&(addr + k)).unwrap_or(&0)) << (8 * k);
                }
                prop_assert_eq!(got, expect);
            }
        }
    }

    /// Same program + same inputs + same schedule => identical outputs,
    /// traces, and instruction counts (the determinism rr and ER both rely
    /// on).
    #[test]
    fn interpreter_is_deterministic(
        seed in any::<u64>(),
        quantum in 16u64..2000,
        inputs in prop::collection::vec(any::<u32>(), 4..16),
    ) {
        let src = r#"
            global ACC: [u32; 32];
            fn work(n: u32) -> u32 {
                let h: u32 = n;
                for i: u32 = 0; i < 50; i = i + 1 {
                    h = (h ^ i) * 31 + 7;
                    ACC[i % 32] = h;
                }
                return h;
            }
            fn main() {
                let total: u32 = 0;
                for r: u32 = 0; r < 4; r = r + 1 {
                    total = total + work(input_u32(0));
                }
                print(total);
            }
        "#;
        let program = compile(src).unwrap();
        let sched = SchedConfig { quantum, seed, max_instrs: 10_000_000 };
        let run = || {
            let mut env = Env::new();
            for v in &inputs {
                env.push_input(0, &v.to_le_bytes());
            }
            Machine::with_sink(&program, env, VecSink::new())
                .with_sched(sched)
                .run()
        };
        let (r1, r2) = (run(), run());
        prop_assert_eq!(&r1.outcome, &r2.outcome);
        prop_assert_eq!(&r1.output, &r2.output);
        prop_assert_eq!(r1.instr_count, r2.instr_count);
        prop_assert_eq!(&r1.sink.events, &r2.sink.events);
        prop_assert!(matches!(r1.outcome, RunOutcome::Completed));
    }

    /// Source-level arithmetic agrees with Rust arithmetic: compile a
    /// two-input expression and compare the printed result.
    #[test]
    fn compiled_arithmetic_matches_rust(a in any::<u32>(), b in 1u32..u32::MAX) {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u32 = input_u32(0);
                print(((a * 3 + b) ^ (a >> 5)) % b);
            }
        "#;
        let program = compile(src).unwrap();
        let mut env = Env::new();
        env.push_input(0, &a.to_le_bytes());
        env.push_input(0, &b.to_le_bytes());
        let r = Machine::new(&program, env).run();
        let expect = (a.wrapping_mul(3).wrapping_add(b) ^ (a >> 5)) % b;
        prop_assert_eq!(r.output, vec![u64::from(expect)]);
    }
}
