//! Property tests for the telemetry layer: span stack discipline and
//! journal serialization.

use er_telemetry::journal::Event;
use er_telemetry::{span, Mode};
use proptest::prelude::*;

proptest! {
    /// Nested spans close strictly LIFO: the depth observed inside each
    /// nesting level matches its position, and everything unwinds to the
    /// starting depth.
    #[test]
    fn span_nesting_closes_lifo(depth in 1usize..12) {
        let _l = er_telemetry::counters::test_mutex().lock().unwrap();
        er_telemetry::set_mode(Mode::Counters);
        let base = er_telemetry::span::current_depth();
        fn nest(remaining: usize, base: usize) {
            let _g = span!("prop.nest");
            assert_eq!(er_telemetry::span::current_depth(), base + 1);
            if remaining > 1 {
                nest(remaining - 1, base + 1);
            }
            // After the child closed, our own depth is intact.
            assert_eq!(er_telemetry::span::current_depth(), base + 1);
        }
        nest(depth, base);
        prop_assert_eq!(er_telemetry::span::current_depth(), base);
        er_telemetry::set_mode(Mode::Off);
    }

    /// Journal events survive a JSONL round trip bit-for-bit.
    #[test]
    fn journal_event_round_trips(
        ts_ns in any::<u64>(),
        name_seed in 0usize..6,
        ctx_seed in 0usize..4,
        has_parent in any::<bool>(),
        depth in any::<u32>(),
        dur_ns in any::<u64>(),
        counters in prop::collection::vec((0usize..8, any::<u64>()), 0..6),
    ) {
        let names = [
            "shepherd.decode", "shepherd.symbex", "shepherd.solve",
            "phase.select", "phase.instrument", "phase.deploy",
        ];
        let ctxs = ["", "Libpng-2004-0597", "Apache-25520", "with \"quotes\" & \\slashes\\"];
        let cnames = [
            "sat.conflicts", "sat.propagations", "symex.steps",
            "pt.packets_encoded", "ring.overwrites", "select.graph_nodes",
            "deploy.runs", "solver.queries",
        ];
        let ev = Event {
            ts_ns,
            kind: "span".to_string(),
            name: names[name_seed].to_string(),
            ctx: ctxs[ctx_seed].to_string(),
            parent: has_parent.then(|| "reconstruct.iteration".to_string()),
            depth,
            dur_ns,
            counters: counters
                .into_iter()
                .map(|(i, v)| (cnames[i].to_string(), v))
                .collect(),
        };
        let line = serde_json::to_string(&ev).unwrap();
        prop_assert!(!line.contains('\n'), "JSONL events must be single lines");
        let back: Event = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, ev);
    }
}
