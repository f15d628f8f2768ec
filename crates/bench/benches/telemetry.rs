//! Criterion micro-benchmarks for the telemetry layer.
//!
//! The headline number is `telemetry/counter_add_disabled`: the cost the
//! instrumentation imposes on every hot-path callsite when
//! `ER_TELEMETRY=off`. The design target is < 2 ns/op (one relaxed
//! atomic load and a predictable branch).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use er_telemetry::{counter, span, Mode};

fn bench_counter_disabled(c: &mut Criterion) {
    er_telemetry::set_mode(Mode::Off);
    c.bench_function("telemetry/counter_add_disabled", |b| {
        b.iter(|| counter!("bench.disabled").add(black_box(1)));
    });
}

fn bench_counter_enabled(c: &mut Criterion) {
    er_telemetry::set_mode(Mode::Counters);
    c.bench_function("telemetry/counter_add_enabled", |b| {
        b.iter(|| counter!("bench.enabled").add(black_box(1)));
    });
    er_telemetry::set_mode(Mode::Off);
}

fn bench_span_disabled(c: &mut Criterion) {
    er_telemetry::set_mode(Mode::Off);
    c.bench_function("telemetry/span_disabled", |b| {
        b.iter(|| {
            let _s = span!("bench.span_off");
        });
    });
}

fn bench_span_counters(c: &mut Criterion) {
    er_telemetry::set_mode(Mode::Counters);
    c.bench_function("telemetry/span_enter_drop_counters", |b| {
        b.iter(|| {
            let _s = span!("bench.span_on");
        });
    });
    er_telemetry::set_mode(Mode::Off);
}

criterion_group!(
    benches,
    bench_counter_disabled,
    bench_counter_enabled,
    bench_span_disabled,
    bench_span_counters,
);
criterion_main!(benches);
