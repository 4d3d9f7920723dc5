//! Criterion benchmarks for the discrete-event engine at scale: ≥100k
//! concurrent clients per scheme through the slab + bucket-aligned-wakeup
//! engine, plus a slab-vs-reference comparison at a size the naive engine
//! can still stomach. `engine_bench` (the binary) emits the same scenario
//! as machine-readable `BENCH_engine.json` for trend tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bda_bench::SchemeKind;
use bda_core::{ChannelModel, Key, Params, RetryPolicy, Ticks};
use bda_datagen::{DatasetBuilder, Prng};
use bda_sim::{engine::reference::run_requests_reference_channel, Engine};

const RECORDS: usize = 1_000;
const CLIENTS: usize = 100_000;

/// A burst of `n` requests for present keys, all tuning in within a
/// 16-tick window — narrower than any bucket, so the whole population is
/// concurrently in flight.
fn burst(ds: &bda_core::Dataset, n: usize, seed: u64) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    let mut rng = Prng::new(seed);
    (0..n)
        .map(|i| {
            let key = keys[rng.below(keys.len() as u64) as usize];
            ((i % 16) as Ticks, key)
        })
        .collect()
}

fn engine_100k(c: &mut Criterion) {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(RECORDS, 11).build().unwrap();
    let requests = burst(&dataset, CLIENTS, 5);
    let mut group = c.benchmark_group("engine_100k");
    group.sample_size(10);
    for kind in SchemeKind::ALL {
        let system = kind.build(&dataset, &params).unwrap();
        group.bench_function(BenchmarkId::new(kind.name(), CLIENTS), |b| {
            let mut engine = Engine::new(system.as_ref());
            b.iter(|| black_box(engine.run_batch(black_box(&requests)).len()))
        });
    }
    group.finish();
}

fn engine_steady_stream(c: &mut Criterion) {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(RECORDS, 11).build().unwrap();
    let requests = burst(&dataset, CLIENTS, 7);
    let mut group = c.benchmark_group("engine_steady_32k");
    group.sample_size(10);
    for kind in [SchemeKind::Hashing, SchemeKind::Distributed] {
        let system = kind.build(&dataset, &params).unwrap();
        group.bench_function(BenchmarkId::new(kind.name(), CLIENTS), |b| {
            let mut engine = Engine::new(system.as_ref());
            b.iter(|| {
                let mut n = 0usize;
                engine.run_stream(requests.iter().copied(), 32_768, |_| n += 1);
                black_box(n)
            })
        });
    }
    group.finish();
}

fn engine_vs_reference(c: &mut Criterion) {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(RECORDS, 11).build().unwrap();
    let requests = burst(&dataset, 20_000, 9);
    let system = SchemeKind::Hashing.build(&dataset, &params).unwrap();
    let mut group = c.benchmark_group("engine_vs_reference");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("slab", requests.len()), |b| {
        let mut engine = Engine::new(system.as_ref());
        b.iter(|| black_box(engine.run_batch(black_box(&requests)).len()))
    });
    group.bench_function(BenchmarkId::new("reference", requests.len()), |b| {
        b.iter(|| {
            black_box(
                run_requests_reference_channel(
                    system.as_ref(),
                    black_box(&requests),
                    ChannelModel::NONE,
                    RetryPolicy::UNBOUNDED,
                )
                .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    engine_100k,
    engine_steady_stream,
    engine_vs_reference
);
criterion_main!(benches);
