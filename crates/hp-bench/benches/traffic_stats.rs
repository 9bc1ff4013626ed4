//! Benchmarks of the traffic generators and statistics
//! machinery — the per-event hot paths of every simulation.

use hp_bench::microbench::{BenchmarkId, Criterion};
use hp_bench::{criterion_group, criterion_main};
use hp_core::monitoring::BankedMonitoringSet;
use hp_mem::types::LineAddr;
use hp_queues::sim::QueueId;
use hp_rand::rngs::CounterRng;
use hp_rand::Rng;
use hp_sim::rng::RngFactory;
use hp_sim::stats::Histogram;
use hp_sim::time::Clock;
use hp_traffic::alias::AliasTable;
use hp_traffic::flows::FlowTrafficGenerator;
use hp_traffic::generator::KeyedArrivals;
use hp_traffic::shape::TrafficShape;
use std::hint::black_box;

fn bench_traffic(c: &mut Criterion) {
    let mut g = c.benchmark_group("traffic");
    let factory = RngFactory::new(1);

    let shape_gen = KeyedArrivals::for_partition(
        TrafficShape::ProportionallyConcentrated,
        1000,
        1e6,
        Clock::default(),
        &[0; 1000],
        0,
        CounterRng::keyed(1, 1, 0),
    )
    .expect("valid")
    .expect("the partition carries traffic");
    let mut k = 0u64;
    g.bench_function("shape_keyed_arrival", |b| {
        b.iter(|| {
            k += 1;
            black_box(shape_gen.arrival(k))
        })
    });

    let mut flow_gen =
        FlowTrafficGenerator::new(10_000, 1.1, 64, 1e6, Clock::default(), factory.stream(1));
    g.bench_function("flow_next_arrival", |b| {
        b.iter(|| black_box(flow_gen.next_arrival()))
    });

    let weights: Vec<f64> = (1..=1000).map(|i| 1.0 / i as f64).collect();
    let table = AliasTable::new(&weights).expect("valid");
    let mut rng = factory.stream(2);
    g.bench_function("alias_sample_1000", |b| {
        b.iter(|| black_box(table.sample(&mut rng)))
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    let mut h = Histogram::new();
    let mut rng = RngFactory::new(2).stream(0);
    g.bench_function("histogram_record", |b| {
        b.iter(|| h.record(black_box(rng.random_range(1..1_000_000u64))))
    });
    for v in 1..100_000u64 {
        h.record(v * 7);
    }
    g.bench_function("histogram_p99", |b| {
        b.iter(|| black_box(h.percentile(99.0)))
    });
    g.finish();
}

fn bench_banked_monitoring(c: &mut Criterion) {
    let mut g = c.benchmark_group("banked_monitoring_snoop");
    for banks in [1usize, 4, 8] {
        let mut ms = BankedMonitoringSet::new(1024, banks);
        for q in 0..900u32 {
            ms.insert(QueueId(q), LineAddr(0x1_0000 + q as u64))
                .expect("fits");
        }
        g.bench_with_input(BenchmarkId::from_parameter(banks), &banks, |b, _| {
            let mut q = 0u32;
            b.iter(|| {
                let line = LineAddr(0x1_0000 + (q % 900) as u64);
                if let Some(qid) = ms.snoop(black_box(line)) {
                    ms.arm(qid);
                }
                q = q.wrapping_add(1);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_traffic, bench_stats, bench_banked_monitoring);
criterion_main!(benches);
