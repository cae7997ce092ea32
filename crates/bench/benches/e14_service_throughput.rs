//! Criterion bench for the shared-pool query service: a fixed batch of
//! mixed seed-family queries submitted at varying concurrency onto one
//! `Service`, timing submit-to-wait for the whole batch. Preparations are
//! shared so only scheduling + evaluation are measured.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::nprr::PreparedQuery;
use wcoj_service::ExecConfig;
use wcoj_service::{Service, ServiceConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_service_throughput");
    g.sample_size(10);

    let instances = [
        ("triangle_hard", wcoj_datagen::example_2_2(256)),
        ("cycle4", wcoj_datagen::cycle_instance(13, 4, 400, 60)),
        (
            "zipf_triangle",
            vec![
                wcoj_datagen::zipf_relation(21, &[0, 1], 400, 48, 1.2),
                wcoj_datagen::zipf_relation(22, &[1, 2], 400, 48, 1.2),
                wcoj_datagen::zipf_relation(23, &[0, 2], 400, 48, 1.2),
            ],
        ),
    ];
    let prepared: Vec<Arc<PreparedQuery>> = instances
        .iter()
        .map(|(_, rels)| Arc::new(PreparedQuery::new(rels).expect("well-formed instance")))
        .collect();

    let service = Service::new(ServiceConfig::with_workers(4));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };
    for concurrency in [1usize, 4, 16] {
        g.bench_with_input(
            BenchmarkId::new("batch", concurrency),
            &concurrency,
            |b, &concurrency| {
                b.iter(|| {
                    let mut total = 0usize;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..concurrency)
                            .map(|i| {
                                let service = &service;
                                let cfg = &cfg;
                                let prepared = &prepared;
                                scope.spawn(move || {
                                    let q = i % prepared.len();
                                    service
                                        .submit(&prepared[q], cfg)
                                        .expect("submit")
                                        .wait()
                                        .expect("join")
                                        .relation
                                        .len()
                                })
                            })
                            .collect();
                        for h in handles {
                            total += h.join().expect("submitter thread");
                        }
                    });
                    total
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
