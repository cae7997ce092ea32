//! Criterion bench for one query sharded over the service pool:
//! triangle-hard (Example 2.2) and 4-cycle instances on `Service`s of
//! 1/2/4/8 workers, sharing one preparation per instance so only
//! planning + evaluation are timed.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::nprr::PreparedQuery;
use wcoj_service::{ExecConfig, Service, ServiceConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_par_scaling");
    g.sample_size(10);

    let instances = [
        ("triangle_hard", wcoj_datagen::example_2_2(2048)),
        ("cycle4", wcoj_datagen::cycle_instance(13, 4, 3000, 250)),
    ];
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..ExecConfig::default()
    };
    for (name, rels) in &instances {
        let prepared = Arc::new(PreparedQuery::new(rels).expect("well-formed instance"));
        for workers in [1usize, 2, 4, 8] {
            let service = Service::new(ServiceConfig::with_workers(workers));
            g.bench_with_input(BenchmarkId::new(*name, workers), &cfg, |b, cfg| {
                b.iter(|| {
                    service
                        .submit(&prepared, cfg)
                        .expect("submit")
                        .wait()
                        .expect("join succeeds")
                        .relation
                        .len()
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
