//! Criterion bench for intra-value parallelism: a single-hot-key
//! workload (one root value carrying ≥ 90% of the estimated work —
//! `wcoj_datagen::hot_key_triangle`) on `Service`s of 1–8 workers, with
//! the anchor sub-shard splitter on (default) and off
//! (`heavy_split_factor: 0`, singleton isolation only) so the split's
//! contribution is measurable in isolation. Preparation is shared so
//! only planning + evaluation are timed.
//!
//! On a single-core host all rows read ≈ the 1-worker time; re-measure
//! on multi-core hardware (see `crates/service/README.md`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::nprr::PreparedQuery;
use wcoj_service::{ExecConfig, Service, ServiceConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15_heavy_key_scaling");
    g.sample_size(10);

    let instances = [
        ("hot_key_256", wcoj_datagen::hot_key_triangle(41, 256, 8)),
        ("hot_key_512", wcoj_datagen::hot_key_triangle(42, 512, 8)),
    ];
    for (name, rels) in &instances {
        let prepared = Arc::new(PreparedQuery::new(rels).expect("well-formed instance"));
        for workers in [1usize, 2, 4, 8] {
            let service = Service::new(ServiceConfig::with_workers(workers));
            for (mode, factor) in [
                ("split", ExecConfig::default().heavy_split_factor),
                ("nosplit", 0),
            ] {
                let cfg = ExecConfig {
                    shard_min_size: 1,
                    heavy_split_factor: factor,
                };
                g.bench_with_input(
                    BenchmarkId::new(format!("{name}/{mode}"), workers),
                    &cfg,
                    |b, cfg| {
                        b.iter(|| {
                            service
                                .submit(&prepared, cfg)
                                .expect("submit")
                                .wait()
                                .expect("join succeeds")
                                .relation
                                .len()
                        });
                    },
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
