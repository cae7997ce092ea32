//! Criterion bench for the observability overhead bound (ISSUE 6
//! acceptance: ≤ 2% on service throughput): the same mixed seed-family
//! batch through two identically-sized services, one with
//! `ServiceConfig::obs` on (per-task timestamps + registry updates) and
//! one with it off (the no-op path). Preparations are shared so only
//! scheduling + evaluation + instrumentation are measured.
//!
//! CI runs single-core, where a multi-worker pool mostly measures context
//! switching; the default shape keeps `workers = 2`, `concurrency = 4`
//! small for a stable signal. Set `WCOJ_BENCH_WORKERS` (e.g. `8`) to
//! re-measure on a multi-core box.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::nprr::PreparedQuery;
use wcoj_service::ExecConfig;
use wcoj_service::{Service, ServiceConfig};

fn workers() -> usize {
    std::env::var("WCOJ_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(2)
}

fn run_batch(service: &Service, cfg: &ExecConfig, prepared: &[Arc<PreparedQuery>]) -> usize {
    let concurrency = 4;
    let mut total = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|i| {
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
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e17_obs_overhead");
    g.sample_size(20);

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

    let workers = workers();
    for (label, obs) in [("obs_on", true), ("obs_off", false)] {
        let service = Service::new(ServiceConfig::with_workers(workers).with_obs(obs));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        g.bench_with_input(BenchmarkId::new(label, workers), &(), |b, ()| {
            b.iter(|| run_batch(&service, &cfg, &prepared));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
