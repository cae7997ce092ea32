//! Criterion bench for service admission control: a fixed batch of mixed
//! queries flooded from 8 submitter threads onto a 2-worker service,
//! bounded (queue depth 4, shed-and-retry) vs unbounded. Measures batch
//! submit-to-wait wall time — the cost/benefit of backpressure is the
//! *difference* between the two rows (on a loaded machine the bounded
//! queue trades raw throughput for bounded memory and flat worker-side
//! latency; on an idle one the rows should be close).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::nprr::PreparedQuery;
use wcoj_service::ExecConfig;
use wcoj_service::{Service, ServiceConfig, SubmitError};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16_overload_shedding");
    g.sample_size(10);

    let instances = [
        ("triangle_hard", wcoj_datagen::example_2_2(192)),
        ("cycle4", wcoj_datagen::cycle_instance(13, 4, 300, 50)),
        (
            "zipf_triangle",
            vec![
                wcoj_datagen::zipf_relation(21, &[0, 1], 300, 40, 1.2),
                wcoj_datagen::zipf_relation(22, &[1, 2], 300, 40, 1.2),
                wcoj_datagen::zipf_relation(23, &[0, 2], 300, 40, 1.2),
            ],
        ),
    ];
    let prepared: Vec<Arc<PreparedQuery>> = instances
        .iter()
        .map(|(_, rels)| Arc::new(PreparedQuery::new(rels).expect("well-formed instance")))
        .collect();

    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 3;
    for (label, queue_depth) in [("bounded_depth4", 4usize), ("unbounded", 0)] {
        let service = Service::new(ServiceConfig::with_workers(2).with_queue_depth(queue_depth));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        g.bench_with_input(BenchmarkId::new(label, SUBMITTERS), &queue_depth, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..SUBMITTERS)
                        .map(|i| {
                            let service = &service;
                            let cfg = &cfg;
                            let prepared = &prepared;
                            scope.spawn(move || {
                                let mut rows = 0usize;
                                for j in 0..PER_SUBMITTER {
                                    let q = (i + j) % prepared.len();
                                    // shed-and-retry: overload delays the
                                    // submitter, loses nothing
                                    let handle = loop {
                                        match service.submit(&prepared[q], cfg) {
                                            Ok(h) => break h,
                                            Err(SubmitError::Overloaded { .. }) => {
                                                std::thread::yield_now();
                                            }
                                            Err(e) => panic!("submit: {e}"),
                                        }
                                    };
                                    rows += handle.wait().expect("join").relation.len();
                                }
                                rows
                            })
                        })
                        .collect();
                    for h in handles {
                        total += h.join().expect("submitter thread");
                    }
                });
                total
            });
        });
        // context for the shed column of harness experiment e19
        eprintln!(
            "e16_overload_shedding/{label}: lifetime sheds so far = {}",
            service.counters().shed
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
