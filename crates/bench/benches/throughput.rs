//! Concurrent query throughput over the shared runtime.
//!
//! N client threads hammer one [`LiveQueryService`] over a store that never
//! commits — one engine, one similarity-row cache, one persistent worker
//! pool — with the produced workload. Reported per client count: wall-clock per round (criterion)
//! plus an explicit queries/second summary, for both ad-hoc queries and
//! prepared-query execution (plans compiled once, executed per request).

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::dataset::DatasetSpec;
use datagen::workload::produced_workload;
use kgraph::VersionedGraph;
use sgq::{LivePreparedQuery, LiveQueryService, SgqConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];
/// Queries each client issues per measured round.
const QUERIES_PER_CLIENT: usize = 20;

fn bench_throughput(c: &mut Criterion) {
    let ds = DatasetSpec::dbpedia_like(1.5).build();
    let space = ds.oracle_space();
    let workload = produced_workload(&ds);
    let service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        SgqConfig {
            k: 20,
            ..SgqConfig::default()
        },
    );
    let prepared: Vec<LivePreparedQuery> = workload
        .iter()
        .map(|q| service.prepare(&q.graph).expect("workload query prepares"))
        .collect();

    let run_round = |clients: usize, use_prepared: bool| {
        std::thread::scope(|s| {
            for client in 0..clients {
                let service = &service;
                let workload = &workload;
                let prepared = &prepared;
                s.spawn(move || {
                    for i in 0..QUERIES_PER_CLIENT {
                        let idx = (client + i) % workload.len();
                        let r = if use_prepared {
                            service.execute(&prepared[idx])
                        } else {
                            service.query(&workload[idx].graph)
                        };
                        black_box(r.expect("query succeeds").matches.len());
                    }
                });
            }
        });
    };

    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    for clients in CLIENT_COUNTS {
        group.bench_function(format!("adhoc_clients_{clients}"), |b| {
            b.iter(|| run_round(clients, false))
        });
        group.bench_function(format!("prepared_clients_{clients}"), |b| {
            b.iter(|| run_round(clients, true))
        });
    }
    group.finish();

    // Explicit queries/sec summary (the number the ROADMAP cares about).
    println!(
        "\nqueries/sec (workload of {} queries, k=20):",
        workload.len()
    );
    for clients in CLIENT_COUNTS {
        for (label, use_prepared) in [("ad-hoc  ", false), ("prepared", true)] {
            let rounds = 5;
            let start = Instant::now();
            for _ in 0..rounds {
                run_round(clients, use_prepared);
            }
            let elapsed = start.elapsed().as_secs_f64();
            let queries = (rounds * clients * QUERIES_PER_CLIENT) as f64;
            println!(
                "  {label} clients={clients:>2}  {:>10.0} q/s",
                queries / elapsed
            );
        }
    }
    let sim = service.similarity_stats();
    let stats = service.stats();
    println!(
        "service: {} queries, {} certified, mean latency {:.0} µs; similarity cache: {} hits / {} misses",
        stats.queries,
        stats.certified,
        stats.mean_latency_us(),
        sim.row_hits + sim.max_row_hits,
        sim.row_misses + sim.max_row_misses,
    );
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
