//! The shared query runtime serving concurrent clients.
//!
//! Builds a synthetic DBpedia-like dataset, stands up one
//! [`LiveQueryService`] over a store that never commits (one engine, one
//! similarity-row cache, one persistent worker pool) and hammers it from
//! several client threads with prepared queries, then prints the
//! aggregated service statistics.
//!
//! ```sh
//! cargo run --example concurrent_service --release
//! ```

use semkg::datagen::workload::produced_workload;
use semkg::prelude::*;
use std::sync::Arc;

fn main() {
    let ds = DatasetSpec::dbpedia_like(1.5).build();
    let space = ds.oracle_space();
    let service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        SgqConfig {
            k: 20,
            ..SgqConfig::default()
        },
    );

    // Compile the workload once; clients then skip decomposition and plan
    // building on every request.
    let workload = produced_workload(&ds);
    let prepared: Vec<LivePreparedQuery> = workload
        .iter()
        .map(|q| service.prepare(&q.graph).expect("workload query prepares"))
        .collect();

    let clients = 8;
    let rounds = 50;
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let service = &service;
            let prepared = &prepared;
            s.spawn(move || {
                for i in 0..rounds {
                    let p = &prepared[(client + i) % prepared.len()];
                    let r = service.execute(p).expect("query succeeds");
                    assert!(!r.matches.is_empty() || r.stats.ta_certified);
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let stats = service.stats();
    let sim = service.similarity_stats();
    println!(
        "{} clients × {} rounds over {} prepared queries in {:.1?}",
        clients,
        rounds,
        prepared.len(),
        elapsed
    );
    println!(
        "served {} queries ({} certified), mean latency {:.0} µs, {:.0} q/s",
        stats.queries,
        stats.certified,
        stats.mean_latency_us(),
        stats.queries as f64 / elapsed.as_secs_f64()
    );
    println!(
        "similarity cache: {} row hits, {} row misses (rows computed once, shared forever)",
        sim.row_hits + sim.max_row_hits,
        sim.row_misses + sim.max_row_misses
    );
    println!(
        "worker pool: {} persistent workers, zero per-query thread spawns",
        service.pin().workers()
    );
}
