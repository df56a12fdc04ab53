//! Mixed read/write throughput over the versioned store.
//!
//! Three configurations, same workload and client count:
//!
//! * **static** — a bare [`SgqEngine`] over the frozen CSR (the
//!   no-regression baseline for the service's read path);
//! * **live idle** — [`LiveQueryService`] over a [`VersionedGraph`] nobody
//!   writes to, which is how a static graph is served (measures what the
//!   service wrapper costs: epoch pinning — one atomic epoch check + two
//!   `Arc` bumps per query — plus its counters and latency histogram);
//! * **live churn** — the same service while a writer thread streams edge
//!   updates with periodic commits and compactions.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::churn::{apply_churn, churn_stream};
use datagen::dataset::DatasetSpec;
use datagen::workload::produced_workload;
use kgraph::VersionedGraph;
use sgq::{LiveQueryService, SgqConfig, SgqEngine};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 8;
/// Queries each client issues per measured round.
const QUERIES_PER_CLIENT: usize = 20;

fn config() -> SgqConfig {
    SgqConfig {
        k: 20,
        ..SgqConfig::default()
    }
}

fn bench_live_throughput(c: &mut Criterion) {
    let ds = DatasetSpec::dbpedia_like(1.5).build();
    let space = ds.oracle_space();
    let workload = produced_workload(&ds);

    let static_engine = SgqEngine::new(&ds.graph, &space, &ds.library, config());
    // Two independent live stores: the idle one is never written, so idle
    // measurements stay clean no matter when the churn rounds run.
    let live_idle = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        config(),
    );
    let live_churn = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        config(),
    );
    // A long churn stream the writer walks cyclically (op effects degrade to
    // duplicates/no-op deletes on later laps, which is fine for a perf run).
    let ops = churn_stream(&ds, 20_000, 11);
    let op_cursor = AtomicUsize::new(0);

    let read_round = |use_live: bool| {
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let static_engine = &static_engine;
                let live_idle = &live_idle;
                let workload = &workload;
                s.spawn(move || {
                    for i in 0..QUERIES_PER_CLIENT {
                        let q = &workload[(client + i) % workload.len()].graph;
                        let r = if use_live {
                            live_idle.query(q)
                        } else {
                            static_engine.query(q)
                        };
                        black_box(r.expect("query succeeds").matches.len());
                    }
                });
            }
        });
    };
    // One measured round with an active writer: clients read while the
    // writer streams ~10k updates/s with a commit every 256 ops (~40
    // epochs/s — far above any real KG's update feed) and periodic
    // compactions.
    let churn_round = || {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let live = live_churn.versioned();
            let stop = &stop;
            let op_cursor = &op_cursor;
            let ops = &ops;
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    // The cursor is global and monotonic, so commit /
                    // compaction cadence carries across measured rounds and
                    // the overlay cannot grow without bound.
                    let i = op_cursor.fetch_add(1, Ordering::Relaxed);
                    apply_churn(live, &ops[i % ops.len()]);
                    if (i + 1).is_multiple_of(256) {
                        live.commit();
                    }
                    if (i + 1).is_multiple_of(8192) {
                        live.compact();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
                live.commit();
            });
            // Inner scope: joins every reader before the writer is told to
            // stop, so the whole measured round runs under write pressure.
            std::thread::scope(|readers| {
                for client in 0..CLIENTS {
                    let live_churn = &live_churn;
                    let workload = &workload;
                    readers.spawn(move || {
                        for i in 0..QUERIES_PER_CLIENT {
                            let q = &workload[(client + i) % workload.len()].graph;
                            black_box(live_churn.query(q).expect("query").matches.len());
                        }
                    });
                }
            });
            stop.store(true, Ordering::Release);
        });
    };

    let mut group = c.benchmark_group("live_throughput");
    group.sample_size(10);
    group.bench_function(format!("static_clients_{CLIENTS}"), |b| {
        b.iter(|| read_round(false))
    });
    group.bench_function(format!("live_idle_clients_{CLIENTS}"), |b| {
        b.iter(|| read_round(true))
    });
    group.bench_function(format!("live_churn_clients_{CLIENTS}"), |b| {
        b.iter(churn_round)
    });
    group.finish();

    // Explicit queries/sec summary (the ROADMAP number).
    println!("\nqueries/sec ({} clients, k=20):", CLIENTS);
    for (label, live, churn) in [
        ("static    ", false, false),
        ("live idle ", true, false),
        ("live churn", true, true),
    ] {
        let rounds = 5;
        let start = Instant::now();
        for _ in 0..rounds {
            if churn {
                churn_round();
            } else {
                read_round(live);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let queries = (rounds * CLIENTS * QUERIES_PER_CLIENT) as f64;
        println!("  {label}  {:>10.0} q/s", queries / elapsed);
    }
    let stats = live_churn.stats();
    let store = live_churn.versioned().stats();
    let sim = live_churn.similarity_stats();
    println!(
        "live service: {} queries at epoch {} ({} refreshes, {} delta edges, {} tombstones)",
        stats.queries,
        stats.epoch,
        stats.engine_refreshes,
        stats.delta_edges,
        stats.delta_tombstones
    );
    println!(
        "store: {} commits, {} compactions, {} inserts, {} deletes; sim cache {} hits / {} misses / {} invalidations",
        store.commits, store.compactions, store.inserts, store.deletes,
        sim.row_hits + sim.max_row_hits,
        sim.row_misses + sim.max_row_misses,
        sim.invalidations
    );
}

criterion_group!(benches, bench_live_throughput);
criterion_main!(benches);
