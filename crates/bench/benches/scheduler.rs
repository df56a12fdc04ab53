//! Deadline-aware batch scheduler vs the unscheduled service path.
//!
//! Three measurements over one `LiveQueryService` on a store that never
//! commits (one engine, one similarity cache, one worker pool), on a
//! production-shaped workload where 80% of traffic hits a small hot set of
//! queries. The answer cache is off in every phase, so every request
//! reaches batching and admission control (`benches/cache.rs` measures the
//! cache):
//!
//! 1. criterion smoke: scheduled single-query round-trip;
//! 2. **sustained throughput at 16 closed-loop clients** — direct
//!    `service.query` vs `handle.query_within` with slack deadlines. The
//!    target is ≥1.3×: concurrent duplicate requests coalesce into one
//!    prepared execution and plans are cached across requests;
//! 3. **2× overload, open loop** — requests arrive at twice the measured
//!    scheduled capacity with a 25 ms deadline. The scheduler sheds and
//!    degrades to keep the p99 latency of *served* responses bounded by
//!    the deadline instead of collapsing.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::dataset::DatasetSpec;
use datagen::workload::{produced_workload, RequestMix};
use kgraph::VersionedGraph;
use obs::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgq::sched::{BatchScheduler, Priority, SchedOutcome, Ticket};
use sgq::{LiveQueryService, QueryGraph, SchedConfig, SgqConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
/// The shared 80/20 hot-set mix (`datagen::workload::RequestMix`).
const MIX: RequestMix = RequestMix {
    hot_fraction: 80,
    hot_set: 4,
};

fn pick(rng: &mut StdRng, len: usize) -> usize {
    MIX.pick(rng, len)
}

/// The scheduler alone: the answer cache would serve the hot set at
/// submit time and hide batching and admission control.
fn sched_config() -> SchedConfig {
    SchedConfig {
        answer_cache_capacity: 0,
        ..SchedConfig::default()
    }
}

/// Closed-loop direct-path throughput: q/s over `duration`.
fn run_unscheduled(
    service: &LiveQueryService<'_>,
    queries: &[QueryGraph],
    duration: Duration,
) -> f64 {
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let stop = &stop;
            let completed = &completed;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xbeef + client as u64);
                while !stop.load(Ordering::Relaxed) {
                    let idx = pick(&mut rng, queries.len());
                    black_box(service.query(&queries[idx]).expect("query").matches.len());
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    completed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Closed-loop scheduled throughput (slack deadlines): q/s over `duration`.
fn run_scheduled(
    service: &LiveQueryService<'_>,
    queries: &[QueryGraph],
    duration: Duration,
) -> f64 {
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    BatchScheduler::serve(service, sched_config(), |handle| {
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let stop = &stop;
                let completed = &completed;
                let handle = &handle;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xfeed + client as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let idx = pick(&mut rng, queries.len());
                        let r = handle.query_within(
                            &queries[idx],
                            Duration::from_secs(10),
                            Priority::Normal,
                        );
                        assert!(
                            matches!(r.outcome, SchedOutcome::Exact(_)),
                            "slack deadlines stay exact: {:?}",
                            r.outcome
                        );
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        });
    })
    .expect("scheduler config");
    completed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Open-loop overload: `offered` requests/s for `duration`, 25 ms
/// deadlines. Returns (sample p99 of served in ms, histogram p99 in ms
/// from the scheduler's latency registry, served, degraded, shed).
fn run_overload(
    service: &LiveQueryService<'_>,
    queries: &[QueryGraph],
    offered: f64,
    duration: Duration,
) -> (f64, f64, u64, u64, u64) {
    let deadline = Duration::from_millis(25);
    let served_us = Histogram::detached();
    let mut served = 0u64;
    let mut degraded = 0u64;
    let mut shed = 0u64;
    let mut hist_p99_ms = 0.0f64;
    BatchScheduler::serve(service, sched_config(), |handle| {
        let per_client = offered / CLIENTS as f64;
        let interval = Duration::from_secs_f64(1.0 / per_client.max(1.0));
        let results: Vec<Vec<(SchedOutcome, Duration)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let handle = &handle;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xadd + client as u64);
                        let mut tickets: Vec<Ticket> = Vec::new();
                        let start = Instant::now();
                        let mut fired = 0u32;
                        while start.elapsed() < duration {
                            let due = interval * fired;
                            let now = start.elapsed();
                            if now < due {
                                std::thread::sleep(due - now);
                            }
                            let idx = pick(&mut rng, queries.len());
                            tickets.push(handle.submit(&queries[idx], deadline, Priority::Normal));
                            fired += 1;
                        }
                        tickets
                            .into_iter()
                            .map(|t| {
                                let r = t.wait();
                                (r.outcome, r.latency)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (outcome, latency) in results.into_iter().flatten() {
            match outcome {
                SchedOutcome::Exact(_) => {
                    served += 1;
                    served_us.record(latency.as_micros() as u64);
                }
                SchedOutcome::Degraded { .. } => {
                    served += 1;
                    degraded += 1;
                    served_us.record(latency.as_micros() as u64);
                }
                SchedOutcome::Shed(_) => shed += 1,
                SchedOutcome::Failed(e) => panic!("overload run failed: {e}"),
            }
        }
        // The operational p99: every served request of this run went
        // through the registry's log-linear latency histogram — exactly
        // what a Prometheus scrape of the live scheduler would report.
        hist_p99_ms = handle.stats().latency(Priority::Normal).p99_us as f64 / 1e3;
    })
    .expect("scheduler config");
    (
        served_us.snapshot().p99() as f64 / 1e3,
        hist_p99_ms,
        served,
        degraded,
        shed,
    )
}

fn bench_scheduler(c: &mut Criterion) {
    let ds = DatasetSpec::dbpedia_like(1.5).build();
    let space = ds.oracle_space();
    let queries: Vec<QueryGraph> = produced_workload(&ds)
        .into_iter()
        .map(|q| q.graph)
        .collect();
    let service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        SgqConfig {
            k: 20,
            ..SgqConfig::default()
        },
    );

    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    group.bench_function("scheduled_single_query_roundtrip", |b| {
        BatchScheduler::serve(&service, sched_config(), |handle| {
            b.iter(|| {
                black_box(handle.query_within(
                    &queries[0],
                    Duration::from_secs(10),
                    Priority::Normal,
                ))
            })
        })
        .expect("scheduler config");
    });
    group.finish();

    // Sustained throughput, 16 closed-loop clients, 80/20 hot-set skew.
    let phase = Duration::from_millis(2500);
    let unscheduled_qps = run_unscheduled(&service, &queries, phase);
    let scheduled_qps = run_scheduled(&service, &queries, phase);
    let speedup = scheduled_qps / unscheduled_qps;
    println!(
        "\nsustained throughput at {CLIENTS} clients ({}% of traffic on {} hot queries):",
        MIX.hot_fraction, MIX.hot_set
    );
    println!("  unscheduled (direct service.query)  {unscheduled_qps:>10.0} q/s");
    println!("  scheduled   (batched, EDF)          {scheduled_qps:>10.0} q/s");
    println!("  speedup                             {speedup:>10.2}x  (target >= 1.30x)");
    if speedup < 1.3 {
        println!("  WARNING: speedup below the 1.3x target on this run/host");
    }

    // 2x overload, open loop, 25 ms deadlines.
    let offered = scheduled_qps * 2.0;
    let (sample_p99_ms, p99_ms, served, degraded, shed) =
        run_overload(&service, &queries, offered, Duration::from_millis(2500));
    let total = served + shed;
    println!("\n2x overload ({offered:.0} requests/s offered, 25 ms deadlines):");
    println!("  served {served} ({degraded} degraded) / shed {shed} of {total}");
    println!("  p99 latency of served responses     {p99_ms:>10.2} ms  (deadline 25 ms; registry histogram)");
    println!("  p99 from the raw latency samples    {sample_p99_ms:>10.2} ms  (cross-check)");
    // "Bounded" means pinned to the deadline instead of collapsing into
    // seconds of queueing. A served response may straddle the deadline by a
    // small epsilon (a request admitted just inside its deadline resolves
    // just past it), and a contended CI host adds scheduling jitter on top
    // — so the tight comparison is reported, while the hard assert only
    // catches a genuine regression back to unbounded queueing (p99 beyond
    // 4x the deadline). The SLO is judged on the registry histogram's p99 —
    // the number a production scrape would alert on.
    if p99_ms > 25.0 * 1.25 {
        println!("  WARNING: p99 exceeded deadline + 25% epsilon on this run/host");
    }
    assert!(
        p99_ms <= 25.0 * 4.0,
        "p99 of served responses collapsed under overload ({p99_ms:.2} ms for a 25 ms deadline) — \
         shedding/degradation is not keeping latency bounded"
    );
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
