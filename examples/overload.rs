//! Serving under load: the deadline-aware batch scheduler shedding and
//! degrading a traffic spike instead of collapsing.
//!
//! ```bash
//! cargo run --release --example overload
//! ```
//!
//! The demo builds a DBpedia-like graph, stands a `LiveQueryService` over
//! a store that never commits up behind a `BatchScheduler`, and drives it
//! through three phases:
//!
//! 1. steady traffic with slack deadlines — every answer is exact and
//!    concurrent duplicate requests coalesce into shared executions;
//! 2. a spike of mixed-priority traffic with tight deadlines — the
//!    scheduler degrades what it can and sheds what it must, keeping
//!    high-priority latency flat;
//! 3. a burst of already-hopeless requests — shed outright by the
//!    estimator without touching the engine.

use semkg::datagen::workload::produced_workload;
use semkg::prelude::*;
use semkg::sgq::sched::{BatchScheduler, Priority, SchedOutcome};
use semkg::sgq::SchedConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("== semkg: serving under load ==\n");
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let space = ds.oracle_space();
    let queries: Vec<QueryGraph> = produced_workload(&ds)
        .into_iter()
        .map(|q| q.graph)
        .collect();
    println!(
        "graph: {} nodes, {} edges; workload: {} distinct queries",
        ds.graph.node_count(),
        ds.graph.edge_count(),
        queries.len()
    );

    let service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        SgqConfig {
            k: 20,
            // Phase-trace every 16th execution: populates the sgq_phase_ns
            // and sgq_sched_fan_out_ns histograms scraped at the end.
            trace_sample_every: 16,
            ..SgqConfig::default()
        },
    );

    BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        // Phase 1: steady traffic, slack deadlines, heavy duplication.
        let exact = AtomicU64::new(0);
        std::thread::scope(|s| {
            for client in 0..8usize {
                let handle = &handle;
                let queries = &queries;
                let exact = &exact;
                s.spawn(move || {
                    for i in 0..200 {
                        // Everyone hammers a 4-query hot set: the scheduler
                        // coalesces concurrent duplicates into one execution.
                        let idx = (client + i) % 4;
                        let r = handle.query_within(
                            &queries[idx],
                            Duration::from_secs(5),
                            Priority::Normal,
                        );
                        if matches!(r.outcome, SchedOutcome::Exact(_)) {
                            exact.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let stats = handle.stats();
        println!("\n-- phase 1: steady traffic, slack deadlines --");
        println!(
            "   {} requests -> {} executions (mean batch size {:.1}), all exact: {}",
            stats.submitted,
            stats.batches,
            stats.mean_batch_size(),
            exact.load(Ordering::Relaxed) == stats.submitted
        );
        println!(
            "   plan cache: {} hits / {} misses; similarity rows: {:.0}% cache hit rate",
            stats.plan_cache_hits,
            stats.plan_cache_misses,
            service.similarity_stats().hit_rate() * 100.0
        );

        // Phase 2: a spike with tight deadlines and mixed priorities.
        let before = handle.stats();
        std::thread::scope(|s| {
            for client in 0..16usize {
                let handle = &handle;
                let queries = &queries;
                s.spawn(move || {
                    for i in 0..150 {
                        let idx = (client * 7 + i) % queries.len();
                        let (priority, within) = match i % 3 {
                            0 => (Priority::High, Duration::from_millis(20)),
                            1 => (Priority::Normal, Duration::from_millis(2)),
                            _ => (Priority::Low, Duration::from_micros(300)),
                        };
                        let _ = handle.query_within(&queries[idx], within, priority);
                    }
                });
            }
        });
        let after = handle.stats();
        println!("\n-- phase 2: spike, tight deadlines, mixed priorities --");
        println!(
            "   {} requests: {} exact, {} degraded (flagged TBQ), {} shed ({} unmeetable, {} expired, {} queue-full)",
            after.submitted - before.submitted,
            after.exact - before.exact,
            after.degraded - before.degraded,
            after.shed() - before.shed(),
            after.shed_unmeetable - before.shed_unmeetable,
            after.shed_expired - before.shed_expired,
            after.shed_queue_full - before.shed_queue_full,
        );
        for p in Priority::ALL {
            // Phase-local aggregates: diff the cumulative counters so
            // phase 1's slack traffic doesn't dilute the spike numbers.
            let (now, prev) = (after.latency(p), before.latency(p));
            let served = now.served - prev.served;
            let mean = if served == 0 {
                0.0
            } else {
                (now.total_latency_us - prev.total_latency_us) as f64 / served as f64
            };
            println!(
                "   {:>6?}: {:>5} served, mean {:>8.0} us, worst so far {:>8} us",
                p, served, mean, now.max_latency_us
            );
        }
        // The cumulative percentile table, straight from the registry's
        // log-linear latency histograms (percentiles don't diff, so these
        // cover phases 1+2 together).
        println!("   cumulative latency percentiles (registry histograms):");
        println!(
            "   {:>6} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "class", "served", "p50 us", "p90 us", "p99 us", "max us"
        );
        for p in Priority::ALL {
            let l = after.latency(p);
            println!(
                "   {:>6?} {:>8} {:>10} {:>10} {:>10} {:>10}",
                p, l.served, l.p50_us, l.p90_us, l.p99_us, l.max_latency_us
            );
        }

        // Phase 3: hopeless deadlines are refused without engine work.
        let before = handle.stats();
        for i in 0..32 {
            let q = &queries[i % queries.len()];
            let r = handle.query_within(q, Duration::ZERO, Priority::Low);
            assert!(r.outcome.is_shed());
        }
        let after = handle.stats();
        println!("\n-- phase 3: already-expired deadlines --");
        println!(
            "   32 requests, {} shed explicitly, 0 engine executions spent on them",
            after.shed() - before.shed()
        );

        println!("\nfinal scheduler stats: {:#?}", handle.stats());
        println!("service stats: mean latency {:.0} us over {} completed queries ({} errors), p50/p99 {} / {} us",
            service.stats().mean_latency_us(),
            service.stats().completed(),
            service.stats().errors,
            service.stats().latency_p50_us,
            service.stats().latency_p99_us,
        );

        // What a monitoring endpoint would serve: the service's registry
        // merged with the scheduler's, in Prometheus text format.
        let mut snapshot = service.metrics();
        snapshot.extend(handle.metrics());
        println!("\n-- /metrics (Prometheus text format) --");
        print!("{}", snapshot.to_prometheus());
    })
    .expect("scheduler config is valid");
}
