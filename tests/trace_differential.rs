//! Differential harness for per-query phase tracing.
//!
//! The tracing contract (see `sgq::trace` and the README's "Observability"
//! section): enabling `trace_sample_every` — or calling the explicit
//! `*_traced` APIs — only *observes* an execution. Every answer, every path
//! edge id and every deterministic search counter must equal the
//! tracing-off path's, byte for byte, because the trace plumbing adds one
//! branch per phase and never touches the search state. These tests drive
//! that claim through the service over the seeded workloads against the
//! untraced `SgqEngine` over the frozen CSR.

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use kgraph::VersionedGraph;
use sgq::{LiveQueryService, QueryGraph, QueryResult, SgqConfig, SgqEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(trace_sample_every: u64) -> SgqConfig {
    SgqConfig {
        k: 20,
        tau: 0.3,
        workers: 4,
        trace_sample_every,
        ..SgqConfig::default()
    }
}

fn setup() -> (BenchDataset, PredicateSpace) {
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let space = ds.oracle_space();
    (ds, space)
}

/// The service over a store that never commits.
fn idle_service<'a>(
    ds: &'a BenchDataset,
    space: &'a PredicateSpace,
    config: SgqConfig,
) -> LiveQueryService<'a> {
    LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        space,
        &ds.library,
        config,
    )
}

/// The seeded differential workload: the bulk produced stream, the four
/// Fig. 1 Q117 variants, a chain and a soccer query.
fn workload(ds: &BenchDataset) -> Vec<QueryGraph> {
    let mut queries: Vec<QueryGraph> = produced_workload(ds).into_iter().map(|q| q.graph).collect();
    queries.extend(
        q117_variants(ds, &ds.countries[0])
            .into_iter()
            .map(|q| q.graph),
    );
    queries.push(chain_query(ds, 0).graph);
    queries.push(soccer_query(ds, 0).0.graph);
    queries
}

/// The deterministic face of [`sgq::QueryStats`] — everything except the
/// wall-clock fields, which legitimately differ between runs.
fn scrub(r: &QueryResult) -> (usize, usize, usize, usize, usize, bool, usize) {
    let s = &r.stats;
    (
        s.popped,
        s.pushed,
        s.tau_pruned,
        s.edges_examined,
        s.ta_accesses,
        s.ta_certified,
        s.subqueries,
    )
}

/// Tracing on vs tracing off: answers (including path edge ids via
/// `FinalMatch` equality), deterministic stats and prepared replay are
/// bit-identical through the service sampled 1-in-1, 1-in-3 and never.
/// The sampled services record exactly their share of traces.
#[test]
fn traced_answers_are_bit_identical_to_untraced() {
    let (ds, space) = setup();
    let queries = workload(&ds);

    let untraced = SgqEngine::new(&ds.graph, &space, &ds.library, config(0));
    let baseline: Vec<QueryResult> = queries
        .iter()
        .map(|q| untraced.query(q).expect("untraced path answers"))
        .collect();

    for sample_every in [0u64, 1, 3] {
        let service = idle_service(&ds, &space, config(sample_every));
        for (idx, q) in queries.iter().enumerate() {
            let r = service.query(q).expect("traced path answers");
            assert_eq!(
                r.matches, baseline[idx].matches,
                "sample={sample_every}: traced answer diverged on query {idx}"
            );
            assert_eq!(
                scrub(&r),
                scrub(&baseline[idx]),
                "sample={sample_every}: traced stats diverged on query {idx}"
            );
            let prepared = service.prepare(q).expect("prepare");
            assert_eq!(
                service.execute(&prepared).expect("replay").matches,
                baseline[idx].matches,
                "sample={sample_every}: traced prepared replay diverged on query {idx}"
            );
        }
        // query() + execute() above both tick the sampler: 2 ticks per
        // query, every `sample_every`-th one recorded, none when off.
        let ticks = 2 * queries.len() as u64;
        let expected = if sample_every == 0 {
            0
        } else {
            ticks.div_ceil(sample_every)
        };
        assert_eq!(
            service.traces().recorded(),
            expected,
            "deterministic 1-in-{sample_every} sampling over {ticks} executions"
        );
    }
}

/// The explicit traced APIs return the same answer as the plain ones and a
/// trace whose phases are filled consistently: engine phases sum to at
/// most the recorded total, every query reports its sub-query count, and
/// expanding queries report rounds and popped states.
#[test]
fn explicit_traces_report_coherent_phases() {
    let (ds, space) = setup();
    let queries = workload(&ds);
    let service = idle_service(&ds, &space, config(0));

    let mut expanded_any = false;
    for (idx, q) in queries.iter().enumerate() {
        let plain = service.query(q).expect("plain answers");
        let (traced, trace) = service.query_traced(q).expect("traced answers");
        assert_eq!(
            traced.matches, plain.matches,
            "query_traced diverged on query {idx}"
        );
        assert_eq!(scrub(&traced), scrub(&plain));

        assert!(
            trace.total_ns > 0,
            "total is wall time of the run: {trace:?}"
        );
        assert!(trace.plan_ns > 0, "ad-hoc queries pay the plan phase");
        assert!(
            trace.seed_ns + trace.expand_ns + trace.merge_ns <= trace.total_ns,
            "execution phases nest inside the execution total (plan is timed \
             separately, fan-out belongs to the scheduler): {trace:?}"
        );
        assert_eq!(trace.subqueries as usize, plain.stats.subqueries);
        assert_eq!(trace.matches as usize, plain.matches.len());
        assert_eq!(trace.certified, plain.stats.ta_certified);
        if plain.stats.popped > 0 {
            assert!(trace.rounds > 0, "expansion implies rounds: {trace:?}");
            assert_eq!(trace.popped as usize, plain.stats.popped);
            expanded_any = true;
        }

        // Prepared replay through the traced API: plan phase is prepaid,
        // so the trace reports it as zero.
        let prepared = service.prepare(q).expect("prepare");
        let (replayed, replay_trace) = service.execute_traced(&prepared).expect("traced replay");
        assert_eq!(replayed.matches, plain.matches);
        assert_eq!(replay_trace.plan_ns, 0, "prepared replay pays no plan cost");
    }
    assert!(expanded_any, "workload must exercise expansion");
    assert!(
        service.traces().is_empty(),
        "explicit traced calls return the trace to the caller, not the sink"
    );
}

/// Tracing off must stay free: an untraced prepared execution may never
/// cost more than twice a fully traced one. The rounds interleave the two
/// sides and compare medians, so host noise hits both alike; a breach
/// means the untraced path started doing tracing work.
#[test]
fn untraced_executions_cost_at_most_twice_traced_ones() {
    let (ds, space) = setup();
    let service = idle_service(&ds, &space, config(0));
    let prepared: Vec<_> = workload(&ds)
        .iter()
        .map(|q| service.prepare(q).expect("prepare"))
        .collect();
    let (mut off, mut on): (Vec<Duration>, Vec<Duration>) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let t = Instant::now();
        for p in &prepared {
            service.execute(p).expect("untraced answers");
        }
        off.push(t.elapsed());
        let t = Instant::now();
        for p in &prepared {
            service.execute_traced(p).expect("traced answers");
        }
        on.push(t.elapsed());
    }
    off.sort();
    on.sort();
    let (off, on) = (off[off.len() / 2], on[on.len() / 2]);
    assert!(
        off <= on * 2,
        "untraced workload pass {off:?} costs more than twice a traced one {on:?}"
    );
}
