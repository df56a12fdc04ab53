//! TBQ integration: Theorem 4's convergence and deadline behaviour.

use semkg::datagen::metrics::jaccard;
use semkg::datagen::workload::produced_workload;
use semkg::prelude::*;
use std::time::Duration;

fn setup() -> (BenchDataset, PredicateSpace) {
    let ds = DatasetSpec::dbpedia_like(2.0).build();
    let space = ds.oracle_space();
    (ds, space)
}

#[test]
fn generous_bound_converges_to_exact_answer() {
    let (ds, space) = setup();
    let q = &produced_workload(&ds)[0];
    let engine = SgqEngine::new(
        &ds.graph,
        &space,
        &ds.library,
        SgqConfig {
            k: 50,
            ..SgqConfig::default()
        },
    );
    let exact = engine.query(&q.graph).unwrap().answer_nodes();
    let tb = TimeBoundConfig::with_bound(Duration::from_secs(10));
    let approx = engine.query_time_bounded(&q.graph, &tb).unwrap();
    assert_eq!(
        jaccard(&approx.answer_nodes(), &exact),
        1.0,
        "M̂ = M with enough time (Theorem 4)"
    );
}

#[test]
fn approximation_quality_is_monotone_in_the_bound_on_average() {
    // Lemma 6/Theorem 4 hold per-run for nested explorations; across
    // wall-clock bounds the trend must show on average.
    let (ds, space) = setup();
    let workload = produced_workload(&ds);
    let engine = SgqEngine::new(
        &ds.graph,
        &space,
        &ds.library,
        SgqConfig {
            k: 50,
            tau: 0.3,
            ..SgqConfig::default()
        },
    );
    let mut mean_jaccard = Vec::new();
    for bound_us in [300u64, 100_000] {
        let tb = TimeBoundConfig::with_bound(Duration::from_micros(bound_us));
        let mut scores = Vec::new();
        for q in workload.iter().take(4) {
            let exact = engine.query(&q.graph).unwrap().answer_nodes();
            let approx = engine.query_time_bounded(&q.graph, &tb).unwrap();
            scores.push(jaccard(&approx.answer_nodes(), &exact));
        }
        mean_jaccard.push(scores.iter().sum::<f64>() / scores.len() as f64);
    }
    assert!(
        mean_jaccard[1] >= mean_jaccard[0],
        "more time must not hurt approximation quality: {mean_jaccard:?}"
    );
    assert!(
        mean_jaccard[1] > 0.99,
        "a generous bound reaches the exact answer: {mean_jaccard:?}"
    );
}

#[test]
fn tiny_bound_returns_quickly_and_is_well_formed() {
    let (ds, space) = setup();
    let q = &produced_workload(&ds)[0];
    let engine = SgqEngine::new(
        &ds.graph,
        &space,
        &ds.library,
        SgqConfig {
            k: 50,
            tau: 0.1,
            ..SgqConfig::default()
        },
    );
    let tb = TimeBoundConfig::with_bound(Duration::from_micros(300));
    let t0 = std::time::Instant::now();
    let result = engine.query_time_bounded(&q.graph, &tb).unwrap();
    let elapsed = t0.elapsed();
    // Scores are well-formed and sorted.
    for w in result.matches.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    // The run must terminate promptly (controller granularity + assembly
    // overhead allow a small multiple of the bound, not unbounded search).
    assert!(
        elapsed < Duration::from_secs(2),
        "TBQ must respect tight bounds, took {elapsed:?}"
    );
}
