//! Differential harness for the scan kernels.
//!
//! The kernel contract (see `embedding::kernels` and the README's "Scan
//! kernels" section): [`ScanMode::Kernel`] — the two-pass f32-prefiltered
//! seed, the precomputed-`ln` expansion lookups and the early-exit adjacency
//! max — is a pure restructuring of the same arithmetic, so every answer,
//! every path edge id, every search counter and every prepared replay must
//! equal the [`ScanMode::ScalarReference`] path's, byte for byte. These
//! tests drive that claim over the seeded workloads and across τ settings
//! that exercise both the prefilter (τ > 0) and its fall-through (τ = 0).

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use sgq::{QueryGraph, QueryResult, ScanMode, SgqConfig, SgqEngine};

fn config(scan: ScanMode, tau: f64) -> SgqConfig {
    SgqConfig {
        k: 20,
        tau,
        workers: 4,
        scan,
        ..SgqConfig::default()
    }
}

fn setup() -> (BenchDataset, PredicateSpace) {
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let space = ds.oracle_space();
    (ds, space)
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

/// Kernel vs scalar-reference over the full workload: answers (including
/// path edge ids via `FinalMatch` equality), deterministic stats, and
/// prepared replay, for a pruning τ and for τ = 0 (prefilter disabled,
/// everything admissible).
#[test]
fn kernel_answers_are_bit_identical_to_scalar_reference() {
    let (ds, space) = setup();
    let queries = workload(&ds);

    for tau in [0.3f64, 0.0] {
        let scalar = SgqEngine::new(
            &ds.graph,
            &space,
            &ds.library,
            config(ScanMode::ScalarReference, tau),
        );
        let baseline: Vec<QueryResult> = queries
            .iter()
            .map(|q| scalar.query(q).expect("scalar reference answers"))
            .collect();

        let kernel = SgqEngine::new(
            &ds.graph,
            &space,
            &ds.library,
            config(ScanMode::Kernel, tau),
        );
        for (idx, q) in queries.iter().enumerate() {
            let r = kernel.query(q).expect("kernel path answers");
            assert_eq!(
                r.matches, baseline[idx].matches,
                "tau={tau}: kernel answer diverged on query {idx}"
            );
            assert_eq!(
                scrub(&r),
                scrub(&baseline[idx]),
                "tau={tau}: kernel stats diverged on query {idx}"
            );
            let prepared = kernel.prepare(q).expect("prepare");
            assert_eq!(
                kernel.execute(&prepared).expect("replay").matches,
                baseline[idx].matches,
                "tau={tau}: kernel prepared replay diverged on query {idx}"
            );
        }
    }
}

/// `edges_examined` must itself be deterministic: equal across scan modes
/// (checked above) and across repeat runs of the same engine, and non-zero
/// on queries that actually expand.
#[test]
fn edges_examined_is_deterministic_and_populated() {
    let (ds, space) = setup();
    let queries = workload(&ds);
    let engine = SgqEngine::new(
        &ds.graph,
        &space,
        &ds.library,
        config(ScanMode::Kernel, 0.3),
    );
    let mut expanded_any = false;
    for q in &queries {
        let a = engine.query(q).expect("first run");
        let b = engine.query(q).expect("second run");
        assert_eq!(a.stats.edges_examined, b.stats.edges_examined);
        if a.stats.popped > 0 {
            assert!(a.stats.edges_examined > 0, "popped states imply expansions");
            expanded_any = true;
        }
    }
    assert!(expanded_any, "workload must exercise expansion");
}
