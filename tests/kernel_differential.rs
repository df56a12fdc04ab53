//! Differential harness for the scan kernels.
//!
//! The kernel contract (see `embedding::kernels` and the README's "Scan
//! kernels" section): [`ScanMode::Kernel`] — the two-pass f32-prefiltered
//! seed, the precomputed-`ln` expansion lookups and the early-exit adjacency
//! max — is a pure restructuring of the same arithmetic, so every answer,
//! every path edge id, every search counter and every prepared replay must
//! equal the [`ScanMode::ScalarReference`] path's, byte for byte. These
//! tests drive that claim over the seeded workloads and a vocabulary-scale
//! hub graph, across τ settings that exercise both the prefilter (τ > 0)
//! and its fall-through (τ = 0).

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use kgraph::{GraphBuilder, KnowledgeGraph};
use lexicon::TransformationLibrary;
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

/// Runs `queries` under `config` in both scan modes and asserts the kernel
/// path bit-identical to the scalar reference: answers (including path
/// edge ids via `FinalMatch` equality), deterministic stats and prepared
/// replay. Returns the reference results.
fn assert_kernel_matches_reference(
    graph: &KnowledgeGraph,
    space: &PredicateSpace,
    library: &TransformationLibrary,
    queries: &[QueryGraph],
    config: &SgqConfig,
) -> Vec<QueryResult> {
    let tau = config.tau;
    let engine = |scan| {
        let config = SgqConfig {
            scan,
            ..config.clone()
        };
        SgqEngine::new(graph, space, library, config)
    };
    let scalar = engine(ScanMode::ScalarReference);
    let baseline: Vec<QueryResult> = queries
        .iter()
        .map(|q| scalar.query(q).expect("scalar reference answers"))
        .collect();

    let kernel = engine(ScanMode::Kernel);
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
    baseline
}

/// Kernel vs scalar-reference over the full workload, for a pruning τ and
/// for τ = 0 (prefilter disabled, everything admissible).
#[test]
fn kernel_answers_are_bit_identical_to_scalar_reference() {
    let (ds, space) = setup();
    let queries = workload(&ds);
    for tau in [0.3f64, 0.0] {
        let config = config(ScanMode::Kernel, tau);
        assert_kernel_matches_reference(&ds.graph, &space, &ds.library, &queries, &config);
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

/// Similarity bands 30..95 (percent): a hub source in band `w` carries only
/// band-`w` predicates, so its seed bound is `w/100` as an f32, and τ = 0.8
/// lets bands 80–94 through the seed. Band 80 sits on the f32 prefilter's
/// boundary: its similarity is the smallest f32 ≥ 0.8, which is exactly
/// the prefilter's threshold at `n_hat: 1`.
const HUB_BANDS: usize = 65;
const HUB_SOURCES_PER_BAND: usize = 8;
const HUB_SOURCES: usize = HUB_BANDS * HUB_SOURCES_PER_BAND;
const HUB_DEGREE: usize = 16;
const HUB_PREDS_PER_BAND: usize = 64;

/// `n`'s bits choose the uppercase positions of `base`: distinct raw names
/// that normalise to one φ key.
fn case_variant(base: &str, n: usize) -> String {
    base.chars()
        .enumerate()
        .map(|(i, c)| {
            if i < usize::BITS as usize && n & (1 << i) != 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// Every source is a case variant of one anchor name, so the query's one
/// specific node has `HUB_SOURCES` φ candidates, each with `HUB_DEGREE`
/// distinct predicates of its band (17 is coprime to 64) into 64 goals.
fn hub_graph() -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let goals: Vec<_> = (0..64)
        .map(|i| b.add_node(&format!("Goal_{i}"), "Goal"))
        .collect();
    for i in 0..HUB_SOURCES {
        let s = b.add_node(&case_variant("hubsourcecandidate", i), "Anchor");
        let w = 30 + (i % HUB_BANDS);
        for d in 0..HUB_DEGREE {
            let j = (i * 31 + d * 17) % HUB_PREDS_PER_BAND;
            b.add_edge(
                s,
                goals[(i * HUB_DEGREE + d) % goals.len()],
                &format!("w{w}_{j}"),
            );
        }
    }
    let qa = b.add_node("DummyQA", "Dummy");
    let qb = b.add_node("DummyQB", "Dummy");
    b.add_edge(qa, qb, "q");
    b.finish()
}

/// Predicate `q` is the unit vector; `w{band}_{j}` sits at cosine
/// `band/100` from it.
fn hub_space(graph: &KnowledgeGraph) -> PredicateSpace {
    let (vectors, labels): (Vec<Vec<f32>>, Vec<String>) = graph
        .predicates()
        .map(|(_, label)| {
            let sim: f32 = if label == "q" {
                1.0
            } else {
                label
                    .strip_prefix('w')
                    .and_then(|s| s.split('_').next())
                    .and_then(|s| s.parse::<f32>().ok())
                    .map_or(0.0, |p| p / 100.0)
            };
            (vec![sim, (1.0 - sim * sim).max(0.0).sqrt()], label.into())
        })
        .unzip();
    PredicateSpace::from_raw(vectors, labels)
}

/// The hub graph as one more differential input, at τ = 0.8, where the
/// seed prunes bands 30–79, and on the τ = 0 drain with an unreachable k,
/// where every source pops and every edge is weighted.
#[test]
fn hub_graph_kernel_answers_are_bit_identical_to_scalar_reference() {
    let graph = hub_graph();
    let space = hub_space(&graph);
    let library = TransformationLibrary::new();
    let mut q = QueryGraph::new();
    let goal = q.add_target("Goal");
    let anchor = q.add_specific("hubsourcecandidate", "Anchor");
    q.add_edge(goal, "q", anchor);

    for (tau, k) in [(0.8f64, 10usize), (0.0, 100_000)] {
        let config = SgqConfig {
            k,
            tau,
            n_hat: 1,
            workers: 4,
            ..SgqConfig::default()
        };
        let reference = assert_kernel_matches_reference(
            &graph,
            &space,
            &library,
            std::slice::from_ref(&q),
            &config,
        )
        .remove(0);
        assert!(!reference.matches.is_empty(), "tau={tau}: the hub answers");
        if tau > 0.0 {
            assert!(
                reference.stats.tau_pruned > 0,
                "tau={tau}: the seed must prune the low bands"
            );
        } else {
            assert!(
                reference.stats.edges_examined >= HUB_SOURCES * HUB_DEGREE,
                "the drain must examine the hub fan-out: {} edges",
                reference.stats.edges_examined
            );
        }
    }
}
