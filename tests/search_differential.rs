//! Differential harness for the search state SGQ and TBQ keep.
//!
//! Three restructurings of the A\* hot path must not move a single bit:
//!
//! * **Paths built only for the winners.** [`SgqEngine::query`] streams
//!   compact hits (pivot, pss, arena state) into TA and rebuilds the full
//!   sub-query matches only for the k answers it keeps. It must equal the
//!   loop that streams a full [`SubMatch`] per hit (`next_match` into
//!   `ta::assemble`), kept here as [`stream_full_matches`]: pivots, score
//!   bits, every part's nodes, edges, bindings and pss bits, and the
//!   deterministic [`sgq::QueryStats`] counters.
//! * **TBQ over compact hits.** [`SgqEngine::query_time_bounded`] streams
//!   the anytime searches' hits into TA and rebuilds only the winners too.
//!   At a bound the tiny graph drains inside, it must equal the anytime
//!   path that built a full match the moment it discovered one, kept here
//!   as [`anytime_full_matches`], in the same answers and counters.
//! * **Recycled search buffers.** A search takes its arena, frontier and
//!   `visited` map from a per-thread stash and returns them cleared on drop.
//!   Queries run back to back on one thread, after a search dropped
//!   mid-drain, must equal each query run alone on a fresh thread, whose
//!   stash is empty.
//!
//! All three run over the seeded tiny dataset's workloads at k = 1, 10 and
//! 40 and τ = 0.8 and 0.3.

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use lexicon::NodeMatcher;
use sgq::astar::AStarSearch;
use sgq::semgraph::SubQueryPlan;
use sgq::{
    ta, FinalMatch, QueryGraph, QueryResult, SgqConfig, SgqEngine, SubMatch, TimeBoundConfig,
};
use std::time::Duration;

/// The engine's per-sub-query match cap; the tiny graph never reaches it.
const MAX_MATCHES_PER_SUBQUERY: usize = 100_000;

fn setup() -> (BenchDataset, PredicateSpace) {
    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    (ds, space)
}

/// The bulk produced stream, the four Q117 variants, and a chain and a
/// soccer query per country.
fn workload(ds: &BenchDataset) -> Vec<QueryGraph> {
    let mut queries: Vec<QueryGraph> = produced_workload(ds).into_iter().map(|q| q.graph).collect();
    queries.extend(
        q117_variants(ds, &ds.countries[0])
            .into_iter()
            .map(|q| q.graph),
    );
    for i in 0..ds.countries.len() {
        queries.push(chain_query(ds, i).graph);
        queries.push(soccer_query(ds, i).0.graph);
    }
    queries
}

fn configs() -> Vec<SgqConfig> {
    let mut out = Vec::new();
    for k in [1usize, 10, 40] {
        for tau in [0.8f64, 0.3] {
            out.push(SgqConfig {
                k,
                tau,
                workers: 2,
                ..SgqConfig::default()
            });
        }
    }
    out
}

/// A result with every float as its bits and no wall-clock field: equal
/// fingerprints are bit-identical answers and search counters.
type Fingerprint = (
    Vec<(u32, u64, Vec<PartPrint>)>,
    (usize, usize, usize, usize, usize, bool, usize),
);
type PartPrint = (u32, u32, u64, Vec<u32>, Vec<u32>, Vec<(u32, u32)>);

fn part_print(p: &SubMatch) -> PartPrint {
    (
        p.source.0,
        p.pivot.0,
        p.pss.to_bits(),
        p.nodes.iter().map(|n| n.0).collect(),
        p.edges.iter().map(|e| e.0).collect(),
        p.bindings.iter().map(|&(q, n)| (q, n.0)).collect(),
    )
}

fn fingerprint(matches: &[FinalMatch], stats: &sgq::QueryStats) -> Fingerprint {
    (
        matches
            .iter()
            .map(|m| {
                (
                    m.pivot.0,
                    m.score.to_bits(),
                    m.parts.iter().map(part_print).collect(),
                )
            })
            .collect(),
        (
            stats.popped,
            stats.pushed,
            stats.tau_pruned,
            stats.edges_examined,
            stats.ta_accesses,
            stats.ta_certified,
            stats.subqueries,
        ),
    )
}

fn print_of(r: &QueryResult) -> Fingerprint {
    fingerprint(&r.matches, &r.stats)
}

/// The engine's plans for `query`, built outside the engine the way
/// [`SgqEngine::prepare`] builds them.
fn plans(
    ds: &BenchDataset,
    space: &PredicateSpace,
    engine: &SgqEngine<'_>,
    query: &QueryGraph,
) -> Vec<SubQueryPlan> {
    let config = engine.config();
    let matcher = NodeMatcher::new(&ds.graph, &ds.library);
    let decomposition = engine.decompose_query(query).expect("decomposes");
    decomposition
        .subqueries
        .iter()
        .map(|sq| {
            let mut plan = SubQueryPlan::build(
                &ds.graph,
                space,
                &matcher,
                query,
                sq,
                config.n_hat,
                config.tau,
            );
            plan.scan = config.scan;
            plan
        })
        .collect()
}

/// The exact engine's loop as it was when every hit was streamed as a full
/// match: rounds of `max(2k, 8)` doubling `next_match` calls per search,
/// `ta::assemble` over the full matches after each, until TA certifies or
/// every search is dry; the winners' parts are cloned out of the streams.
fn stream_full_matches(plans: &[SubQueryPlan], ds: &BenchDataset, k: usize) -> Fingerprint {
    let n = plans.len();
    let mut searches: Vec<AStarSearch<'_>> = plans
        .iter()
        .map(|p| AStarSearch::new(&ds.graph, p))
        .collect();
    let mut streams: Vec<Vec<SubMatch>> = vec![Vec::new(); n];
    let mut batch = (k * 2).max(8);
    let outcome = loop {
        for (search, stream) in searches.iter_mut().zip(streams.iter_mut()) {
            for _ in 0..batch {
                if stream.len() >= MAX_MATCHES_PER_SUBQUERY {
                    break;
                }
                match search.next_match() {
                    Some(m) => stream.push(m),
                    None => break,
                }
            }
        }
        let exhausted: Vec<bool> = searches
            .iter()
            .zip(&streams)
            .map(|(s, st)| s.is_exhausted() || st.len() >= MAX_MATCHES_PER_SUBQUERY)
            .collect();
        let outcome = ta::assemble(&streams, &exhausted, k);
        if outcome.certified || exhausted.iter().all(|&e| e) {
            break outcome;
        }
        batch = batch.saturating_mul(2);
    };
    full_match_print(&searches, &streams, &outcome)
}

/// TBQ as it was when anytime mode built a full match the moment it
/// discovered one: each plan's search drained with `step`, every hit
/// rebuilt right after the step that found it, each stream stable-sorted
/// by pss descending, and `ta::assemble` over the drained streams, all
/// exhausted.
fn anytime_full_matches(plans: &[SubQueryPlan], ds: &BenchDataset, k: usize) -> Fingerprint {
    let mut searches = Vec::new();
    let mut streams: Vec<Vec<SubMatch>> = Vec::new();
    for plan in plans {
        let mut search = AStarSearch::new(&ds.graph, plan);
        let mut hits = Vec::new();
        let mut stream = Vec::new();
        while search.step(&mut hits) {
            stream.extend(hits.drain(..).map(|hit| search.reconstruct(hit)));
        }
        stream.sort_by(|a: &SubMatch, b| b.pss.total_cmp(&a.pss));
        searches.push(search);
        streams.push(stream);
    }
    let outcome = ta::assemble(&streams, &vec![true; plans.len()], k);
    full_match_print(&searches, &streams, &outcome)
}

/// The fingerprint of TA's winners over full-match `streams`, their parts
/// cloned out of the streams, with the searches' summed counters.
fn full_match_print(
    searches: &[AStarSearch<'_>],
    streams: &[Vec<SubMatch>],
    outcome: &ta::TaOutcome,
) -> Fingerprint {
    let mut stats = sgq::QueryStats {
        ta_accesses: outcome.accesses,
        ta_certified: outcome.certified,
        subqueries: searches.len(),
        ..Default::default()
    };
    for s in searches {
        stats.popped += s.stats.popped;
        stats.pushed += s.stats.pushed;
        stats.tau_pruned += s.stats.tau_pruned;
        stats.edges_examined += s.stats.edges_examined;
    }
    let matches: Vec<FinalMatch> = outcome
        .winners
        .iter()
        .map(|w| w.build(|i, idx| streams[i][idx].clone()))
        .collect();
    fingerprint(&matches, &stats)
}

/// Drops a search of the first sub-query after its first match. True when
/// its frontier still held work, so its buffers went back to this thread's
/// stash non-empty.
fn drop_mid_drain(plans: &[SubQueryPlan], ds: &BenchDataset) -> bool {
    let mut search = AStarSearch::new(&ds.graph, &plans[0]);
    let _ = search.next_match();
    !search.is_exhausted()
}

/// Runs `f` on a new thread, whose stash is empty.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("fresh thread"))
}

#[test]
fn winners_only_paths_equal_full_match_streams() {
    let (ds, space) = setup();
    let queries = workload(&ds);
    let mut answered = 0;
    for config in configs() {
        let engine = SgqEngine::new(&ds.graph, &space, &ds.library, config.clone());
        for (idx, q) in queries.iter().enumerate() {
            let got = print_of(&engine.query(q).expect("engine answers"));
            let want = stream_full_matches(&plans(&ds, &space, &engine, q), &ds, config.k);
            assert_eq!(
                got, want,
                "k={} tau={}: query {idx} diverged from the full-match loop",
                config.k, config.tau
            );
            answered += usize::from(!got.0.is_empty());
        }
    }
    assert!(answered > 0, "the workload must produce answers");
}

#[test]
fn time_bounded_hits_equal_full_match_anytime_streams() {
    let (ds, space) = setup();
    let queries = workload(&ds);
    let generous = TimeBoundConfig::with_bound(Duration::from_secs(30));
    let mut answered = 0;
    for config in configs() {
        let engine = SgqEngine::new(&ds.graph, &space, &ds.library, config.clone());
        for (idx, q) in queries.iter().enumerate() {
            let result = engine
                .query_time_bounded(q, &generous)
                .expect("engine answers");
            assert!(
                !result.stats.time_bound_hit,
                "the tiny graph drains inside the bound"
            );
            let got = print_of(&result);
            let want = anytime_full_matches(&plans(&ds, &space, &engine, q), &ds, config.k);
            assert_eq!(
                got, want,
                "k={} tau={}: query {idx} diverged from the full-match anytime path",
                config.k, config.tau
            );
            answered += usize::from(!got.0.is_empty());
        }
    }
    assert!(answered > 0, "the workload must produce answers");
}

#[test]
fn recycled_search_state_equals_a_fresh_thread() {
    let (ds, space) = setup();
    let queries = workload(&ds);
    let generous = TimeBoundConfig::with_bound(Duration::from_secs(30));
    let mut dropped_with_work = 0;
    for config in configs() {
        // Each query alone: the exact query and the TBQ one each on a fresh
        // thread with its own engine, and so its own pool threads — every
        // stash they touch starts empty.
        let engine_for = || SgqEngine::new(&ds.graph, &space, &ds.library, config.clone());
        let fresh: Vec<(Fingerprint, Fingerprint)> = queries
            .iter()
            .map(|q| {
                let exact = on_fresh_thread(|| print_of(&engine_for().query(q).expect("answers")));
                let tbq = on_fresh_thread(|| {
                    let r = engine_for()
                        .query_time_bounded(q, &generous)
                        .expect("answers");
                    assert!(!r.stats.time_bound_hit, "the tiny graph finishes early");
                    print_of(&r)
                });
                (exact, tbq)
            })
            .collect();

        // All queries back to back on this thread and one engine, with a
        // search dropped mid-drain before every other query.
        let engine = engine_for();
        for (idx, q) in queries.iter().enumerate() {
            let plans = plans(&ds, &space, &engine, q);
            if idx % 2 == 0 && !plans[0].is_trivially_empty() {
                dropped_with_work += usize::from(drop_mid_drain(&plans, &ds));
            }
            let exact = print_of(&engine.query(q).expect("answers"));
            let tbq = print_of(&engine.query_time_bounded(q, &generous).expect("answers"));
            assert_eq!(
                (exact, tbq),
                fresh[idx],
                "k={} tau={}: query {idx} on recycled buffers diverged from a fresh thread",
                config.k,
                config.tau
            );
        }
    }
    assert!(
        dropped_with_work > 0,
        "some dropped search must return non-empty buffers"
    );
}
