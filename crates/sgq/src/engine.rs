//! The query-engine facade and the shared query runtime.
//!
//! [`SgqEngine`] wires the pipeline of the paper's Fig. 5 together:
//! decomposition → per-sub-query A\* semantic search (one search per
//! sub-query graph, §V-B Remarks) → TA assembly; plus the TBQ time-bounded
//! variant (§VI). The engine borrows the knowledge graph, the offline-
//! trained predicate space and the transformation library — all immutable —
//! so engines are safe to share across client threads (`&self` queries).
//!
//! Two engine-lifetime resources make it a *runtime* rather than a per-call
//! pipeline:
//!
//! * a [`SimilarityIndex`] caching every query predicate's Eq. 5 similarity
//!   row (and the suffix-max rows behind Lemma 1's `m(u)`) as shared
//!   `Arc<[f64]>` handles — repeated predicates across queries cost a cache
//!   hit instead of an `O(|predicates|)` recomputation;
//! * a [`crate::runtime::WorkerPool`] of persistent workers on which
//!   sub-query searches are resumed — no per-round thread spawning on the
//!   hot path.
//!
//! [`SgqEngine::prepare`] splits the per-query work further: decomposition
//! and plan building happen once, the returned [`PreparedQuery`] executes
//! any number of times ([`SgqEngine::execute`] /
//! [`SgqEngine::execute_time_bounded`]) — SGQ-then-TBQ comparisons and
//! repeated production traffic skip straight to the search.
//!
//! An engine's [`SgqConfig`] is fixed at construction: every plan and every
//! execution reads it, and nothing varies it per query.

use crate::answer::{FinalMatch, QueryResult, QueryStats};
use crate::astar::{AStarSearch, Hit};
use crate::config::{SgqConfig, MAX_MATCHES_PER_SUBQUERY};
use crate::decompose::{decompose, Decomposition};
use crate::error::Result;
use crate::query::QueryGraph;
use crate::runtime::WorkerPool;
use crate::semgraph::{weight_transform, SubQueryPlan};
use crate::ta;
use crate::timebound::{self, TimeBoundConfig};
use crate::trace::QueryTrace;
use embedding::{PredicateSpace, SimilarityIndex, SimilarityIndexStats};
use kgraph::{GraphView, KnowledgeGraph};
use lexicon::{NodeMatcher, TransformationLibrary};
use std::sync::Arc;
use std::time::Instant;

/// A query compiled against an engine: decomposition and per-sub-query
/// plans are built once, execution can repeat. Plans hold `Arc` similarity
/// rows and φ-resolved candidate sets — no borrows of the engine — so a
/// prepared query is cheap to clone.
///
/// Executing a prepared query on the engine that built it yields exactly
/// the result of [`SgqEngine::query`].
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    query: QueryGraph,
    decomposition: Decomposition,
    plans: Vec<SubQueryPlan>,
    /// Id of the engine the plans were resolved against: plans carry
    /// graph-specific node ids and row lengths, so executing them against
    /// another graph would be silently wrong (or panic). A process-unique
    /// counter value — not a pointer, which allocator reuse could make
    /// collide. Checked by [`SgqEngine::execute`].
    engine_id: u64,
}

impl PreparedQuery {
    /// The source query graph.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The chosen decomposition.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomposition
    }

    /// Number of sub-query plans.
    pub fn subqueries(&self) -> usize {
        self.plans.len()
    }
}

/// The semantic-guided query engine (SGQ), with the time-bounded variant
/// (TBQ) as [`SgqEngine::query_time_bounded`].
///
/// Generic over the graph *handle* `G`: the static path instantiates it
/// with `&KnowledgeGraph` (the default — a copied borrow, zero overhead),
/// the live path with an owned [`kgraph::GraphSnapshot`] so the engine pins
/// one epoch of a [`kgraph::VersionedGraph`] for its whole lifetime.
pub struct SgqEngine<'a, G: GraphView + Clone = &'a KnowledgeGraph> {
    graph: G,
    space: &'a PredicateSpace,
    matcher: NodeMatcher<'a, G>,
    config: SgqConfig,
    avg_degree: f64,
    /// Engine-lifetime similarity-row cache shared by every query — and,
    /// when injected via [`SgqEngine::with_shared_index`], across engine
    /// *epochs* of a live service.
    sim_index: Arc<SimilarityIndex<'a>>,
    /// Worker pool running the sub-query searches. Engine-lifetime on the
    /// static path; shared across epoch engines by the live service (via
    /// [`SgqEngine::with_runtime`]) so adopting an epoch never re-spawns
    /// threads.
    pool: Arc<WorkerPool>,
    /// Process-unique id stamped into every [`PreparedQuery`] this engine
    /// builds (see [`SgqEngine::execute`]).
    engine_id: u64,
}

impl<'a, G: GraphView + Clone> SgqEngine<'a, G> {
    /// Builds an engine over an embedded knowledge graph. Spawns the
    /// engine-lifetime worker pool ([`SgqConfig::workers`]; `0` = one per
    /// available core, capped at 16). An invalid configuration does not
    /// fail construction — every query will return the validation error —
    /// but it does get only a minimal placeholder pool, so a corrupt
    /// config cannot tie up threads it will never use.
    pub fn new(
        graph: G,
        space: &'a PredicateSpace,
        library: &'a TransformationLibrary,
        config: SgqConfig,
    ) -> Self {
        let index = Arc::new(SimilarityIndex::with_transform(space, weight_transform));
        Self::with_shared_index(graph, space, library, config, index)
    }

    /// Like [`SgqEngine::new`], but reusing an existing similarity-row
    /// index (it must carry `weight_transform`). The index is grown (and
    /// its stale rows invalidated) here when the graph's vocabulary
    /// outgrew it.
    pub fn with_shared_index(
        graph: G,
        space: &'a PredicateSpace,
        library: &'a TransformationLibrary,
        config: SgqConfig,
        sim_index: Arc<SimilarityIndex<'a>>,
    ) -> Self {
        let pool = Self::default_pool(&config);
        Self::with_runtime(graph, space, library, config, sim_index, pool)
    }

    /// The pool an engine gets for `config`: the default `workers == 0`
    /// resolves to the **process-wide shared pool**
    /// ([`WorkerPool::shared`]) — N engines (live epochs × services ×
    /// whatever else the process runs) share one core-sized thread set
    /// instead of each spawning their own and oversubscribing the machine
    /// N×. An explicit count gets a dedicated pool; an invalid
    /// configuration (every query will return its validation error) gets a
    /// minimal placeholder so it cannot tie up threads it never uses.
    pub(crate) fn default_pool(config: &SgqConfig) -> Arc<WorkerPool> {
        if config.validate().is_err() {
            Arc::new(WorkerPool::new(1))
        } else if config.workers == 0 {
            WorkerPool::shared()
        } else {
            Arc::new(WorkerPool::new(config.workers))
        }
    }

    /// Full runtime injection: similarity index *and* worker pool come from
    /// the caller. The live service hands every epoch's engine the same
    /// index and pool, so adopting a new epoch costs the φ-index rebuild
    /// only — predicate rows survive commits and no threads are spawned.
    pub fn with_runtime(
        graph: G,
        space: &'a PredicateSpace,
        library: &'a TransformationLibrary,
        config: SgqConfig,
        sim_index: Arc<SimilarityIndex<'a>>,
        pool: Arc<WorkerPool>,
    ) -> Self {
        static NEXT_ENGINE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        sim_index.ensure_vocab(graph.predicate_count());
        // Σ degree(u) = 2·|E| exactly (every edge contributes one out- and
        // one in-endpoint), so the cost model's average degree needs no
        // O(n + m) scan — engine construction (and live epoch adoption)
        // costs the φ name index alone: one pass over the names and one
        // sort of a flat array.
        let n = graph.node_count();
        let avg_degree = if n == 0 {
            0.0
        } else {
            (2 * graph.edge_count()) as f64 / n as f64
        };
        // The φ name index is that remaining cost.
        let matcher = NodeMatcher::new(graph.clone(), library);
        Self {
            graph,
            space,
            matcher,
            config,
            avg_degree,
            sim_index,
            pool,
            engine_id: NEXT_ENGINE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SgqConfig {
        &self.config
    }

    /// The underlying graph handle (a `&KnowledgeGraph` on the static path,
    /// an epoch-pinned `GraphSnapshot` on the live path).
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The predicate semantic space the engine queries against.
    pub fn space(&self) -> &'a PredicateSpace {
        self.space
    }

    /// Number of persistent worker threads in the engine's pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The engine's persistent worker pool — the batch scheduler dispatches
    /// whole batches onto it as jobs, so scheduled and direct traffic share
    /// one thread budget.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Cumulative similarity-row cache counters — observably non-zero hit
    /// counts demonstrate cross-query row sharing.
    pub fn similarity_stats(&self) -> SimilarityIndexStats {
        self.sim_index.stats()
    }

    /// Decomposes a query with the engine's pivot strategy and cost model
    /// (exposed for the pivot-selection experiments, paper Tables V–VI).
    pub fn decompose_query(&self, query: &QueryGraph) -> Result<Decomposition> {
        decompose(query, self.config.pivot, self.avg_degree, self.config.n_hat)
    }

    /// Rejects prepared queries built by a different engine.
    fn check_prepared(&self, prepared: &PreparedQuery) -> Result<()> {
        if prepared.engine_id != self.engine_id {
            return Err(crate::error::SgqError::ForeignPreparedQuery);
        }
        Ok(())
    }

    /// Validates, decomposes and resolves `query` into per-sub-query plans
    /// — the shared front half of [`SgqEngine::prepare`] and the ad-hoc
    /// query paths (which skip the `QueryGraph` clone a `PreparedQuery`
    /// keeps).
    fn plan(&self, query: &QueryGraph) -> Result<(Decomposition, Vec<SubQueryPlan>)> {
        let config = &self.config;
        config.validate()?;
        let decomposition = decompose(query, config.pivot, self.avg_degree, config.n_hat)?;
        let plans = decomposition
            .subqueries
            .iter()
            .map(|sq| {
                let mut p = SubQueryPlan::build_with_index(
                    &self.graph,
                    &self.sim_index,
                    &self.matcher,
                    query,
                    sq,
                    config.n_hat,
                    config.tau,
                );
                p.scan = config.scan;
                p
            })
            .collect();
        Ok((decomposition, plans))
    }

    /// Compiles `query` into a reusable [`PreparedQuery`]: validation,
    /// decomposition and plan building happen here, once.
    pub fn prepare(&self, query: &QueryGraph) -> Result<PreparedQuery> {
        let (decomposition, plans) = self.plan(query)?;
        Ok(PreparedQuery {
            query: query.clone(),
            decomposition,
            plans,
            engine_id: self.engine_id,
        })
    }

    /// SGQ: exact top-k query (paper Problem 1, §V). Behaves like
    /// [`SgqEngine::prepare`] followed by [`SgqEngine::execute`], minus the
    /// `QueryGraph` clone a kept `PreparedQuery` would need.
    pub fn query(&self, query: &QueryGraph) -> Result<QueryResult> {
        let (_, plans) = self.plan(query)?;
        self.run_exact(&plans, None)
    }

    /// Like [`SgqEngine::query`], but additionally returns a
    /// [`QueryTrace`] with per-phase wall times (plan / seed / expand /
    /// merge) and work counters. The answer is bit-identical to the
    /// untraced path — tracing only reads clocks between phases.
    pub fn query_with_trace(&self, query: &QueryGraph) -> Result<(QueryResult, QueryTrace)> {
        let mut trace = QueryTrace::default();
        let plan_t = Instant::now(); // lint-ok(determinism): phase telemetry only — never feeds search decisions; trace_differential proves bit-identity
        let (_, plans) = self.plan(query)?;
        trace.plan_ns = plan_t.elapsed().as_nanos() as u64;
        let result = self.run_exact(&plans, Some(&mut trace))?;
        Ok((result, trace))
    }

    /// Executes a prepared query: sub-query searches run as jobs on the
    /// engine's persistent worker pool and are resumed in doubling batches
    /// until the TA assembly certifies the global top-k (`L_k ≥ U_max`) or
    /// every search is exhausted. The prepared query must come from this
    /// engine ([`crate::error::SgqError::ForeignPreparedQuery`] otherwise).
    pub fn execute(&self, prepared: &PreparedQuery) -> Result<QueryResult> {
        self.check_prepared(prepared)?;
        self.run_exact(&prepared.plans, None)
    }

    /// Like [`SgqEngine::execute`], but additionally returns a
    /// [`QueryTrace`]. Planning happened at preparation time, so
    /// `plan_ns` is 0 on this path.
    pub fn execute_with_trace(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<(QueryResult, QueryTrace)> {
        self.check_prepared(prepared)?;
        let mut trace = QueryTrace::default();
        let result = self.run_exact(&prepared.plans, Some(&mut trace))?;
        Ok((result, trace))
    }

    /// The configuration has been validated upstream, by
    /// [`SgqEngine::plan`] on the ad-hoc paths and by [`SgqEngine::prepare`]
    /// for prepared queries.
    ///
    /// `trace` is `None` on the hot path: the only cost of the tracing
    /// machinery is then one branch per phase — no clock reads, no
    /// allocation — and traced runs produce bit-identical answers
    /// (`tests/trace_differential.rs`).
    ///
    /// The searches stream compact [`Hit`]s into TA; once TA has ranked
    /// them, only the winners' paths are rebuilt, from the searches that
    /// found them (`tests/search_differential.rs` holds this equal to
    /// streaming full matches).
    fn run_exact(
        &self,
        plans: &[SubQueryPlan],
        mut trace: Option<&mut QueryTrace>,
    ) -> Result<QueryResult> {
        let start = Instant::now(); // lint-ok(determinism): phase telemetry only — never feeds search decisions; trace_differential proves bit-identity
        let n = plans.len();

        let seed_t = trace.as_ref().map(|_| Instant::now()); // lint-ok(determinism): phase telemetry only — never feeds search decisions; trace_differential proves bit-identity
        let mut searches: Vec<AStarSearch<'_, G>> = plans
            .iter()
            .map(|p| AStarSearch::new(&self.graph, p))
            .collect();
        if let (Some(tr), Some(t0)) = (trace.as_deref_mut(), seed_t) {
            tr.seed_ns = t0.elapsed().as_nanos() as u64;
        }
        let mut streams: Vec<Vec<Hit>> = vec![Vec::new(); n];
        let mut per_subquery_us = vec![0u64; n];
        let mut batch = first_round(self.config.k);

        let outcome = loop {
            let expand_t = trace.as_ref().map(|_| Instant::now()); // lint-ok(determinism): phase telemetry only — never feeds search decisions; trace_differential proves bit-identity
                                                                   // One parallel round: each sub-query search fetches up to
                                                                   // `batch` further matches (§V-B Remark 1: one job per gᵢ),
                                                                   // resumed on the persistent pool — no thread spawning here.
            self.pool.scope(|scope| {
                for ((search, stream), us) in searches
                    .iter_mut()
                    .zip(streams.iter_mut())
                    .zip(per_subquery_us.iter_mut())
                {
                    scope.spawn(move || {
                        let t0 = Instant::now(); // lint-ok(determinism): phase telemetry only — never feeds search decisions; trace_differential proves bit-identity
                        for _ in 0..batch {
                            if stream.len() >= MAX_MATCHES_PER_SUBQUERY {
                                break;
                            }
                            match search.next_hit() {
                                Some(hit) => stream.push(hit),
                                None => break,
                            }
                        }
                        *us += t0.elapsed().as_micros() as u64;
                    });
                }
            });

            let merge_t = if let (Some(tr), Some(t0)) = (trace.as_deref_mut(), expand_t) {
                tr.expand_ns += t0.elapsed().as_nanos() as u64;
                tr.rounds += 1;
                Some(Instant::now()) // lint-ok(determinism): phase telemetry only — never feeds search decisions; trace_differential proves bit-identity
            } else {
                None
            };
            let exhausted: Vec<bool> = searches
                .iter()
                .zip(&streams)
                .map(|(s, st)| s.is_exhausted() || st.len() >= MAX_MATCHES_PER_SUBQUERY)
                .collect();
            let outcome = ta::assemble(&streams, &exhausted, self.config.k);
            if let (Some(tr), Some(t0)) = (trace.as_deref_mut(), merge_t) {
                tr.merge_ns += t0.elapsed().as_nanos() as u64;
            }
            if outcome.certified || exhausted.iter().all(|&e| e) {
                break outcome;
            }
            batch = batch.saturating_mul(2);
        };
        let result = answer(start, &searches, &streams, &outcome, per_subquery_us, false);
        if let Some(tr) = trace {
            let stats = &result.stats;
            tr.total_ns = start.elapsed().as_nanos() as u64;
            tr.popped = stats.popped as u64;
            tr.pushed = stats.pushed as u64;
            tr.edges_examined = stats.edges_examined as u64;
            tr.ta_accesses = stats.ta_accesses as u64;
            tr.matches = result.matches.len() as u64;
            tr.subqueries = n as u64;
            tr.certified = stats.ta_certified;
        }
        Ok(result)
    }

    /// TBQ: approximate top-k within a response-time bound (paper Problem 2,
    /// §VI). More time ⇒ better answers; a generous bound converges to
    /// [`SgqEngine::query`]'s result (Theorem 4). Behaves like
    /// [`SgqEngine::prepare`] + [`SgqEngine::execute_time_bounded`], minus
    /// the `QueryGraph` clone.
    pub fn query_time_bounded(
        &self,
        query: &QueryGraph,
        tb: &TimeBoundConfig,
    ) -> Result<QueryResult> {
        let (_, plans) = self.plan(query)?;
        self.run_time_bounded(&plans, tb)
    }

    /// Executes a prepared query in anytime mode under the time bound, with
    /// sub-query searches running as pooled jobs. The prepared query must
    /// come from this engine.
    pub fn execute_time_bounded(
        &self,
        prepared: &PreparedQuery,
        tb: &TimeBoundConfig,
    ) -> Result<QueryResult> {
        self.check_prepared(prepared)?;
        self.run_time_bounded(&prepared.plans, tb)
    }

    /// The configuration has been validated upstream (see
    /// [`SgqEngine::run_exact`]).
    ///
    /// The anytime searches stream the same compact [`Hit`]s, and the
    /// answer is built by the same tail as [`SgqEngine::run_exact`]'s
    /// (`tests/search_differential.rs` holds it equal to streaming full
    /// matches).
    fn run_time_bounded(
        &self,
        plans: &[SubQueryPlan],
        tb: &TimeBoundConfig,
    ) -> Result<QueryResult> {
        let start = Instant::now(); // lint-ok(determinism): phase telemetry only — never feeds search decisions; trace_differential proves bit-identity
        let anytime = timebound::run_anytime(&self.graph, plans, tb, &self.pool);
        let outcome = ta::assemble(&anytime.streams, &anytime.exhausted, self.config.k);
        Ok(answer(
            start,
            &anytime.searches,
            &anytime.streams,
            &outcome,
            anytime.per_subquery_us,
            anytime.bound_hit,
        ))
    }
}

/// The answer tail SGQ and TBQ share: rebuilds TA's winners from the
/// searches whose `streams` they were ranked from, and sums the searches'
/// counters into the result's stats.
fn answer<G: GraphView>(
    start: Instant,
    searches: &[AStarSearch<'_, G>],
    streams: &[Vec<Hit>],
    outcome: &ta::TaOutcome,
    per_subquery_us: Vec<u64>,
    time_bound_hit: bool,
) -> QueryResult {
    let matches: Vec<FinalMatch> = outcome
        .winners
        .iter()
        .map(|w| w.build(|i, idx| searches[i].reconstruct(streams[i][idx])))
        .collect();
    let mut stats = QueryStats {
        elapsed_us: start.elapsed().as_micros() as u64,
        ta_accesses: outcome.accesses,
        ta_certified: outcome.certified,
        subqueries: searches.len(),
        per_subquery_us,
        time_bound_hit,
        ..QueryStats::default()
    };
    for s in searches {
        stats.popped += s.stats.popped;
        stats.pushed += s.stats.pushed;
        stats.tau_pruned += s.stats.tau_pruned;
        stats.edges_examined += s.stats.edges_examined;
    }
    QueryResult { matches, stats }
}

/// Matches fetched per sub-query in the first round before the TA assembly
/// is (re)tried; the engine doubles this until TA certifies top-k or all
/// searches are exhausted (§V-B Remark 2: "we usually need more than k
/// matches collected for each gᵢ").
fn first_round(k: usize) -> usize {
    (k * 2).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotStrategy;
    use crate::query::QueryGraph;
    use embedding::PredicateSpace;
    use kgraph::GraphBuilder;
    use std::time::Duration;

    /// Fig. 2's knowledge graph, complete.
    fn fig2_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let audi = b.add_node("Audi_TT", "Automobile");
        let lamando = b.add_node("Lamando", "Automobile");
        let kia = b.add_node("KIA_K5", "Automobile");
        let engine = b.add_node("EA211_l4_TSI", "Device");
        let vw = b.add_node("Volkswagen", "Company");
        let peter = b.add_node("Peter_Schreyer", "Person");
        let de = b.add_node("Germany", "Country");
        b.add_edge(audi, de, "assembly");
        b.add_edge(lamando, engine, "engine");
        b.add_edge(engine, vw, "designCompany");
        b.add_edge(vw, de, "location");
        b.add_edge(peter, kia, "designer");
        b.add_edge(peter, de, "nationality");
        b.add_edge(vw, audi, "product");
        b.finish()
    }

    /// Predicate space mirroring Fig. 2's similarities to `product`:
    /// assembly 0.98, designer 0.85, nationality 0.81, …
    fn fig2_space(g: &KnowledgeGraph) -> PredicateSpace {
        let sim_to_product = |label: &str| -> f32 {
            match label {
                "product" => 1.0,
                "assembly" => 0.98,
                "designer" => 0.85,
                "nationality" => 0.81,
                "engine" => 0.91,
                "designCompany" => 0.84,
                "location" => 0.81,
                _ => 0.1,
            }
        };
        let (vecs, labels): (Vec<Vec<f32>>, Vec<String>) = g
            .predicates()
            .map(|(_, l)| {
                let s = sim_to_product(l);
                (vec![s, (1.0 - s * s).max(0.0).sqrt()], l.to_string())
            })
            .unzip();
        PredicateSpace::from_raw(vecs, labels)
    }

    fn product_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        let auto = q.add_target("Automobile");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(auto, "product", de);
        q
    }

    fn engine_with<'a>(
        g: &'a KnowledgeGraph,
        s: &'a PredicateSpace,
        lib: &'a TransformationLibrary,
        k: usize,
        tau: f64,
    ) -> SgqEngine<'a> {
        SgqEngine::new(
            g,
            s,
            lib,
            SgqConfig {
                k,
                tau,
                n_hat: 4,
                ..SgqConfig::default()
            },
        )
    }

    /// The running example: Audi_TT via <assembly> (pss 0.98) must beat
    /// Lamando via <engine, designCompany, location> (pss ≈ 0.853) and
    /// KIA_K5 via <designer, nationality> (pss ≈ 0.829).
    #[test]
    fn figure2_ranking() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 3, 0.5);
        let r = engine.query(&product_query()).unwrap();
        let names: Vec<&str> = r.answer_nodes().iter().map(|&n| g.node_name(n)).collect();
        assert_eq!(names, vec!["Audi_TT", "Lamando", "KIA_K5"]);
        assert!((r.matches[0].score - 0.98).abs() < 1e-6);
        // Lamando: (0.91 · 0.84 · 0.81)^(1/3)
        let expected = (0.91f64 * 0.84 * 0.81).powf(1.0 / 3.0);
        assert!((r.matches[1].score - expected).abs() < 1e-4);
        assert!(r.stats.ta_certified);
        assert_eq!(r.stats.subqueries, 1);
    }

    #[test]
    fn top_k_truncates() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 1, 0.5);
        let r = engine.query(&product_query()).unwrap();
        assert_eq!(r.matches.len(), 1);
        assert_eq!(g.node_name(r.matches[0].pivot), "Audi_TT");
    }

    #[test]
    fn tau_filters_answers() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 10, 0.9);
        let r = engine.query(&product_query()).unwrap();
        // Only Audi_TT (0.98) survives τ = 0.9.
        assert_eq!(r.matches.len(), 1);
    }

    /// Fig. 3(a)-style multi-sub-query join: two sub-queries must agree on
    /// the pivot automobile.
    #[test]
    fn multi_subquery_join_at_pivot() {
        let mut b = GraphBuilder::new();
        let lamando = b.add_node("Lamando", "Automobile");
        let other = b.add_node("OtherCar", "Automobile");
        let cn = b.add_node("China", "Country");
        let de = b.add_node("Germany", "Country");
        let eng = b.add_node("EA211", "Device");
        b.add_edge(lamando, cn, "assembly");
        b.add_edge(lamando, eng, "engine");
        b.add_edge(eng, de, "manufacturer");
        b.add_edge(other, cn, "assembly"); // matches g1 but not g2
        let g = b.finish();
        let (vecs, labels): (Vec<Vec<f32>>, Vec<String>) = g
            .predicates()
            .map(|(_, l)| (vec![1.0, 0.0], l.to_string()))
            .unzip();
        // Identity space: every predicate similar to every other — rely on
        // exact labels. Give each its own direction instead:
        let n = vecs.len();
        let vecs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let mut v = vec![0.0; n];
                v[i] = 1.0;
                v
            })
            .collect();
        let space = PredicateSpace::from_raw(vecs, labels);
        let lib = TransformationLibrary::new();
        let mut q = QueryGraph::new();
        let auto = q.add_target("Automobile");
        let cn_q = q.add_specific("China", "Country");
        let dev = q.add_target("Device");
        let de_q = q.add_specific("Germany", "Country");
        q.add_edge(auto, "assembly", cn_q);
        q.add_edge(auto, "engine", dev);
        q.add_edge(dev, "manufacturer", de_q);
        let engine = SgqEngine::new(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.5,
                n_hat: 2,
                pivot: PivotStrategy::Forced { node: auto.0 },
                ..SgqConfig::default()
            },
        );
        let r = engine.query(&q).unwrap();
        assert_eq!(r.stats.subqueries, 2);
        assert_eq!(r.matches.len(), 1, "only Lamando joins both sub-queries");
        assert_eq!(g.node_name(r.matches[0].pivot), "Lamando");
        assert!((r.matches[0].score - 2.0).abs() < 1e-6); // two exact parts
        assert_eq!(r.matches[0].parts.len(), 2);
    }

    #[test]
    fn tbq_converges_to_sgq_with_generous_bound() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 3, 0.5);
        let exact = engine.query(&product_query()).unwrap();
        let tb = TimeBoundConfig::with_bound(Duration::from_secs(5));
        let approx = engine.query_time_bounded(&product_query(), &tb).unwrap();
        assert_eq!(approx.answer_nodes(), exact.answer_nodes());
        assert!(!approx.stats.time_bound_hit, "tiny graph finishes early");
    }

    #[test]
    fn tbq_respects_tiny_bound() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 3, 0.5);
        let tb = TimeBoundConfig::with_bound(Duration::from_nanos(1));
        let r = engine.query_time_bounded(&product_query(), &tb).unwrap();
        // With a 1 ns bound the controller fires immediately; whatever was
        // discovered (possibly nothing) is returned without panicking.
        assert!(r.matches.len() <= 3);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 0, 0.5);
        assert!(engine.query(&product_query()).is_err());
    }

    /// A `k` beyond the per-sub-query match cap is refused by validation.
    /// Unchecked, the assembly sized a heap by it, and a failed allocation
    /// aborts the process instead of panicking.
    #[test]
    fn oversized_k_is_rejected() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 1 << 40, 0.5);
        assert!(matches!(
            engine.query(&product_query()),
            Err(crate::error::SgqError::InvalidConfig(_))
        ));
    }

    #[test]
    fn first_round_is_twice_k_and_at_least_8() {
        assert_eq!(first_round(10), 20);
        assert_eq!(first_round(1), 8);
        assert_eq!(first_round(4), 8);
    }

    #[test]
    fn invalid_query_is_rejected() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 3, 0.5);
        let mut q = QueryGraph::new();
        q.add_specific("Germany", "Country");
        assert!(engine.query(&q).is_err());
    }

    #[test]
    fn no_matches_when_source_absent() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 3, 0.5);
        let mut q = QueryGraph::new();
        let auto = q.add_target("Automobile");
        let nowhere = q.add_specific("Atlantis", "Country");
        q.add_edge(auto, "product", nowhere);
        let r = engine.query(&q).unwrap();
        assert!(r.matches.is_empty());
    }

    #[test]
    fn bindings_expose_every_query_node_match() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let engine = engine_with(&g, &s, &lib, 3, 0.5);
        let r = engine.query(&product_query()).unwrap();
        for m in &r.matches {
            for part in &m.parts {
                // Source (query node 1, Germany) and pivot (query node 0)
                // are both bound.
                assert_eq!(part.bindings.len(), 2);
                assert_eq!(part.bindings[0].0, 1);
                assert_eq!(g.node_name(part.bindings[0].1), "Germany");
                assert_eq!(part.bindings[1].0, 0);
                assert_eq!(part.bindings[1].1, m.pivot);
            }
        }
        // bindings_for collects the pivot-side bindings in rank order.
        let bound = r.bindings_for(crate::query::QNodeId(0));
        assert_eq!(bound, r.answer_nodes());
    }

    /// Satellite 6 regression: engines on the default worker config share
    /// the process-wide pool instead of each resolving
    /// `available_parallelism` and spawning their own — N engines (live
    /// epochs × services) can no longer stack N× the machine's cores.
    #[test]
    fn default_engines_share_the_process_pool() {
        let g = fig2_graph();
        let s = fig2_space(&g);
        let lib = TransformationLibrary::new();
        let default_cfg = SgqConfig {
            workers: 0,
            ..SgqConfig::default()
        };
        let e1 = SgqEngine::new(&g, &s, &lib, default_cfg.clone());
        let e2 = SgqEngine::new(&g, &s, &lib, default_cfg);
        assert!(
            std::ptr::eq(e1.pool(), e2.pool()),
            "workers == 0 must resolve to the shared pool"
        );
        // Explicit counts still get dedicated pools.
        let dedicated = SgqEngine::new(
            &g,
            &s,
            &lib,
            SgqConfig {
                workers: 2,
                ..SgqConfig::default()
            },
        );
        assert!(!std::ptr::eq(e1.pool(), dedicated.pool()));
        assert_eq!(dedicated.workers(), 2);
    }

    #[test]
    fn synonym_query_node_matches_through_library() {
        // Fig. 1 G¹_Q: type <Car> resolves to Automobile via the library.
        let g = fig2_graph();
        let s = fig2_space(&g);
        let mut lib = TransformationLibrary::new();
        lib.add_synonym_row("Automobile", &["Car"]);
        let engine = engine_with(&g, &s, &lib, 3, 0.5);
        let mut q = QueryGraph::new();
        let car = q.add_target("Car");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(car, "product", de);
        let r = engine.query(&q).unwrap();
        assert_eq!(g.node_name(r.matches[0].pivot), "Audi_TT");
    }
}
