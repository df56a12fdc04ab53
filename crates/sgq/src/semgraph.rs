//! The partially-materialised semantic graph (paper Definition 5, §IV-B).
//!
//! The paper deliberately avoids building the complete weighted semantic
//! graph `SG_Q` up front ("high traversal cost", "redundant operations");
//! instead the weights are produced *during* search. [`SubQueryPlan`]
//! precomputes exactly the cheap, query-sized artefacts that make the
//! on-the-fly weighting O(1) per traversed edge:
//!
//! * per query edge (segment), the full similarity row of its predicate
//!   against every knowledge-graph predicate (Eq. 5) — one array load per
//!   KG edge during search;
//! * per segment, the element-wise max over the *remaining* segments' rows,
//!   which yields `m(u)` (Lemma 1's unexplored-weight bound) with one pass
//!   over a node's adjacency;
//! * φ-resolved candidate sets for the source node and constraint tests for
//!   every later query node on the sub-query path.

use crate::config::ScanMode;
use crate::decompose::SubQuery;
use crate::pss::{clamp_weight, PssEstimator, MIN_WEIGHT};
use crate::query::QueryGraph;
use embedding::{PredicateSpace, RowKey, SimilarityIndex};
use kgraph::{GraphView, NodeId, PredicateId};
use lexicon::NodeMatcher;
use rustc_hash::FxHashSet;
use std::sync::Arc;

/// Maps a raw cosine similarity into the weight domain — the row transform
/// installed into the engine's [`SimilarityIndex`], so cached rows are
/// already clamped and the search never touches the space again.
pub(crate) fn weight_transform(sim: f32) -> f64 {
    clamp_weight(f64::from(sim))
}

/// A membership test for one query node of the sub-query path.
#[derive(Debug, Clone)]
pub enum NodeConstraint {
    /// Target query node: the KG node's type must be in the mask
    /// (indexed by `TypeId`).
    TypeMask(Vec<bool>),
    /// Specific query node: the KG node must be one of the φ name matches.
    Nodes(FxHashSet<NodeId>),
}

impl NodeConstraint {
    /// Does `node` satisfy the constraint?
    #[inline]
    pub fn admits<G: GraphView>(&self, graph: &G, node: NodeId) -> bool {
        match self {
            NodeConstraint::TypeMask(mask) => mask
                .get(graph.node_type(node).index())
                .copied()
                .unwrap_or(false),
            NodeConstraint::Nodes(set) => set.contains(&node),
        }
    }

    /// True when no knowledge-graph node can ever satisfy the constraint.
    pub fn is_unsatisfiable(&self) -> bool {
        match self {
            NodeConstraint::TypeMask(mask) => !mask.iter().any(|&b| b),
            NodeConstraint::Nodes(set) => set.is_empty(),
        }
    }
}

/// Everything the A\* search needs about one sub-query, resolved against a
/// concrete graph + predicate space + transformation library.
#[derive(Debug, Clone)]
pub struct SubQueryPlan {
    /// `seg_weights[s][p]` = clamped semantic weight of KG predicate `p`
    /// when matching query edge `s` (Eq. 5 through [`clamp_weight`]).
    ///
    /// Rows are shared `Arc` handles out of the engine's
    /// [`SimilarityIndex`]: a repeated query predicate costs one cache
    /// lookup instead of an `O(|predicates|)` recomputation, and cloning a
    /// plan (e.g. for a [`crate::engine::PreparedQuery`]) is refcount bumps.
    pub seg_weights: Vec<Arc<[f64]>>,
    /// `seg_ln[s][p]` = `seg_weights[s][p].ln()`, precomputed once per row
    /// so [`SubQueryPlan::log_weight`] is a table lookup instead of a
    /// per-edge `ln` — bit-identical, since `ln` of the same f64 is
    /// deterministic. Shared handles out of the [`SimilarityIndex`].
    pub seg_ln: Vec<Arc<[f64]>>,
    /// `remaining_max[s][p]` = max over segments `s' ≥ s` of
    /// `seg_weights[s'][p]`; drives `m(u)`. Shared handles like
    /// [`SubQueryPlan::seg_weights`].
    pub remaining_max: Vec<Arc<[f64]>>,
    /// `remaining_ln[s][p]` = `remaining_max[s][p].ln()`, bitwise: ψ̂ reads
    /// `ln m(u)` from here in [`ScanMode::Kernel`]. The rows lie in the
    /// clamped weight domain, so this is also the `ln` of the clamped
    /// `m(u)` that [`ScanMode::ScalarReference`] computes. Shared handles.
    pub remaining_ln: Vec<Arc<[f64]>>,
    /// `remaining_row_max[s]` = max element of `remaining_max[s]` — the
    /// early-exit ceiling for adjacency scans: once the running max hits
    /// it, no remaining element can raise it (max is order-insensitive).
    pub remaining_row_max: Vec<f64>,
    /// φ(v_s): candidate source nodes.
    pub sources: Vec<NodeId>,
    /// `constraints[s]` applies to the KG node that *completes* segment `s`
    /// (the match of query node `nodes[s+1]`); the last entry is the pivot
    /// constraint.
    pub constraints: Vec<NodeConstraint>,
    /// The admissible ψ̂ estimator for this sub-query.
    pub estimator: PssEstimator,
    /// Per-query-edge hop bound n̂.
    pub n_hat: usize,
    /// pss pruning threshold τ.
    pub tau: f64,
    /// Raw `QNodeId`s of the sub-query path, source first, pivot last
    /// (parallel to `constraints` shifted by one) — recorded into each
    /// match's bindings.
    pub query_nodes: Vec<u32>,
    /// Which scan implementation the search runs on. Defaults to
    /// [`ScanMode::Kernel`]; the engine stamps its configured mode onto
    /// every plan it builds. Answers are bit-identical either way.
    pub scan: ScanMode,
}

impl SubQueryPlan {
    /// Resolves `subquery` (a path in `query`) against the graph, computing
    /// similarity rows through a throwaway index. Prefer
    /// [`SubQueryPlan::build_with_index`] when an engine-lifetime
    /// [`SimilarityIndex`] exists — rows are then shared across queries.
    pub fn build<G: GraphView, M: GraphView>(
        graph: &G,
        space: &PredicateSpace,
        matcher: &NodeMatcher<'_, M>,
        query: &QueryGraph,
        subquery: &SubQuery,
        n_hat: usize,
        tau: f64,
    ) -> Self {
        let index = SimilarityIndex::with_transform(space, weight_transform);
        index.ensure_vocab(graph.predicate_count());
        Self::build_with_index(graph, &index, matcher, query, subquery, n_hat, tau)
    }

    /// Resolves `subquery` against the graph, borrowing similarity rows
    /// from `index` (which must carry the `weight_transform` so rows live
    /// in the clamped weight domain).
    pub fn build_with_index<G: GraphView, M: GraphView>(
        graph: &G,
        index: &SimilarityIndex<'_>,
        matcher: &NodeMatcher<'_, M>,
        query: &QueryGraph,
        subquery: &SubQuery,
        n_hat: usize,
        tau: f64,
    ) -> Self {
        let segments = subquery.edges.len();
        let keys: Vec<RowKey> = subquery
            .edges
            .iter()
            .map(|&eid| row_key(graph, matcher, &query.edge(eid).predicate))
            .collect();
        let (seg_bundles, remaining_bundles) = index.plan_bundles(&keys);
        let seg_weights = seg_bundles.iter().map(|b| b.exact.clone()).collect();
        let seg_ln = seg_bundles.into_iter().map(|b| b.ln).collect();
        let remaining_max: Vec<Arc<[f64]>> =
            remaining_bundles.iter().map(|b| b.exact.clone()).collect();
        let remaining_ln: Vec<Arc<[f64]>> =
            remaining_bundles.iter().map(|b| b.ln.clone()).collect();
        let remaining_row_max: Vec<f64> = remaining_bundles.iter().map(|b| b.max).collect();

        let source_node = query.node(subquery.source());
        let sources = match source_node.name() {
            Some(name) => matcher.match_name(name),
            // Source should be specific by construction; fall back to type
            // candidates for robustness.
            None => matcher.match_nodes_by_type(source_node.type_label()),
        };

        let mut constraints = Vec::with_capacity(segments);
        for &qn in &subquery.nodes[1..] {
            let node = query.node(qn);
            constraints.push(match node.name() {
                Some(name) => NodeConstraint::Nodes(matcher.match_name(name).into_iter().collect()),
                None => NodeConstraint::TypeMask(matcher.type_mask(node.type_label())),
            });
        }

        Self {
            seg_weights,
            seg_ln,
            remaining_max,
            remaining_ln,
            remaining_row_max,
            sources,
            constraints,
            estimator: PssEstimator::new(n_hat, segments.max(1)),
            n_hat,
            tau,
            query_nodes: subquery.nodes.iter().map(|n| n.0).collect(),
            scan: ScanMode::default(),
        }
    }

    /// Number of query edges.
    pub fn segments(&self) -> usize {
        self.seg_weights.len()
    }

    /// The semantic weight of KG predicate `p` for segment `s` — the
    /// on-the-fly materialisation of an `SG_Q` edge weight.
    #[inline]
    pub fn weight(&self, seg: usize, p: PredicateId) -> f64 {
        self.seg_weights[seg][p.index()]
    }

    /// `ln(weight(seg, p))` — in [`ScanMode::Kernel`] a lookup into the
    /// precomputed `ln` row, in [`ScanMode::ScalarReference`] the original
    /// per-edge `ln`. Bit-identical: `ln` of the same f64 is deterministic,
    /// and the `ln` row was built from exactly these weights.
    #[inline]
    pub fn log_weight(&self, seg: usize, p: PredicateId) -> f64 {
        match self.scan {
            ScanMode::Kernel => self.seg_ln[seg][p.index()],
            ScanMode::ScalarReference => self.seg_weights[seg][p.index()].ln(),
        }
    }

    /// `ln m(u)` (Lemma 1), the form ψ̂ consumes
    /// ([`PssEstimator::estimate_ln`]): `m(u)` is the maximum weight among
    /// `u`'s incident edges, taken over all *remaining* segments `≥ seg` —
    /// an upper bound on the unexplored weight product of any match
    /// continuing from `u`. The A\* seed and every expansion call it.
    ///
    /// In [`ScanMode::Kernel`] the scan stops as soon as the running max
    /// reaches the row's precomputed global maximum: no later edge can
    /// raise it, and `max` is insensitive to scan order, so the early exit
    /// is exact. It reports the predicate attaining `m(u)`, and the `ln` is
    /// that predicate's entry of [`SubQueryPlan::remaining_ln`] — the same
    /// f64 whichever predicate attains the maximum. The value depends only
    /// on `(u, seg)`, so a Kernel-mode [`crate::astar::AStarSearch`] calls
    /// this at most once per key per search and keeps the result for every
    /// later path reaching the key.
    ///
    /// [`ScanMode::ScalarReference`] scans the whole adjacency and takes
    /// `ln` of the clamped maximum per call.
    pub fn max_adjacent_ln<G: GraphView>(&self, graph: &G, u: NodeId, seg: usize) -> f64 {
        let s = seg.min(self.segments() - 1);
        match self.scan {
            ScanMode::Kernel => match self.argmax_adjacent(graph, u, s) {
                Some(p) => self.remaining_ln[s][p.index()],
                None => self.estimator.ln_min_weight(),
            },
            ScanMode::ScalarReference => {
                let row = &self.remaining_max[s];
                let mut m = MIN_WEIGHT;
                for nb in graph.neighbors(u) {
                    let w = row[nb.predicate.index()];
                    if w > m {
                        m = w;
                    }
                }
                clamp_weight(m).ln()
            }
        }
    }

    /// The Kernel-mode `m(u)` scan of segment row `s`: the predicate of the
    /// first edge whose weight reaches the running maximum, or `None` when
    /// no edge outweighs [`MIN_WEIGHT`]. It stops as soon as the running
    /// max reaches the row's global maximum.
    fn argmax_adjacent<G: GraphView>(&self, graph: &G, u: NodeId, s: usize) -> Option<PredicateId> {
        let row = &self.remaining_max[s];
        let stop = self.remaining_row_max[s];
        let mut m = MIN_WEIGHT;
        let mut best = None;
        for nb in graph.neighbors(u) {
            let w = row[nb.predicate.index()];
            if w > m {
                m = w;
                best = Some(nb.predicate);
                if m >= stop {
                    break;
                }
            }
        }
        best
    }

    /// True when the plan can produce no match at all (no sources, or some
    /// constraint admits no node).
    pub fn is_trivially_empty(&self) -> bool {
        self.sources.is_empty()
            || self
                .constraints
                .iter()
                .any(NodeConstraint::is_unsatisfiable)
            || self.segments() == 0
    }
}

/// Resolves a query predicate label to its similarity-row cache key
/// (Eq. 5 row of the resolved predicate).
///
/// A query predicate absent from the graph's vocabulary is first pushed
/// through the transformation library (synonym/abbreviation → canonical
/// label); if still unresolved, the row degenerates to [`MIN_WEIGHT`] — no
/// semantic guidance is available, and τ-pruning will reject such paths
/// (documented substitution for out-of-vocabulary predicates).
fn row_key<G: GraphView, M: GraphView>(
    graph: &G,
    matcher: &NodeMatcher<'_, M>,
    label: &str,
) -> RowKey {
    let resolve = |l: &str| graph.predicate_id(l);
    let qp = resolve(label).or_else(|| {
        matcher
            .library()
            .canonical_of(label)
            .iter()
            .find_map(|(canonical, _)| resolve(canonical))
    });
    match qp {
        Some(qp) => RowKey::Predicate(qp),
        // Sized by the *graph* vocabulary: the search indexes rows with
        // graph predicate ids, which may outnumber the space's predicates.
        None => RowKey::constant(MIN_WEIGHT, graph.predicate_count()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotStrategy;
    use crate::decompose::decompose;
    use embedding::PredicateSpace;
    use kgraph::{GraphBuilder, KnowledgeGraph};
    use lexicon::TransformationLibrary;

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let audi = b.add_node("Audi_TT", "Automobile");
        let de = b.add_node("Germany", "Country");
        let vw = b.add_node("Volkswagen", "Company");
        b.add_edge(audi, de, "assembly"); // pred 0
        b.add_edge(vw, audi, "product"); // pred 1
        b.add_edge(vw, de, "location"); // pred 2
        b.finish()
    }

    fn space() -> PredicateSpace {
        PredicateSpace::from_raw(
            vec![vec![1.0, 0.05], vec![0.95, 0.1], vec![0.1, 1.0]],
            vec!["assembly".into(), "product".into(), "location".into()],
        )
    }

    fn single_edge_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        let car = q.add_target("Automobile");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(car, "product", de);
        q
    }

    fn plan_for(q: &QueryGraph, lib: &TransformationLibrary) -> SubQueryPlan {
        let g = graph();
        let s = space();
        let matcher = NodeMatcher::new(&g, lib);
        let d = decompose(q, PivotStrategy::MinCost, 4.0, 4).unwrap();
        SubQueryPlan::build(&g, &s, &matcher, q, &d.subqueries[0], 4, 0.5)
    }

    #[test]
    fn weight_row_follows_space() {
        let lib = TransformationLibrary::new();
        let q = single_edge_query();
        let plan = plan_for(&q, &lib);
        let g = graph();
        let product = g.predicate_id("product").unwrap();
        let assembly = g.predicate_id("assembly").unwrap();
        let location = g.predicate_id("location").unwrap();
        assert_eq!(plan.weight(0, product), 1.0); // identical predicate
        assert!(plan.weight(0, assembly) > 0.9); // semantically close
        assert!(plan.weight(0, location) < 0.3); // semantically far
    }

    #[test]
    fn sources_resolved_via_phi() {
        let lib = TransformationLibrary::new();
        let q = single_edge_query();
        let plan = plan_for(&q, &lib);
        let g = graph();
        assert_eq!(plan.sources.len(), 1);
        assert_eq!(g.node_name(plan.sources[0]), "Germany");
    }

    #[test]
    fn pivot_constraint_is_type_mask() {
        let lib = TransformationLibrary::new();
        let q = single_edge_query();
        let plan = plan_for(&q, &lib);
        let g = graph();
        let audi = g.node_by_name("Audi_TT").unwrap();
        let vw = g.node_by_name("Volkswagen").unwrap();
        assert!(plan.constraints[0].admits(&g, audi));
        assert!(!plan.constraints[0].admits(&g, vw));
    }

    #[test]
    fn derived_rows_are_consistent() {
        let lib = TransformationLibrary::new();
        let q = single_edge_query();
        let plan = plan_for(&q, &lib);
        for s in 0..plan.segments() {
            for p in 0..plan.seg_weights[s].len() {
                assert_eq!(
                    plan.seg_ln[s][p].to_bits(),
                    plan.seg_weights[s][p].ln().to_bits(),
                    "ln row must be the bitwise ln of the exact row"
                );
                assert_eq!(
                    plan.remaining_ln[s][p].to_bits(),
                    clamp_weight(plan.remaining_max[s][p]).ln().to_bits(),
                    "suffix ln row must be the bitwise ln of the clamped suffix row"
                );
            }
            let fold = plan.remaining_max[s]
                .iter()
                .fold(f64::NEG_INFINITY, |a, &w| a.max(w));
            assert_eq!(plan.remaining_row_max[s].to_bits(), fold.to_bits());
        }
    }

    #[test]
    fn max_adjacent_ln_bounds_each_edge_identically_across_modes() {
        let lib = TransformationLibrary::new();
        let q = single_edge_query();
        let kernel = plan_for(&q, &lib);
        let mut scalar = kernel.clone();
        scalar.scan = ScanMode::ScalarReference;
        let g = graph();
        for node in g.nodes() {
            for seg in 0..kernel.segments() {
                let ln_m = kernel.max_adjacent_ln(&g, node, seg);
                assert_eq!(
                    ln_m.to_bits(),
                    scalar.max_adjacent_ln(&g, node, seg).to_bits()
                );
                for nb in g.neighbors(node) {
                    assert!(ln_m >= kernel.weight(seg, nb.predicate).ln());
                }
            }
        }
    }

    #[test]
    fn unknown_predicate_degenerates_to_min_weight() {
        let lib = TransformationLibrary::new();
        let mut q = QueryGraph::new();
        let car = q.add_target("Automobile");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(car, "zorblify", de);
        let plan = plan_for(&q, &lib);
        let g = graph();
        for p in 0..g.predicate_count() as u32 {
            assert_eq!(plan.weight(0, PredicateId::new(p)), MIN_WEIGHT);
        }
    }

    #[test]
    fn unknown_predicate_resolves_through_library() {
        let mut lib = TransformationLibrary::new();
        lib.add_synonym_row("product", &["produced"]);
        let mut q = QueryGraph::new();
        let car = q.add_target("Automobile");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(car, "produced", de);
        let plan = plan_for(&q, &lib);
        let g = graph();
        assert_eq!(plan.weight(0, g.predicate_id("product").unwrap()), 1.0);
    }

    #[test]
    fn trivially_empty_detection() {
        let lib = TransformationLibrary::new();
        let mut q = QueryGraph::new();
        let car = q.add_target("Spaceship"); // no such type in graph
        let de = q.add_specific("Germany", "Country");
        q.add_edge(car, "product", de);
        let plan = plan_for(&q, &lib);
        assert!(plan.is_trivially_empty());

        let q2 = single_edge_query();
        assert!(!plan_for(&q2, &lib).is_trivially_empty());
    }

    #[test]
    fn remaining_max_is_suffix_max() {
        // Two-segment sub-query: China -assembly- ?auto -product- pivot.
        let lib = TransformationLibrary::new();
        let g = graph();
        let s = space();
        let matcher = NodeMatcher::new(&g, &lib);
        let mut q = QueryGraph::new();
        let de = q.add_specific("Germany", "Country");
        let auto = q.add_target("Automobile");
        let co = q.add_target("Company");
        q.add_edge(auto, "assembly", de);
        q.add_edge(co, "product", auto);
        let d = decompose(&q, PivotStrategy::Forced { node: co.0 }, 4.0, 4).unwrap();
        let plan = SubQueryPlan::build(&g, &s, &matcher, &q, &d.subqueries[0], 4, 0.5);
        assert_eq!(plan.segments(), 2);
        for p in 0..g.predicate_count() {
            let pid = PredicateId::new(p as u32);
            assert!(
                (plan.remaining_max[0][p] - plan.weight(0, pid).max(plan.weight(1, pid))).abs()
                    < 1e-12
            );
            assert_eq!(plan.remaining_max[1][p], plan.weight(1, pid));
        }
    }
}
