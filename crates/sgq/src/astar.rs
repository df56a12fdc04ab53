//! A\* semantic search (paper Algorithm 1, §V-B).
//!
//! Finds matches of one sub-query graph in non-increasing order of path
//! semantic similarity, expanding the semantic graph on the fly:
//!
//! 1. **Next-hop selection** — pop the partial path with the greatest
//!    estimated pss ψ̂ from a max-heap (Lemma 2 keeps ψ̂ ≥ ψ_opt);
//! 2. **Search-space expansion** — extend it along every incident edge,
//!    weighting each edge from the sub-query plan's similarity rows,
//!    pruning states with ψ̂ < τ (Lemma 3: no false positives) and states
//!    that exceed the per-segment hop budget n̂;
//! 3. **Match check** — a popped state that completed the final segment at
//!    a pivot-constraint node is the next-best match (Theorem 2).
//!
//! Generalisation over the paper's single-edge exposition: a sub-query may
//! consist of several query edges (*segments*). The search state therefore
//! carries `(node, segment, hops-within-segment)`; a segment completes when
//! the traversed edge lands on a node matching the next query node (via φ),
//! and the `visited` set of Algorithm 1 line 6 is keyed by `(node, segment)`
//! so distinct segments may pass through the same node. For single-edge
//! sub-queries this is exactly the paper's algorithm.
//!
//! `visited` is filled when a state is *pushed*, so the first path to land
//! on a key is the one recorded, and which path lands first depends on the
//! intermediate states the τ prune admits. A run at a lower τ can thus
//! record a pivot through a weaker path that a run at a higher τ prunes
//! mid-search, and certify a *lower* pss for the same pivot. Per-pivot pss
//! is a function of τ: an answer computed at one τ cannot be filtered into
//! the answer at a higher one (an answer cache that tried failed its
//! differential on the seeded tiny dataset).
//!
//! The seed (Algorithm 1 line 1) scores each φ(v_s) candidate with the
//! same `m(u)` scan, [`SubQueryPlan::max_adjacent_ln`], as every expansion.
//! Lemma 1's `m(u)` depends only on that `(node, segment)` key (the plan
//! and the graph snapshot are fixed for a search), so [`ScanMode::Kernel`]
//! scans each key's adjacency at most once per search: `visited` maps a key
//! either to *visited* or to `ln m(u)` of a candidate that τ pruned, and a
//! later path reaching the key reuses that bound instead of rescanning the
//! node (a hub next to many expanded nodes is reached once per neighbour).
//! The scan reports the predicate attaining `m(u)`, and ψ̂ takes its `ln`
//! from the plan's precomputed row instead of calling `ln` per candidate.
//! [`ScanMode::ScalarReference`] rescans every time and takes `ln` per
//! call, which is what `tests/kernel_differential.rs` compares against.
//!
//! The search is *resumable*: [`AStarSearch::next_hit`] pops until the
//! next match surfaces, so the TA assembly can pull additional matches on
//! demand (§V-B Remark 2). A [`Hit`] is the match's pivot and pss plus the
//! arena state it completed in; [`AStarSearch::reconstruct`] rebuilds the
//! full [`SubMatch`] from it, so the exact engine builds paths only for
//! the answers TA keeps. [`AStarSearch::next_match`] is the two in one.
//!
//! TBQ drives the same search in Algorithm 2's *anytime* mode instead:
//! [`AStarSearch::step`] makes one next-hop selection and expansion, and a
//! complete match discovered during expansion goes straight into the
//! caller's hit list rather than into the frontier. Those hits arrive in
//! discovery order, not sorted by pss, and are rebuilt the same way, only
//! for TA's winners.
//!
//! A search's arena, frontier and `visited` map come from a small
//! per-thread stash and go back to it, cleared, when the search is
//! dropped, so back-to-back searches on one thread reuse warm capacity
//! instead of regrowing it from empty. The stash keeps at most
//! `STASH_SETS` (4) sets per thread and frees any set with a buffer of
//! more than `STASH_MAX_ENTRIES` (2^14) entries, so it retains at most
//! about 4 MiB per thread (see the constants).

use crate::answer::SubMatch;
use crate::config::ScanMode;
use crate::pss::exact_pss;
use crate::semgraph::SubQueryPlan;
use kgraph::{EdgeId, GraphView, KnowledgeGraph, NodeId};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

/// Search counters (reported through
/// [`crate::answer::QueryStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Frontier pops (the paper's next-hop selections).
    pub popped: usize,
    /// States pushed into the frontier.
    pub pushed: usize,
    /// States rejected by the τ threshold.
    pub tau_pruned: usize,
    /// Edges examined during expansion (one per neighbor iteration in
    /// [`AStarSearch`]'s expand step; seeding scans are not counted).
    /// Deterministic across scan modes — the denominator of semkg-bench's
    /// `astar.expand_ns_per_edge`.
    #[serde(default)]
    pub edges_examined: usize,
}

/// One immutable search state in the arena; parents encode the partial path.
#[derive(Debug, Clone, Copy)]
struct StateRec {
    node: NodeId,
    parent: u32,
    edge: Option<EdgeId>,
    /// Current segment; `== plan.segments()` marks a complete match.
    seg: u16,
    hops_in_seg: u16,
    total_hops: u16,
    log_sum: f64,
}

const NO_PARENT: u32 = u32::MAX;

/// The `visited` value of a visited key. Every other value is the key's
/// `ln m(u)`, and `m(u)` lies in `[MIN_WEIGHT, 1]`, so its `ln` is finite
/// and at most 0: no bound can take this value.
const VISITED: f64 = f64::INFINITY;

/// Max-heap entry ordered by priority, ties broken FIFO by arena index so
/// runs are deterministic.
#[derive(Debug, Clone, Copy)]
struct Frontier {
    priority: f64,
    idx: u32,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Buffer sets one thread keeps between searches: enough for the searches
/// of one query's sub-queries to all start warm.
const STASH_SETS: usize = 4;

/// The largest capacity, in entries, that any buffer of a stashed set may
/// have. A search that grew a buffer past it frees the set on drop, so one
/// pathological query cannot pin its memory in a thread for good. At the
/// cap a set holds 2^14 32-byte arena states, 2^14 16-byte frontier
/// entries and a `visited` table of at most 2^14 16-byte slots (plus one
/// control byte each): about 1 MiB, so at most about 4 MiB per thread.
/// The searches of semkg-bench's query pool stay well under it (arena and
/// frontier capacity 4,096, `visited` 7,168).
const STASH_MAX_ENTRIES: usize = 1 << 14;

/// The growable state of one search (see the module docs on recycling).
#[derive(Default)]
struct Buffers {
    /// Every state ever pushed; parents encode the partial paths.
    arena: Vec<StateRec>,
    heap: BinaryHeap<Frontier>,
    /// Algorithm 1's `visited`, keyed `(node, segment)`: [`VISITED`], or
    /// `ln m(u)` of a key whose candidates τ has pruned so far.
    visited: FxHashMap<(u32, u16), f64>,
}

thread_local! {
    /// This thread's cleared buffer sets, at most `STASH_SETS`.
    static STASH: RefCell<Vec<Buffers>> = const { RefCell::new(Vec::new()) };
}

impl Buffers {
    /// A cleared set from this thread's stash, or an empty new one.
    fn take() -> Self {
        STASH
            .try_with(|stash| stash.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Clears the set into this thread's stash; frees it instead when the
    /// stash is full or a buffer outgrew `STASH_MAX_ENTRIES`.
    fn recycle(mut self) {
        let largest = self
            .arena
            .capacity()
            .max(self.heap.capacity())
            .max(self.visited.capacity());
        if largest > STASH_MAX_ENTRIES {
            return;
        }
        self.arena.clear();
        self.heap.clear();
        self.visited.clear();
        // During thread teardown the stash may be gone; the set is freed.
        let _ = STASH.try_with(|stash| {
            let mut stash = stash.borrow_mut();
            if stash.len() < STASH_SETS {
                stash.push(self);
            }
        });
    }
}

/// A complete match as the search reports it: the TA join key, the exact
/// pss, and the arena state [`AStarSearch::reconstruct`] rebuilds the path
/// from. Meaningful only to the search that returned it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Match of the sub-query's pivot.
    pub pivot: NodeId,
    /// Exact path semantic similarity ψ (Eq. 6).
    pub pss: f64,
    /// Arena index of the complete state.
    state: u32,
}

/// Resumable A\* semantic search over one sub-query plan, generic over the
/// graph view (static CSR or a versioned epoch snapshot).
pub struct AStarSearch<'a, G: GraphView = KnowledgeGraph> {
    graph: &'a G,
    plan: &'a SubQueryPlan,
    bufs: Buffers,
    /// Counters.
    pub stats: SearchStats,
}

impl<'a, G: GraphView> AStarSearch<'a, G> {
    /// Seeds the frontier with every φ(v_s) source candidate (Alg. 1 line 1).
    pub fn new(graph: &'a G, plan: &'a SubQueryPlan) -> Self {
        let mut search = Self {
            graph,
            plan,
            bufs: Buffers::take(),
            stats: SearchStats::default(),
        };
        if plan.is_trivially_empty() {
            return search;
        }
        // Dedup the candidates in canonical order and mark each visited
        // (the visited set's contents are part of the determinism
        // contract), then score each through the expansion's m(u) scan.
        // Arena indices are the heap tie-breaker, so pushes keep that order.
        for &us in &plan.sources {
            if !search.mark_visited((us.0, 0)) {
                continue;
            }
            let priority = plan
                .estimator
                .estimate_ln(0.0, plan.max_adjacent_ln(graph, us, 0));
            if priority < plan.tau {
                search.stats.tau_pruned += 1;
                continue;
            }
            search.push(
                StateRec {
                    node: us,
                    parent: NO_PARENT,
                    edge: None,
                    seg: 0,
                    hops_in_seg: 0,
                    total_hops: 0,
                    log_sum: 0.0,
                },
                priority,
            );
        }
        search
    }

    /// True when the frontier is drained — no further matches exist within
    /// the τ / n̂ bounds.
    pub fn is_exhausted(&self) -> bool {
        self.bufs.heap.is_empty()
    }

    /// Pops until the next-best match surfaces (Alg. 1 lines 2–14) and
    /// reports it as a [`Hit`]. Returns `None` when the search space is
    /// exhausted. Successive calls return matches in non-increasing pss
    /// order (Theorem 2).
    pub fn next_hit(&mut self) -> Option<Hit> {
        while let Some(Frontier { priority, idx }) = self.bufs.heap.pop() {
            self.stats.popped += 1;
            let state = self.bufs.arena[idx as usize];
            if state.seg as usize == self.plan.segments() {
                // A complete state's priority is its exact ψ (see expand).
                return Some(Hit {
                    pivot: state.node,
                    pss: priority,
                    state: idx,
                });
            }
            self.expand(idx, state, None);
        }
        None
    }

    /// [`AStarSearch::next_hit`] with the match's path rebuilt.
    pub fn next_match(&mut self) -> Option<SubMatch> {
        self.next_hit().map(|hit| self.reconstruct(hit))
    }

    /// Rebuilds the full match behind `hit`, which this search returned:
    /// walks the parents of the complete state, recording the binding of
    /// each query node (the nodes where a segment begins or ends).
    pub fn reconstruct(&self, hit: Hit) -> SubMatch {
        let arena = &self.bufs.arena;
        let complete = arena[hit.state as usize];
        let mut nodes = Vec::with_capacity(complete.total_hops as usize + 1);
        let mut edges = Vec::with_capacity(complete.total_hops as usize);
        let mut bindings = Vec::with_capacity(self.plan.query_nodes.len());
        let mut cursor = hit.state;
        loop {
            let rec = arena[cursor as usize];
            nodes.push(rec.node);
            match rec.edge {
                Some(e) => {
                    // A segment boundary: this state entered segment
                    // `rec.seg` while its parent was still in `rec.seg - 1`,
                    // so `rec.node` binds query node index `rec.seg`.
                    let parent_seg = arena[rec.parent as usize].seg;
                    if rec.seg > parent_seg {
                        bindings.push((self.plan.query_nodes[rec.seg as usize], rec.node));
                    }
                    edges.push(e);
                }
                None => {
                    bindings.push((self.plan.query_nodes[0], rec.node));
                    break;
                }
            }
            cursor = rec.parent;
        }
        nodes.reverse();
        edges.reverse();
        bindings.reverse();
        debug_assert_eq!(bindings.len(), self.plan.query_nodes.len());
        SubMatch {
            source: nodes[0],
            pivot: complete.node,
            pss: hit.pss,
            nodes,
            edges,
            bindings,
        }
    }

    /// One next-hop selection and expansion in Algorithm 2's anytime mode.
    /// A complete match is *discovered* during expansion (lines 10–11):
    /// its hit goes to `discovered` at once instead of into the frontier,
    /// so hits arrive in discovery order, not sorted by pss. Returns
    /// `false` when the frontier is drained. A search is driven either by
    /// `step` or by [`AStarSearch::next_hit`], never by both.
    pub fn step(&mut self, discovered: &mut Vec<Hit>) -> bool {
        match self.bufs.heap.pop() {
            Some(Frontier { idx, .. }) => {
                self.stats.popped += 1;
                let state = self.bufs.arena[idx as usize];
                debug_assert!((state.seg as usize) < self.plan.segments());
                self.expand(idx, state, Some(discovered));
                true
            }
            None => false,
        }
    }

    /// True when `node` already lies on the partial path ending at `idx` —
    /// matches are *paths* (simple, footnote 1), so revisits are rejected.
    /// The walk is bounded by the hop budget, a small constant.
    fn on_path(&self, mut idx: u32, node: NodeId) -> bool {
        loop {
            let rec = self.bufs.arena[idx as usize];
            if rec.node == node {
                return true;
            }
            if rec.parent == NO_PARENT {
                return false;
            }
            idx = rec.parent;
        }
    }

    /// Search-space expansion (Alg. 1 lines 4–10) generalised to segments.
    /// A complete match goes into the frontier, or to `discovered` in
    /// anytime mode.
    fn expand(&mut self, idx: u32, state: StateRec, mut discovered: Option<&mut Vec<Hit>>) {
        let seg = state.seg as usize;
        let segments = self.plan.segments();
        for nb in self.graph.neighbors(state.node) {
            self.stats.edges_examined += 1;
            if self.on_path(idx, nb.node) {
                continue;
            }
            let new_log = state.log_sum + self.plan.log_weight(seg, nb.predicate);
            let hops = state.hops_in_seg + 1;
            let total = state.total_hops + 1;
            if hops as usize > self.plan.n_hat {
                continue;
            }
            let next = |seg: u16, hops_in_seg: u16| StateRec {
                node: nb.node,
                parent: idx,
                edge: Some(nb.edge),
                seg,
                hops_in_seg,
                total_hops: total,
                log_sum: new_log,
            };

            // Segment completion: the edge lands on a match of the next
            // query node.
            let mut terminal = false;
            if self.plan.constraints[seg].admits(self.graph, nb.node) {
                if seg + 1 == segments {
                    terminal = true;
                    // Complete match — exact ψ becomes the priority (ψ̂ = ψ
                    // when u_i = u_t, Eq. 7).
                    let psi = exact_pss(new_log, total as usize);
                    if psi < self.plan.tau {
                        self.stats.tau_pruned += 1;
                    } else if self.mark_visited((nb.node.0, segments as u16)) {
                        let rec = next(segments as u16, hops);
                        match discovered.as_deref_mut() {
                            Some(found) => {
                                found.push(Hit {
                                    pivot: rec.node,
                                    pss: psi,
                                    state: self.bufs.arena.len() as u32,
                                });
                                self.bufs.arena.push(rec);
                            }
                            None => self.push(rec, psi),
                        }
                    }
                } else {
                    self.push_bounded(next(seg as u16 + 1, 0));
                }
            }

            // Continue within the current segment (edge-to-path mapping):
            // only useful when another hop may still be appended. Pivot
            // matches are terminal (Alg. 1 line 4 does not expand nodes in
            // φ(v_t)), so the search does not pass *through* them.
            if !terminal && (hops as usize) < self.plan.n_hat {
                self.push_bounded(next(state.seg, hops));
            }
        }
    }

    /// Marks `key` visited; true when it was not visited before.
    fn mark_visited(&mut self, key: (u32, u16)) -> bool {
        self.bufs.visited.insert(key, VISITED) != Some(VISITED)
    }

    /// Pushes the non-terminal state `rec` unless its `(node, segment)` key
    /// is visited or ψ̂ (through the key's `ln m(u)`) falls below τ. A
    /// pruned key keeps its bound, which a later path reaching the key
    /// reuses in [`ScanMode::Kernel`] and recomputes in
    /// [`ScanMode::ScalarReference`].
    fn push_bounded(&mut self, rec: StateRec) {
        let slot = match self.bufs.visited.entry((rec.node.0, rec.seg)) {
            Entry::Occupied(known) if *known.get() == VISITED => return,
            slot => slot,
        };
        let ln_m = match &slot {
            Entry::Occupied(known) if self.plan.scan == ScanMode::Kernel => *known.get(),
            _ => self
                .plan
                .max_adjacent_ln(self.graph, rec.node, rec.seg as usize),
        };
        let priority = self.plan.estimator.estimate_ln(rec.log_sum, ln_m);
        let pruned = priority < self.plan.tau;
        let value = if pruned { ln_m } else { VISITED };
        slot.and_modify(|v| *v = value).or_insert(value);
        if pruned {
            self.stats.tau_pruned += 1;
        } else {
            self.push(rec, priority);
        }
    }

    fn push(&mut self, rec: StateRec, priority: f64) {
        let idx = self.bufs.arena.len() as u32;
        self.bufs.arena.push(rec);
        self.bufs.heap.push(Frontier { priority, idx });
        self.stats.pushed += 1;
    }
}

impl<G: GraphView> Drop for AStarSearch<'_, G> {
    fn drop(&mut self) {
        std::mem::take(&mut self.bufs).recycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotStrategy;
    use crate::decompose::decompose;
    use crate::query::QueryGraph;
    use embedding::PredicateSpace;
    use kgraph::{GraphBuilder, KnowledgeGraph};
    use lexicon::{NodeMatcher, TransformationLibrary};
    use proptest::prelude::*;

    /// Registers the query predicate `q` in the graph's vocabulary via a
    /// dummy disconnected edge (query predicates must exist in the predicate
    /// space, §IV-A).
    fn register_q(b: &mut GraphBuilder) {
        let qa = b.add_node("DummyQA", "Dummy");
        let qb = b.add_node("DummyQB", "Dummy");
        b.add_edge(qa, qb, "q");
    }

    /// A predicate space where predicate `w<P>` has similarity `P/100` to
    /// the query predicate `q` — lets tests dial in exact edge weights.
    fn dial_space(graph: &KnowledgeGraph) -> PredicateSpace {
        let mut vectors = Vec::new();
        let mut labels = Vec::new();
        for (_, label) in graph.predicates() {
            let sim: f32 = if label == "q" {
                1.0
            } else {
                label
                    .strip_prefix('w')
                    .and_then(|s| s.parse::<f32>().ok())
                    .map_or(0.0, |p| p / 100.0)
            };
            vectors.push(vec![sim, (1.0 - sim * sim).max(0.0).sqrt()]);
            labels.push(label.to_string());
        }
        PredicateSpace::from_raw(vectors, labels)
    }

    struct Fixture {
        graph: KnowledgeGraph,
        space: PredicateSpace,
        lib: TransformationLibrary,
        query: QueryGraph,
    }

    impl Fixture {
        fn plan(&self, n_hat: usize, tau: f64) -> SubQueryPlan {
            let matcher = NodeMatcher::new(&self.graph, &self.lib);
            let d = decompose(&self.query, PivotStrategy::MinCost, 4.0, n_hat).unwrap();
            assert_eq!(d.subqueries.len(), 1, "fixtures use single sub-queries");
            SubQueryPlan::build(
                &self.graph,
                &self.space,
                &matcher,
                &self.query,
                &d.subqueries[0],
                n_hat,
                tau,
            )
        }

        fn matches(&self, n_hat: usize, tau: f64, k: usize) -> Vec<SubMatch> {
            let plan = self.plan(n_hat, tau);
            let mut search = AStarSearch::new(&self.graph, &plan);
            let mut out = Vec::new();
            while out.len() < k {
                match search.next_match() {
                    Some(m) => out.push(m),
                    None => break,
                }
            }
            out
        }
    }

    /// Star of 1-hop answers with distinct weights, plus a 2-hop path.
    fn star_fixture() -> Fixture {
        let mut b = GraphBuilder::new();
        let src = b.add_node("S", "Anchor");
        for (i, w) in [98u32, 85, 60, 40].iter().enumerate() {
            let t = b.add_node(&format!("T{i}"), "Goal");
            b.add_edge(t, src, &format!("w{w}"));
        }
        // 2-hop: S --w90-- M --w90-- T4 (pss = 0.9)
        let mid = b.add_node("M", "Mid");
        let t4 = b.add_node("T4", "Goal");
        b.add_edge(mid, src, "w90");
        b.add_edge(t4, mid, "w90");
        register_q(&mut b);
        let graph = b.finish();
        let space = dial_space(&graph);
        let mut query = QueryGraph::new();
        let goal = query.add_target("Goal");
        let anchor = query.add_specific("S", "Anchor");
        query.add_edge(goal, "q", anchor);
        Fixture {
            graph,
            space,
            lib: TransformationLibrary::new(),
            query,
        }
    }

    #[test]
    fn matches_arrive_in_nonincreasing_pss_order() {
        let f = star_fixture();
        let ms = f.matches(4, 0.0, 10);
        assert_eq!(ms.len(), 5);
        for pair in ms.windows(2) {
            assert!(pair[0].pss >= pair[1].pss - 1e-12);
        }
        // Best is the 0.98 edge; the 0.9 geometric-mean 2-hop path ranks
        // second, above the 0.85 single hop.
        assert_eq!(f.graph.node_name(ms[0].pivot), "T0");
        assert!((ms[0].pss - 0.98).abs() < 1e-6);
        assert_eq!(f.graph.node_name(ms[1].pivot), "T4");
        assert!((ms[1].pss - 0.90).abs() < 1e-6);
    }

    #[test]
    fn edge_to_path_mapping_respects_n_hat() {
        let f = star_fixture();
        // n̂ = 1 forbids the 2-hop match.
        let ms = f.matches(1, 0.0, 10);
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.hops() == 1));
        assert!(!ms.iter().any(|m| f.graph.node_name(m.pivot) == "T4"));
    }

    #[test]
    fn tau_prunes_low_pss_matches() {
        let f = star_fixture();
        let ms = f.matches(4, 0.8, 10);
        assert!(ms.iter().all(|m| m.pss >= 0.8));
        assert_eq!(ms.len(), 3); // 0.98, 0.90, 0.85
        let plan = f.plan(4, 0.8);
        let mut search = AStarSearch::new(&f.graph, &plan);
        while search.next_match().is_some() {}
        assert!(search.stats.tau_pruned > 0);
    }

    #[test]
    fn exhaustion_returns_none_and_is_sticky() {
        let f = star_fixture();
        let plan = f.plan(4, 0.0);
        let mut search = AStarSearch::new(&f.graph, &plan);
        let mut n = 0;
        while search.next_match().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(search.is_exhausted());
        assert!(search.next_match().is_none());
    }

    #[test]
    fn each_pivot_yields_at_most_one_match() {
        // Two parallel paths to the same pivot: visited semantics keep one.
        let mut b = GraphBuilder::new();
        let src = b.add_node("S", "Anchor");
        let t = b.add_node("T", "Goal");
        let m1 = b.add_node("M1", "Mid");
        let m2 = b.add_node("M2", "Mid");
        b.add_edge(src, m1, "w90");
        b.add_edge(m1, t, "w90");
        b.add_edge(src, m2, "w70");
        b.add_edge(m2, t, "w70");
        register_q(&mut b);
        let graph = b.finish();
        let space = dial_space(&graph);
        let mut query = QueryGraph::new();
        let goal = query.add_target("Goal");
        let anchor = query.add_specific("S", "Anchor");
        query.add_edge(goal, "q", anchor);
        let f = Fixture {
            graph,
            space,
            lib: TransformationLibrary::new(),
            query,
        };
        let ms = f.matches(4, 0.0, 10);
        assert_eq!(ms.len(), 1);
        assert!((ms[0].pss - 0.9).abs() < 1e-6, "the better path wins");
    }

    #[test]
    fn multi_segment_subquery_checks_intermediate_type() {
        // Query: Germany --q-- ?Mid --q-- ?Goal (2 segments), graph offers
        // one path through a Mid node and one through a Wrong node.
        let mut b = GraphBuilder::new();
        let de = b.add_node("Germany", "Country");
        let mid = b.add_node("EngineX", "Mid");
        let wrong = b.add_node("PersonY", "Wrong");
        let goal1 = b.add_node("CarA", "Goal");
        let goal2 = b.add_node("CarB", "Goal");
        b.add_edge(mid, de, "w95");
        b.add_edge(goal1, mid, "w95");
        b.add_edge(wrong, de, "w99");
        b.add_edge(goal2, wrong, "w99");
        register_q(&mut b);
        let graph = b.finish();
        let space = dial_space(&graph);
        let mut query = QueryGraph::new();
        let de_q = query.add_specific("Germany", "Country");
        let mid_q = query.add_target("Mid");
        let goal_q = query.add_target("Goal");
        query.add_edge(mid_q, "q", de_q);
        query.add_edge(goal_q, "q", mid_q);
        let f = Fixture {
            graph,
            space,
            lib: TransformationLibrary::new(),
            query,
        };
        let ms = f.matches(2, 0.0, 10);
        // Only the path through the Mid-typed node is a valid match of the
        // 2-segment sub-query with a 1-hop-per-segment mapping… but the
        // Wrong-typed path is still reachable by mapping the *first* query
        // edge to a 2-hop path. With n̂ = 2 both segment mappings are legal,
        // so CarB may match too — verify the Mid-typed route ranks first
        // and intermediate constraints held where segments transition.
        assert!(!ms.is_empty());
        assert_eq!(f.graph.node_name(ms[0].pivot), "CarA");
        for m in &ms {
            // Every match's segment transition node (nodes[1] when both
            // segments are 1 hop) satisfies the Mid constraint or the match
            // used a longer first segment.
            assert!(m.hops() >= 2);
        }
    }

    #[test]
    fn source_equals_constraint_type_does_not_self_match() {
        // Sub-queries have ≥ 1 edge, so a source satisfying the pivot
        // constraint is not itself a match.
        let mut b = GraphBuilder::new();
        let s = b.add_node("S", "Goal"); // source also has Goal type
        let t = b.add_node("T", "Goal");
        b.add_edge(s, t, "w90");
        register_q(&mut b);
        let graph = b.finish();
        let space = dial_space(&graph);
        let mut query = QueryGraph::new();
        let goal = query.add_target("Goal");
        let anchor = query.add_specific("S", "Goal");
        query.add_edge(goal, "q", anchor);
        let f = Fixture {
            graph,
            space,
            lib: TransformationLibrary::new(),
            query,
        };
        let ms = f.matches(4, 0.0, 10);
        assert_eq!(ms.len(), 1);
        assert_eq!(f.graph.node_name(ms[0].pivot), "T");
        assert_eq!(ms[0].hops(), 1);
    }

    #[test]
    fn empty_plan_yields_no_matches() {
        let f = star_fixture();
        let mut query = QueryGraph::new();
        let goal = query.add_target("Nonexistent");
        let anchor = query.add_specific("S", "Anchor");
        query.add_edge(goal, "q", anchor);
        let f2 = Fixture { query, ..f };
        assert!(f2.matches(4, 0.0, 10).is_empty());
    }

    const HUB_MIDS: usize = 8;
    const HUB_LEAVES: usize = 64;

    /// `S --q-- ?Mid --q-- ?Goal` over a hub that every mid reaches: mids
    /// `M0..M7` (`S–Mi` w95, each with its own goal at w90) touch the hub
    /// at w1, so each expanded mid prunes the hub by τ = 0.8, while the
    /// late mid `M8` (`S–M8` w60) reaches it at w90 and passes only with
    /// the hub's true `m(u)` = 0.99. The hub's 64 goal leaves at w99 make
    /// its `m(u)` scan long and answer only through the late mid.
    fn hub_fixture() -> Fixture {
        let mut b = GraphBuilder::new();
        let src = b.add_node("S", "Anchor");
        let hub = b.add_node("Hub", "Hub");
        for i in 0..HUB_MIDS {
            let mid = b.add_node(&format!("M{i}"), "Mid");
            let goal = b.add_node(&format!("T{i}"), "Goal");
            b.add_edge(src, mid, "w95");
            b.add_edge(mid, goal, "w90");
            b.add_edge(mid, hub, "w1");
        }
        let late = b.add_node("M8", "Mid");
        b.add_edge(src, late, "w60");
        b.add_edge(late, hub, "w90");
        for j in 0..HUB_LEAVES {
            let leaf = b.add_node(&format!("L{j}"), "Goal");
            b.add_edge(hub, leaf, "w99");
        }
        register_q(&mut b);
        let graph = b.finish();
        let space = dial_space(&graph);
        let mut query = QueryGraph::new();
        let anchor = query.add_specific("S", "Anchor");
        let mid = query.add_target("Mid");
        let goal = query.add_target("Goal");
        query.add_edge(mid, "q", anchor);
        query.add_edge(goal, "q", mid);
        Fixture {
            graph,
            space,
            lib: TransformationLibrary::new(),
            query,
        }
    }

    /// Every match of a drained search as `(pivot, pss bits, nodes, edges)`,
    /// with the search's final counters.
    type Drain = (Vec<(NodeId, u64, Vec<NodeId>, Vec<EdgeId>)>, SearchStats);

    /// Drains `plan` in the exact and in the anytime mode.
    fn drain(graph: &KnowledgeGraph, plan: &SubQueryPlan) -> [Drain; 2] {
        let key = |m: SubMatch| (m.pivot, m.pss.to_bits(), m.nodes, m.edges);
        let mut exact = AStarSearch::new(graph, plan);
        let exact_matches = std::iter::from_fn(|| exact.next_match()).map(key).collect();
        let mut anytime = AStarSearch::new(graph, plan);
        let mut hits = Vec::new();
        while anytime.step(&mut hits) {}
        let anytime_matches = hits
            .into_iter()
            .map(|hit| key(anytime.reconstruct(hit)))
            .collect();
        [
            (exact_matches, exact.stats),
            (anytime_matches, anytime.stats),
        ]
    }

    #[test]
    fn pruned_hub_revisits_match_the_scalar_reference() {
        let f = hub_fixture();
        let hub = f.graph.node_by_name("Hub").unwrap();
        assert!(f.graph.neighbors(hub).count() >= 64);
        for n_hat in [2, 3] {
            let kernel = f.plan(n_hat, 0.8);
            assert_eq!(kernel.scan, ScanMode::Kernel);
            let mut scalar = kernel.clone();
            scalar.scan = ScanMode::ScalarReference;
            let [kernel_exact, kernel_anytime] = drain(&f.graph, &kernel);
            let [scalar_exact, scalar_anytime] = drain(&f.graph, &scalar);
            assert_eq!(kernel_exact, scalar_exact, "n̂={n_hat}");
            assert_eq!(kernel_anytime, scalar_anytime, "n̂={n_hat}");

            let (matches, stats) = kernel_exact;
            // Each mid prunes each hub key it reaches: (Hub, 1) at n̂ ≥ 2,
            // and (Hub, 0) two hops into the first segment at n̂ = 3.
            assert_eq!(stats.tau_pruned, HUB_MIDS * (n_hat - 1), "n̂={n_hat}");
            // The late mid then enters the pruned hub: its leaves answer.
            let through_hub = matches.iter().filter(|m| m.2.contains(&hub)).count();
            assert_eq!(through_hub, HUB_LEAVES, "n̂={n_hat}");
            assert_eq!(matches.len(), HUB_MIDS + HUB_LEAVES, "n̂={n_hat}");
        }
    }

    /// Search buffers return to the stash cleared with their capacity; a
    /// set with a buffer over the cap is freed, and the stash stops at
    /// `STASH_SETS` sets. Runs on its own thread so the stash starts empty.
    #[test]
    fn oversized_buffer_sets_are_freed_not_stashed() {
        std::thread::spawn(|| {
            let stashed = || STASH.with(|s| s.borrow().len());
            let mut small = Buffers::default();
            small.visited.insert((1, 0), VISITED);
            small.arena.reserve(8);
            small.recycle();
            assert_eq!(stashed(), 1);
            let reused = Buffers::take();
            assert_eq!(stashed(), 0);
            assert!(reused.visited.is_empty() && reused.visited.capacity() > 0);
            assert!(reused.arena.is_empty() && reused.arena.capacity() >= 8);

            let mut wide_map = Buffers::default();
            wide_map.visited.reserve(STASH_MAX_ENTRIES + 1);
            wide_map.recycle();
            let mut long_arena = Buffers::default();
            long_arena.arena.reserve(STASH_MAX_ENTRIES + 1);
            long_arena.recycle();
            assert_eq!(stashed(), 0, "sets over the cap are freed");

            for _ in 0..STASH_SETS + 2 {
                Buffers::default().recycle();
            }
            assert_eq!(stashed(), STASH_SETS);
        })
        .join()
        .unwrap();
    }

    /// A search dropped mid-drain hands its (non-empty) buffers back, and a
    /// later search on the same thread starts from them cleared: it returns
    /// what a search on a fresh thread returns.
    #[test]
    fn recycled_buffers_search_like_fresh_ones() {
        let f = hub_fixture();
        let plan = f.plan(3, 0.8);
        let fresh = std::thread::scope(|s| s.spawn(|| drain(&f.graph, &plan)).join().unwrap());
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut partial = AStarSearch::new(&f.graph, &plan);
                assert!(partial.next_match().is_some());
                assert!(!partial.is_exhausted());
                drop(partial);
                assert_eq!(STASH.with(|s| s.borrow().len()), 1);
                assert_eq!(drain(&f.graph, &plan), fresh);
            })
            .join()
            .unwrap();
        });
    }

    /// Brute-force reference: enumerate all simple source→goal paths of
    /// ≤ n̂ hops and rank by geometric-mean weight.
    fn brute_force_best(graph: &KnowledgeGraph, plan: &SubQueryPlan) -> Option<f64> {
        fn dfs(
            graph: &KnowledgeGraph,
            plan: &SubQueryPlan,
            node: NodeId,
            hops: usize,
            log_sum: f64,
            seen: &mut Vec<NodeId>,
            best: &mut Option<f64>,
        ) {
            if hops > 0 && plan.constraints[0].admits(graph, node) {
                let psi = exact_pss(log_sum, hops);
                if best.is_none_or(|b| psi > b) {
                    *best = Some(psi);
                }
                return; // matches terminate at goal nodes, like the search
            }
            if hops == plan.n_hat {
                return;
            }
            for nb in graph.neighbors(node) {
                if seen.contains(&nb.node) {
                    continue;
                }
                seen.push(nb.node);
                dfs(
                    graph,
                    plan,
                    nb.node,
                    hops + 1,
                    log_sum + plan.weight(0, nb.predicate).ln(),
                    seen,
                    best,
                );
                seen.pop();
            }
        }
        let mut best = None;
        for &s in &plan.sources {
            let mut seen = vec![s];
            dfs(graph, plan, s, 0, 0.0, &mut seen, &mut best);
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On random *trees* (where the visited-set pruning can never hide
        /// an alternative path), the A* top-1 equals brute force (Thm. 2).
        #[test]
        fn prop_top1_optimal_on_trees(
            n in 2usize..24,
            weights in proptest::collection::vec(5u32..100, 30),
            goals in proptest::collection::vec(0usize..100, 1..6),
            seed in 0u64..1000,
        ) {
            let mut b = GraphBuilder::new();
            let root = b.add_node("S", "Anchor");
            let mut nodes = vec![root];
            let goal_idx: std::collections::HashSet<usize> =
                goals.iter().map(|g| g % n).collect();
            for i in 1..n {
                let ty = if goal_idx.contains(&i) { "Goal" } else { "Inner" };
                let child = b.add_node(&format!("N{i}"), ty);
                // Attach to a pseudo-random existing node → tree.
                let parent = nodes[(seed as usize + i * 7) % nodes.len()];
                let w = weights[i % weights.len()];
                b.add_edge(parent, child, &format!("w{w}"));
                nodes.push(child);
            }
            register_q(&mut b);
            let graph = b.finish();
            if graph.type_id("Goal").is_none() {
                return Ok(());
            }
            let space = dial_space(&graph);
            let lib = TransformationLibrary::new();
            let matcher = NodeMatcher::new(&graph, &lib);
            let mut query = QueryGraph::new();
            let goal = query.add_target("Goal");
            let anchor = query.add_specific("S", "Anchor");
            query.add_edge(goal, "q", anchor);
            let d = decompose(&query, PivotStrategy::MinCost, 4.0, 3).unwrap();
            let plan = SubQueryPlan::build(
                &graph, &space, &matcher, &query, &d.subqueries[0], 3, 0.0,
            );
            let mut search = AStarSearch::new(&graph, &plan);
            let astar_best = search.next_match().map(|m| m.pss);
            let brute_best = brute_force_best(&graph, &plan);
            match (astar_best, brute_best) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9,
                    "a* {a} vs brute {b}"),
                (None, None) => {}
                (a, b) => prop_assert!(false, "disagree: {a:?} vs {b:?}"),
            }
        }
    }
}
