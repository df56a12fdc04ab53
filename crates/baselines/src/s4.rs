//! S4 (Zheng et al., PVLDB 2016) — semantic SPARQL similarity search via
//! offline structural-pattern mining.
//!
//! S4 is the paper's strongest comparator: it pre-mines, from prior
//! knowledge (semantic instances à la PATTY), which n-hop predicate
//! sequences are *semantically equivalent* to each 1-hop predicate, then
//! rewrites query edges with those patterns. We reproduce that recipe with
//! the graph itself as the prior knowledge source (no PATTY corpus ships
//! with a reproduction):
//!
//! 1. **Seed collection** — for query predicate `p`, sample up to
//!    `S4::max_seeds` graph edges labelled `p` as semantic instances;
//! 2. **Pattern mining** — for each seed pair `(u, v)`, enumerate the
//!    alternative simple paths `u ⇝ v` (≤ `max_hops`) and count the support
//!    of every predicate sequence observed;
//! 3. **Filtering** — sequences supported by at least `S4::min_support`
//!    seeds become rewrite patterns with confidence `support / seeds`.
//!
//! At query time a path mapping is accepted iff its predicate sequence is
//! the query predicate itself (score 1) or a mined pattern (score = its
//! confidence). The accuracy therefore depends entirely on the quality of
//! the mined prior — exactly the sensitivity the paper highlights in §I.

use crate::common::{
    run_baseline, Features, GraphQueryMethod, MethodAnswer, NodeMode, SegmentScorer,
};
use kgraph::{KnowledgeGraph, NodeId, PredicateId};
use lexicon::TransformationLibrary;
use rustc_hash::FxHashMap;
use sgq::query::QueryGraph;
use std::sync::Mutex;

/// Mined rewrite patterns for one predicate: predicate-id sequence →
/// confidence.
type Patterns = FxHashMap<Vec<u32>, f64>;
/// Pattern cache keyed by (graph fingerprint, query predicate label).
type PatternCache = FxHashMap<(usize, String), Patterns>;

/// The S4 comparator.
#[derive(Debug)]
pub struct S4 {
    max_hops: usize,
    max_seeds: usize,
    min_support: usize,
    /// Mined patterns per query predicate label, populated lazily per graph.
    cache: Mutex<PatternCache>,
}

impl S4 {
    /// `max_hops` bounds the pattern length.
    pub fn new(max_hops: usize) -> Self {
        Self {
            max_hops: max_hops.max(1),
            max_seeds: 64,
            min_support: 2,
            cache: Mutex::new(FxHashMap::default()),
        }
    }

    /// Mines equivalent predicate sequences for `pred_label` (step 1–3).
    fn mine(&self, graph: &KnowledgeGraph, pred_label: &str) -> Patterns {
        let key = (graph.edge_count(), pred_label.to_string());
        if let Some(hit) = self.cache.lock().expect("cache poisoned").get(&key) {
            return hit.clone();
        }
        let mut counts: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        let mut seeds = 0usize;
        if let Some(pid) = graph.predicate_id(pred_label) {
            for (_, rec) in graph.edges() {
                if rec.predicate != pid {
                    continue;
                }
                seeds += 1;
                if seeds > self.max_seeds {
                    seeds = self.max_seeds;
                    break;
                }
                let mut found: Vec<Vec<u32>> = Vec::new();
                let mut path = vec![rec.src];
                let mut preds = Vec::new();
                let mut budget = 20_000usize;
                collect_paths(
                    graph,
                    rec.dst,
                    self.max_hops,
                    &mut path,
                    &mut preds,
                    &mut found,
                    &mut budget,
                );
                // Count each sequence once per seed.
                found.sort_unstable();
                found.dedup();
                for seq in found {
                    if seq.len() == 1 && seq[0] == pid.0 {
                        continue; // the trivial pattern is always accepted
                    }
                    *counts.entry(seq).or_insert(0) += 1;
                }
            }
        }
        let patterns: Patterns = counts
            .into_iter()
            .filter(|(_, c)| *c >= self.min_support && seeds > 0)
            .map(|(seq, c)| (seq, (c as f64 / seeds as f64).min(1.0)))
            .collect();
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(key, patterns.clone());
        patterns
    }
}

/// DFS enumeration of alternative simple paths `path[0] ⇝ target`.
fn collect_paths(
    graph: &KnowledgeGraph,
    target: NodeId,
    max_hops: usize,
    path: &mut Vec<NodeId>,
    preds: &mut Vec<u32>,
    found: &mut Vec<Vec<u32>>,
    budget: &mut usize,
) {
    if *budget == 0 || preds.len() >= max_hops {
        return;
    }
    *budget -= 1;
    let here = *path.last().expect("non-empty");
    for nb in graph.neighbors(here) {
        if path.contains(&nb.node) {
            continue;
        }
        preds.push(nb.predicate.0);
        if nb.node == target {
            found.push(preds.clone());
        } else {
            path.push(nb.node);
            collect_paths(graph, target, max_hops, path, preds, found, budget);
            path.pop();
        }
        preds.pop();
    }
}

struct PatternScorer<'a> {
    s4: &'a S4,
    graph: &'a KnowledgeGraph,
}

impl SegmentScorer for PatternScorer<'_> {
    fn max_hops(&self) -> usize {
        self.s4.max_hops
    }
    fn score(
        &self,
        graph: &KnowledgeGraph,
        query_pred: &str,
        preds: &[PredicateId],
    ) -> Option<f64> {
        if preds.len() == 1 && graph.predicate_name(preds[0]) == query_pred {
            return Some(1.0);
        }
        let patterns = self.s4.mine(self.graph, query_pred);
        // Paths ignore edge directionality (paper Def. 4 footnote), so a
        // pattern mined head→tail matches a query path walked tail→head.
        let seq: Vec<u32> = preds.iter().map(|p| p.0).collect();
        if let Some(&c) = patterns.get(&seq) {
            return Some(c);
        }
        let rev: Vec<u32> = preds.iter().rev().map(|p| p.0).collect();
        patterns.get(&rev).copied()
    }
}

impl GraphQueryMethod for S4 {
    fn name(&self) -> &'static str {
        "S4"
    }

    fn features(&self) -> Features {
        Features {
            node_similarity: false,
            edge_to_path: true,
            predicates: true,
            idea: "structural patterns mining",
        }
    }

    fn query(
        &self,
        graph: &KnowledgeGraph,
        library: &TransformationLibrary,
        query: &QueryGraph,
        k: usize,
    ) -> Vec<MethodAnswer> {
        let scorer = PatternScorer { s4: self, graph };
        run_baseline(graph, library, query, k, NodeMode::Exact, &scorer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;

    /// A graph where <assembly> frequently co-occurs with the 2-hop
    /// <assembly', country> paraphrase, so S4 mines the pattern, but a rare
    /// unrelated detour stays below min-support.
    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let de = b.add_node("Germany", "Country");
        for i in 0..5 {
            // Seeds: direct assembly edges AND the same fact through a city.
            let a = b.add_node(&format!("Seed{i}"), "Automobile");
            let city = b.add_node(&format!("City{i}"), "City");
            b.add_edge(a, de, "assembly");
            b.add_edge(a, city, "locatedIn");
            b.add_edge(city, de, "country");
        }
        // An answer only reachable via the paraphrase.
        let hidden = b.add_node("Hidden", "Automobile");
        let city = b.add_node("CityX", "City");
        b.add_edge(hidden, city, "locatedIn");
        b.add_edge(city, de, "country");
        // A semantically wrong 2-hop route that occurs only once overall.
        let wrong = b.add_node("Wrong", "Automobile");
        let person = b.add_node("P", "Person");
        b.add_edge(person, wrong, "designer");
        b.add_edge(person, de, "nationality");
        b.finish()
    }

    fn q117() -> QueryGraph {
        let mut q = QueryGraph::new();
        let auto = q.add_target("Automobile");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(auto, "assembly", de);
        q
    }

    #[test]
    fn mined_pattern_extends_recall() {
        let g = graph();
        let lib = TransformationLibrary::new();
        let ans = S4::new(2).query(&g, &lib, &q117(), 20);
        let names: Vec<&str> = ans.iter().map(|a| g.node_name(a.node)).collect();
        assert!(
            names.contains(&"Hidden"),
            "paraphrase answers found: {names:?}"
        );
        assert!(
            !names.contains(&"Wrong"),
            "low-support detours rejected: {names:?}"
        );
        // Direct matches score 1.0, pattern matches strictly less.
        assert!((ans[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mining_is_cached() {
        let g = graph();
        let s4 = S4::new(2);
        let p1 = s4.mine(&g, "assembly");
        let p2 = s4.mine(&g, "assembly");
        assert_eq!(p1.len(), p2.len());
        assert!(!p1.is_empty());
    }

    #[test]
    fn unknown_predicate_mines_nothing() {
        let g = graph();
        let s4 = S4::new(2);
        assert!(s4.mine(&g, "zorblify").is_empty());
    }
}
