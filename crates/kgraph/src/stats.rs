//! Descriptive statistics over a knowledge graph.
//!
//! Used by the experiment harness to print dataset tables in the style of
//! the paper's Table IV (entities / relations / entity types) and by the
//! query planner's cost model (average degree drives the search-space
//! estimate discussed in §V: "the average degree of each node in DBpedia 3.9
//! is nearly 24, so a 3-hop match has 24³ candidate paths").

use crate::view::GraphView;
use serde::{Deserialize, Serialize};

/// Summary statistics of any [`GraphView`] (a frozen [`crate::KnowledgeGraph`]
/// or a versioned [`crate::versioned::GraphSnapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of entities (paper Table IV "# Entities").
    pub entities: usize,
    /// Number of directed edges (paper Table IV "# Relations").
    pub relations: usize,
    /// Number of distinct entity types (paper Table IV "# Entity-Types").
    pub entity_types: usize,
    /// Number of distinct predicate labels.
    pub predicates: usize,
    /// Mean undirected degree.
    pub avg_degree: f64,
    /// Maximum undirected degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
    /// Exact-duplicate edge insertions the builder collapsed silently
    /// while the graph was assembled.
    #[serde(default)]
    pub duplicate_edges_dropped: usize,
}

impl GraphStats {
    /// Computes statistics in one adjacency pass.
    pub fn of<G: GraphView>(graph: &G) -> Self {
        let mut max_degree = 0usize;
        let mut isolated = 0usize;
        let mut total = 0usize;
        for node in graph.nodes() {
            let d = graph.degree(node);
            total += d;
            max_degree = max_degree.max(d);
            if d == 0 {
                isolated += 1;
            }
        }
        let n = graph.node_count();
        Self {
            entities: n,
            relations: graph.edge_count(),
            entity_types: graph.type_count(),
            predicates: graph.predicate_count(),
            avg_degree: if n == 0 { 0.0 } else { total as f64 / n as f64 },
            max_degree,
            isolated,
            duplicate_edges_dropped: graph.duplicate_edges_dropped(),
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entities={} relations={} types={} predicates={} avg_degree={:.2} max_degree={} isolated={} dup_edges_dropped={}",
            self.entities,
            self.relations,
            self.entity_types,
            self.predicates,
            self.avg_degree,
            self.max_degree,
            self.isolated,
            self.duplicate_edges_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn stats_on_small_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", "T1");
        let c = b.add_node("B", "T2");
        let d = b.add_node("C", "T2");
        b.add_node("Iso", "T3");
        b.add_edge(a, c, "p");
        b.add_edge(a, d, "q");
        b.add_edge(a, c, "p"); // exact duplicate, silently collapsed
        let g = b.finish();
        let s = GraphStats::of(&g);
        assert_eq!(s.entities, 4);
        assert_eq!(s.relations, 2);
        assert_eq!(s.entity_types, 3);
        assert_eq!(s.predicates, 2);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 1);
        assert_eq!(s.duplicate_edges_dropped, 1);
        assert!((s.avg_degree - 1.0).abs() < 1e-12); // 4 endpoints / 4 nodes
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = GraphBuilder::new().finish();
        let s = GraphStats::of(&g);
        assert_eq!(s.entities, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn display_contains_fields() {
        let g = GraphBuilder::new().finish();
        let s = GraphStats::of(&g).to_string();
        assert!(s.contains("entities=0"));
        assert!(s.contains("avg_degree=0.00"));
    }
}
