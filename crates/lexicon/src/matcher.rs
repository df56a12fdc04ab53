//! The node-match relation φ (paper Definition 3).
//!
//! Given a query node `v`, φ(v) is the set of candidate graph nodes whose
//! name (for *specific* nodes) or type (for *target* nodes) is identical to,
//! a synonym of, or an abbreviation of the query label. The matcher builds
//! normalised indexes over the graph's names and types once, so repeated
//! query-time lookups are hash probes.
//!
//! Candidate order is part of the contract: a name lookup returns its hits
//! in ascending node id (then the library's canonical-form hits, deduped,
//! each in ascending node id), and a type lookup returns each matching type
//! bucket in the view's insertion order. The A\* search seeds in this order
//! and breaks priority ties by it, so a matcher built twice over the same
//! view must yield the same lists.

use crate::library::TransformationLibrary;
use crate::normalize::normalize_label;
use kgraph::{GraphView, KnowledgeGraph, NodeId, TypeId};
use rustc_hash::FxHashMap;

/// Precomputed φ-lookup over one graph view + transformation library.
///
/// The matcher owns its graph *handle* `G` (for the static engine that is a
/// copied `&KnowledgeGraph`; for the live engine an `Arc`-backed
/// `kgraph::GraphSnapshot` clone), so it pins the same epoch as the engine
/// that built it.
pub struct NodeMatcher<'g, G: GraphView = &'g KnowledgeGraph> {
    graph: G,
    library: &'g TransformationLibrary,
    /// normalised entity name → node ids, ascending (names are unique, but
    /// distinct raw names may normalise to the same key).
    name_index: FxHashMap<String, Vec<NodeId>>,
    /// normalised type label → type ids.
    type_index: FxHashMap<String, Vec<TypeId>>,
}

impl<'g, G: GraphView> NodeMatcher<'g, G> {
    /// Indexes `graph` for φ lookups through `library`.
    pub fn new(graph: G, library: &'g TransformationLibrary) -> Self {
        let mut name_index: FxHashMap<String, Vec<NodeId>> = FxHashMap::default();
        for node in graph.nodes() {
            name_index
                .entry(normalize_label(graph.node_name(node)))
                .or_default()
                .push(node);
        }
        let mut type_index: FxHashMap<String, Vec<TypeId>> = FxHashMap::default();
        for (ty, label) in graph.types() {
            type_index
                .entry(normalize_label(label))
                .or_default()
                .push(ty);
        }
        Self {
            graph,
            library,
            name_index,
            type_index,
        }
    }

    /// The graph this matcher indexes.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The transformation library the matcher resolves aliases through.
    pub fn library(&self) -> &'g TransformationLibrary {
        self.library
    }

    /// φ for a *specific* query node: graph nodes whose name matches
    /// `query_name` (identical / synonym / abbreviation).
    pub fn match_name(&self, query_name: &str) -> Vec<NodeId> {
        let mut out = Vec::new();
        let norm = normalize_label(query_name);
        if let Some(nodes) = self.name_index.get(&norm) {
            out.extend_from_slice(nodes);
        }
        for (canonical, _kind) in self.library.canonical_of(query_name) {
            if let Some(nodes) = self.name_index.get(canonical) {
                for &n in nodes {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
        out
    }

    /// Type ids matching `query_type` (identical / synonym / abbreviation).
    pub fn match_type(&self, query_type: &str) -> Vec<TypeId> {
        let mut out = Vec::new();
        let norm = normalize_label(query_type);
        if let Some(types) = self.type_index.get(&norm) {
            out.extend_from_slice(types);
        }
        for (canonical, _kind) in self.library.canonical_of(query_type) {
            if let Some(types) = self.type_index.get(canonical) {
                for &t in types {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
            }
        }
        out
    }

    /// φ for a *target* query node: all graph nodes carrying a matching type.
    pub fn match_nodes_by_type(&self, query_type: &str) -> Vec<NodeId> {
        let mut out = Vec::new();
        for ty in self.match_type(query_type) {
            out.extend_from_slice(&self.graph.nodes_with_type(ty));
        }
        out
    }

    /// True when graph node `u` satisfies a type constraint (used by path
    /// search to test intermediate query nodes without materialising the
    /// full candidate set).
    pub fn node_has_type(&self, u: NodeId, query_type: &str) -> bool {
        let node_ty = self.graph.node_type(u);
        self.match_type(query_type).contains(&node_ty)
    }

    /// Precomputes the set-membership test for a type constraint; returns a
    /// boolean vector indexed by `TypeId` for O(1) probes in the search loop.
    pub fn type_mask(&self, query_type: &str) -> Vec<bool> {
        let mut mask = vec![false; self.graph.type_count()];
        for ty in self.match_type(query_type) {
            mask[ty.index()] = true;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::TransformKind;
    use kgraph::GraphBuilder;

    fn setup() -> (KnowledgeGraph, TransformationLibrary) {
        let mut b = GraphBuilder::new();
        let audi = b.add_node("Audi_TT", "Automobile");
        let bmw = b.add_node("BMW_320", "Automobile");
        let de = b.add_node("Germany", "Country");
        let vw = b.add_node("Volkswagen", "Company");
        b.add_edge(audi, de, "assembly");
        b.add_edge(bmw, de, "assembly");
        b.add_edge(vw, audi, "product");
        let g = b.finish();
        let mut lib = TransformationLibrary::new();
        lib.add_synonym_row("Automobile", &["Car", "Motorcar"]);
        lib.add_abbreviation_row("Germany", &["GER"]);
        (g, lib)
    }

    #[test]
    fn identical_name_match() {
        let (g, lib) = setup();
        let m = NodeMatcher::new(&g, &lib);
        let hits = m.match_name("Germany");
        assert_eq!(hits.len(), 1);
        assert_eq!(g.node_name(hits[0]), "Germany");
    }

    #[test]
    fn abbreviation_name_match_fig1_g2q() {
        // Paper Fig. 1: query node named GER must reach Germany.
        let (g, lib) = setup();
        let m = NodeMatcher::new(&g, &lib);
        let hits = m.match_name("GER");
        assert_eq!(hits.len(), 1);
        assert_eq!(g.node_name(hits[0]), "Germany");
    }

    #[test]
    fn synonym_type_match_fig1_g1q() {
        // Paper Fig. 1: query node typed <Car> must reach Automobile nodes.
        let (g, lib) = setup();
        let m = NodeMatcher::new(&g, &lib);
        let hits = m.match_nodes_by_type("Car");
        assert_eq!(hits.len(), 2);
        for n in hits {
            assert_eq!(g.node_type_name(n), "Automobile");
        }
    }

    #[test]
    fn unmatched_labels_yield_empty() {
        let (g, lib) = setup();
        let m = NodeMatcher::new(&g, &lib);
        assert!(m.match_name("Atlantis").is_empty());
        assert!(m.match_nodes_by_type("Spaceship").is_empty());
    }

    #[test]
    fn node_has_type_through_synonym() {
        let (g, lib) = setup();
        let m = NodeMatcher::new(&g, &lib);
        let audi = g.node_by_name("Audi_TT").unwrap();
        assert!(m.node_has_type(audi, "Automobile"));
        assert!(m.node_has_type(audi, "Car"));
        assert!(!m.node_has_type(audi, "Country"));
    }

    #[test]
    fn type_mask_agrees_with_match() {
        let (g, lib) = setup();
        let m = NodeMatcher::new(&g, &lib);
        let mask = m.type_mask("Car");
        for node in g.nodes() {
            assert_eq!(
                mask[g.node_type(node).index()],
                m.node_has_type(node, "Car")
            );
        }
    }

    #[test]
    fn name_normalisation_in_index() {
        let (g, lib) = setup();
        let m = NodeMatcher::new(&g, &lib);
        assert_eq!(m.match_name("audi tt").len(), 1);
        assert_eq!(m.match_name("AUDI_TT").len(), 1);
    }

    /// Multi-candidate keys come back in the exact order the A\* seeding
    /// and tie-breaks depend on: ascending node id.
    #[test]
    fn multi_candidate_names() {
        let mut b = GraphBuilder::new();
        b.add_node("Paris", "City");
        b.add_node("Paris_Texas", "City");
        let g = b.finish();
        let mut lib = TransformationLibrary::new();
        lib.add("Paname", "Paris", TransformKind::Synonym);
        let m = NodeMatcher::new(&g, &lib);
        assert_eq!(m.match_name("Paname").len(), 1);
        assert_eq!(m.match_name("Paris").len(), 1);

        // Three raw names normalising to one key (ids 24..=26), a synonym
        // row onto it, and a type bucket spanning the whole id range.
        let mut b = GraphBuilder::new();
        for i in 0..24 {
            b.add_node(
                &format!("Entity_{i}"),
                if i % 3 == 0 { "Car" } else { "City" },
            );
        }
        b.add_node("dup name", "City");
        b.add_node("Dup_Name", "City");
        b.add_node("DUP NAME", "Car");
        let g = b.finish();
        let mut lib = TransformationLibrary::new();
        lib.add("Duplicated", "dup name", TransformKind::Synonym);
        lib.add_synonym_row("Car", &["Automobile"]);
        let m = NodeMatcher::new(&g, &lib);
        let ids = |raw: &[u32]| raw.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        let dups = ids(&[24, 25, 26]);
        assert_eq!(m.match_name("dup name"), dups);
        assert_eq!(m.match_name("Duplicated"), dups);
        assert_eq!(m.match_name("Entity_7"), ids(&[7]));
        assert!(m.match_name("Nowhere").is_empty());
        let cars = ids(&[0, 3, 6, 9, 12, 15, 18, 21, 26]);
        assert_eq!(m.match_nodes_by_type("Car"), cars);
        assert_eq!(m.match_nodes_by_type("Automobile"), cars);
        let cities: Vec<u32> = (0..26).filter(|i| i % 3 != 0 || *i >= 24).collect();
        assert_eq!(m.match_nodes_by_type("City"), ids(&cities));
        assert!(m.match_nodes_by_type("Spaceship").is_empty());
        assert_eq!(m.type_mask("Automobile"), m.type_mask("Car"));
    }
}
