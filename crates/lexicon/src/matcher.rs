//! The node-match relation φ (paper Definition 3).
//!
//! Given a query node `v`, φ(v) is the set of candidate graph nodes whose
//! name (for *specific* nodes) or type (for *target* nodes) is identical to,
//! a synonym of, or an abbreviation of the query label. The matcher builds
//! normalised indexes over the graph's names and types once. A name lookup
//! is a binary search of a sorted array of `(name hash, node)` pairs, and
//! each node in the run of equal hashes is kept only when its re-normalised
//! name equals the key, so a hash collision never adds a candidate. A type
//! lookup is a hash probe.
//!
//! Candidate order is part of the contract: a name lookup returns its hits
//! in ascending node id (then the library's canonical-form hits, deduped,
//! each in ascending node id), and a type lookup returns each matching type
//! bucket in the view's insertion order. The A\* search seeds in this order
//! and breaks priority ties by it, so a matcher built twice over the same
//! view must yield the same lists.

use crate::library::TransformationLibrary;
use crate::normalize::{normalize_into, normalize_label};
use kgraph::{GraphView, KnowledgeGraph, NodeId, TypeId};
use rustc_hash::{FxBuildHasher, FxHashMap};
use std::hash::BuildHasher;

/// Precomputed φ-lookup over one graph view + transformation library.
///
/// The matcher owns its graph *handle* `G` (for the static engine that is a
/// copied `&KnowledgeGraph`; for the live engine an `Arc`-backed
/// `kgraph::GraphSnapshot` clone), so it pins the same epoch as the engine
/// that built it. The name index is one flat allocation: building it makes
/// no allocation per node, and dropping it frees one.
pub struct NodeMatcher<'g, G: GraphView = &'g KnowledgeGraph> {
    graph: G,
    library: &'g TransformationLibrary,
    /// `(name_hash(normalised name), node)` for every node, sorted. Node ids
    /// are unique, so the order is total and a run of equal hashes lists
    /// its nodes in ascending id.
    name_index: Vec<(u64, NodeId)>,
    /// normalised type label → type ids.
    type_index: FxHashMap<String, Vec<TypeId>>,
}

/// The hash a normalised name is indexed under.
fn name_hash(normalised: &str) -> u64 {
    FxBuildHasher::default().hash_one(normalised)
}

impl<'g, G: GraphView> NodeMatcher<'g, G> {
    /// Indexes `graph` for φ lookups through `library`.
    pub fn new(graph: G, library: &'g TransformationLibrary) -> Self {
        let mut key = String::new();
        let mut name_index = Vec::with_capacity(graph.node_count());
        for node in graph.nodes() {
            normalize_into(graph.node_name(node), &mut key);
            name_index.push((name_hash(&key), node));
        }
        name_index.sort_unstable();
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
        let mut name_buf = String::new();
        self.push_name_hits(&normalize_label(query_name), &mut out, &mut name_buf);
        for (canonical, _kind) in self.library.canonical_of(query_name) {
            self.push_name_hits(canonical, &mut out, &mut name_buf);
        }
        out
    }

    /// Appends the nodes whose normalised name is `key` and which `out`
    /// does not hold yet, in ascending id. `name_buf` is the buffer each
    /// candidate's name is re-normalised into for the collision check.
    fn push_name_hits(&self, key: &str, out: &mut Vec<NodeId>, name_buf: &mut String) {
        let hash = name_hash(key);
        let start = self.name_index.partition_point(|&(h, _)| h < hash);
        for &(h, node) in &self.name_index[start..] {
            if h != hash {
                break;
            }
            normalize_into(self.graph.node_name(node), name_buf);
            if name_buf == key && !out.contains(&node) {
                out.push(node);
            }
        }
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
    use kgraph::{GraphBuilder, VersionedGraph};
    use proptest::prelude::*;

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

    /// A 64-bit hash collision never adds a candidate: with every node
    /// indexed under the hash of the key being looked up, the lookup still
    /// returns only the nodes whose normalised name equals the key.
    #[test]
    fn forced_hash_collisions_are_filtered() {
        let (g, lib) = setup();
        let honest = NodeMatcher::new(&g, &lib);
        let mut m = NodeMatcher::new(&g, &lib);
        for query in ["Germany", "audi tt", "BMW_320", "Atlantis"] {
            let shared = name_hash(&normalize_label(query));
            for entry in &mut m.name_index {
                entry.0 = shared;
            }
            m.name_index.sort_unstable();
            assert_eq!(m.match_name(query), honest.match_name(query), "{query}");
        }
    }

    /// Name pieces chosen so that many names collide after normalisation:
    /// case variants, `_`, runs of space / `\t` / U+000B, and non-ASCII
    /// letters.
    const NAME_PIECES: [&str; 12] = [
        "a", "A", "b", "B", "é", "É", "ß", "_", " ", "  \t", "\u{b}", "Ω",
    ];
    const TYPES: [&str; 5] = ["Car", "car", "C_AR", "City", "ci\u{b}ty"];

    fn label(pieces: &[usize]) -> String {
        pieces.iter().map(|&i| NAME_PIECES[i]).collect()
    }

    /// φ indexed the way it was before the flat name index: one `String`
    /// key and one `Vec` per normalised name or type label.
    struct Reference {
        names: FxHashMap<String, Vec<NodeId>>,
        types: FxHashMap<String, Vec<TypeId>>,
    }

    impl Reference {
        fn new<G: GraphView>(graph: &G) -> Self {
            let mut names: FxHashMap<String, Vec<NodeId>> = FxHashMap::default();
            for node in graph.nodes() {
                names
                    .entry(normalize_label(graph.node_name(node)))
                    .or_default()
                    .push(node);
            }
            let mut types: FxHashMap<String, Vec<TypeId>> = FxHashMap::default();
            for (ty, label) in graph.types() {
                types.entry(normalize_label(label)).or_default().push(ty);
            }
            Self { names, types }
        }

        fn lookup<T: Copy + PartialEq>(
            index: &FxHashMap<String, Vec<T>>,
            lib: &TransformationLibrary,
            query: &str,
        ) -> Vec<T> {
            let mut out = Vec::new();
            if let Some(hits) = index.get(&normalize_label(query)) {
                out.extend_from_slice(hits);
            }
            for (canonical, _kind) in lib.canonical_of(query) {
                for &hit in index.get(canonical).map_or(&[][..], Vec::as_slice) {
                    if !out.contains(&hit) {
                        out.push(hit);
                    }
                }
            }
            out
        }

        fn match_nodes_by_type<G: GraphView>(
            &self,
            graph: &G,
            lib: &TransformationLibrary,
            query: &str,
        ) -> Vec<NodeId> {
            Self::lookup(&self.types, lib, query)
                .into_iter()
                .flat_map(|ty| graph.nodes_with_type(ty).into_owned())
                .collect()
        }
    }

    /// Checks `match_name`, `match_type` and `match_nodes_by_type` against
    /// [`Reference`], order included, for every raw node name, type label,
    /// library alias and extra query.
    fn check_against_reference<G: GraphView>(
        graph: G,
        lib: &TransformationLibrary,
        extra: &[String],
    ) -> Result<(), TestCaseError> {
        let reference = Reference::new(&graph);
        let mut queries: Vec<String> = graph
            .nodes()
            .map(|n| graph.node_name(n).to_string())
            .collect();
        queries.extend(TYPES.iter().map(|t| t.to_string()));
        queries.extend(extra.iter().cloned());
        let matcher = NodeMatcher::new(graph, lib);
        for q in &queries {
            prop_assert_eq!(
                matcher.match_name(q),
                Reference::lookup(&reference.names, lib, q),
                "match_name({:?})",
                q
            );
            prop_assert_eq!(
                matcher.match_type(q),
                Reference::lookup(&reference.types, lib, q),
                "match_type({:?})",
                q
            );
            prop_assert_eq!(
                matcher.match_nodes_by_type(q),
                reference.match_nodes_by_type(matcher.graph(), lib, q),
                "match_nodes_by_type({:?})",
                q
            );
        }
        Ok(())
    }

    type NodeSpec = (Vec<usize>, usize);
    type RowSpec = (Vec<usize>, usize, bool);

    fn nodes_strategy() -> impl Strategy<Value = Vec<NodeSpec>> {
        collection::vec(
            (collection::vec(0..NAME_PIECES.len(), 1..5), 0..TYPES.len()),
            1..40,
        )
    }

    fn rows_strategy() -> impl Strategy<Value = Vec<RowSpec>> {
        collection::vec(
            (
                collection::vec(0..NAME_PIECES.len(), 1..4),
                0..64usize,
                proptest::bool::ANY,
            ),
            0..8,
        )
    }

    fn queries_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
        collection::vec(collection::vec(0..NAME_PIECES.len(), 0..5), 0..10)
    }

    /// Library rows from random alias labels onto node names and type
    /// labels; returns the library and the aliases as extra queries. A row
    /// with its flag set is registered as both a synonym and an
    /// abbreviation, so its canonical form comes back twice and the
    /// dedup of repeated hits is exercised.
    fn library(nodes: &[NodeSpec], rows: &[RowSpec]) -> (TransformationLibrary, Vec<String>) {
        let mut canonicals: Vec<String> = nodes.iter().map(|(p, _)| label(p)).collect();
        canonicals.extend(TYPES.iter().map(|t| t.to_string()));
        let mut lib = TransformationLibrary::new();
        let mut aliases = Vec::new();
        for (alias, target, both_kinds) in rows {
            let alias = label(alias);
            let canonical = &canonicals[target % canonicals.len()];
            lib.add(&alias, canonical, TransformKind::Synonym);
            if *both_kinds {
                lib.add(&alias, canonical, TransformKind::Abbreviation);
            }
            aliases.push(alias);
        }
        (lib, aliases)
    }

    fn build(nodes: &[NodeSpec]) -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for (pieces, ty) in nodes {
            b.add_node(&label(pieces), TYPES[*ty]);
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The flat name index answers φ exactly like the per-name map it
        /// replaced, over graphs where many names collide.
        #[test]
        fn prop_matcher_equals_reference(
            nodes in nodes_strategy(),
            rows in rows_strategy(),
            extra in queries_strategy(),
        ) {
            let (lib, mut queries) = library(&nodes, &rows);
            queries.extend(extra.iter().map(|q| label(q)));
            check_against_reference(build(&nodes), &lib, &queries)?;
        }

        /// The same equivalence over live snapshots: after each commit of
        /// random inserts (new names, new types) and after one compaction.
        #[test]
        fn prop_snapshot_matcher_equals_reference(
            nodes in nodes_strategy(),
            rows in rows_strategy(),
            steps in collection::vec(
                (
                    collection::vec(0..NAME_PIECES.len(), 1..4),
                    collection::vec(0..NAME_PIECES.len(), 1..4),
                    0..TYPES.len() + 2,
                    proptest::bool::ANY,
                ),
                1..16,
            ),
        ) {
            let (lib, queries) = library(&nodes, &rows);
            let store = VersionedGraph::new(build(&nodes));
            let new_types = ["Boat", "bo_at"];
            let compact_at = steps.len() / 2;
            for (i, (head, tail, ty, commit)) in steps.iter().enumerate() {
                let ty = TYPES.get(*ty).copied().unwrap_or(new_types[ty % 2]);
                store.insert_triple((&label(head), ty), "rel", (&label(tail), "City"));
                if *commit {
                    check_against_reference(store.commit(), &lib, &queries)?;
                }
                if i == compact_at {
                    check_against_reference(store.compact(), &lib, &queries)?;
                }
            }
            check_against_reference(store.commit(), &lib, &queries)?;
        }
    }
}
