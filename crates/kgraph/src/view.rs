//! Read-only graph abstraction shared by the frozen CSR store and the
//! versioned live store.
//!
//! The query stack (φ node matching, sub-query planning, A\* search, TA
//! assembly, statistics) only ever *reads* a graph. [`GraphView`] captures
//! exactly that read surface, so the same monomorphised search code runs
//! against either of its two stores:
//!
//! * a plain [`KnowledgeGraph`] (the static, frozen hot path — zero-cost,
//!   the trait methods compile down to the inherent ones), or
//! * a [`crate::versioned::GraphSnapshot`] — an immutable base CSR plus a
//!   delta overlay (added nodes/edges, tombstoned edges) published at one
//!   epoch by [`crate::versioned::VersionedGraph`].
//!
//! The third impl, on `&G`, lets the engine hold a borrowed store by value.
//! Sharding is a property of the durable layout only ([`crate::shard`]);
//! every view is one monolithic adjacency.
//!
//! Implementations must be deterministic: two calls to [`GraphView::neighbors`]
//! on the same view yield the same sequence, and the sequence is the edge
//! *insertion* order per direction (out-edges first, then in-edges). The A\*
//! search's tie-breaking — and therefore bit-identical replay of prepared
//! queries — relies on this ordering guarantee.

use crate::graph::{EdgeRecord, KnowledgeGraph, NeighborRef};
use crate::ids::{EdgeId, NodeId, PredicateId, TypeId};
use std::borrow::Cow;

/// The read surface of a knowledge graph (see module docs).
///
/// `Sync` is a supertrait because the engine's worker pool runs sub-query
/// searches borrowing the view from several threads at once.
pub trait GraphView: Sync {
    /// Number of entities (dense ids `0..node_count`).
    fn node_count(&self) -> usize;
    /// Number of *live* directed edges. Edge ids need not be dense: a
    /// versioned view keeps tombstoned ids reserved until compaction.
    fn edge_count(&self) -> usize;
    /// Number of distinct entity types.
    fn type_count(&self) -> usize;
    /// Number of distinct predicate labels.
    fn predicate_count(&self) -> usize;

    /// Entity name of `node`.
    fn node_name(&self, node: NodeId) -> &str;
    /// Entity type id of `node`.
    fn node_type(&self, node: NodeId) -> TypeId;
    /// Entity type label of `node`.
    fn node_type_name(&self, node: NodeId) -> &str {
        self.type_name(self.node_type(node))
    }
    /// Resolves a type label to its id.
    fn type_id(&self, ty: &str) -> Option<TypeId>;
    /// Resolves a type id to its label.
    fn type_name(&self, ty: TypeId) -> &str;
    /// Resolves a predicate label to its id.
    fn predicate_id(&self, predicate: &str) -> Option<PredicateId>;
    /// Resolves a predicate id to its label.
    fn predicate_name(&self, predicate: PredicateId) -> &str;
    /// Looks up an entity by its unique name.
    fn node_by_name(&self, name: &str) -> Option<NodeId>;

    /// All entities carrying type `ty`, in insertion order. Borrowed for the
    /// frozen store; a versioned view concatenates base and delta members.
    fn nodes_with_type(&self, ty: TypeId) -> Cow<'_, [NodeId]>;

    /// The edge record behind `edge` (which may be tombstoned — adjacency
    /// iterators never yield tombstoned ids, but stored ids stay resolvable).
    fn edge(&self, edge: EdgeId) -> EdgeRecord;

    /// Undirected degree over live edges (in + out).
    fn degree(&self, node: NodeId) -> usize;

    /// Iterates both-direction live adjacency of `node`: out-edges in
    /// insertion order, then in-edges in insertion order (see module docs
    /// for why this ordering is load-bearing).
    fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NeighborRef> + '_;

    /// Iterates all node ids.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterates all live edges as `(EdgeId, EdgeRecord)` in insertion order.
    fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeRecord)> + '_;

    /// Iterates interned type labels as `(TypeId, label)`.
    fn types(&self) -> impl Iterator<Item = (TypeId, &str)> + '_;

    /// Iterates interned predicate labels as `(PredicateId, label)`.
    fn predicates(&self) -> impl Iterator<Item = (PredicateId, &str)> + '_;

    /// How many exact-duplicate edge insertions were collapsed while the
    /// underlying store was assembled (0 when the store doesn't track it).
    fn duplicate_edges_dropped(&self) -> usize {
        0
    }
}

impl GraphView for KnowledgeGraph {
    fn node_count(&self) -> usize {
        KnowledgeGraph::node_count(self)
    }
    fn edge_count(&self) -> usize {
        KnowledgeGraph::edge_count(self)
    }
    fn type_count(&self) -> usize {
        KnowledgeGraph::type_count(self)
    }
    fn predicate_count(&self) -> usize {
        KnowledgeGraph::predicate_count(self)
    }
    fn node_name(&self, node: NodeId) -> &str {
        KnowledgeGraph::node_name(self, node)
    }
    fn node_type(&self, node: NodeId) -> TypeId {
        KnowledgeGraph::node_type(self, node)
    }
    fn type_id(&self, ty: &str) -> Option<TypeId> {
        KnowledgeGraph::type_id(self, ty)
    }
    fn type_name(&self, ty: TypeId) -> &str {
        KnowledgeGraph::type_name(self, ty)
    }
    fn predicate_id(&self, predicate: &str) -> Option<PredicateId> {
        KnowledgeGraph::predicate_id(self, predicate)
    }
    fn predicate_name(&self, predicate: PredicateId) -> &str {
        KnowledgeGraph::predicate_name(self, predicate)
    }
    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        KnowledgeGraph::node_by_name(self, name)
    }
    fn nodes_with_type(&self, ty: TypeId) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(KnowledgeGraph::nodes_with_type(self, ty))
    }
    fn edge(&self, edge: EdgeId) -> EdgeRecord {
        KnowledgeGraph::edge(self, edge)
    }
    fn degree(&self, node: NodeId) -> usize {
        KnowledgeGraph::degree(self, node)
    }
    fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NeighborRef> + '_ {
        KnowledgeGraph::neighbors(self, node)
    }
    fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeRecord)> + '_ {
        KnowledgeGraph::edges(self)
    }
    fn types(&self) -> impl Iterator<Item = (TypeId, &str)> + '_ {
        KnowledgeGraph::types(self)
    }
    fn predicates(&self) -> impl Iterator<Item = (PredicateId, &str)> + '_ {
        KnowledgeGraph::predicates(self)
    }
    fn duplicate_edges_dropped(&self) -> usize {
        KnowledgeGraph::duplicate_edges_dropped(self)
    }
}

/// References to views are views: the engine stores its graph handle by
/// value, and the static path instantiates it with `&KnowledgeGraph`.
impl<G: GraphView + ?Sized> GraphView for &G {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }
    fn type_count(&self) -> usize {
        (**self).type_count()
    }
    fn predicate_count(&self) -> usize {
        (**self).predicate_count()
    }
    fn node_name(&self, node: NodeId) -> &str {
        (**self).node_name(node)
    }
    fn node_type(&self, node: NodeId) -> TypeId {
        (**self).node_type(node)
    }
    fn type_id(&self, ty: &str) -> Option<TypeId> {
        (**self).type_id(ty)
    }
    fn type_name(&self, ty: TypeId) -> &str {
        (**self).type_name(ty)
    }
    fn predicate_id(&self, predicate: &str) -> Option<PredicateId> {
        (**self).predicate_id(predicate)
    }
    fn predicate_name(&self, predicate: PredicateId) -> &str {
        (**self).predicate_name(predicate)
    }
    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        (**self).node_by_name(name)
    }
    fn nodes_with_type(&self, ty: TypeId) -> Cow<'_, [NodeId]> {
        (**self).nodes_with_type(ty)
    }
    fn edge(&self, edge: EdgeId) -> EdgeRecord {
        (**self).edge(edge)
    }
    fn degree(&self, node: NodeId) -> usize {
        (**self).degree(node)
    }
    fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NeighborRef> + '_ {
        (**self).neighbors(node)
    }
    fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeRecord)> + '_ {
        (**self).edges()
    }
    fn types(&self) -> impl Iterator<Item = (TypeId, &str)> + '_ {
        (**self).types()
    }
    fn predicates(&self) -> impl Iterator<Item = (PredicateId, &str)> + '_ {
        (**self).predicates()
    }
    fn duplicate_edges_dropped(&self) -> usize {
        (**self).duplicate_edges_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn tiny() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", "T1");
        let c = b.add_node("B", "T2");
        b.add_edge(a, c, "p");
        b.finish()
    }

    /// The trait impl on KnowledgeGraph must agree with the inherent API.
    #[test]
    fn trait_mirrors_inherent_api() {
        let g = tiny();
        fn probe<G: GraphView>(g: &G) -> (usize, usize, Vec<NodeId>, usize) {
            let a = g.node_by_name("A").unwrap();
            (
                g.node_count(),
                g.edge_count(),
                g.nodes_with_type(g.node_type(a)).into_owned(),
                g.neighbors(a).count(),
            )
        }
        let (n, m, t1, deg) = probe(&g);
        assert_eq!(n, 2);
        assert_eq!(m, 1);
        assert_eq!(t1, vec![g.node_by_name("A").unwrap()]);
        assert_eq!(deg, 1);
    }

    /// `&G` is a view wherever `G` is, with identical results.
    #[test]
    fn reference_blanket_impl_delegates() {
        let g = tiny();
        fn count<G: GraphView>(g: G) -> usize {
            g.nodes().map(|n| g.degree(n)).sum()
        }
        assert_eq!(count(&g), 2);
        let by_double_ref: &&KnowledgeGraph = &&g;
        assert_eq!(count(by_double_ref), 2);
    }
}
