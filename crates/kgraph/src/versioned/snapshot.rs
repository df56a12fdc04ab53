//! Epoch-tagged, immutable snapshots of a versioned graph.
//!
//! A [`GraphSnapshot`] is two `Arc`s and an epoch number: the base CSR
//! [`KnowledgeGraph`] and the frozen [`DeltaOverlay`] committed on top of
//! it. Cloning (and therefore *pinning* — a query holds a clone for its
//! whole execution) is two refcount bumps; snapshots never block writers
//! and writers never mutate a published snapshot.
//!
//! The [`GraphView`] impl merges the two layers: adjacency is
//! `base ∪ delta − tombstones`, and the iteration order is exactly the
//! order a compacted rebuild would produce (base out-edges, delta
//! out-edges, base in-edges, delta in-edges, each in insertion order), so
//! search results — including tie-breaks — match the compacted graph.
//!
//! One scoping note on that identity: φ *type buckets*
//! ([`GraphView::nodes_with_type`]) concatenate the base bucket and the
//! delta bucket, while compaction rebuilds buckets in node-id order. For
//! any builder-produced base those agree (buckets are filled in id order),
//! but a base mutated post-freeze by [`KnowledgeGraph::retype_node`] /
//! noise injection can hold an out-of-order bucket, in which case
//! *exact-score-tied* candidates may rank differently before vs after
//! compaction. Scores and answer sets are unaffected.

use super::overlay::DeltaOverlay;
use crate::graph::{AdjRecord, EdgeRecord, KnowledgeGraph, NeighborRef, Neighbors};
use crate::ids::{EdgeId, NodeId, PredicateId, TypeId};
use crate::view::GraphView;
use std::borrow::Cow;
use std::sync::Arc;

/// One consistent, immutable epoch of a [`crate::versioned::VersionedGraph`].
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    base: Arc<KnowledgeGraph>,
    delta: Arc<DeltaOverlay>,
    epoch: u64,
}

impl GraphSnapshot {
    pub(crate) fn new(base: Arc<KnowledgeGraph>, delta: Arc<DeltaOverlay>, epoch: u64) -> Self {
        Self { base, delta, epoch }
    }

    /// The epoch this snapshot was published at (0 = the initial base).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable base CSR under the overlay.
    pub fn base(&self) -> &KnowledgeGraph {
        &self.base
    }

    /// The frozen overlay committed on top of the base.
    pub fn delta(&self) -> &DeltaOverlay {
        &self.delta
    }

    /// True when the overlay is empty (snapshot == base CSR).
    pub fn is_compacted(&self) -> bool {
        self.delta.is_empty()
    }

    /// Nodes added on top of the base.
    pub fn delta_added_nodes(&self) -> usize {
        self.delta.added_nodes()
    }

    /// Edges added on top of the base (tombstoned or not).
    pub fn delta_added_edges(&self) -> usize {
        self.delta.added_edges()
    }

    /// Tombstoned (deleted) edges.
    pub fn tombstone_count(&self) -> usize {
        self.delta.tombstone_count()
    }

    fn base_nodes(&self) -> usize {
        self.delta.base_nodes as usize
    }

    fn base_edges(&self) -> usize {
        self.delta.base_edges as usize
    }
}

impl GraphView for GraphSnapshot {
    fn node_count(&self) -> usize {
        self.base_nodes() + self.delta.node_names.len()
    }

    fn edge_count(&self) -> usize {
        self.base_edges() + self.delta.edges.len() - self.delta.tombstones.len()
    }

    fn type_count(&self) -> usize {
        self.delta.base_types as usize + self.delta.new_types.len()
    }

    fn predicate_count(&self) -> usize {
        self.delta.base_predicates as usize + self.delta.new_predicates.len()
    }

    fn node_name(&self, node: NodeId) -> &str {
        match node.index().checked_sub(self.base_nodes()) {
            None => self.base.node_name(node),
            Some(i) => &self.delta.node_names[i],
        }
    }

    fn node_type(&self, node: NodeId) -> TypeId {
        match node.index().checked_sub(self.base_nodes()) {
            None => self.base.node_type(node),
            Some(i) => self.delta.node_types[i],
        }
    }

    fn type_id(&self, ty: &str) -> Option<TypeId> {
        self.delta.type_id(&self.base, ty)
    }

    fn type_name(&self, ty: TypeId) -> &str {
        match ty.index().checked_sub(self.delta.base_types as usize) {
            None => self.base.type_name(ty),
            Some(i) => self.delta.new_types.resolve(i as u32),
        }
    }

    fn predicate_id(&self, predicate: &str) -> Option<PredicateId> {
        self.delta.predicate_id(&self.base, predicate)
    }

    fn predicate_name(&self, predicate: PredicateId) -> &str {
        match predicate
            .index()
            .checked_sub(self.delta.base_predicates as usize)
        {
            None => self.base.predicate_name(predicate),
            Some(i) => self.delta.new_predicates.resolve(i as u32),
        }
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.delta.node_by_name(&self.base, name)
    }

    fn nodes_with_type(&self, ty: TypeId) -> Cow<'_, [NodeId]> {
        let delta = self.delta.nodes_by_type.get(&ty).map(Vec::as_slice);
        if ty.index() < self.delta.base_types as usize {
            let base = self.base.nodes_with_type(ty);
            match delta {
                None => Cow::Borrowed(base),
                Some(d) => {
                    let mut all = Vec::with_capacity(base.len() + d.len());
                    all.extend_from_slice(base);
                    all.extend_from_slice(d);
                    Cow::Owned(all)
                }
            }
        } else {
            Cow::Borrowed(delta.unwrap_or(&[]))
        }
    }

    fn edge(&self, edge: EdgeId) -> EdgeRecord {
        match edge.index().checked_sub(self.base_edges()) {
            None => self.base.edge(edge),
            Some(i) => self.delta.edges[i],
        }
    }

    fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).count()
    }

    fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NeighborRef> + '_ {
        const EMPTY: &[AdjRecord] = &[];
        let (base_out, base_in) = if node.index() < self.base_nodes() {
            (self.base.out_edges(node), self.base.in_edges(node))
        } else {
            (EMPTY, EMPTY)
        };
        let delta_out = self.delta.out_adj.get(&node).map_or(EMPTY, Vec::as_slice);
        let delta_in = self.delta.in_adj.get(&node).map_or(EMPTY, Vec::as_slice);
        let tombstones = &self.delta.tombstones;
        // Compaction order: out-edges in unified insertion order, then
        // in-edges likewise — so overlay reads tie-break exactly like a
        // rebuilt CSR (see module docs).
        Neighbors::new(
            [base_out, delta_out, base_in, delta_in],
            (!tombstones.is_empty()).then_some(tombstones),
        )
    }

    fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeRecord)> + '_ {
        let base_edges = self.delta.base_edges;
        self.base
            .edges()
            .chain(
                self.delta
                    .edges
                    .iter()
                    .enumerate()
                    .map(move |(i, &rec)| (EdgeId::new(base_edges + i as u32), rec)),
            )
            .filter(|&(id, _)| !self.delta.is_tombstoned(id))
    }

    fn types(&self) -> impl Iterator<Item = (TypeId, &str)> + '_ {
        let base_types = self.delta.base_types;
        self.base.types().chain(
            self.delta
                .new_types
                .iter()
                .map(move |(i, s)| (TypeId::new(base_types + i), s)),
        )
    }

    fn predicates(&self) -> impl Iterator<Item = (PredicateId, &str)> + '_ {
        let base_predicates = self.delta.base_predicates;
        self.base.predicates().chain(
            self.delta
                .new_predicates
                .iter()
                .map(move |(i, s)| (PredicateId::new(base_predicates + i), s)),
        )
    }

    fn duplicate_edges_dropped(&self) -> usize {
        // Writer-side duplicate drops live in `VersionedStats`; the
        // snapshot only knows what its base CSR collapsed.
        self.base.duplicate_edges_dropped()
    }
}
