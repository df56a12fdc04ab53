//! The delta overlay: everything a [`crate::versioned::VersionedGraph`] has
//! accumulated on top of its immutable base CSR since the last compaction.
//!
//! Id spaces extend the base's dense ranges: delta node `i` has id
//! `base_nodes + i`, delta edge `i` has id `base_edges + i`, and newly
//! interned types/predicates continue the base interners. Deletions never
//! reclaim ids — a deleted edge is *tombstoned* and its id stays resolvable
//! (so stored matches keep rendering) but disappears from adjacency,
//! [`crate::GraphView::edges`] and [`crate::GraphView::edge_count`].

use crate::graph::{AdjRecord, EdgeRecord, KnowledgeGraph};
use crate::ids::{EdgeId, NodeId, PredicateId, TypeId};
use crate::interner::Interner;
use rustc_hash::{FxHashMap, FxHashSet};

/// Mutations layered over one base [`KnowledgeGraph`] (see module docs).
///
/// The writer mutates one instance in place; [`commit`] freezes a clone of
/// it into the published snapshot, so the struct doubles as accumulator and
/// frozen overlay.
///
/// [`commit`]: crate::versioned::VersionedGraph::commit
#[derive(Debug, Clone, Default)]
pub struct DeltaOverlay {
    /// Node-id watermark of the base (delta node `i` ⇒ id `base_nodes + i`).
    pub(crate) base_nodes: u32,
    /// Edge-id watermark of the base.
    pub(crate) base_edges: u32,
    /// Type-id watermark of the base.
    pub(crate) base_types: u32,
    /// Predicate-id watermark of the base.
    pub(crate) base_predicates: u32,
    /// Names of nodes added since compaction, in insertion order.
    pub(crate) node_names: Vec<Box<str>>,
    /// Types of the added nodes (parallel to `node_names`).
    pub(crate) node_types: Vec<TypeId>,
    /// Name → id for the added nodes only (base names resolve via the base).
    pub(crate) name_to_node: FxHashMap<Box<str>, NodeId>,
    /// Types interned since compaction; overlay id `i` ⇒ `base_types + i`.
    pub(crate) new_types: Interner,
    /// Predicates interned since compaction; same offset scheme.
    pub(crate) new_predicates: Interner,
    /// Edges added since compaction, in insertion order.
    pub(crate) edges: Vec<EdgeRecord>,
    /// Per-source adjacency over the added edges, as the base CSR's rows
    /// hold it (unified edge ids).
    pub(crate) out_adj: FxHashMap<NodeId, Vec<AdjRecord>>,
    /// Per-target adjacency over the added edges, likewise.
    pub(crate) in_adj: FxHashMap<NodeId, Vec<AdjRecord>>,
    /// Deleted edges (base or delta ids).
    pub(crate) tombstones: FxHashSet<EdgeId>,
    /// Added nodes grouped by type (types may be base or new).
    pub(crate) nodes_by_type: FxHashMap<TypeId, Vec<NodeId>>,
}

impl DeltaOverlay {
    /// An empty overlay anchored at `base`'s id watermarks.
    pub(crate) fn empty(base: &KnowledgeGraph) -> Self {
        Self {
            base_nodes: base.node_count() as u32,
            base_edges: base.edge_count() as u32,
            base_types: base.type_count() as u32,
            base_predicates: base.predicate_count() as u32,
            ..Self::default()
        }
    }

    /// True when nothing has been added or tombstoned.
    pub fn is_empty(&self) -> bool {
        self.node_names.is_empty() && self.edges.is_empty() && self.tombstones.is_empty()
    }

    /// Number of nodes added on top of the base.
    pub fn added_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges added on top of the base (tombstoned or not).
    pub fn added_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of tombstoned (deleted) edges.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Is `edge` deleted in this overlay?
    #[inline]
    pub(crate) fn is_tombstoned(&self, edge: EdgeId) -> bool {
        self.tombstones.contains(&edge)
    }

    /// Resolves a type label against base-then-delta, interning on miss.
    pub(crate) fn intern_type(&mut self, base: &KnowledgeGraph, label: &str) -> TypeId {
        if let Some(id) = base.type_id(label) {
            return id;
        }
        TypeId::new(self.base_types + self.new_types.intern(label))
    }

    /// Resolves an already-interned type label (base first, then delta).
    pub(crate) fn type_id(&self, base: &KnowledgeGraph, label: &str) -> Option<TypeId> {
        base.type_id(label).or_else(|| {
            self.new_types
                .get(label)
                .map(|i| TypeId::new(self.base_types + i))
        })
    }

    /// Resolves a predicate label against base-then-delta, interning on miss.
    pub(crate) fn intern_predicate(&mut self, base: &KnowledgeGraph, label: &str) -> PredicateId {
        if let Some(id) = base.predicate_id(label) {
            return id;
        }
        PredicateId::new(self.base_predicates + self.new_predicates.intern(label))
    }

    /// Resolves an already-interned predicate label (base first, then delta).
    pub(crate) fn predicate_id(&self, base: &KnowledgeGraph, label: &str) -> Option<PredicateId> {
        base.predicate_id(label).or_else(|| {
            self.new_predicates
                .get(label)
                .map(|i| PredicateId::new(self.base_predicates + i))
        })
    }

    /// Resolves an entity name to its node id (base first, then delta).
    pub(crate) fn node_by_name(&self, base: &KnowledgeGraph, name: &str) -> Option<NodeId> {
        base.node_by_name(name)
            .or_else(|| self.name_to_node.get(name).copied())
    }

    /// Resolves a node by name or creates it with type `ty`. Like
    /// [`crate::GraphBuilder::add_node`], an existing node keeps its type.
    pub(crate) fn resolve_or_add_node(
        &mut self,
        base: &KnowledgeGraph,
        name: &str,
        ty: &str,
    ) -> NodeId {
        if let Some(node) = self.node_by_name(base, name) {
            return node;
        }
        let type_id = self.intern_type(base, ty);
        let node = NodeId::new(self.base_nodes + self.node_names.len() as u32);
        let boxed: Box<str> = name.into();
        self.node_names.push(boxed.clone());
        self.node_types.push(type_id);
        self.name_to_node.insert(boxed, node);
        self.nodes_by_type.entry(type_id).or_default().push(node);
        node
    }

    /// Resolves a node id (base or delta) back to its entity name; used by
    /// the WAL to log id-addressed deletions by label.
    pub(crate) fn node_label<'a>(&'a self, base: &'a KnowledgeGraph, node: NodeId) -> &'a str {
        match node.index().checked_sub(self.base_nodes as usize) {
            None => base.node_name(node),
            Some(i) => &self.node_names[i],
        }
    }

    /// Resolves a predicate id (base or delta) back to its label.
    pub(crate) fn predicate_label<'a>(
        &'a self,
        base: &'a KnowledgeGraph,
        pred: PredicateId,
    ) -> &'a str {
        match pred.index().checked_sub(self.base_predicates as usize) {
            None => base.predicate_name(pred),
            Some(i) => self.new_predicates.resolve(i as u32),
        }
    }

    /// Appends a delta edge (caller has already ruled out duplicates).
    pub(crate) fn push_edge(&mut self, record: EdgeRecord) -> EdgeId {
        let id = EdgeId::new(self.base_edges + self.edges.len() as u32);
        self.edges.push(record);
        self.out_adj.entry(record.src).or_default().push(AdjRecord {
            node: record.dst,
            predicate: record.predicate,
            edge: id,
        });
        self.in_adj.entry(record.dst).or_default().push(AdjRecord {
            node: record.src,
            predicate: record.predicate,
            edge: id,
        });
        id
    }
}
