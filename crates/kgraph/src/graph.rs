//! Core knowledge-graph storage.
//!
//! [`GraphBuilder`] accumulates nodes and edges in insertion order, then
//! [`GraphBuilder::finish`] freezes them into a [`KnowledgeGraph`] with CSR
//! (compressed sparse row) adjacency for both edge directions. The frozen
//! graph is immutable and `Sync`, so the query engine can share it across
//! per-sub-query search threads without locking.
//!
//! A CSR row holds [`AdjRecord`]s — neighbour, predicate and edge id side by
//! side — so reading a node's adjacency is one contiguous scan, with no
//! second load into the edge array per entry.

use crate::error::{KgError, Result};
use crate::ids::{EdgeId, NodeId, PredicateId, TypeId};
use crate::interner::Interner;
use crate::triple::Triple;
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

/// A directed, predicate-labelled edge `(src) --pred--> (dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeRecord {
    /// Head entity.
    pub src: NodeId,
    /// Tail entity.
    pub dst: NodeId,
    /// Interned predicate label.
    pub predicate: PredicateId,
}

/// One step of adjacency seen from a node, direction-annotated.
///
/// Path search in the paper ignores edge directionality (Definition 4,
/// footnote 1), so [`KnowledgeGraph::neighbors`] yields both incident
/// directions; `outgoing` records the original orientation for callers that
/// need it (e.g. the TransE trainer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborRef {
    /// The node at the other end of the edge.
    pub node: NodeId,
    /// Predicate on the traversed edge.
    pub predicate: PredicateId,
    /// The edge itself.
    pub edge: EdgeId,
    /// True when the edge leaves the queried node (`queried --> node`).
    pub outgoing: bool,
}

/// One entry of a CSR adjacency row: the edge seen from the row's node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjRecord {
    /// The node at the other end of the edge.
    pub node: NodeId,
    /// Predicate on the edge.
    pub predicate: PredicateId,
    /// The edge itself.
    pub edge: EdgeId,
}

/// A node's adjacency as [`NeighborRef`]s: up to four runs of
/// [`AdjRecord`]s read in order, the first two outgoing and the last two
/// incoming. A versioned snapshot passes its base and delta rows per
/// direction; the frozen graph leaves the delta runs empty. Edges in
/// `tombstones` are skipped, and `None` skips the probe altogether.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    runs: [&'a [AdjRecord]; 4],
    /// Index in `runs` of the run `cur` reads.
    run: usize,
    cur: std::slice::Iter<'a, AdjRecord>,
    tombstones: Option<&'a FxHashSet<EdgeId>>,
}

impl<'a> Neighbors<'a> {
    pub(crate) fn new(
        runs: [&'a [AdjRecord]; 4],
        tombstones: Option<&'a FxHashSet<EdgeId>>,
    ) -> Self {
        Self {
            runs,
            run: 0,
            cur: runs[0].iter(),
            tombstones,
        }
    }
}

impl Iterator for Neighbors<'_> {
    type Item = NeighborRef;

    #[inline]
    fn next(&mut self) -> Option<NeighborRef> {
        loop {
            match self.cur.next() {
                Some(r) => {
                    if self.tombstones.is_some_and(|t| t.contains(&r.edge)) {
                        continue;
                    }
                    return Some(NeighborRef {
                        node: r.node,
                        predicate: r.predicate,
                        edge: r.edge,
                        outgoing: self.run < 2,
                    });
                }
                None if self.run + 1 < self.runs.len() => {
                    self.run += 1;
                    self.cur = self.runs[self.run].iter();
                }
                None => return None,
            }
        }
    }
}

/// Both-direction CSR adjacency: `out[out_offsets[u]..out_offsets[u + 1]]`
/// is `u`'s out-row and `inn[in_offsets[u]..in_offsets[u + 1]]` its in-row,
/// each in edge-id order.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    out_offsets: Vec<u32>,
    out: Vec<AdjRecord>,
    in_offsets: Vec<u32>,
    inn: Vec<AdjRecord>,
}

impl Csr {
    /// Counting sort of `edges` (indexed by edge id) into per-node rows, one
    /// pass per direction: O(n + m), no per-node allocation. The one place
    /// adjacency order is decided — [`GraphBuilder::finish`] and the
    /// snapshot loader both call it, so a loaded graph's rows equal the
    /// saved graph's, and A\*'s tie-breaks with them.
    pub(crate) fn build(node_count: usize, edges: &[EdgeRecord]) -> Self {
        let mut out_offsets = vec![0u32; node_count + 1];
        let mut in_offsets = vec![0u32; node_count + 1];
        for e in edges {
            out_offsets[e.src.index() + 1] += 1;
            in_offsets[e.dst.index() + 1] += 1;
        }
        for i in 0..node_count {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let blank = AdjRecord {
            node: NodeId::new(0),
            predicate: PredicateId::new(0),
            edge: EdgeId::new(0),
        };
        let mut out = vec![blank; edges.len()];
        let mut inn = vec![blank; edges.len()];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (idx, e) in edges.iter().enumerate() {
            let edge = EdgeId::new(idx as u32);
            let oc = &mut out_cursor[e.src.index()];
            out[*oc as usize] = AdjRecord {
                node: e.dst,
                predicate: e.predicate,
                edge,
            };
            *oc += 1;
            let ic = &mut in_cursor[e.dst.index()];
            inn[*ic as usize] = AdjRecord {
                node: e.src,
                predicate: e.predicate,
                edge,
            };
            *ic += 1;
        }
        Self {
            out_offsets,
            out,
            in_offsets,
            inn,
        }
    }
}

/// Incremental builder for a [`KnowledgeGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    names: Interner,
    types: Interner,
    predicates: Interner,
    node_name: Vec<u32>,
    node_type: Vec<TypeId>,
    name_to_node: FxHashMap<u32, NodeId>,
    edges: Vec<EdgeRecord>,
    /// Exact-duplicate guard: real dumps repeat triples, and duplicate
    /// `(src, predicate, dst)` edges would inflate CSR adjacency and skew
    /// the decomposition cost model's `avg_degree`.
    edge_ids: FxHashMap<EdgeRecord, EdgeId>,
    /// How many exact-duplicate insertions the guard collapsed.
    duplicate_edges_dropped: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entity with a unique `name` and a `ty` label, returning its id.
    ///
    /// If an entity with the same name already exists its id is returned
    /// unchanged (names are unique per Definition 1 / Example 1); the type of
    /// the existing node is *not* modified.
    pub fn add_node(&mut self, name: &str, ty: &str) -> NodeId {
        let name_id = self.names.intern(name);
        if let Some(&node) = self.name_to_node.get(&name_id) {
            return node;
        }
        let type_id = TypeId::new(self.types.intern(ty));
        let node = NodeId::new(self.node_name.len() as u32);
        self.node_name.push(name_id);
        self.node_type.push(type_id);
        self.name_to_node.insert(name_id, node);
        node
    }

    /// Adds a node whose type is not yet known; it can later be assigned by
    /// the probabilistic typing pass (paper Example 1, [`crate::typing`]).
    pub fn add_untyped_node(&mut self, name: &str) -> NodeId {
        self.add_node(name, crate::typing::UNKNOWN_TYPE)
    }

    /// Looks up a node id by entity name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names
            .get(name)
            .and_then(|id| self.name_to_node.get(&id).copied())
    }

    /// Adds a directed edge `src --predicate--> dst`, returning its id.
    ///
    /// Exact duplicates (same `src`, `predicate` and `dst`) collapse onto
    /// the first insertion and return its id, so repeated triples in a dump
    /// cannot inflate adjacency or the cost model's average degree.
    /// Parallel edges with *different* predicates are preserved.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, predicate: &str) -> EdgeId {
        let pred = PredicateId::new(self.predicates.intern(predicate));
        let record = EdgeRecord {
            src,
            dst,
            predicate: pred,
        };
        if let Some(&existing) = self.edge_ids.get(&record) {
            self.duplicate_edges_dropped += 1;
            return existing;
        }
        let edge = EdgeId::new(self.edges.len() as u32);
        self.edges.push(record);
        self.edge_ids.insert(record, edge);
        edge
    }

    /// Adds a triple, creating endpoint nodes as needed.
    pub fn add_triple(
        &mut self,
        head: (&str, &str),
        predicate: &str,
        tail: (&str, &str),
    ) -> EdgeId {
        let h = self.add_node(head.0, head.1);
        let t = self.add_node(tail.0, tail.1);
        self.add_edge(h, t, predicate)
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_name.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// How many exact-duplicate edge insertions have been collapsed so far
    /// (the builder dedupes silently; this makes the drops observable).
    pub fn duplicate_edges_dropped(&self) -> usize {
        self.duplicate_edges_dropped
    }

    /// Interns a type label without attaching it to a node yet. Used by
    /// [`crate::versioned::VersionedGraph::compact`] to reproduce a
    /// snapshot's type-id order before nodes are re-added, so type ids
    /// survive compaction.
    pub fn intern_type(&mut self, ty: &str) -> TypeId {
        TypeId::new(self.types.intern(ty))
    }

    /// Interns a predicate label without attaching it to an edge yet (the
    /// compaction counterpart of [`GraphBuilder::intern_type`], keeping
    /// predicate ids — and therefore predicate-space rows — stable).
    pub fn intern_predicate(&mut self, predicate: &str) -> PredicateId {
        PredicateId::new(self.predicates.intern(predicate))
    }

    /// Freezes the builder into an immutable CSR-backed graph.
    pub fn finish(self) -> KnowledgeGraph {
        let csr = Csr::build(self.node_name.len(), &self.edges);
        let mut nodes_by_type: Vec<Vec<NodeId>> = vec![Vec::new(); self.types.len()];
        for (idx, ty) in self.node_type.iter().enumerate() {
            nodes_by_type[ty.index()].push(NodeId::new(idx as u32));
        }

        KnowledgeGraph {
            names: self.names,
            types: self.types,
            predicates: self.predicates,
            node_name: self.node_name,
            node_type: self.node_type,
            name_to_node: self.name_to_node,
            nodes_by_type,
            edges: self.edges,
            csr,
            duplicate_edges_dropped: self.duplicate_edges_dropped,
        }
    }
}

/// An immutable knowledge graph `G = (V, E, L)` with CSR adjacency.
///
/// Fields are `pub(crate)` so the snapshot codec ([`crate::io::shard`])
/// can dump the vocabulary and edge arrays and reconstruct the graph
/// without going through the builder.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    pub(crate) names: Interner,
    pub(crate) types: Interner,
    pub(crate) predicates: Interner,
    pub(crate) node_name: Vec<u32>,
    pub(crate) node_type: Vec<TypeId>,
    pub(crate) name_to_node: FxHashMap<u32, NodeId>,
    pub(crate) nodes_by_type: Vec<Vec<NodeId>>,
    pub(crate) edges: Vec<EdgeRecord>,
    pub(crate) csr: Csr,
    pub(crate) duplicate_edges_dropped: usize,
}

impl KnowledgeGraph {
    /// Number of entities.
    pub fn node_count(&self) -> usize {
        self.node_name.len()
    }

    /// Number of directed edges (relations).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct entity types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// How many exact-duplicate edge insertions the builder collapsed while
    /// this graph was assembled.
    pub fn duplicate_edges_dropped(&self) -> usize {
        self.duplicate_edges_dropped
    }

    /// Number of distinct predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Entity name of `node`.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.names.resolve(self.node_name[node.index()])
    }

    /// Entity type id of `node`.
    pub fn node_type(&self, node: NodeId) -> TypeId {
        self.node_type[node.index()]
    }

    /// Entity type label of `node`.
    pub fn node_type_name(&self, node: NodeId) -> &str {
        self.types.resolve(self.node_type[node.index()].0)
    }

    /// Resolves a type label to its id.
    pub fn type_id(&self, ty: &str) -> Option<TypeId> {
        self.types.get(ty).map(TypeId::new)
    }

    /// Resolves a type id to its label.
    pub fn type_name(&self, ty: TypeId) -> &str {
        self.types.resolve(ty.0)
    }

    /// Resolves a predicate label to its id.
    pub fn predicate_id(&self, predicate: &str) -> Option<PredicateId> {
        self.predicates.get(predicate).map(PredicateId::new)
    }

    /// Resolves a predicate id to its label.
    pub fn predicate_name(&self, predicate: PredicateId) -> &str {
        self.predicates.resolve(predicate.0)
    }

    /// Looks up an entity by its unique name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names
            .get(name)
            .and_then(|id| self.name_to_node.get(&id).copied())
    }

    /// All entities carrying type `ty`, in insertion order.
    pub fn nodes_with_type(&self, ty: TypeId) -> &[NodeId] {
        &self.nodes_by_type[ty.index()]
    }

    /// The edge record behind `edge`.
    pub fn edge(&self, edge: EdgeId) -> EdgeRecord {
        self.edges[edge.index()]
    }

    /// Checked edge access.
    pub fn try_edge(&self, edge: EdgeId) -> Result<EdgeRecord> {
        self.edges
            .get(edge.index())
            .copied()
            .ok_or(KgError::EdgeOutOfRange {
                id: edge.0,
                len: self.edges.len(),
            })
    }

    /// Out-edges of `node` (edges with `node` as head), each record naming
    /// the edge's tail, in edge-id order.
    pub fn out_edges(&self, node: NodeId) -> &[AdjRecord] {
        let csr = &self.csr;
        let lo = csr.out_offsets[node.index()] as usize;
        let hi = csr.out_offsets[node.index() + 1] as usize;
        &csr.out[lo..hi]
    }

    /// In-edges of `node` (edges with `node` as tail), each record naming
    /// the edge's head, in edge-id order.
    pub fn in_edges(&self, node: NodeId) -> &[AdjRecord] {
        let csr = &self.csr;
        let lo = csr.in_offsets[node.index()] as usize;
        let hi = csr.in_offsets[node.index() + 1] as usize;
        &csr.inn[lo..hi]
    }

    /// Undirected degree (in + out).
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_edges(node).len() + self.in_edges(node).len()
    }

    /// Iterates both-direction adjacency of `node`, out-edges first (paper
    /// paths ignore directionality; see Definition 4 footnote).
    pub fn neighbors(&self, node: NodeId) -> Neighbors<'_> {
        Neighbors::new([self.out_edges(node), &[], self.in_edges(node), &[]], None)
    }

    /// Iterates all edges as `(EdgeId, EdgeRecord)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeRecord)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &rec)| (EdgeId::new(i as u32), rec))
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_name.len() as u32).map(NodeId::new)
    }

    /// Iterates all edges as string [`Triple`]s (for I/O and embedding input).
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.edges.iter().map(|e| Triple {
            head: self.node_name(e.src).to_string(),
            head_type: self.node_type_name(e.src).to_string(),
            predicate: self.predicate_name(e.predicate).to_string(),
            tail: self.node_name(e.dst).to_string(),
            tail_type: self.node_type_name(e.dst).to_string(),
        })
    }

    /// Iterates interned type labels as `(TypeId, label)`.
    pub fn types(&self) -> impl Iterator<Item = (TypeId, &str)> {
        self.types.iter().map(|(id, s)| (TypeId::new(id), s))
    }

    /// Iterates interned predicate labels as `(PredicateId, label)`.
    pub fn predicates(&self) -> impl Iterator<Item = (PredicateId, &str)> {
        self.predicates
            .iter()
            .map(|(id, s)| (PredicateId::new(id), s))
    }

    /// Re-assigns the type of a node (used by the probabilistic typing pass
    /// and by noise injection).
    pub fn retype_node(&mut self, node: NodeId, ty: TypeId) {
        let old = self.node_type[node.index()];
        if old == ty {
            return;
        }
        self.nodes_by_type[old.index()].retain(|&n| n != node);
        self.node_type[node.index()] = ty;
        self.nodes_by_type[ty.index()].push(node);
    }

    /// Interns a (possibly new) type label on a frozen graph (used together
    /// with [`Self::retype_node`] by noise-injection tooling).
    pub fn intern_type(&mut self, ty: &str) -> TypeId {
        let id = self.types.intern(ty);
        if id as usize >= self.nodes_by_type.len() {
            self.nodes_by_type.push(Vec::new());
        }
        TypeId::new(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> KnowledgeGraph {
        // The Fig. 2 running example, abbreviated.
        let mut b = GraphBuilder::new();
        let audi = b.add_node("Audi_TT", "Automobile");
        let germany = b.add_node("Germany", "Country");
        let vw = b.add_node("Volkswagen", "Company");
        let kia = b.add_node("KIA_K5", "Automobile");
        let peter = b.add_node("Peter_Schreyer", "Person");
        b.add_edge(audi, germany, "assembly");
        b.add_edge(vw, audi, "product");
        b.add_edge(peter, kia, "designer");
        b.add_edge(peter, germany, "nationality");
        b.finish()
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.type_count(), 4);
        assert_eq!(g.predicate_count(), 4);
    }

    #[test]
    fn node_lookup_by_name_and_type() {
        let g = tiny();
        let audi = g.node_by_name("Audi_TT").unwrap();
        assert_eq!(g.node_name(audi), "Audi_TT");
        assert_eq!(g.node_type_name(audi), "Automobile");
        let autos = g.nodes_with_type(g.type_id("Automobile").unwrap());
        assert_eq!(autos.len(), 2);
        assert!(g.node_by_name("BMW_320").is_none());
    }

    #[test]
    fn duplicate_node_names_reuse_id() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("Germany", "Country");
        let b2 = b.add_node("Germany", "State"); // ignored type
        assert_eq!(a, b2);
        let g = b.finish();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.node_type_name(a), "Country");
    }

    #[test]
    fn adjacency_both_directions() {
        let g = tiny();
        let audi = g.node_by_name("Audi_TT").unwrap();
        // audi --assembly--> germany (out), vw --product--> audi (in)
        assert_eq!(g.out_edges(audi).len(), 1);
        assert_eq!(g.in_edges(audi).len(), 1);
        assert_eq!(g.degree(audi), 2);
        let mut preds: Vec<&str> = g
            .neighbors(audi)
            .map(|n| g.predicate_name(n.predicate))
            .collect();
        preds.sort_unstable();
        assert_eq!(preds, vec!["assembly", "product"]);
        let outgoing: Vec<bool> = g.neighbors(audi).map(|n| n.outgoing).collect();
        assert_eq!(outgoing, vec![true, false]);
    }

    #[test]
    fn neighbors_reach_expected_nodes() {
        let g = tiny();
        let germany = g.node_by_name("Germany").unwrap();
        let mut names: Vec<&str> = g.neighbors(germany).map(|n| g.node_name(n.node)).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["Audi_TT", "Peter_Schreyer"]);
    }

    #[test]
    fn edge_accessors() {
        let g = tiny();
        let (id, rec) = g.edges().next().unwrap();
        assert_eq!(g.edge(id), rec);
        assert!(g.try_edge(EdgeId::new(99)).is_err());
        assert_eq!(g.predicate_name(rec.predicate), "assembly");
    }

    #[test]
    fn triples_roundtrip_labels() {
        let g = tiny();
        let triples: Vec<Triple> = g.triples().collect();
        assert_eq!(triples.len(), 4);
        assert_eq!(triples[0].head, "Audi_TT");
        assert_eq!(triples[0].predicate, "assembly");
        assert_eq!(triples[0].tail, "Germany");
        assert_eq!(triples[0].tail_type, "Country");
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().finish();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn self_loop_counts_in_both_rows() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", "T");
        b.add_edge(a, a, "self");
        let g = b.finish();
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.neighbors(a).count(), 2);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("X", "T");
        let y = b.add_node("Y", "T");
        b.add_edge(x, y, "p");
        b.add_edge(x, y, "q");
        let g = b.finish();
        assert_eq!(g.out_edges(x).len(), 2);
        assert_eq!(g.in_edges(y).len(), 2);
    }

    #[test]
    fn exact_duplicate_edges_collapse() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("X", "T");
        let y = b.add_node("Y", "T");
        let first = b.add_edge(x, y, "p");
        let dup = b.add_edge(x, y, "p");
        assert_eq!(first, dup, "duplicate insertion returns the original id");
        b.add_edge(y, x, "p"); // reversed direction is a distinct edge
        b.add_edge(x, y, "q"); // different predicate is a distinct edge
        assert_eq!(b.edge_count(), 3);
        assert_eq!(b.duplicate_edges_dropped(), 1);
        let g = b.finish();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.duplicate_edges_dropped(), 1);
        assert_eq!(g.out_edges(x).len(), 2);
        assert_eq!(g.degree(x), 3);
        // avg_degree feeds the decomposition cost model: 3 edges, 2 nodes.
        let stats = crate::stats::GraphStats::of(&g);
        assert!((stats.avg_degree - 3.0).abs() < 1e-9);
    }

    #[test]
    fn builder_interns_vocabulary_ahead_of_use() {
        let mut b = GraphBuilder::new();
        let t0 = b.intern_type("Automobile");
        let p0 = b.intern_predicate("assembly");
        let p1 = b.intern_predicate("product");
        // Re-interning through normal node/edge insertion reuses the ids.
        let a = b.add_node("Audi_TT", "Automobile");
        let d = b.add_node("Germany", "Country");
        let e = b.add_edge(a, d, "product");
        let g = b.finish();
        assert_eq!(g.node_type(a), t0);
        assert_eq!(g.edge(e).predicate, p1);
        assert_eq!(g.predicate_id("assembly"), Some(p0));
        // Pre-interned but unused labels survive into the frozen graph.
        assert_eq!(g.predicate_count(), 2);
        assert_eq!(g.type_count(), 2);
        assert!(g.nodes_with_type(t0).contains(&a));
    }

    #[test]
    fn retype_node_moves_type_buckets() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", "T1");
        b.add_node("pad", "T2");
        let mut g = b.finish();
        let t2 = g.type_id("T2").unwrap();
        g.retype_node(a, t2);
        assert_eq!(g.node_type(a), t2);
        assert!(g.nodes_with_type(g.type_id("T1").unwrap()).is_empty());
        assert!(g.nodes_with_type(t2).contains(&a));
    }
}
