//! # kgraph — knowledge graph substrate
//!
//! An in-memory property-graph store tailored for the semantic-guided query
//! engine of Wang et al., *Semantic Guided and Response Times Bounded Top-k
//! Similarity Search over Knowledge Graphs* (ICDE 2020).
//!
//! A knowledge graph `G = (V, E, L)` (paper Definition 1) has:
//!
//! * nodes `u ∈ V` — entities carrying a **type** and a unique **name**,
//! * directed edges `e = (u_i, u_j) ∈ E` — carrying a **predicate**,
//! * a label function `L` realised here by a string [`Interner`] so that all
//!   hot-path comparisons are integer comparisons.
//!
//! Storage is a compressed-sparse-row (CSR) layout built once by
//! [`GraphBuilder::finish`]; both out- and in-adjacency are materialised
//! because path search in the paper ignores edge directionality while the
//! embedding model (TransE) needs directed triples. Each row entry is an
//! [`AdjRecord`] (neighbour, predicate, edge id), so a scan of a node's
//! adjacency reads one contiguous run.
//!
//! ```
//! use kgraph::{GraphBuilder, KnowledgeGraph};
//!
//! let mut b = GraphBuilder::new();
//! let audi = b.add_node("Audi_TT", "Automobile");
//! let germany = b.add_node("Germany", "Country");
//! b.add_edge(audi, germany, "assembly");
//! let g: KnowledgeGraph = b.finish();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.edge_count(), 1);
//! ```

pub mod error;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod io;
pub mod shard;
pub mod stats;
pub mod triple;
pub mod typing;
pub mod versioned;
pub mod view;

pub use error::{KgError, Result};
pub use graph::{AdjRecord, EdgeRecord, GraphBuilder, KnowledgeGraph, NeighborRef, Neighbors};
pub use ids::{EdgeId, NodeId, PredicateId, TypeId};
pub use interner::Interner;
pub use shard::Partitioner;
pub use stats::GraphStats;
pub use triple::Triple;
pub use versioned::{
    DeltaOverlay, GraphSnapshot, InsertOutcome, RecoveryReport, VersionedGraph, VersionedStats,
};
pub use view::GraphView;
