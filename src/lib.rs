//! # semkg — semantic guided, response-time-bounded top-k search over knowledge graphs
//!
//! A from-scratch Rust reproduction of Wang, Khan, Wu, Jin, Yan:
//! *Semantic Guided and Response Times Bounded Top-k Similarity Search over
//! Knowledge Graphs* (ICDE 2020, arXiv:1910.06584).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`kgraph`] — the knowledge-graph store (Definition 1);
//! * [`embedding`] — TransE-family embedding + the predicate semantic space
//!   (§IV-A);
//! * [`lexicon`] — the synonym/abbreviation transformation library and node
//!   matcher φ (Definition 3, Table III);
//! * [`sgq`] — the paper's contribution: semantic graph, pss, A\* semantic
//!   search, TA assembly, and the TBQ time-bounded variant (§IV–VI);
//! * [`baselines`] — the seven comparator methods of Table II;
//! * [`datagen`] — synthetic datasets, workloads, metrics, noise and the
//!   simulated user study (§VII substrate).
//!
//! ## Quickstart
//!
//! ```
//! use semkg::prelude::*;
//!
//! // 1. Build (or load) a knowledge graph.
//! let mut b = GraphBuilder::new();
//! let audi = b.add_node("Audi_TT", "Automobile");
//! let bmw = b.add_node("BMW_320", "Automobile");
//! let de = b.add_node("Germany", "Country");
//! b.add_edge(audi, de, "assembly");
//! b.add_edge(bmw, de, "product");
//! let graph = b.finish();
//!
//! // 2. Learn the predicate semantic space offline (paper Phase 1).
//! let model = train_transe(&graph, &TrainConfig { dim: 16, epochs: 20, ..Default::default() });
//! let space = PredicateSpace::from_model(&graph, &model);
//!
//! // 3. Pose a query graph: ?<Automobile> --product--> Germany.
//! let mut q = QueryGraph::new();
//! let car = q.add_target("Automobile");
//! let country = q.add_specific("Germany", "Country");
//! q.add_edge(car, "product", country);
//!
//! // 4. Query.
//! let library = TransformationLibrary::new();
//! let engine = SgqEngine::new(&graph, &space, &library, SgqConfig { k: 5, tau: 0.0, ..Default::default() });
//! let result = engine.query(&q).unwrap();
//! assert_eq!(result.matches.len(), 2);
//! ```

pub use baselines;
pub use datagen;
pub use embedding;
pub use kgraph;
pub use lexicon;
pub use obs;
pub use sgq;

/// One-stop imports for applications.
pub mod prelude {
    pub use baselines::{all_baselines, GraphQueryMethod};
    pub use datagen::churn::{apply_churn_stream, churn_stream, ChurnOp};
    pub use datagen::dataset::{BenchDataset, DatasetSpec};
    pub use embedding::{train_transe, PredicateSpace, TrainConfig};
    pub use kgraph::{
        GraphBuilder, GraphSnapshot, GraphStats, GraphView, KnowledgeGraph, NodeId, VersionedGraph,
    };
    pub use lexicon::{NodeMatcher, TransformationLibrary};
    pub use obs::{MetricsRegistry, MetricsSnapshot};
    pub use sgq::{
        BatchScheduler, CheckpointReport, FinalMatch, LivePreparedQuery, LiveQueryService,
        PivotStrategy, PreparedQuery, Priority, QueryGraph, QueryResult, QueryTrace, SchedConfig,
        SchedOutcome, SchedResponse, SchedStats, ServiceStats, SgqConfig, SgqEngine,
        ShardedDeployment, ShedReason, TimeBoundConfig, TraceSink,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", "T");
        let c = b.add_node("B", "T");
        b.add_edge(a, c, "p");
        let g = b.finish();
        assert_eq!(GraphStats::of(&g).relations, 1);
    }
}
