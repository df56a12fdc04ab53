//! # sgq — semantic guided & response-time-bounded top-k graph query
//!
//! The core contribution of Wang et al., *Semantic Guided and Response Times
//! Bounded Top-k Similarity Search over Knowledge Graphs* (ICDE 2020):
//!
//! * **Query graphs** with *specific* (known name) and *target* (known type
//!   only) nodes — [`query::QueryGraph`] (paper Definition 2, Fig. 3);
//! * **Decomposition** of a general query graph into path-shaped sub-query
//!   graphs intersecting at a pivot node, with a search-space cost model and
//!   a minimum-cost pivot chooser (Definition 6, Eq. 1) — [`decompose`];
//! * **Semantic graph** weights computed on the fly from the predicate
//!   semantic space (Definition 5, §IV-B "a lightweight way") — [`semgraph`];
//! * **Path semantic similarity** and its admissible heuristic upper bound
//!   (Eqs. 6–7, Theorem 1) — [`pss`];
//! * **A\* semantic search** returning sub-query matches in non-increasing
//!   pss order (Algorithm 1, Theorem 2) — [`astar`];
//! * **Threshold-algorithm assembly** of sub-query matches into final top-k
//!   answers (Eqs. 8–11, Theorem 3) — [`ta`];
//! * **Time-bounded approximate optimisation** (TBQ; Algorithms 2–3,
//!   Theorem 4) — [`timebound`];
//! * the [`engine::SgqEngine`] facade tying everything together with one
//!   search job per sub-query graph (§V-B Remarks).
//!
//! Beyond the paper, the crate provides a **shared query runtime** for
//! serving production traffic:
//!
//! * [`runtime`] — an engine-lifetime [`runtime::WorkerPool`] on which
//!   sub-query searches are resumed as jobs; the hot path spawns no
//!   threads;
//! * [`engine::PreparedQuery`] — decomposition + plans compiled once via
//!   [`engine::SgqEngine::prepare`], executable any number of times with
//!   bit-identical results;
//! * a cross-query similarity-row cache ([`embedding::SimilarityIndex`])
//!   handing plans shared `Arc` rows instead of per-query `Vec`s;
//! * [`live`] — the [`live::LiveQueryService`] front-end serving many
//!   concurrent client threads over a [`kgraph::VersionedGraph`]: queries
//!   pin epoch snapshots while a writer streams edge updates, commits, and
//!   compactions underneath; a static graph is a store that never commits;
//! * [`service`] — the service's aggregated [`service::ServiceStats`] and
//!   registry instruments;
//! * [`sched`] — a deadline-aware [`sched::BatchScheduler`] in front of
//!   the service: a bounded admission queue, batching of compatible
//!   requests (one prepared execution answers a whole batch),
//!   earliest-deadline-first dispatch on the shared worker pool, and
//!   shed/degrade admission control driven by the Algorithm-3 estimator —
//!   under overload every response is exact, a *flagged* TBQ degradation,
//!   or an explicit shed, never silently wrong.
//!
//! ```
//! use kgraph::GraphBuilder;
//! use embedding::{train_transe, PredicateSpace, TrainConfig};
//! use lexicon::TransformationLibrary;
//! use sgq::{QueryGraph, SgqConfig, SgqEngine};
//!
//! // Fig. 2's running example, miniaturised.
//! let mut b = GraphBuilder::new();
//! let audi = b.add_node("Audi_TT", "Automobile");
//! let de = b.add_node("Germany", "Country");
//! b.add_edge(audi, de, "assembly");
//! let g = b.finish();
//!
//! let model = train_transe(&g, &TrainConfig { dim: 8, epochs: 5, ..Default::default() });
//! let space = PredicateSpace::from_model(&g, &model);
//! let lib = TransformationLibrary::new();
//!
//! // ?automobile --product--> Germany
//! let mut q = QueryGraph::new();
//! let car = q.add_target("Automobile");
//! let country = q.add_specific("Germany", "Country");
//! q.add_edge(car, "product", country);
//!
//! let engine = SgqEngine::new(&g, &space, &lib, SgqConfig { k: 5, tau: 0.0, ..Default::default() });
//! let result = engine.query(&q).unwrap();
//! assert_eq!(result.matches.len(), 1);
//! assert_eq!(g.node_name(result.matches[0].pivot), "Audi_TT");
//! ```

pub mod answer;
pub mod astar;
pub mod config;
pub mod decompose;
pub mod engine;
pub mod error;
pub mod live;
pub mod pss;
pub mod query;
pub mod runtime;
pub mod sched;
pub mod semgraph;
pub mod service;
pub mod ta;
pub mod timebound;
pub mod trace;

pub use obs;

pub use answer::{FinalMatch, QueryResult, QueryStats, SubMatch};
pub use config::{PivotStrategy, ScanMode, SchedConfig, SgqConfig};
pub use decompose::{Decomposition, SubQuery};
pub use engine::{PreparedQuery, SgqEngine};
pub use error::{Result, SgqError};
pub use live::{
    CheckpointReport, EpochEngine, LivePreparedQuery, LiveQueryService, ShardedDeployment,
    LIBRARY_FILE, SPACE_FILE,
};
pub use query::{QEdgeId, QNodeId, QueryEdge, QueryGraph, QueryNode, QueryNodeKind};
pub use runtime::WorkerPool;
pub use sched::{
    BatchScheduler, Priority, SchedBackend, SchedHandle, SchedOutcome, SchedResponse, SchedStats,
    ShedReason, Ticket,
};
pub use service::ServiceStats;
pub use timebound::TimeBoundConfig;
pub use trace::{QueryTrace, TraceSink};
