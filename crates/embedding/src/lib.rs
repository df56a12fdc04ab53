//! # embedding — knowledge-graph embedding models
//!
//! Phase 1 of the paper (§IV-A): learn an n-dimensional semantic vector for
//! every predicate and entity such that the graph's relational structure is
//! preserved, then expose the **predicate semantic space** `E = {e₁…eₙ}`
//! whose pairwise cosine similarities (Eq. 5) weight the semantic graph.
//!
//! The model is [`TransE`] (Bordes et al. NIPS 2013), the one the paper
//! selects, trained with margin-based ranking loss, uniform negative
//! sampling and plain SGD, the recipe summarised in the paper's §IV-A:
//! *"(1) initialize the vector of each element in triple <h,r,t>, (2)
//! define a function g() to measure the relation, such as h + r ≈ t, (3)
//! optimize g()"*.
//!
//! ```
//! use kgraph::GraphBuilder;
//! use embedding::{TrainConfig, train_transe, PredicateSpace};
//!
//! let mut b = GraphBuilder::new();
//! let de = b.add_node("Germany", "Country");
//! let bmw = b.add_node("BMW_320", "Automobile");
//! let x6 = b.add_node("BMW_X6", "Automobile");
//! b.add_edge(bmw, de, "assembly");
//! b.add_edge(x6, de, "product");
//! let g = b.finish();
//!
//! let cfg = TrainConfig { dim: 16, epochs: 30, ..TrainConfig::default() };
//! let model = train_transe(&g, &cfg);
//! let space = PredicateSpace::from_model(&g, &model);
//! let a = g.predicate_id("assembly").unwrap();
//! let p = g.predicate_id("product").unwrap();
//! assert!(space.sim(a, p) <= 1.0 + 1e-6);
//! ```

pub mod model;
pub mod similarity;
pub mod space;
pub mod trainer;
pub mod transe;
pub mod vector;

pub use similarity::{RowBundle, RowKey, SimilarityIndex, SimilarityIndexStats};
pub use space::PredicateSpace;
pub use trainer::{train, train_transe, TrainConfig, TrainReport};
pub use transe::TransE;
