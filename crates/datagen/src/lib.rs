//! # datagen — synthetic datasets, workloads and evaluation metrics
//!
//! The paper evaluates on DBpedia, Freebase and YAGO2 with QALD-4,
//! WebQuestions and RDF-3x workloads. Those multi-gigabyte resources cannot
//! ship with a reproduction, so this crate generates **schema-faithful
//! synthetic substitutes**: knowledge graphs whose predicate
//! vocabulary is grouped into semantic clusters, whose query intents are
//! answerable through several n-hop paraphrase schemas with controlled
//! cardinalities (the Fig. 1 situation), and whose ground truth is recorded
//! exactly during generation.
//!
//! The crate also provides the evaluation machinery of §VII: precision /
//! recall / F1, the Jaccard approximation degree (Eq. 12), Pearson
//! correlation for the simulated user study (Table VII), and the node/edge
//! noise injectors of §VII-E.

pub mod annotate;
pub mod churn;
pub mod dataset;
pub mod metrics;
pub mod noise;
pub mod schema;
pub mod workload;

pub use churn::{apply_churn, apply_churn_stream, churn_stream, ChurnOp};
pub use dataset::{BenchDataset, DatasetSpec};
pub use metrics::{f1_score, jaccard, pearson, precision_recall, EffReport};
pub use schema::{predicate_clusters, PredicateCluster};
pub use workload::BenchQuery;
