//! SGD training loop with uniform negative sampling.
//!
//! One "epoch" shuffles all graph triples and performs one margin-ranking
//! SGD step per triple against a corrupted negative (head **or** tail
//! replaced by a uniformly random entity, the `unif` strategy of the TransE
//! paper). Norm constraints are re-applied after every epoch.

use crate::model::IdxTriple;
use crate::transe::TransE;
use kgraph::KnowledgeGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the embedding trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Embedding dimensionality (paper Table IX uses 100; tests use 16–32).
    pub dim: usize,
    /// Number of passes over the triple set (paper Table IX: 50 iterations).
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Ranking margin γ.
    pub margin: f32,
    /// Negatives sampled per positive triple.
    pub negatives: usize,
    /// RNG seed — fixed for reproducible experiments.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            epochs: 50,
            learning_rate: 0.01,
            margin: 1.0,
            negatives: 1,
            seed: 0x005e_1146,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean margin-ranking loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Total wall-clock seconds spent in training.
    pub seconds: f64,
    /// Number of triples trained on.
    pub triples: usize,
}

impl TrainReport {
    /// Final-epoch mean loss (0 when no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_loss.last().copied().unwrap_or(0.0)
    }
}

/// Extracts the graph's directed triples as dense index triples.
pub fn index_triples(graph: &KnowledgeGraph) -> Vec<IdxTriple> {
    graph
        .edges()
        .map(|(_, e)| (e.src.index(), e.predicate.index(), e.dst.index()))
        .collect()
}

/// Trains a [`TransE`] model on the triples of `graph`.
pub fn train(graph: &KnowledgeGraph, cfg: &TrainConfig) -> (TransE, TrainReport) {
    let start = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = TransE::init(
        graph.node_count().max(1),
        graph.predicate_count().max(1),
        cfg.dim,
        &mut rng,
    );
    let mut triples = index_triples(graph);
    let n_entities = graph.node_count();
    let mut report = TrainReport {
        triples: triples.len(),
        ..TrainReport::default()
    };
    if triples.is_empty() || n_entities < 2 {
        report.seconds = start.elapsed().as_secs_f64();
        return (model, report);
    }
    for _ in 0..cfg.epochs {
        triples.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut steps = 0usize;
        for &pos in &triples {
            for _ in 0..cfg.negatives {
                let neg = corrupt(pos, n_entities, &mut rng);
                loss_sum += model.sgd_step(pos, neg, cfg.learning_rate, cfg.margin) as f64;
                steps += 1;
            }
        }
        model.constrain();
        report
            .epoch_loss
            .push((loss_sum / steps.max(1) as f64) as f32);
    }
    report.seconds = start.elapsed().as_secs_f64();
    (model, report)
}

/// Convenience wrapper: [`train`] without the report.
pub fn train_transe(graph: &KnowledgeGraph, cfg: &TrainConfig) -> TransE {
    train(graph, cfg).0
}

/// Corrupts head or tail (uniformly chosen) with a random entity distinct
/// from the original when possible.
fn corrupt(pos: IdxTriple, n_entities: usize, rng: &mut StdRng) -> IdxTriple {
    let (h, r, t) = pos;
    let replacement = rng.random_range(0..n_entities);
    if rng.random_bool(0.5) {
        (replacement, r, t)
    } else {
        (h, r, replacement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cosine;
    use kgraph::GraphBuilder;

    /// A graph engineered so that `product` and `assembly` share head/tail
    /// entity distributions (Automobile → Country) while `language` links
    /// Country → Language — Fig. 6's situation.
    fn figure6_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let countries: Vec<_> = (0..4)
            .map(|i| b.add_node(&format!("Country{i}"), "Country"))
            .collect();
        let langs: Vec<_> = (0..4)
            .map(|i| b.add_node(&format!("Lang{i}"), "Language"))
            .collect();
        for i in 0..40 {
            let car = b.add_node(&format!("Car{i}"), "Automobile");
            let c = countries[i % 4];
            b.add_edge(car, c, if i % 2 == 0 { "assembly" } else { "product" });
        }
        for (i, &c) in countries.iter().enumerate() {
            b.add_edge(c, langs[i], "language");
        }
        b.finish()
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            dim: 24,
            epochs: 60,
            learning_rate: 0.05,
            margin: 1.0,
            negatives: 2,
            seed: 99,
        }
    }

    #[test]
    fn transe_learns_figure6_geometry() {
        let g = figure6_graph();
        let model = train_transe(&g, &cfg());
        let assembly = model.relation_embedding(g.predicate_id("assembly").unwrap().index());
        let product = model.relation_embedding(g.predicate_id("product").unwrap().index());
        let language = model.relation_embedding(g.predicate_id("language").unwrap().index());
        let near = cosine(assembly, product);
        let far = cosine(assembly, language);
        assert!(
            near > far,
            "predicates with shared neighbour distributions must embed closer: \
             sim(assembly,product)={near:.3} vs sim(assembly,language)={far:.3}"
        );
    }

    #[test]
    fn loss_decreases_over_training() {
        let g = figure6_graph();
        let (_, report) = train(&g, &cfg());
        let early: f32 = report.epoch_loss[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = report.epoch_loss[report.epoch_loss.len() - 5..]
            .iter()
            .sum::<f32>()
            / 5.0;
        assert!(late < early, "loss should trend down: {early} -> {late}");
        assert_eq!(report.triples, g.edge_count());
    }

    #[test]
    fn empty_graph_trains_to_empty_report() {
        let g = GraphBuilder::new().finish();
        let (_, report) = train(&g, &cfg());
        assert!(report.epoch_loss.is_empty());
        assert_eq!(report.triples, 0);
    }

    #[test]
    fn training_is_deterministic() {
        let g = figure6_graph();
        let c = TrainConfig { epochs: 5, ..cfg() };
        let (m1, _) = train(&g, &c);
        let (m2, _) = train(&g, &c);
        // Debug prints every parameter, each in its shortest round-trip form.
        assert_eq!(format!("{m1:?}"), format!("{m2:?}"));
    }

    #[test]
    fn corrupt_changes_exactly_one_side() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let pos = (3, 1, 7);
            let (h, r, t) = corrupt(pos, 50, &mut rng);
            assert_eq!(r, 1);
            assert!(h == 3 || t == 7, "only one endpoint may change");
        }
    }
}
