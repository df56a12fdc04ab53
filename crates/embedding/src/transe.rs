//! TransE (Bordes et al., NIPS 2013) — the embedding model the paper selects
//! for its experiments (§VII-A: "we selected the TransE model to obtain the
//! predicate semantic space").
//!
//! TransE models a relation as a translation in the embedding space:
//! `h + r ≈ t` for true triples. The plausibility score is the negated
//! squared L2 distance `−‖h + r − t‖²`; training minimises the margin
//! ranking loss against corrupted triples.

use crate::model::{row, row_mut, xavier_init, IdxTriple};
use crate::vector;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// TransE parameters: one flat matrix per element class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransE {
    dim: usize,
    entities: Vec<f32>,
    relations: Vec<f32>,
}

impl TransE {
    /// `h + r − t` into `out`.
    #[inline]
    fn delta(&self, (h, r, t): IdxTriple, out: &mut [f32]) {
        let hv = row(&self.entities, self.dim, h);
        let rv = row(&self.relations, self.dim, r);
        let tv = row(&self.entities, self.dim, t);
        for i in 0..self.dim {
            out[i] = hv[i] + rv[i] - tv[i];
        }
    }

    /// Number of entity rows.
    pub fn entity_count(&self) -> usize {
        self.entities.len() / self.dim
    }

    /// Number of relation rows.
    pub fn relation_count(&self) -> usize {
        self.relations.len() / self.dim
    }

    /// Allocates and randomly initialises the parameters.
    pub fn init(n_entities: usize, n_relations: usize, dim: usize, rng: &mut StdRng) -> Self {
        let entities = xavier_init(dim, n_entities * dim, rng);
        let mut relations = xavier_init(dim, n_relations * dim, rng);
        // The TransE paper normalises relation vectors once at init.
        for r in 0..n_relations {
            vector::normalize(row_mut(&mut relations, dim, r));
        }
        Self {
            dim,
            entities,
            relations,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One SGD step on a (positive, negative) pair with the margin ranking
    /// loss `max(0, margin + ‖Δ_pos‖² − ‖Δ_neg‖²)`. Returns the loss
    /// *before* the update (0 when the pair already satisfies the margin).
    pub fn sgd_step(&mut self, pos: IdxTriple, neg: IdxTriple, lr: f32, margin: f32) -> f32 {
        let mut dp = vec![0.0; self.dim];
        let mut dn = vec![0.0; self.dim];
        self.delta(pos, &mut dp);
        self.delta(neg, &mut dn);
        let d_pos = vector::dot(&dp, &dp);
        let d_neg = vector::dot(&dn, &dn);
        let loss = margin + d_pos - d_neg;
        if loss <= 0.0 {
            return 0.0;
        }
        // ∂‖h+r−t‖²/∂h = 2Δ, ∂/∂t = −2Δ, ∂/∂r = 2Δ. Descend on the positive
        // distance, ascend on the negative one. Updates are applied
        // sequentially so overlapping rows (shared head/tail, self-loops)
        // accumulate correctly.
        let step = 2.0 * lr;
        let (hp, rp, tp) = pos;
        let (hn, rn, tn) = neg;
        vector::axpy(row_mut(&mut self.entities, self.dim, hp), -step, &dp);
        vector::axpy(row_mut(&mut self.entities, self.dim, tp), step, &dp);
        vector::axpy(row_mut(&mut self.relations, self.dim, rp), -step, &dp);
        vector::axpy(row_mut(&mut self.entities, self.dim, hn), step, &dn);
        vector::axpy(row_mut(&mut self.entities, self.dim, tn), -step, &dn);
        vector::axpy(row_mut(&mut self.relations, self.dim, rn), step, &dn);
        loss
    }

    /// Projects every entity to the unit ball, the norm constraint
    /// re-applied after each epoch.
    pub fn constrain(&mut self) {
        for e in 0..self.entity_count() {
            vector::project_to_unit_ball(row_mut(&mut self.entities, self.dim, e));
        }
    }

    /// Embedding vector of relation `r`: the predicate semantic vector
    /// Eq. 5 compares.
    pub fn relation_embedding(&self, r: usize) -> &[f32] {
        row(&self.relations, self.dim, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn model() -> TransE {
        let mut rng = StdRng::seed_from_u64(7);
        TransE::init(6, 3, 8, &mut rng)
    }

    /// Plausibility of a triple, `−‖h + r − t‖²`: higher is more plausible.
    fn score(m: &TransE, triple: IdxTriple) -> f32 {
        let mut d = vec![0.0; m.dim];
        m.delta(triple, &mut d);
        -vector::dot(&d, &d)
    }

    #[test]
    fn init_shapes() {
        let m = model();
        assert_eq!(m.entity_count(), 6);
        assert_eq!(m.relation_count(), 3);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.relation_embedding(2).len(), 8);
        // Relations are unit-normalised at init.
        assert!((vector::norm(m.relation_embedding(0)) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn score_is_negated_distance() {
        let m = model();
        assert!(score(&m, (0, 0, 1)) <= 0.0);
        // Identical endpoints: distance = ‖r‖² exactly.
        let r = vector::dot(m.relation_embedding(0), m.relation_embedding(0));
        assert!((score(&m, (2, 0, 2)) + r).abs() < 1e-5);
    }

    #[test]
    fn sgd_reduces_positive_distance() {
        let mut m = model();
        let pos = (0, 0, 1);
        let neg = (0, 0, 2);
        let before = -score(&m, pos);
        for _ in 0..50 {
            m.sgd_step(pos, neg, 0.05, 1.0);
        }
        let after = -score(&m, pos);
        assert!(
            after < before,
            "positive distance should shrink: {before} -> {after}"
        );
    }

    #[test]
    fn satisfied_margin_is_a_noop() {
        let mut m = model();
        // Drive the pair well past the margin first.
        for _ in 0..300 {
            m.sgd_step((0, 0, 1), (0, 0, 2), 0.05, 0.5);
        }
        let snapshot = m.entities.clone();
        let loss = m.sgd_step((0, 0, 1), (0, 0, 2), 0.05, 0.5);
        assert_eq!(loss, 0.0);
        assert_eq!(m.entities, snapshot, "no parameters move at zero loss");
    }

    #[test]
    fn constrain_projects_entities() {
        let mut m = model();
        for x in m.entities.iter_mut() {
            *x *= 100.0;
        }
        m.constrain();
        for e in 0..m.entity_count() {
            assert!(vector::norm(row(&m.entities, m.dim, e)) <= 1.0 + 1e-5);
        }
    }

    #[test]
    fn self_loop_triples_do_not_panic() {
        let mut m = model();
        let loss = m.sgd_step((3, 1, 3), (3, 1, 4), 0.01, 1.0);
        assert!(loss >= 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = TransE::init(4, 2, 6, &mut r1);
        let b = TransE::init(4, 2, 6, &mut r2);
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.relations, b.relations);
    }
}
