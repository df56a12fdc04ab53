//! Path semantic similarity (paper Eq. 6) and its heuristic upper-bound
//! estimate (Eq. 7, Theorem 1).
//!
//! The pss of a match `u_s ⇝ u_t` is the geometric mean of the semantic
//! weights on its edges: `ψ = (∏ wⱼ)^(1/n)`. We compute it in log-space —
//! `ψ = exp(Σ ln wⱼ / n)` — so long low-weight paths cannot underflow, and
//! clamp weights to `(MIN_WEIGHT, 1]`: cosine similarities may be ≤ 0 but
//! the paper's algebra (Lemma 1, Theorem 1) assumes weights in `(0, 1]`.
//!
//! The estimate at a frontier node `u_i` is
//! `ψ̂ = (W_si · m(u_i))^(1/n̂)` where `W_si` is the explored weight
//! product and `m(u_i)` the maximum weight on `u_i`'s incident edges —
//! an upper bound of the unexplored product (Lemma 1) — and `n̂` the total
//! hop budget, an upper bound of the final path length. Both bounds together
//! give admissibility: `ψ̂ ≥ ψ` (Theorem 1).

/// Weights are clamped to `[MIN_WEIGHT, 1]` so the geometric mean stays
/// defined and the admissibility algebra holds.
pub const MIN_WEIGHT: f64 = 1e-6;

/// Clamps a raw cosine similarity into the paper's weight domain `(0, 1]`.
#[inline]
pub fn clamp_weight(sim: f64) -> f64 {
    sim.clamp(MIN_WEIGHT, 1.0)
}

/// Exact pss of a complete match: `exp(log_sum / hops)` (Eq. 6 in
/// log-space). `hops` must be ≥ 1.
#[inline]
pub fn exact_pss(log_sum: f64, hops: usize) -> f64 {
    debug_assert!(hops >= 1);
    (log_sum / hops as f64).exp()
}

/// The admissible estimator ψ̂ for one sub-query search (Eq. 7).
#[derive(Debug, Clone, Copy)]
pub struct PssEstimator {
    /// Total hop budget `n̂_total = n̂ · |segments|` — the maximum length of
    /// any admissible match of this sub-query (for the paper's single-edge
    /// sub-queries this is exactly the user's n̂).
    n_hat_total: f64,
    /// `ln(MIN_WEIGHT)`, the `ln m(u)` of a node with no heavier edge.
    ln_min_weight: f64,
}

impl PssEstimator {
    /// `n_hat` is the per-query-edge hop bound; `segments` the number of
    /// query edges in the sub-query.
    pub fn new(n_hat: usize, segments: usize) -> Self {
        debug_assert!(n_hat >= 1 && segments >= 1);
        Self {
            n_hat_total: (n_hat * segments) as f64,
            // Taken at run time by the same `ln` as every other logarithm
            // ψ̂ sees; `black_box` keeps the compiler from folding it.
            ln_min_weight: std::hint::black_box(MIN_WEIGHT).ln(),
        }
    }

    /// The total hop budget.
    pub fn hop_budget(&self) -> usize {
        self.n_hat_total as usize
    }

    /// `ln(MIN_WEIGHT)`, bitwise `clamp_weight(MIN_WEIGHT).ln()`.
    #[inline]
    pub fn ln_min_weight(&self) -> f64 {
        self.ln_min_weight
    }

    /// ψ̂ at a frontier node: `exp((log_sum + ln_m) / n̂_total)`, where
    /// `ln_m = clamp_weight(m_u).ln()` is `ln` of the node's `m(u)` in the
    /// weight domain ([`crate::semgraph::SubQueryPlan::max_adjacent_ln`]).
    #[inline]
    pub fn estimate_ln(&self, log_sum: f64, ln_m: f64) -> f64 {
        ((log_sum + ln_m) / self.n_hat_total).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// ψ̂ for a raw `m(u)`, clamped into the weight domain as the search's
    /// scans clamp it.
    fn estimate(est: &PssEstimator, log_sum: f64, m_u: f64) -> f64 {
        est.estimate_ln(log_sum, clamp_weight(m_u).ln())
    }

    #[test]
    fn exact_pss_matches_geometric_mean() {
        // Fig. 8: path <federalState 0.82, assembly 0.98> has pss
        // √(0.82·0.98) ≈ 0.897.
        let weights = [0.82f64, 0.98];
        let log_sum: f64 = weights.iter().map(|w| w.ln()).sum();
        let psi = exact_pss(log_sum, 2);
        assert!((psi - (0.82f64 * 0.98).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_edge_pss_is_the_weight() {
        assert!((exact_pss(0.98f64.ln(), 1) - 0.98).abs() < 1e-12);
    }

    #[test]
    fn clamp_domain() {
        assert_eq!(clamp_weight(-0.5), MIN_WEIGHT);
        assert_eq!(clamp_weight(0.0), MIN_WEIGHT);
        assert_eq!(clamp_weight(1.5), 1.0);
        assert_eq!(clamp_weight(0.7), 0.7);
    }

    #[test]
    fn estimate_with_empty_prefix_bounds_any_match() {
        // At the source node, W_si = 1 (log 0); ψ̂ = m(u)^(1/n̂).
        let est = PssEstimator::new(4, 1);
        let m_u = 0.9;
        let psi_hat = estimate(&est, 0.0, m_u);
        assert!((psi_hat - 0.9f64.powf(0.25)).abs() < 1e-12);
    }

    #[test]
    fn ln_min_weight_is_the_clamped_floor() {
        let est = PssEstimator::new(3, 2);
        assert_eq!(
            est.ln_min_weight().to_bits(),
            clamp_weight(MIN_WEIGHT).ln().to_bits()
        );
    }

    #[test]
    fn estimator_hop_budget_scales_with_segments() {
        assert_eq!(PssEstimator::new(4, 1).hop_budget(), 4);
        assert_eq!(PssEstimator::new(4, 3).hop_budget(), 12);
    }

    proptest! {
        /// Theorem 1 — admissibility: for any weight sequence of length
        /// n* ≤ n̂ and any split point i, the estimate computed from the
        /// explored prefix and m(u) ≥ (the next unexplored weight) dominates
        /// the exact pss.
        #[test]
        fn prop_estimate_is_admissible(
            raw in proptest::collection::vec(0.01f64..=1.0, 1..8),
            split in 0usize..8,
            slack in 0.0f64..0.3,
        ) {
            let weights: Vec<f64> = raw.iter().map(|&w| clamp_weight(w)).collect();
            let n_star = weights.len();
            let n_hat = 8usize; // n* ≤ n̂ always holds here
            let split = split.min(n_star - 1); // at least one unexplored edge
            let est = PssEstimator::new(n_hat, 1);

            let log_prefix: f64 = weights[..split].iter().map(|w| w.ln()).sum();
            // Lemma 1: m(u_i) is the max adjacent weight, hence ≥ the next
            // edge's weight; model it as that weight plus arbitrary slack.
            let m_u = (weights[split] + slack).min(1.0);

            let psi_hat = estimate(&est, log_prefix, m_u);
            let log_full: f64 = weights.iter().map(|w| w.ln()).sum();
            let psi = exact_pss(log_full, n_star);
            prop_assert!(
                psi_hat >= psi - 1e-12,
                "estimate {psi_hat} must dominate exact {psi}"
            );
        }

        /// The exact pss of weights in (0,1] lies in (0,1].
        #[test]
        fn prop_pss_in_unit_interval(
            raw in proptest::collection::vec(0.0f64..=1.0, 1..10),
        ) {
            let log_sum: f64 = raw.iter().map(|&w| clamp_weight(w).ln()).sum();
            let psi = exact_pss(log_sum, raw.len());
            prop_assert!(psi > 0.0 && psi <= 1.0 + 1e-12);
        }

        /// Geometric-mean bounds: min w ≤ ψ ≤ max w.
        #[test]
        fn prop_pss_between_min_and_max(
            raw in proptest::collection::vec(0.05f64..=1.0, 1..10),
        ) {
            let ws: Vec<f64> = raw.iter().map(|&w| clamp_weight(w)).collect();
            let log_sum: f64 = ws.iter().map(|w| w.ln()).sum();
            let psi = exact_pss(log_sum, ws.len());
            let lo = ws.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ws.iter().cloned().fold(0.0, f64::max);
            prop_assert!(psi >= lo - 1e-12 && psi <= hi + 1e-12);
        }

        /// Larger m(u) or shorter budget never decreases the estimate's
        /// dominance margin (monotonicity used implicitly by Lemma 2).
        #[test]
        fn prop_estimate_monotone_in_m(
            log_sum in -5.0f64..0.0,
            m1 in 0.05f64..1.0,
            m2 in 0.05f64..1.0,
        ) {
            let est = PssEstimator::new(4, 2);
            let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
            prop_assert!(estimate(&est, log_sum, lo) <= estimate(&est, log_sum, hi) + 1e-12);
        }

        /// *Strict* float-level weak monotonicity in m(u) — no tolerance,
        /// including adjacent f64 pairs: a larger bound never yields a
        /// smaller ψ̂ (clamp, ln, division by a positive constant and exp
        /// all preserve `≤`).
        #[test]
        fn prop_estimate_float_monotone_in_m(
            log_sum in -5.0f64..0.0,
            m1 in 0.0f64..1.5,
            m2 in 0.0f64..1.5,
            n_hat in 1usize..6,
            segs in 1usize..4,
        ) {
            let est = PssEstimator::new(n_hat, segs);
            let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
            prop_assert!(estimate(&est, log_sum, lo) <= estimate(&est, log_sum, hi));
            // Adjacent representable pair: the tightest possible gap.
            let up = lo.next_up();
            prop_assert!(estimate(&est, log_sum, lo) <= estimate(&est, log_sum, up));
        }
    }
}
