//! Parameter helpers of the embedding model: dense index triples, the
//! Xavier initialisation and row views of flat parameter matrices.

use rand::rngs::StdRng;
use rand::Rng;

/// A triple of dense indices `(head entity, relation, tail entity)`.
pub type IdxTriple = (usize, usize, usize);

/// Draws uniform random values in `[-b, b]` where `b = 6/√dim`, the Xavier
/// bound used in the TransE paper's initialisation.
pub(crate) fn xavier_init(dim: usize, len: usize, rng: &mut StdRng) -> Vec<f32> {
    let bound = 6.0 / (dim as f32).sqrt();
    (0..len).map(|_| rng.random_range(-bound..bound)).collect()
}

/// Row view helpers for flat parameter matrices.
#[inline]
pub(crate) fn row(data: &[f32], dim: usize, i: usize) -> &[f32] {
    &data[i * dim..(i + 1) * dim]
}

/// Mutable row view.
#[inline]
pub(crate) fn row_mut(data: &mut [f32], dim: usize, i: usize) -> &mut [f32] {
    &mut data[i * dim..(i + 1) * dim]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let dim = 25;
        let v = xavier_init(dim, 100, &mut rng);
        let b = 6.0 / (dim as f32).sqrt();
        assert!(v.iter().all(|x| (-b..b).contains(x)));
    }

    #[test]
    fn row_views() {
        let data = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(row(&data, 3, 1), &[3.0, 4.0, 5.0]);
    }
}
