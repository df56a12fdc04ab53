//! Dense `f32` vector primitives.
//!
//! The embedding models need only a handful of BLAS-1 style operations, so we
//! implement them directly on slices instead of pulling in a linear-algebra
//! dependency. All functions are branch-free inner loops that the compiler
//! auto-vectorises in release builds.

/// Dot product `⟨a, b⟩`.
///
/// # Panics
/// Panics in debug builds when lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity (paper Eq. 5): `a·b / (‖a‖‖b‖)`.
///
/// Returns 0 when either vector is (numerically) zero, which keeps the
/// similarity well-defined for untrained embeddings.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// In-place scale: `a ← s·a`.
#[inline]
pub fn scale(a: &mut [f32], s: f32) {
    for x in a {
        *x *= s;
    }
}

/// In-place AXPY: `y ← y + s·x`.
#[inline]
pub fn axpy(y: &mut [f32], s: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += s * xi;
    }
}

/// Normalises `a` to unit L2 norm; leaves zero vectors untouched.
#[inline]
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > f32::EPSILON {
        scale(a, 1.0 / n);
    }
}

/// Projects `a` to the unit ball: rescales only when `‖a‖ > 1` (the TransE
/// entity constraint).
#[inline]
pub fn project_to_unit_ball(a: &mut [f32]) {
    let n = norm(a);
    if n > 1.0 {
        scale(a, 1.0 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm(&a), 5.0);
    }

    #[test]
    fn cosine_basic_angles() {
        let x = [1.0, 0.0];
        let y = [0.0, 1.0];
        let neg = [-1.0, 0.0];
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-6);
        assert!(cosine(&x, &y).abs() < 1e-6);
        assert!((cosine(&x, &neg) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = [1.0, 1.0];
        axpy(&mut y, 2.0, &[3.0, -1.0]);
        assert_eq!(y, [7.0, -1.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut a = [3.0, 4.0];
        normalize(&mut a);
        assert!((norm(&a) - 1.0).abs() < 1e-6);
        let mut z = [0.0f32, 0.0];
        normalize(&mut z);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn unit_ball_projection_only_shrinks() {
        let mut big = [3.0, 4.0];
        project_to_unit_ball(&mut big);
        assert!((norm(&big) - 1.0).abs() < 1e-6);
        let mut small = [0.3, 0.4];
        project_to_unit_ball(&mut small);
        assert_eq!(small, [0.3, 0.4]);
    }

    proptest! {
        #[test]
        fn prop_cosine_bounded(
            a in proptest::collection::vec(-10.0f32..10.0, 4),
            b in proptest::collection::vec(-10.0f32..10.0, 4),
        ) {
            let c = cosine(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_cosine_scale_invariant(
            a in proptest::collection::vec(0.1f32..10.0, 4),
            b in proptest::collection::vec(0.1f32..10.0, 4),
            s in 0.5f32..4.0,
        ) {
            let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
            prop_assert!((cosine(&a, &b) - cosine(&scaled, &b)).abs() < 1e-3);
        }
    }
}
