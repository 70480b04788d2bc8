//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use regcube_linalg::cholesky::Cholesky;
use regcube_linalg::vecops;
use regcube_linalg::Matrix;

/// Strategy: a square matrix of the given side with bounded entries.
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).unwrap())
}

/// Strategy: a vector with bounded entries.
fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, n)
}

/// Builds an SPD matrix as `A Aᵀ + n·I` (always positive definite).
fn make_spd(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut spd = a.mul(&a.transpose()).unwrap();
    for i in 0..n {
        spd[(i, i)] += n as f64;
    }
    spd
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(a in square_matrix(4)) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_is_associative(
        a in square_matrix(3),
        b in square_matrix(3),
        c in square_matrix(3),
    ) {
        let left = a.mul(&b).unwrap().mul(&c).unwrap();
        let right = a.mul(&b.mul(&c).unwrap()).unwrap();
        // Entries are bounded by 10^3 * 27, so 1e-6 absolute is generous.
        prop_assert!(left.approx_eq(&right, 1e-6));
    }

    #[test]
    fn cholesky_solves_spd_systems(a in square_matrix(4), x in vector(4)) {
        let spd = make_spd(&a);
        let b = spd.mul_vec(&x).unwrap();
        let got = Cholesky::factor(&spd).unwrap().solve(&b).unwrap();
        prop_assert!(vecops::approx_eq(&got, &x, 1e-5),
            "cholesky solution diverged: {got:?} vs {x:?}");
    }

    #[test]
    fn cholesky_reconstructs(a in square_matrix(3)) {
        let spd = make_spd(&a);
        let ch = Cholesky::factor(&spd).unwrap();
        let back = ch.l().mul(&ch.l().transpose()).unwrap();
        prop_assert!(back.approx_eq(&spd, 1e-7));
    }
}
