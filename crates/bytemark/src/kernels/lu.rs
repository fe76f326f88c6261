//! LU DECOMPOSITION: dense LU factorization with partial pivoting and a
//! linear solve, BYTEmark's "numerical analysis" test.

use super::{checksum, Kernel};
use crate::rng::SplitMix64;

/// LU benchmark on an `n × n` system.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    n: usize,
}

impl LuDecomposition {
    /// Factor `n × n` matrices.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        LuDecomposition { n }
    }
}

impl Default for LuDecomposition {
    fn default() -> Self {
        LuDecomposition::new(64)
    }
}

/// Row-major dense matrix utilities used by the kernel and its tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }

    /// A diagonally dominant random matrix (always non-singular).
    pub fn random_dominant(n: usize, rng: &mut SplitMix64) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = rng.next_f64() * 2.0 - 1.0;
                    *m.at_mut(i, j) = v;
                    row_sum += v.abs();
                }
            }
            *m.at_mut(i, i) = row_sum + 1.0 + rng.next_f64();
        }
        m
    }

    /// `self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self.at(i, j) * x[j]).sum())
            .collect()
    }
}

/// In-place LU factorization with partial pivoting. Returns the pivot
/// permutation, or `None` if the matrix is numerically singular.
pub fn lu_factor(a: &mut Matrix) -> Option<Vec<usize>> {
    let n = a.n();
    let mut piv: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot: largest |a[i][k]| for i >= k.
        let mut pk = k;
        let mut best = a.at(k, k).abs();
        for i in k + 1..n {
            let v = a.at(i, k).abs();
            if v > best {
                best = v;
                pk = i;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if pk != k {
            for j in 0..n {
                let tmp = a.at(k, j);
                *a.at_mut(k, j) = a.at(pk, j);
                *a.at_mut(pk, j) = tmp;
            }
            piv.swap(k, pk);
        }
        for i in k + 1..n {
            let factor = a.at(i, k) / a.at(k, k);
            *a.at_mut(i, k) = factor;
            for j in k + 1..n {
                *a.at_mut(i, j) -= factor * a.at(k, j);
            }
        }
    }
    Some(piv)
}

/// Solve `A x = b` given the LU factors and pivots from [`lu_factor`].
pub fn lu_solve(lu: &Matrix, piv: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.n();
    // Apply permutation, forward-substitute L (unit diagonal).
    let mut y: Vec<f64> = piv.iter().map(|&p| b[p]).collect();
    for i in 1..n {
        for j in 0..i {
            y[i] -= lu.at(i, j) * y[j];
        }
    }
    // Back-substitute U.
    let mut x = y;
    for i in (0..n).rev() {
        for j in i + 1..n {
            x[i] -= lu.at(i, j) * x[j];
        }
        x[i] /= lu.at(i, i);
    }
    x
}

impl Kernel for LuDecomposition {
    fn name(&self) -> &'static str {
        "LU DECOMPOSITION"
    }

    fn ops(&self) -> u64 {
        // 2/3 n³ flops for the factorization.
        let n = self.n as u64;
        2 * n * n * n / 3
    }

    #[expect(
        clippy::expect_used,
        reason = "a strictly diagonally dominant matrix is non-singular (pinned by `the_kernel_matrix_factors_at_every_seed`)"
    )]
    fn run(&self, seed: u64) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let mut a = Matrix::random_dominant(self.n, &mut rng);
        let b: Vec<f64> = (0..self.n).map(|_| rng.next_f64()).collect();
        let piv = lu_factor(&mut a).expect("diagonally dominant => non-singular");
        let x = lu_solve(&a, &piv, &b);
        checksum(x.iter().map(|v| v.to_bits()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = SplitMix64::new(11);
        for n in [2usize, 5, 16, 33] {
            let a = Matrix::random_dominant(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) / n as f64).collect();
            let b = a.mul_vec(&x_true);
            let mut lu = a.clone();
            let piv = lu_factor(&mut lu).unwrap();
            let x = lu_solve(&lu, &piv, &b);
            for (xa, xb) in x.iter().zip(&x_true) {
                assert!((xa - xb).abs() < 1e-8, "n={n}: {xa} vs {xb}");
            }
        }
    }

    /// The invariant `run`'s `expect` rests on, at the kernel's own size
    /// and draw order.
    #[test]
    fn the_kernel_matrix_factors_at_every_seed() {
        let n = LuDecomposition::default().n;
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut a = Matrix::random_dominant(n, &mut rng);
            assert!(lu_factor(&mut a).is_some(), "seed {seed}");
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::zeros(3);
        // Rank-1 matrix.
        for i in 0..3 {
            for j in 0..3 {
                *a.at_mut(i, j) = (i + 1) as f64 * (j + 1) as f64;
            }
        }
        assert!(lu_factor(&mut a).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = Matrix::zeros(2);
        *a.at_mut(0, 1) = 1.0;
        *a.at_mut(1, 0) = 1.0;
        let piv = lu_factor(&mut a).expect("permutation matrix is invertible");
        let x = lu_solve(&a, &piv, &[3.0, 4.0]);
        assert!((x[0] - 4.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }
}
