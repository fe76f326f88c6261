//! Sequential references the library's outputs are compared against.
//!
//! Each is a few lines of plain Rust that shares no code with the
//! library. A collective's output is a list of `u32` vectors — one per
//! rank where every rank ends with its own result, a single vector
//! where the result lives at one processor — so one equality check
//! covers all seven kinds.

use std::ops::Range;

/// Gather: the shares, concatenated in rank order.
pub fn concat(shares: &[&[u32]]) -> Vec<u32> {
    let mut out = Vec::with_capacity(shares.iter().map(|s| s.len()).sum());
    for s in shares {
        out.extend_from_slice(s);
    }
    out
}

/// Broadcast and allgather: every rank ends with a copy of the array.
pub fn copies(items: &[u32], ranks: usize) -> Vec<Vec<u32>> {
    vec![items.to_vec(); ranks]
}

/// Scatter: rank `j` ends with `items[ranges[j]]`.
pub fn split(items: &[u32], ranges: &[Range<usize>]) -> Vec<Vec<u32>> {
    ranges.iter().map(|r| items[r.clone()].to_vec()).collect()
}

/// Reduce: elementwise wrapping sum of every rank's vector.
pub fn fold_sum(vectors: &[Vec<u32>]) -> Vec<u32> {
    let mut acc = vec![0u32; vectors[0].len()];
    for v in vectors {
        for (a, &x) in acc.iter_mut().zip(v) {
            *a = a.wrapping_add(x);
        }
    }
    acc
}

/// Scan: rank `j` ends with the wrapping sum of vectors `0..=j`.
pub fn prefix_sums(vectors: &[Vec<u32>]) -> Vec<Vec<u32>> {
    (1..=vectors.len())
        .map(|upto| fold_sum(&vectors[..upto]))
        .collect()
}

/// Alltoall: rank `j` ends with the blocks addressed to it, in source
/// order (`blocks[src][dst]`; the diagonal is empty).
pub fn transpose(blocks: &[Vec<Vec<u32>>]) -> Vec<Vec<u32>> {
    (0..blocks.len())
        .map(|dst| {
            let incoming: Vec<&[u32]> = blocks.iter().map(|row| row[dst].as_slice()).collect();
            concat(&incoming)
        })
        .collect()
}

pub fn sorted(items: &[u32]) -> Vec<u32> {
    let mut v = items.to_vec();
    v.sort_unstable();
    v
}

/// `y = A·x` for a row-major `n × m` matrix, each row summed left to
/// right.
pub fn matvec(a: &[f64], x: &[f64], n: usize, m: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for j in 0..m {
                acc += a[i * m + j] * x[j];
            }
            acc
        })
        .collect()
}

/// Largest relative difference between two `f64` vectors of equal
/// length (`∞` when the lengths differ).
pub fn max_rel_diff(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0, f64::max)
}
