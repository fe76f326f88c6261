//! ASSIGNMENT: the task-allocation test — solve the linear assignment
//! problem on a random cost matrix.
//!
//! BYTEmark's ASSIGNMENT exercises array-heavy integer control flow by
//! optimally assigning tasks to machines. We use Bertsekas' auction
//! algorithm with integer benefits: with bid increments of `ε = 1` and
//! benefits scaled by `n + 1`, the auction terminates with an optimal
//! assignment (standard ε-optimality argument), and it is fully
//! deterministic for a fixed input.

use super::{checksum, Kernel};
use crate::rng::SplitMix64;

/// Assignment benchmark on an `n × n` benefit matrix.
#[derive(Debug, Clone)]
pub struct Assignment {
    n: usize,
}

impl Assignment {
    /// Solve `n × n` assignment problems.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Assignment { n }
    }
}

impl Default for Assignment {
    fn default() -> Self {
        // BYTEmark uses 101×101; we keep the spirit at a round size.
        Assignment::new(96)
    }
}

/// Solve the assignment problem (maximize total benefit) by auction.
/// `benefit[i][j]` is person `i`'s benefit for object `j`. Returns the
/// object assigned to each person.
pub fn auction(benefit: &[Vec<i64>]) -> Vec<usize> {
    let n = benefit.len();
    assert!(
        benefit.iter().all(|row| row.len() == n),
        "square matrix required"
    );
    // Scale so ε = 1 guarantees optimality: values × (n + 1).
    let scale = (n + 1) as i64;
    let mut price = vec![0i64; n];
    let mut owner: Vec<Option<usize>> = vec![None; n]; // object -> person
    let mut queue: Vec<usize> = (0..n).collect();
    while let Some(person) = queue.pop() {
        // Find best and second-best object values for this person.
        let (mut best_j, mut best_v, mut second_v) = (0usize, i64::MIN, i64::MIN);
        for j in 0..n {
            let v = benefit[person][j] * scale - price[j];
            if v > best_v {
                second_v = best_v;
                best_v = v;
                best_j = j;
            } else if v > second_v {
                second_v = v;
            }
        }
        // Bid: raise the price by the value margin plus ε.
        let eps = 1i64;
        let raise = if second_v == i64::MIN {
            eps
        } else {
            best_v - second_v + eps
        };
        price[best_j] += raise;
        if let Some(evicted) = owner[best_j].replace(person) {
            queue.push(evicted);
        }
    }
    // The queue empties only once every person owns an object, so the
    // `n` owners are the `n` persons.
    let mut assigned = vec![0; n]; // person -> object
    for (j, person) in owner.into_iter().enumerate() {
        if let Some(person) = person {
            assigned[person] = j;
        }
    }
    assigned
}

/// Total benefit of an assignment.
pub fn total_benefit(benefit: &[Vec<i64>], assignment: &[usize]) -> i64 {
    assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| benefit[i][j])
        .sum()
}

impl Kernel for Assignment {
    fn name(&self) -> &'static str {
        "ASSIGNMENT"
    }

    fn ops(&self) -> u64 {
        // Empirically the auction with ε = 1 scans each person's row a
        // small multiple of n times; charge n³ scan work.
        let n = self.n as u64;
        n * n * n / 4
    }

    fn run(&self, seed: u64) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let benefit: Vec<Vec<i64>> = (0..self.n)
            .map(|_| (0..self.n).map(|_| rng.next_below(1000) as i64).collect())
            .collect();
        let assignment = auction(&benefit);
        checksum(
            assignment
                .iter()
                .map(|&j| j as u64)
                .chain([total_benefit(&benefit, &assignment) as u64]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(benefit: &[Vec<i64>]) -> i64 {
        fn go(benefit: &[Vec<i64>], person: usize, used: &mut Vec<bool>) -> i64 {
            if person == benefit.len() {
                return 0;
            }
            let mut best = i64::MIN;
            for j in 0..benefit.len() {
                if !used[j] {
                    used[j] = true;
                    best = best.max(benefit[person][j] + go(benefit, person + 1, used));
                    used[j] = false;
                }
            }
            best
        }
        go(benefit, 0, &mut vec![false; benefit.len()])
    }

    #[test]
    fn auction_is_optimal_on_small_instances() {
        let mut rng = SplitMix64::new(33);
        for n in [1usize, 2, 3, 5, 7] {
            let benefit: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.next_below(50) as i64).collect())
                .collect();
            let assignment = auction(&benefit);
            // It is a permutation.
            let mut seen = vec![false; n];
            for &j in &assignment {
                assert!(!seen[j], "object {j} assigned twice");
                seen[j] = true;
            }
            // And optimal.
            assert_eq!(
                total_benefit(&benefit, &assignment),
                brute_force(&benefit),
                "n = {n}"
            );
        }
    }

    #[test]
    fn identity_benefit_prefers_diagonal() {
        // Strong diagonal: optimal assignment is the identity.
        let n = 6;
        let benefit: Vec<Vec<i64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 100 } else { 1 }).collect())
            .collect();
        assert_eq!(auction(&benefit), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_at_full_size() {
        let k = Assignment::default();
        assert_eq!(k.run(7), k.run(7));
        assert_ne!(k.run(7), k.run(8));
    }
}
