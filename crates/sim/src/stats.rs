//! Per-superstep and per-level statistics collected during a run, and
//! the run's outcome.

use hbsp_core::{CostReport, Level, MachineTree, SuperstepCost, SyncScope};

/// Result of a program run, in model time (identical on every engine).
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Model time at which the last processor finished (the paper's
    /// execution time `T`).
    pub total_time: f64,
    /// Per-processor finish times.
    pub proc_finish: Vec<f64>,
    /// Per-superstep statistics.
    pub steps: Vec<StepStats>,
    /// Total messages delivered across the run.
    pub messages_delivered: u64,
}

impl SimOutcome {
    /// Number of supersteps executed.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// The run priced with the pure HBSP^k cost model on `tree` (§3.4):
    /// each super^i-step costs `T_i = w_i + g·h + L_{i,j}`, with `w_i`
    /// the step's largest `work / speed`, `h` its heterogeneous
    /// h-relation and `L` the largest barrier cost among the clusters
    /// its scope synchronizes — none for the final, barrier-less step.
    /// The "predicted" column for any program, including ones with
    /// data-dependent communication that closed forms can't cover.
    pub fn model_cost(&self, tree: &MachineTree) -> CostReport {
        let mut report = CostReport::new();
        for (i, s) in self.steps.iter().enumerate() {
            let level = s.scope.level();
            let sync = if i + 1 == self.steps.len() {
                0.0
            } else {
                tree.leaves()
                    .iter()
                    .map(|&leaf| {
                        let anchor = tree.ancestor_at_level(leaf, level).unwrap_or(leaf);
                        tree.node(anchor).params().l_sync
                    })
                    .fold(0.0, f64::max)
            };
            report.push(SuperstepCost {
                level,
                w: s.w,
                h: s.hrelation,
                comm: tree.g() * s.hrelation,
                sync,
            });
        }
        report
    }
}

/// Words and messages that crossed links at one level of the hierarchy
/// (level = LCA level of sender and receiver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelTraffic {
    /// Total payload words.
    pub words: u64,
    /// Message count.
    pub messages: u64,
}

/// A step's [`LevelTraffic`] for levels `0..=height`, read as a slice.
/// Held inline for machines up to [`TrafficByLevel::INLINE`] levels
/// (HBSP^3), so recording a superstep allocates nothing; a deeper
/// machine's levels go to the heap.
#[derive(Clone, Default)]
pub struct TrafficByLevel {
    len: usize,
    inline: [LevelTraffic; TrafficByLevel::INLINE],
    spilled: Vec<LevelTraffic>,
}

impl TrafficByLevel {
    /// Levels held without allocating.
    pub const INLINE: usize = 4;
}

impl From<&[LevelTraffic]> for TrafficByLevel {
    fn from(levels: &[LevelTraffic]) -> Self {
        let mut t = TrafficByLevel {
            len: levels.len(),
            ..TrafficByLevel::default()
        };
        match t.inline.get_mut(..levels.len()) {
            Some(inline) => inline.copy_from_slice(levels),
            None => t.spilled = levels.to_vec(),
        }
        t
    }
}

impl std::ops::Deref for TrafficByLevel {
    type Target = [LevelTraffic];
    fn deref(&self) -> &[LevelTraffic] {
        self.inline.get(..self.len).unwrap_or(&self.spilled)
    }
}

impl<'a> IntoIterator for &'a TrafficByLevel {
    type Item = &'a LevelTraffic;
    type IntoIter = std::slice::Iter<'a, LevelTraffic>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for TrafficByLevel {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for TrafficByLevel {}

impl std::fmt::Debug for TrafficByLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Everything measured about one executed superstep.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Superstep index.
    pub step: usize,
    /// The closing barrier scope.
    pub scope: SyncScope,
    /// Earliest processor start.
    pub start_min: f64,
    /// Latest processor finish (before the barrier overhead).
    pub finish_max: f64,
    /// Latest barrier release (start of the next superstep).
    pub release_max: f64,
    /// Traffic by LCA level (`traffic[l]` = words/messages whose
    /// endpoints meet at level `l`). Index 0 counts self-sends.
    pub traffic: TrafficByLevel,
    /// The heterogeneous h-relation the step actually performed —
    /// comparable against the cost model's prediction.
    pub hrelation: f64,
    /// Total charged computation (work units, fastest-machine scale).
    pub work_units: f64,
    /// The paper's `w_i`: the largest charged computation at its
    /// processor's own speed (`work / speed`, model time).
    pub w: f64,
}

impl StepStats {
    /// Observed wall duration of the superstep (release − start).
    pub fn duration(&self) -> f64 {
        self.release_max - self.start_min
    }

    /// Total words over all levels.
    pub fn total_words(&self) -> u64 {
        self.traffic.iter().map(|t| t.words).sum()
    }

    /// Words that crossed level `l` links.
    pub fn words_at(&self, level: Level) -> u64 {
        self.traffic
            .get(level as usize)
            .map(|t| t.words)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_and_totals() {
        let s = StepStats {
            step: 0,
            scope: SyncScope::Level(1),
            start_min: 10.0,
            finish_max: 90.0,
            release_max: 100.0,
            traffic: TrafficByLevel::from(
                &[
                    LevelTraffic {
                        words: 5,
                        messages: 1,
                    },
                    LevelTraffic {
                        words: 20,
                        messages: 2,
                    },
                ][..],
            ),
            hrelation: 20.0,
            work_units: 0.0,
            w: 0.0,
        };
        assert_eq!(s.duration(), 90.0);
        assert_eq!(s.total_words(), 25);
        assert_eq!(s.words_at(1), 20);
        assert_eq!(s.words_at(9), 0);
    }

    #[test]
    fn traffic_reads_alike_inline_and_spilled() {
        let levels: Vec<LevelTraffic> = (0..7)
            .map(|l| LevelTraffic {
                words: 10 * l,
                messages: l,
            })
            .collect();
        for n in 0..levels.len() {
            let t = TrafficByLevel::from(&levels[..n]);
            assert_eq!(*t, levels[..n]);
            assert_eq!(format!("{t:?}"), format!("{:?}", &levels[..n]));
        }
    }
}
