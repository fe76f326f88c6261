//! Heterogeneous h-relations.
//!
//! In BSP, the communication pattern of a superstep is summarized by an
//! *h-relation*: `h` = the largest number of words any processor sends or
//! receives. HBSP^k weights each machine's traffic by its relative
//! communication slowness: the **heterogeneous h-relation** of a
//! super^i-step is
//!
//! ```text
//! h = max over participants j of  r_{i,j} · h_{i,j}
//! ```
//!
//! where `h_{i,j} = max(words sent, words received)` by `M_{i,j}`. The
//! routing cost of the superstep is then `g · h`.

use crate::ids::MachineId;
use crate::tree::MachineTree;
use std::collections::BTreeMap;

/// Per-machine traffic within one superstep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Traffic {
    /// Words sent by the machine during the superstep.
    pub sent: u64,
    /// Words received by the machine during the superstep.
    pub received: u64,
}

impl Traffic {
    /// `h_{i,j}`: the larger of words sent and received.
    #[inline]
    pub fn h(&self) -> u64 {
        self.sent.max(self.received)
    }
}

/// An accumulating record of the communication pattern of one superstep,
/// from which the heterogeneous h-relation is computed.
///
/// ```
/// use hbsp_core::{HRelation, MachineId};
/// let mut hr = HRelation::new();
/// hr.send(MachineId::new(0, 1), MachineId::new(1, 0), 100);
/// hr.send(MachineId::new(0, 2), MachineId::new(1, 0), 300);
/// assert_eq!(hr.traffic(MachineId::new(1, 0)).received, 400);
/// // With r = 1 everywhere, h is the root's 400 received words.
/// assert_eq!(hr.h(|_| 1.0), 400.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HRelation {
    traffic: BTreeMap<MachineId, Traffic>,
}

impl HRelation {
    /// An empty communication pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `words` moving from `src` to `dst`. A self-send is legal in
    /// the bookkeeping but, following the paper's implementation note
    /// ("a processor does not send data to itself"), callers normally
    /// skip it.
    pub fn send(&mut self, src: MachineId, dst: MachineId, words: u64) {
        self.traffic.entry(src).or_default().sent += words;
        self.traffic.entry(dst).or_default().received += words;
    }

    /// Traffic of one machine (zero if it did not participate).
    pub fn traffic(&self, id: MachineId) -> Traffic {
        self.traffic.get(&id).copied().unwrap_or_default()
    }

    /// All participants with their traffic.
    pub fn participants(&self) -> impl Iterator<Item = (MachineId, Traffic)> + '_ {
        self.traffic.iter().map(|(&id, &t)| (id, t))
    }

    /// The heterogeneous h-relation `max r(id) · h_{id}`, with `r`
    /// supplied by the caller (normally from the machine tree).
    pub fn h(&self, r: impl Fn(MachineId) -> f64) -> f64 {
        self.traffic
            .iter()
            .map(|(&id, t)| r(id) * t.h() as f64)
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// The heterogeneous h-relation using the `r` values of `tree`.
    ///
    /// # Panics
    /// Panics if a participant id is not present in the tree.
    #[expect(
        clippy::expect_used,
        reason = "participants are machines of the tree (pinned by `a_participant_outside_the_tree_panics`)"
    )]
    pub fn h_on(&self, tree: &MachineTree) -> f64 {
        self.h(|id| {
            tree.node(tree.resolve(id).expect("participant must exist"))
                .params()
                .r
        })
    }

    /// The homogeneous (classic BSP) h-relation: `max h_{i,j}` ignoring
    /// machine speeds. Used by the BSP-baseline cost analyses.
    pub fn h_homogeneous(&self) -> u64 {
        self.traffic.values().map(Traffic::h).max().unwrap_or(0)
    }

    /// True if no traffic has been recorded.
    pub fn is_empty(&self) -> bool {
        self.traffic.is_empty()
    }
}

/// One-shot helper: the heterogeneous h-relation of an explicit list of
/// `(r_{i,j}, h_{i,j})` pairs — the exact form of the paper's definition
/// `h = max{ r_{i,j} · h_{i,j} }`.
pub fn hrelation(parts: &[(f64, u64)]) -> f64 {
    parts
        .iter()
        .map(|&(r, h)| r * h as f64)
        .max_by(f64::total_cmp)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32, j: u32) -> MachineId {
        MachineId::new(i, j)
    }

    #[test]
    fn empty_relation_is_zero() {
        let hr = HRelation::new();
        assert_eq!(hr.h(|_| 1.0), 0.0);
        assert_eq!(hr.h_homogeneous(), 0);
        assert!(hr.is_empty());
    }

    #[test]
    fn h_is_max_of_send_and_receive() {
        let mut hr = HRelation::new();
        hr.send(m(0, 0), m(0, 1), 10);
        hr.send(m(0, 0), m(0, 2), 20);
        // Sender moved 30 words; receivers 10 and 20.
        assert_eq!(hr.traffic(m(0, 0)).sent, 30);
        assert_eq!(hr.h_homogeneous(), 30);
    }

    #[test]
    fn slow_machine_dominates_weighted_h() {
        let mut hr = HRelation::new();
        hr.send(m(0, 0), m(0, 1), 100); // fast -> slow
        let r = |id: MachineId| if id == m(0, 1) { 4.0 } else { 1.0 };
        // Slow receiver: 4 * 100 beats fast sender 1 * 100.
        assert_eq!(hr.h(r), 400.0);
    }

    #[test]
    fn paper_gather_hrelation() {
        // HBSP^1 gather: each M_{0,j} sends c_j * n to M_{1,0} which
        // receives n. With r_{0,j} c_{0,j} < 1 the root's n dominates:
        // h = r_{1,0} * n = n (Section 4.2).
        let n = 1200u64;
        let rs = [1.0, 2.0, 3.0]; // r of the three level-0 senders
        let speeds_sum: f64 = rs.iter().map(|r| 1.0 / r).sum();
        let mut hr = HRelation::new();
        for (j, &r) in rs.iter().enumerate() {
            let c = (1.0 / r) / speeds_sum;
            hr.send(m(0, j as u32), m(1, 0), (c * n as f64).round() as u64);
        }
        let r_of = move |id: MachineId| {
            if id.level == 1 {
                1.0
            } else {
                rs[id.index as usize]
            }
        };
        let h = hr.h(r_of);
        let received = hr.traffic(m(1, 0)).received;
        assert!(
            (h - received as f64).abs() <= 3.0,
            "root receive dominates: h={h}, n={received}"
        );
    }

    #[test]
    fn one_shot_helper_matches_definition() {
        assert_eq!(hrelation(&[(1.0, 100), (2.5, 60), (4.0, 10)]), 150.0);
        assert_eq!(hrelation(&[]), 0.0);
    }

    #[test]
    fn h_on_tree_uses_tree_r() {
        let t = crate::TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (3.0, 0.33)]).unwrap();
        let mut hr = HRelation::new();
        hr.send(m(0, 1), m(0, 0), 50);
        assert_eq!(hr.h_on(&t), 150.0);
    }

    #[test]
    #[should_panic(expected = "participant must exist")]
    fn a_participant_outside_the_tree_panics() {
        let t = crate::TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (3.0, 0.33)]).unwrap();
        let mut hr = HRelation::new();
        hr.send(m(0, 2), m(0, 0), 50);
        hr.h_on(&t);
    }
}
