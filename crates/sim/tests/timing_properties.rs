//! Property tests on the timing algebra: the microcost model must be
//! monotone and self-consistent regardless of machine or traffic.

use hbsp_core::{ProcId, TreeBuilder};
use hbsp_sim::timing::{barrier_release, superstep_timing, SendIntent};
use hbsp_sim::NetConfig;
use proptest::prelude::*;

#[expect(clippy::unwrap_used, reason = "a bad machine fails the test")]
fn machine(rs: &[f64]) -> hbsp_core::MachineTree {
    let mut procs: Vec<(f64, f64)> = rs.iter().map(|&r| (r, 1.0 / r)).collect();
    procs[0].0 = 1.0;
    TreeBuilder::flat(1.0, 25.0, &procs).unwrap()
}

fn arb_sends(p: usize) -> impl Strategy<Value = Vec<SendIntent>> {
    proptest::collection::vec((0..p as u32, 0..p as u32, 0u64..500), 0..25).prop_map(|v| {
        v.into_iter()
            .map(|(s, d, w)| SendIntent {
                src: ProcId(s),
                dst: ProcId(d),
                words: w,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn finish_never_precedes_start(
        rs in proptest::collection::vec(1.0f64..5.0, 2..6),
        sends_seed in any::<u64>(),
        work in proptest::collection::vec(0.0f64..100.0, 6),
    ) {
        let tree = machine(&rs);
        let p = tree.num_procs();
        let starts: Vec<f64> = (0..p).map(|i| i as f64 * 7.0).collect();
        let work = &work[..p];
        // Simple deterministic sends from the seed.
        let sends: Vec<SendIntent> = (0..(sends_seed % 10))
            .map(|i| SendIntent {
                src: ProcId((i % p as u64) as u32),
                dst: ProcId(((i + 1) % p as u64) as u32),
                words: 10 + i,
            })
            .collect();
        let t = superstep_timing(&tree, &NetConfig::pvm_like(), &starts, work, &sends);
        for (i, &start) in starts.iter().enumerate() {
            prop_assert!(t.compute_done[i] >= start);
            prop_assert!(t.send_done[i] >= t.compute_done[i]);
            prop_assert!(t.finish[i] >= t.send_done[i]);
        }
        for m in &t.messages {
            prop_assert!(m.unpack_done >= m.arrival || m.unpack_done == m.arrival);
        }
    }

    #[test]
    fn adding_work_is_monotone_without_shared_medium(
        rs in proptest::collection::vec(1.0f64..5.0, 2..6),
        extra in 0.1f64..500.0,
    ) {
        // With the shared medium enabled this property is FALSE: more
        // work on one processor delays its send, which can cede the
        // segment's FIFO slot to another message and let a *different*
        // receiver finish earlier — a Graham-style scheduling anomaly
        // the proptest originally discovered. Point-to-point fabric
        // (medium disabled) is anomaly-free, which is what we pin here.
        let tree = machine(&rs);
        let p = tree.num_procs();
        let starts = vec![0.0; p];
        let cfg = NetConfig::pvm_like().with_medium(0.0);
        let sends: Vec<SendIntent> = (0..p)
            .map(|i| SendIntent {
                src: ProcId(i as u32),
                dst: ProcId(((i + 1) % p) as u32),
                words: 50,
            })
            .collect();
        let base = superstep_timing(&tree, &cfg, &starts, &vec![10.0; p], &sends);
        let mut more = vec![10.0; p];
        more[p - 1] += extra;
        let bumped = superstep_timing(&tree, &cfg, &starts, &more, &sends);
        for i in 0..p {
            prop_assert!(
                bumped.finish[i] >= base.finish[i] - 1e-9,
                "without wire contention, more work never finishes anyone earlier"
            );
        }
        // Under the shared medium, the burdened processor's own chain
        // still only moves later.
        let base_m =
            superstep_timing(&tree, &NetConfig::pvm_like(), &starts, &vec![10.0; p], &sends);
        let bumped_m = superstep_timing(&tree, &NetConfig::pvm_like(), &starts, &more, &sends);
        prop_assert!(bumped_m.compute_done[p - 1] > base_m.compute_done[p - 1]);
        prop_assert!(bumped_m.send_done[p - 1] >= base_m.send_done[p - 1]);
    }

    #[test]
    fn adding_a_message_is_monotone(
        rs in proptest::collection::vec(1.0f64..5.0, 3..6),
        sends in arb_sends(3),
        words in 1u64..300,
    ) {
        let tree = machine(&rs);
        let p = tree.num_procs();
        // Clamp generated ranks into range (strategy used p=3 bound).
        let sends: Vec<SendIntent> = sends
            .into_iter()
            .map(|s| SendIntent {
                src: ProcId(s.src.0 % p as u32),
                dst: ProcId(s.dst.0 % p as u32),
                words: s.words,
            })
            .collect();
        let starts = vec![0.0; p];
        let work = vec![5.0; p];
        let base = superstep_timing(&tree, &NetConfig::pvm_like(), &starts, &work, &sends);
        let mut extended = sends.clone();
        extended.push(SendIntent { src: ProcId(0), dst: ProcId((p - 1) as u32), words });
        let bumped = superstep_timing(&tree, &NetConfig::pvm_like(), &starts, &work, &extended);
        for i in 0..p {
            prop_assert!(bumped.finish[i] >= base.finish[i] - 1e-9);
        }
    }

    #[expect(clippy::disallowed_methods, reason = "tests the barrier algebra itself")]
    #[test]
    fn barrier_release_bounds_finishes(
        rs in proptest::collection::vec(1.0f64..5.0, 2..6),
        finishes in proptest::collection::vec(0.0f64..1000.0, 6),
    ) {
        let tree = machine(&rs);
        let p = tree.num_procs();
        let finish = &finishes[..p];
        let rel = barrier_release(&tree, hbsp_core::SyncScope::Level(1), finish);
        let max_f = finish.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (i, &r) in rel.iter().enumerate() {
            prop_assert!(r >= finish[i], "nobody restarts before finishing");
            prop_assert!(r >= max_f, "a flat global barrier waits for the slowest");
            prop_assert_eq!(r, max_f + 25.0);
        }
    }

    #[test]
    fn wire_serialization_conserves_order_under_scaling(
        words in proptest::collection::vec(1u64..200, 2..8),
    ) {
        // Doubling every payload doubles wire occupancy: total time with
        // an ideal-but-wired network scales linearly for a pure relay.
        let tree = machine(&[1.0, 1.0]);
        let cfg = NetConfig::ideal().with_medium(1.0);
        let sends: Vec<SendIntent> = words
            .iter()
            .map(|&w| SendIntent { src: ProcId(0), dst: ProcId(1), words: w })
            .collect();
        let doubled: Vec<SendIntent> = sends
            .iter()
            .map(|s| SendIntent { words: s.words * 2, ..*s })
            .collect();
        let a = superstep_timing(&tree, &cfg, &[0.0, 0.0], &[0.0, 0.0], &sends);
        let b = superstep_timing(&tree, &cfg, &[0.0, 0.0], &[0.0, 0.0], &doubled);
        prop_assert!((b.finish[1] - 2.0 * a.finish[1]).abs() < 1e-6);
    }
}
