//! Property tests for the applications: correctness on random machines
//! and random inputs, on both engines — which agree on the whole run,
//! model time to the bit.

mod common;

use common::{arb_machine, same_on_both};
use hbsp::apps::stencil::reference_jacobi;
use hbsp::apps::{matvec, sort, stencil};
use hbsp::collectives::plan::{RootPolicy, WorkloadPolicy};
use hbsp::lib::Executor;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sample_sort_sorts_anything(
        tree in arb_machine(),
        items in proptest::collection::vec(any::<u32>(), 0..2000),
        wl in prop_oneof![
            Just(WorkloadPolicy::Equal),
            Just(WorkloadPolicy::Balanced),
            Just(WorkloadPolicy::CommAware)
        ],
    ) {
        let mut expected = items.clone();
        expected.sort_unstable();
        let run = same_on_both(&tree, |exec| {
            sort::run(exec, &items, wl, RootPolicy::Fastest).unwrap()
        });
        prop_assert_eq!(run.sorted, expected);
        prop_assert_eq!(run.bucket_sizes.len(), tree.num_procs());
    }

    #[test]
    fn sample_sort_handles_heavy_duplicates(
        tree in arb_machine(),
        value in any::<u32>(),
        n in 0usize..500,
    ) {
        let items = vec![value; n];
        let run = same_on_both(&tree, |exec| {
            sort::run(exec, &items, WorkloadPolicy::Equal, RootPolicy::Fastest).unwrap()
        });
        prop_assert_eq!(run.sorted, items);
    }

    #[test]
    fn matvec_matches_reference(
        tree in arb_machine(),
        n in 1usize..20,
        m in 1usize..20,
        seed in any::<u32>(),
    ) {
        let a: Vec<f64> = (0..n * m).map(|i| ((i as u32 ^ seed) % 100) as f64 - 50.0).collect();
        let x: Vec<f64> = (0..m).map(|i| (i as f64 + 1.0) / m as f64).collect();
        let run = same_on_both(&tree, |exec| {
            matvec::run(exec, &a, &x, n, m, WorkloadPolicy::Balanced).unwrap()
        });
        for (i, got) in run.y.iter().enumerate() {
            let want: f64 = a[i * m..(i + 1) * m].iter().zip(&x).map(|(p, q)| p * q).sum();
            prop_assert!((got - want).abs() < 1e-9, "row {}: {} vs {}", i, got, want);
        }
    }

    #[test]
    fn stencil_matches_reference(
        tree in arb_machine(),
        len in 2usize..40,
        iters in 0usize..12,
        hot in 0.0f64..1000.0,
    ) {
        let mut field = vec![0.0; len];
        field[0] = hot;
        let want = reference_jacobi(&field, iters);
        let run = same_on_both(&tree, |exec| {
            stencil::run(exec, &field, iters, WorkloadPolicy::Balanced).unwrap()
        });
        prop_assert_eq!(bits(&run.field), bits(&want));
    }
}

fn bits(field: &[f64]) -> Vec<u64> {
    field.iter().map(|v| v.to_bits()).collect()
}

/// On `campus`, with a field large enough that every rank owns cells,
/// both engines relax it to the reference Jacobi's bits.
#[test]
fn stencil_on_campus_matches_reference_bit_for_bit() {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/campus.hbsp")).expect("campus"),
    );
    let mut field = vec![0.0; 4000];
    field[0] = 100.0;
    field[1999] = -40.0;
    let want = reference_jacobi(&field, 20);
    for exec in [
        Executor::simulator(tree.clone()),
        Executor::threads(tree.clone()),
    ] {
        let prog = stencil::Stencil::new(Arc::new(field.clone()), 20, WorkloadPolicy::Balanced);
        let (_, states) = exec.run(&prog).unwrap();
        assert!(
            states.iter().all(|s| !s.cells.is_empty()),
            "a rank owns no cells"
        );
        let root = tree.fastest_proc().rank();
        assert_eq!(
            bits(&states[root].result),
            bits(&want),
            "{}",
            exec.engine_name()
        );
    }
}

/// What a run puts on the wire, as the cost model sees it: messages
/// delivered, words and messages per LCA level summed over the steps,
/// and the model time's bits.
fn wire(sim: &hbsp::sim::SimOutcome) -> (u64, Vec<(u64, u64)>, u64) {
    let mut traffic: Vec<(u64, u64)> = Vec::new();
    for step in &sim.steps {
        traffic.resize(traffic.len().max(step.traffic.len()), (0, 0));
        for (sum, t) in traffic.iter_mut().zip(&step.traffic) {
            *sum = (sum.0 + t.words, sum.1 + t.messages);
        }
    }
    (sim.messages_delivered, traffic, sim.total_time.to_bits())
}

/// The apps' wire is frozen: on `campus` with fixed inputs, each app
/// delivers the same messages, charges the same words at each level and
/// ends at the same model time on both engines, to the bit. The cost
/// model charges words, not copies, so a change to how an app builds or
/// reads its payloads must leave these untouched; a layout drift moves
/// them.
#[test]
fn the_apps_wire_is_frozen_on_campus() {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/campus.hbsp")).expect("campus"),
    );
    let mut x = 0x9E37_79B9u32;
    let items: Vec<u32> = (0..3000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect();
    let (n, m) = (40, 24);
    let a: Vec<f64> = (0..n * m).map(|i| (i % 13) as f64 - 6.0).collect();
    let v: Vec<f64> = (0..m).map(|i| 0.25 * i as f64).collect();
    let mut field = vec![0.0; 50];
    field[0] = 100.0;
    for exec in [
        Executor::simulator(tree.clone()),
        Executor::threads(tree.clone()),
    ] {
        let sort = sort::run(&exec, &items, WorkloadPolicy::Balanced, RootPolicy::Fastest).unwrap();
        let matvec = matvec::run(&exec, &a, &v, n, m, WorkloadPolicy::Balanced).unwrap();
        let stencil = stencil::run(&exec, &field, 5, WorkloadPolicy::Balanced).unwrap();
        assert_eq!(
            wire(&sort.sim),
            (
                77,
                vec![(0, 0), (2355, 33), (2741, 44)],
                4688129916456322474
            ),
            "sort"
        );
        assert_eq!(
            wire(&matvec.sim),
            (21, vec![(0, 0), (956, 9), (958, 12)], 4683231913497644238),
            "matvec"
        );
        assert_eq!(
            wire(&stencil.sim),
            (77, vec![(0, 0), (164, 63), (64, 14)], 4689942432599053275),
            "stencil"
        );
    }
}
