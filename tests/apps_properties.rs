//! Property tests for the applications: correctness on random machines
//! and random inputs, on both engines — which agree on the whole run,
//! model time to the bit.

mod common;

use common::{arb_machine, same_on_both};
use hbsp::apps::stencil::reference_jacobi;
use hbsp::apps::{matvec, sort, stencil};
use hbsp::collectives::plan::{RootPolicy, WorkloadPolicy};
use proptest::prelude::*;

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
        prop_assert_eq!(run.field.len(), want.len());
        for (a, b) in run.field.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
