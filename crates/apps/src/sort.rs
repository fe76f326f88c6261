//! Heterogeneous parallel sample sort (PSRS-style), built on the
//! paper's design rules.
//!
//! Phases (each a superstep):
//!
//! 1. `P_f` scatters `c_j`-proportional shares;
//! 2. each processor sorts its share locally (charged `n_j log n_j`
//!    work; the kernel is an LSD radix sort) and sends `p` regular
//!    samples to `P_f`;
//! 3. `P_f` sorts the sample pool, picks `p − 1` splitters, and sends
//!    them to everyone;
//! 4. each processor partitions its sorted run by the splitters and
//!    ships bucket `j` to processor `j` (a personalized all-to-all);
//! 5. everyone merges its incoming runs (charged as a `p`-way merge,
//!    sorted by the same radix kernel); bucket `j` now holds the `j`-th
//!    sorted slice of the global array.
//!
//! The array ends *distributed* in rank order — concatenating the
//! buckets yields the sorted array — which is how a BSP sort leaves
//! its output.

use hbsp_collectives::data::partition_for;
use hbsp_collectives::plan::{RootPolicy, WorkloadPolicy};
use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope};
use hbsp_sim::{SimError, SimOutcome};
use hbsplib::{codec, Executor};
use std::sync::Arc;

const TAG_SHARE: u32 = 0x5301;
const TAG_SAMPLES: u32 = 0x5302;
const TAG_SPLITTERS: u32 = 0x5303;
const TAG_BUCKET: u32 = 0x5304;

/// Work units for sorting `n` items.
fn sort_work(n: usize) -> f64 {
    if n < 2 {
        1.0
    } else {
        n as f64 * (n as f64).log2()
    }
}

/// Sort `v` by least-significant byte first: four counting passes
/// through `scratch`, swapping the two buffers after each, so the result
/// is never copied back (`scratch` ends holding the other buffer). A
/// pass whose byte is the same in every key moves nothing and is skipped.
fn radix_sort(v: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    let mut counts = [[0usize; 256]; 4];
    for &x in v.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(x >> (8 * digit)) as usize & 0xff] += 1;
        }
    }
    // Grown to fit exactly, like phase 5's bucket: amortized doubling
    // would keep up to twice a bucket per rank.
    scratch.reserve_exact(v.len().saturating_sub(scratch.len()));
    scratch.resize(v.len(), 0);
    for (digit, count) in counts.iter().enumerate() {
        if count.contains(&v.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut at = 0;
        for (next, &c) in next.iter_mut().zip(count) {
            *next = at;
            at += c;
        }
        for &x in v.iter() {
            let slot = &mut next[(x >> (8 * digit)) as usize & 0xff];
            scratch[*slot] = x;
            *slot += 1;
        }
        std::mem::swap(v, scratch);
    }
}

/// The items of a share the root sent in step 0: a one-piece bundle,
/// `[1, offset, len, items…]` (pinned by `a_share_decodes_to_its_items`).
fn share_items(payload: &[u8]) -> Vec<u32> {
    codec::decode_u32s(&payload[12..])
}

/// Per-processor sample-sort state.
#[derive(Debug, Default, Clone)]
pub struct SortState {
    run: Vec<u32>,
    splitters: Vec<u32>,
    /// The final sorted bucket owned by this processor.
    pub bucket: Vec<u32>,
}

/// The sample-sort program.
pub struct SampleSort {
    items: Arc<Vec<u32>>,
    workload: WorkloadPolicy,
    root: RootPolicy,
}

impl SampleSort {
    /// Sort `items`, initially held by the coordinator (`P_f`),
    /// distributing shares by `workload`.
    pub fn new(items: Arc<Vec<u32>>, workload: WorkloadPolicy) -> Self {
        SampleSort {
            items,
            workload,
            root: RootPolicy::Fastest,
        }
    }

    /// Override the coordinating processor — `RootPolicy::Rank(0)` +
    /// `WorkloadPolicy::Equal` is what a heterogeneity-oblivious BSP
    /// port would do.
    pub fn with_root(mut self, root: RootPolicy) -> Self {
        self.root = root;
        self
    }
}

impl SpmdProgram for SampleSort {
    type State = SortState;

    fn init(&self, _env: &ProcEnv) -> SortState {
        SortState::default()
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut SortState,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        // A rank past the machine names no processor: the first send to
        // it fails the run with `SimError::NoSuchProc`.
        let root = self
            .root
            .resolve(&env.tree)
            .unwrap_or_else(|e| ProcId(e.rank));
        let p = env.nprocs;
        match step {
            // Phase 1: scatter shares from the root.
            0 => {
                if env.pid == root {
                    let part = partition_for(&env.tree, self.items.len() as u64, self.workload);
                    for j in 0..p {
                        let q = ProcId(j as u32);
                        let range = part.range(q);
                        let share = &self.items[range.start as usize..range.end as usize];
                        if q == root {
                            state.run = share.to_vec();
                        } else {
                            // A one-piece bundle: `[1, offset, len, items…]`.
                            let head = [1, range.start as u32, share.len() as u32];
                            ctx.send_with(&[q], TAG_SHARE, 4 * (3 + share.len()), &mut |w| {
                                w.u32s(&head);
                                w.u32s(share);
                            });
                        }
                    }
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Phase 2: local sort + regular sampling.
            1 => {
                for m in ctx.messages() {
                    if m.tag == TAG_SHARE {
                        state.run = share_items(m.payload);
                    }
                }
                let mut run = std::mem::take(&mut state.run);
                ctx.charge(sort_work(run.len()));
                radix_sort(&mut run, &mut Vec::new());
                // p regular samples (or fewer if the run is tiny).
                let samples: Vec<u32> = if run.is_empty() {
                    Vec::new()
                } else {
                    (0..p).map(|i| run[i * run.len() / p]).collect()
                };
                if env.pid == root {
                    // Root's samples stay local, stashed in splitters
                    // until the pool is complete.
                    state.splitters = samples;
                } else {
                    ctx.send_with(&[root], TAG_SAMPLES, 4 * samples.len(), &mut |w| {
                        w.u32s(&samples)
                    });
                }
                state.run = run;
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Phase 3: the root selects and distributes splitters.
            2 => {
                if env.pid == root {
                    let mut pool = std::mem::take(&mut state.splitters);
                    for m in ctx.messages() {
                        if m.tag == TAG_SAMPLES {
                            pool.extend(codec::read_u32s(m.payload));
                        }
                    }
                    ctx.charge(sort_work(pool.len()));
                    pool.sort_unstable();
                    let splitters: Vec<u32> = if pool.is_empty() {
                        Vec::new()
                    } else {
                        (1..p).map(|i| pool[i * pool.len() / p]).collect()
                    };
                    let others: Vec<ProcId> =
                        (0..p as u32).map(ProcId).filter(|&q| q != root).collect();
                    ctx.send_with(&others, TAG_SPLITTERS, 4 * splitters.len(), &mut |w| {
                        w.u32s(&splitters)
                    });
                    state.splitters = splitters;
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Phase 4: bucket exchange.
            3 => {
                for m in ctx.messages() {
                    if m.tag == TAG_SPLITTERS {
                        state.splitters = codec::decode_u32s(m.payload);
                    }
                }
                let run = &state.run;
                let splitters = &state.splitters;
                // Bucket boundaries by binary search in the sorted run.
                let mut bounds = Vec::with_capacity(p + 1);
                bounds.push(0usize);
                for s in splitters {
                    bounds.push(run.partition_point(|&v| v <= *s));
                }
                // Degenerate case (empty global input): no splitters
                // were produced — everything (nothing) lands in the
                // leading buckets.
                while bounds.len() < p {
                    bounds.push(run.len());
                }
                bounds.push(run.len());
                ctx.charge((splitters.len() as f64 + 1.0) * (run.len().max(1) as f64).log2());
                for j in 0..p {
                    let lo = bounds[j];
                    let hi = bounds[j + 1].max(lo);
                    let bucket = &run[lo..hi];
                    let q = ProcId(j as u32);
                    if q == env.pid {
                        state.bucket = bucket.to_vec();
                    } else {
                        ctx.send_with(&[q], TAG_BUCKET, 4 * bucket.len(), &mut |w| w.u32s(bucket));
                    }
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Phase 5: merge incoming runs — appended from their
            // payloads into one bucket, which the radix kernel sorts
            // (charged as the `p`-way merge it stands for).
            _ => {
                let mut bucket = std::mem::take(&mut state.bucket);
                let inbox = ctx.messages();
                let incoming = || inbox.iter().filter(|m| m.tag == TAG_BUCKET);
                // Sized once: growing by doubling would hold up to twice it.
                bucket.reserve_exact(incoming().map(|m| m.payload.len() / 4).sum());
                let mut runs = 1;
                for m in incoming() {
                    bucket.extend(codec::read_u32s(m.payload));
                    runs += 1;
                }
                ctx.charge(bucket.len() as f64 * (runs.max(2) as f64).log2());
                // The run is spent: its buffer is the kernel's scratch,
                // freed with it once the bucket is sorted.
                radix_sort(&mut bucket, &mut std::mem::take(&mut state.run));
                state.bucket = bucket;
                StepOutcome::Done
            }
        }
    }
}

/// Outcome of a sample-sort run.
#[derive(Debug, Clone)]
pub struct SampleSortRun {
    /// The globally sorted array (buckets concatenated in rank order).
    pub sorted: Vec<u32>,
    /// Final bucket length per processor — the load balance the
    /// splitters achieved.
    pub bucket_sizes: Vec<usize>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Sort `items` on `exec`'s machine and engine with the given share
/// policy, coordinated by the processor `root` selects.
pub fn run(
    exec: &Executor,
    items: &[u32],
    workload: WorkloadPolicy,
    root: RootPolicy,
) -> Result<SampleSortRun, SimError> {
    let prog = SampleSort::new(Arc::new(items.to_vec()), workload).with_root(root);
    let (outcome, states) = exec.run(&prog)?;
    let bucket_sizes: Vec<usize> = states.iter().map(|s| s.bucket.len()).collect();
    let mut sorted = Vec::with_capacity(items.len());
    for s in &states {
        sorted.extend_from_slice(&s.bucket);
    }
    Ok(SampleSortRun {
        sorted,
        bucket_sizes,
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sim, sort};
    use hbsp_core::{MachineTree, TreeBuilder};
    use proptest::prelude::*;

    fn items(n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect()
    }

    fn machine() -> MachineTree {
        TreeBuilder::flat(
            1.0,
            500.0,
            &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35), (3.5, 0.25)],
        )
        .unwrap()
    }

    #[test]
    fn sorts_correctly() {
        let t = machine();
        let data = items(20_000, 99);
        let mut expected = data.clone();
        expected.sort_unstable();
        for wl in [
            WorkloadPolicy::Equal,
            WorkloadPolicy::Balanced,
            WorkloadPolicy::CommAware,
        ] {
            let run = sort::run(&sim(&t), &data, wl, RootPolicy::Fastest).unwrap();
            assert_eq!(run.sorted, expected, "{wl:?}");
            assert_eq!(run.bucket_sizes.iter().sum::<usize>(), data.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The radix kernel sorts as `sort_unstable` does, through one
        /// scratch reused across inputs of every length: random keys,
        /// heavy duplicates, phase 5's `p` sorted runs appended, and the
        /// edges where passes are skipped (every byte, or one byte,
        /// alike in all keys).
        #[test]
        fn radix_sort_agrees_with_sort_unstable(
            keys in proptest::collection::vec(any::<u32>(), 0..3000),
            dups in proptest::collection::vec(0u32..4, 0..3000),
            p in 1usize..9,
        ) {
            let mut runs = Vec::new();
            for chunk in keys.chunks(keys.len().div_ceil(p).max(1)) {
                let mut run = chunk.to_vec();
                run.sort_unstable();
                runs.extend(run);
            }
            let byte_fixed: Vec<u32> = keys.iter().map(|k| k & 0xff00_ffff | 0x0042_0000).collect();
            let dups_high: Vec<u32> = dups.iter().map(|d| d << 24 | 7).collect();
            let mut scratch = Vec::new();
            for input in [
                keys, dups, runs, byte_fixed, dups_high,
                vec![], vec![9], vec![5; 100],
                vec![u32::MAX, 0, u32::MAX, 1, 0, u32::MAX - 1],
            ] {
                let mut want = input.clone();
                want.sort_unstable();
                let mut got = input.clone();
                radix_sort(&mut got, &mut scratch);
                prop_assert_eq!(got, want, "an input of {} keys", input.len());
            }
        }
    }

    #[test]
    fn a_share_decodes_to_its_items() {
        use hbsp_collectives::data::encode_bundle;
        let piece = hbsp_collectives::Piece {
            offset: 7,
            items: items(33, 5),
        };
        assert_eq!(
            share_items(&encode_bundle(std::slice::from_ref(&piece))),
            piece.items
        );
    }

    #[test]
    fn an_out_of_range_root_fails_with_a_typed_error() {
        let tree = Arc::new(machine());
        for exec in [Executor::simulator(tree.clone()), Executor::threads(tree)] {
            let err = sort::run(
                &exec,
                &items(100, 3),
                WorkloadPolicy::Equal,
                RootPolicy::Rank(99),
            )
            .unwrap_err();
            assert_eq!(
                err,
                SimError::NoSuchProc {
                    step: 1,
                    dst: ProcId(99)
                }
            );
        }
    }

    #[test]
    fn handles_duplicates_and_tiny_inputs() {
        let t = machine();
        for data in [vec![], vec![5], vec![3, 3, 3, 3, 3], items(17, 4)] {
            let mut expected = data.clone();
            expected.sort_unstable();
            let run =
                sort::run(&sim(&t), &data, WorkloadPolicy::Equal, RootPolicy::Fastest).unwrap();
            assert_eq!(run.sorted, expected, "{data:?}");
        }
    }

    #[test]
    fn splitters_balance_buckets_reasonably() {
        let t = machine();
        let data = items(50_000, 7);
        let run = sort::run(&sim(&t), &data, WorkloadPolicy::Equal, RootPolicy::Fastest).unwrap();
        let max = *run.bucket_sizes.iter().max().unwrap();
        // PSRS-style regular sampling bounds buckets by ~2n/p.
        assert!(
            max <= 2 * data.len() / run.bucket_sizes.len() + 1,
            "bucket sizes {:?}",
            run.bucket_sizes
        );
    }

    #[test]
    fn single_processor_sorts() {
        let mut b = TreeBuilder::new(1.0);
        b.proc_root("solo", hbsp_core::NodeParams::fastest());
        let t = b.build().unwrap();
        let data = items(1000, 3);
        let mut expected = data.clone();
        expected.sort_unstable();
        let run = sort::run(
            &sim(&t),
            &data,
            WorkloadPolicy::Balanced,
            RootPolicy::Fastest,
        )
        .unwrap();
        assert_eq!(run.sorted, expected);
    }

    #[test]
    fn bsp_oblivious_configuration_is_slower() {
        // Rank-0 root + equal shares (what a BSP port does) vs the
        // HBSP-aware fastest-root + balanced shares. Use a machine
        // whose rank 0 is slow, as in an arbitrary enumeration order.
        let t = TreeBuilder::flat(
            1.0,
            500.0,
            &[(3.5, 0.25), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35), (1.0, 1.0)],
        )
        .unwrap();
        let data = items(60_000, 5);
        let bsp = sort::run(&sim(&t), &data, WorkloadPolicy::Equal, RootPolicy::Rank(0)).unwrap();
        let hbsp = sort::run(
            &sim(&t),
            &data,
            WorkloadPolicy::Balanced,
            RootPolicy::Fastest,
        )
        .unwrap();
        let mut expected = data;
        expected.sort_unstable();
        assert_eq!(bsp.sorted, expected);
        assert_eq!(hbsp.sorted, expected);
        assert!(
            hbsp.time < bsp.time * 0.8,
            "HBSP-aware config should win clearly: {} vs {}",
            hbsp.time,
            bsp.time
        );
    }

    #[test]
    fn balanced_shares_speed_up_the_sort() {
        let t = machine();
        let data = items(100_000, 1);
        let equal = sort::run(&sim(&t), &data, WorkloadPolicy::Equal, RootPolicy::Fastest)
            .unwrap()
            .time;
        let balanced = sort::run(
            &sim(&t),
            &data,
            WorkloadPolicy::Balanced,
            RootPolicy::Fastest,
        )
        .unwrap()
        .time;
        assert!(
            balanced < equal,
            "compute-bound phases reward c_j balancing: {balanced} vs {equal}"
        );
    }
}
