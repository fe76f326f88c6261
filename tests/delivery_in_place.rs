//! Property test: what a rank reads through `ctx.messages()` is, message
//! for message, what the engines' old delivery loop copied into its
//! inbox — post in pid order, apply the step's drops and truncations,
//! cost, then copy every message into its receiver's inbox in (arrival,
//! posting) order. The reference below *is* that loop, built from the
//! public step algebra; the simulator and the threaded runtime (both
//! barriers) are held to it step by step: src, dst, tag, payload bytes
//! and order.

mod common;

use common::{arb_machine, cluster_peers, mix};
use hbsp::core::{Message, MsgBatch, SpmdContext};
use hbsp::prelude::*;
use hbsp::runtime::{BarrierKind, ThreadedRuntime};
use hbsp::sim::timing::{barrier_release, superstep_timing, SendIntent};
use hbsp::sim::{NetConfig, Simulator};
use proptest::prelude::*;
use std::sync::Arc;

/// A seeded program whose sends are a pure function of `(seed, step,
/// pid)` — so the reference can replay them without running it — and
/// whose state is every inbox it read, one list per step.
struct Logged {
    rounds: usize,
    seed: u64,
}

/// What one rank read, step by step.
type Seen = Vec<Vec<Message>>;

impl Logged {
    /// The closing scope of `step`, the same on every rank.
    fn scope(&self, tree: &MachineTree, step: usize) -> SyncScope {
        SyncScope::Level(1 + (mix(self.seed ^ step as u64) % tree.height() as u64) as u32)
    }

    /// What `env.pid` posts in `step`, in posting order, and the work
    /// it charges: 0..=4 messages to its cluster at the closing scope
    /// (itself included, runs to one destination, empty payloads among
    /// them), and a silent rank every step.
    fn posts(&self, env: &ProcEnv, step: usize) -> (Vec<(ProcId, u32, Vec<u8>)>, f64) {
        let key = mix(self.seed ^ ((step as u64) << 24));
        let base = mix(key ^ env.pid.0 as u64);
        let work = (base % 1000) as f64 / 8.0;
        if mix(key) % env.nprocs as u64 == env.pid.0 as u64 {
            return (Vec::new(), work);
        }
        let peers = cluster_peers(env, self.scope(&env.tree, step).level());
        let mut dst = peers[0];
        let posts = (0..base % 5)
            .map(|j| {
                let h = mix(base ^ (j << 8));
                if !h.is_multiple_of(3) {
                    dst = peers[(mix(h) % peers.len() as u64) as usize];
                }
                let len = [0, 1, 4, 13, 96][(h >> 8) as usize % 5];
                let payload = (0..len).map(|b| (h >> (b % 8)) as u8 ^ b as u8).collect();
                (dst, (h % 17) as u32, payload)
            })
            .collect();
        (posts, work)
    }
}

impl Program for Logged {
    type State = Seen;

    fn init(&self, _env: &ProcEnv) -> Seen {
        Vec::new()
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        seen: &mut Seen,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        seen.push(ctx.messages().to_messages());
        let (posts, work) = self.posts(env, step);
        for (dst, tag, payload) in posts {
            ctx.send(dst, tag, &payload);
        }
        ctx.charge(work);
        if step == self.rounds {
            StepOutcome::Done
        } else {
            StepOutcome::Continue(self.scope(&env.tree, step))
        }
    }
}

/// The old delivery loop over [`Logged`]'s posts under `plan`: every
/// rank's inboxes, step by step, each step's deliveries in (arrival,
/// posting index) order.
#[expect(clippy::disallowed_methods, reason = "the reference loop's barriers")]
fn copied_inboxes(tree: &Arc<MachineTree>, prog: &Logged, plan: &FaultPlan) -> Vec<Seen> {
    let p = tree.num_procs();
    let cfg = NetConfig::pvm_like();
    let envs: Vec<ProcEnv> = (0..p)
        .map(|i| ProcEnv {
            pid: ProcId(i as u32),
            nprocs: p,
            tree: Arc::clone(tree),
        })
        .collect();
    let mut starts = vec![0.0; p];
    let mut inboxes = vec![MsgBatch::new(); p];
    let mut seen: Vec<Seen> = vec![Vec::new(); p];
    for step in 0..prog.rounds {
        for (rank, inbox) in inboxes.iter_mut().enumerate() {
            seen[rank].push(inbox.to_messages());
            inbox.clear();
        }
        let mut sends = MsgBatch::new();
        let mut work = vec![0.0; p];
        for env in &envs {
            let (posts, units) = prog.posts(env, step);
            for (dst, tag, payload) in posts {
                sends.push(env.pid, dst, tag, &payload);
            }
            work[env.pid.rank()] = units;
        }
        plan.corrupt_batch(step, &mut sends);
        let intents: Vec<SendIntent> = sends
            .iter()
            .map(|m| SendIntent {
                src: m.src,
                dst: m.dst,
                words: m.words(),
            })
            .collect();
        let timing = superstep_timing(tree, &cfg, &starts, &work, &intents);
        starts = barrier_release(tree, prog.scope(tree, step), &timing.finish);
        let arrival = |mi: usize| timing.messages[mi].arrival;
        let mut order: Vec<usize> = (0..timing.messages.len()).collect();
        order.sort_by(|&a, &b| arrival(a).total_cmp(&arrival(b)).then(a.cmp(&b)));
        for &mi in &order {
            let m = sends.get(mi);
            inboxes[m.dst.rank()].push(m.src, m.dst, m.tag, m.payload);
        }
    }
    for (rank, inbox) in inboxes.iter().enumerate() {
        seen[rank].push(inbox.to_messages());
    }
    seen
}

/// A plan of 0..=5 drops and truncations at random ranks and steps,
/// truncations to 0, 1, 2 words or past any payload.
fn lossy_plan(seed: u64, p: usize, rounds: usize) -> FaultPlan {
    (0..mix(seed) % 6).fold(FaultPlan::new(), |plan, j| {
        let h = mix(seed ^ (j + 1) << 16);
        let (pid, step) = (
            ProcId((h % p as u64) as u32),
            (mix(h) % rounds as u64) as usize,
        );
        match (h >> 40) % 5 {
            0 => plan.drop_msgs(pid, step),
            k => plan.truncate(pid, step, [0, 1, 2, 1 << 30][k as usize - 1]),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[expect(clippy::disallowed_methods, reason = "holds each engine to the reference loop")]
    #[test]
    fn every_engine_reads_what_the_copy_loop_delivered(
        tree in arb_machine(),
        rounds in 1usize..7,
        seed in any::<u64>(),
    ) {
        let tree = Arc::new(tree);
        let prog = Logged { rounds, seed };
        let plan = lossy_plan(seed, tree.num_procs(), rounds);
        let want = copied_inboxes(&tree, &prog, &plan);
        for seen in &want {
            prop_assert_eq!(seen.len(), rounds + 1);
        }

        let (_, sim) = Simulator::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run_with_states(&prog)
            .unwrap();
        prop_assert_eq!(&sim, &want, "simulator under {:?}", plan);
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let (_, thr) = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .faults(plan.clone())
                .run_with_states(&prog)
                .unwrap();
            prop_assert_eq!(&thr, &want, "{:?} under {:?}", kind, plan);
        }
    }
}

/// A kept simulator reads in place from arenas an earlier run wrote:
/// run after run of different programs, what every rank reads is what a
/// fresh engine's ranks read.
#[expect(clippy::disallowed_methods, reason = "compares kept and fresh engines")]
#[test]
fn a_kept_simulator_reads_what_a_fresh_one_does() {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/grid3.hbsp")).expect("grid3"),
    );
    let kept = Simulator::new(Arc::clone(&tree));
    for seed in 0..12u64 {
        let prog = Logged {
            rounds: 2 + seed as usize % 5,
            seed,
        };
        let fresh = Simulator::new(Arc::clone(&tree));
        let (_, want) = fresh.run_with_states(&prog).unwrap();
        let (_, got) = kept.run_with_states(&prog).unwrap();
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(got, copied_inboxes(&tree, &prog, &FaultPlan::new()));
    }
}
