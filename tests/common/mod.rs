//! Shared proptest strategies: random HBSP^k machines and workloads.
#![allow(dead_code)] // each test binary uses a different subset

use hbsp::core::{Inbox, MsgBatch, SpmdContext, WireWriter};
use hbsp::prelude::*;
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

/// `run` on the simulator and on the threaded runtime of `tree`: the
/// simulator's run, checked equal to the other — result, model time
/// and every step's statistics, compared as printed (`{:?}` prints an
/// `f64` exactly, so equal text is equal bits).
pub fn same_on_both<R: Debug>(tree: &MachineTree, run: impl Fn(&Executor) -> R) -> R {
    let tree = Arc::new(tree.clone());
    let [sim, thr] = [Executor::simulator, Executor::threads].map(|on| run(&on(tree.clone())));
    assert_eq!(format!("{sim:?}"), format!("{thr:?}"), "engines disagree");
    sim
}

/// One processor's view of a superstep, for driving a program's `step`
/// by hand: scripted deliveries, read in place like an engine's, and an
/// outbox that keeps what is posted. Only for programs that never ask
/// the context for the machine.
pub struct Wire {
    pub pid: ProcId,
    delivered: MsgBatch,
    rows: Vec<(u32, u32)>,
    pub outbox: MsgBatch,
}

impl Wire {
    pub fn new(pid: ProcId) -> Wire {
        Wire {
            pid,
            delivered: MsgBatch::new(),
            rows: Vec::new(),
            outbox: MsgBatch::new(),
        }
    }

    /// Deliver one message from `src`, after those delivered before it.
    pub fn receive(&mut self, src: ProcId, tag: u32, payload: &[u8]) {
        self.rows.push((src.0, self.delivered.len() as u32));
        self.delivered.push(src, self.pid, tag, payload);
    }
}

impl SpmdContext for Wire {
    fn pid(&self) -> ProcId {
        self.pid
    }
    fn nprocs(&self) -> usize {
        unreachable!("hand-driven programs take the machine from ProcEnv")
    }
    fn tree(&self) -> &MachineTree {
        unreachable!("hand-driven programs take the machine from ProcEnv")
    }
    fn messages(&self) -> Inbox<'_> {
        Inbox::shared(&self.delivered, &self.rows)
    }
    fn send_with(
        &mut self,
        dsts: &[ProcId],
        tag: u32,
        len: usize,
        fill: &mut dyn FnMut(&mut WireWriter<'_>),
    ) {
        if let Err(broken) = self.outbox.push_with(self.pid, dsts, tag, len, fill) {
            panic!("{}: {broken}", self.pid);
        }
    }
    fn charge(&mut self, _units: f64) {}
}

/// Parameters for one random processor: (r, speed).
fn arb_proc() -> impl Strategy<Value = (f64, f64)> {
    (1.0f64..6.0, 0.05f64..=1.0)
}

/// A random flat (HBSP^1) machine with 1..=max_p processors. One
/// processor is always normalized to `r = 1`.
pub fn arb_flat_machine(max_p: usize) -> impl Strategy<Value = MachineTree> {
    proptest::collection::vec(arb_proc(), 1..=max_p).prop_map(|mut procs| {
        procs[0].0 = 1.0; // normalize the fastest communicator
        TreeBuilder::flat(1.0, 100.0, &procs).expect("valid random flat machine")
    })
}

/// A random HBSP^2 machine: 1..=4 clusters of 1..=4 processors.
pub fn arb_hbsp2_machine() -> impl Strategy<Value = MachineTree> {
    proptest::collection::vec(
        (10.0f64..500.0, proptest::collection::vec(arb_proc(), 1..=4)),
        1..=4,
    )
    .prop_map(|mut clusters| {
        clusters[0].1[0].0 = 1.0;
        TreeBuilder::two_level(1.0, 1000.0, &clusters).expect("valid random hbsp2 machine")
    })
}

/// A random HBSP^3 machine: 1..=2 campuses of 1..=2 LANs of 1..=3
/// processors, built through the raw TreeBuilder.
pub fn arb_hbsp3_machine() -> impl Strategy<Value = MachineTree> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(arb_proc(), 1..=3), 1..=2),
        1..=2,
    )
    .prop_map(|mut campuses| {
        campuses[0][0][0].0 = 1.0;
        let mut b = TreeBuilder::new(1.0);
        let root = b.cluster("wan", NodeParams::cluster(5000.0));
        for (ci, lans) in campuses.into_iter().enumerate() {
            let campus = b.child_cluster(root, format!("campus{ci}"), NodeParams::cluster(500.0));
            for (li, procs) in lans.into_iter().enumerate() {
                let lan = b.child_cluster(campus, format!("c{ci}l{li}"), NodeParams::cluster(50.0));
                for (pi, (r, speed)) in procs.into_iter().enumerate() {
                    b.child_proc(lan, format!("c{ci}l{li}p{pi}"), NodeParams::proc(r, speed));
                }
            }
        }
        b.build().expect("valid random hbsp3 machine")
    })
}

/// A random machine of any class up to HBSP^3.
pub fn arb_machine() -> impl Strategy<Value = MachineTree> {
    prop_oneof![
        arb_flat_machine(8),
        arb_hbsp2_machine(),
        arb_hbsp3_machine()
    ]
}

/// Random input data sized to stay fast.
pub fn arb_items() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0..600)
}

/// splitmix64: a tiny deterministic mixer so every processor can derive
/// the same pseudo-random decisions from `(seed, step)` without shared
/// state.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The processors a send may go to in a step that closes at `level`:
/// the leaves of the sender's cluster at that level, itself included.
pub fn cluster_peers(env: &ProcEnv, level: u32) -> Vec<ProcId> {
    let cluster = env
        .tree
        .cluster_of(env.pid, level)
        .expect("scope level never exceeds the tree height");
    env.tree
        .subtree_leaves(cluster)
        .into_iter()
        .map(|l| env.tree.node(l).proc_id().expect("leaves are procs"))
        .collect()
}

/// A seeded random SPMD program: each superstep picks a sync scope from
/// `(seed, step)` alone (so every processor agrees, as the SPMD
/// discipline demands), then each processor posts a random number of
/// randomly sized messages to random destinations *within its cluster
/// at that scope* and charges random work.
pub struct RandomProgram {
    pub rounds: usize,
    pub seed: u64,
    /// When true (and the machine has depth), steps may close with
    /// level-scoped barriers instead of always syncing globally.
    pub local_sync: bool,
}

impl RandomProgram {
    /// The scope closing superstep `step` — a pure function of the
    /// program parameters so all processors derive the same answer.
    fn scope(&self, step: usize, tree: &MachineTree) -> SyncScope {
        let height = tree.height();
        if self.local_sync && height > 1 {
            SyncScope::Level(1 + (mix(self.seed ^ step as u64) % height as u64) as u32)
        } else {
            SyncScope::global(tree)
        }
    }
}

impl Program for RandomProgram {
    type State = u64;

    fn init(&self, _env: &ProcEnv) -> u64 {
        0x6a09_e667_f3bc_c908
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest ^= (m.src.0 as u64) << 40 | (m.tag as u64) << 20 | m.payload.len() as u64;
            *digest = mix(*digest);
        }
        if step == self.rounds {
            return StepOutcome::Done;
        }
        let scope = self.scope(step, &env.tree);
        // Destinations legal for this step: the leaves of this
        // processor's cluster at the closing scope's level.
        let peers = cluster_peers(env, scope.level());
        let base = mix(self.seed ^ ((step as u64) << 24) ^ env.pid.0 as u64);
        let nmsgs = (base % 4) as usize;
        for j in 0..nmsgs as u64 {
            let h = mix(base ^ (j << 8));
            let dst = peers[(h % peers.len() as u64) as usize];
            let len = (mix(h) % 96) as usize;
            ctx.send(dst, (h % 17) as u32, &vec![(h >> 32) as u8; len]);
        }
        ctx.charge((base % 1000) as f64 / 8.0);
        StepOutcome::Continue(scope)
    }
}
