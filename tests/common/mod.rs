//! Shared proptest strategies: random HBSP^k machines and workloads.
#![allow(dead_code)] // each test binary uses a different subset

use hbsp::core::{MsgBatch, SpmdContext};
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
/// by hand: a scripted inbox and an outbox that keeps what is posted.
/// Only for programs that never ask the context for the machine.
pub struct Wire {
    pub pid: ProcId,
    pub inbox: MsgBatch,
    pub outbox: MsgBatch,
}

impl Wire {
    pub fn new(pid: ProcId) -> Wire {
        Wire {
            pid,
            inbox: MsgBatch::new(),
            outbox: MsgBatch::new(),
        }
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
    fn messages(&self) -> &MsgBatch {
        &self.inbox
    }
    fn send_with(&mut self, dst: ProcId, tag: u32, len: usize, fill: &mut dyn FnMut(&mut [u8])) {
        self.outbox.push_with(self.pid, dst, tag, len, fill);
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
