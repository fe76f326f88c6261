//! The harness checked against the library on a small machine: the
//! oracle agrees with every program on both engines, the oracle bites
//! when an output is wrong, and inputs are a pure function of the seed.

use crate::api::{self, Engine, KINDS};
use crate::gen::{self, AppSizes, CollSizes};
use crate::oracle;
use crate::trace::Tracer;
use crate::workloads::{Apps, Coll, Drain, Workload};
use std::sync::Arc;

/// Three leaves in two unequal clusters: small, heterogeneous, and tall
/// enough for the hierarchical lowerings.
const MACHINE: &str = "g = 1.0\nk = 2\n\
    cluster top (L=500) {\n\
      cluster left (L=50) { proc fast (r=1, speed=1) proc mid (r=2, speed=0.5) }\n\
      cluster right (L=80) { proc slow (r=3, speed=0.3) }\n\
    }\n";

const SMALL: CollSizes = CollSizes {
    n: 301,
    veclen: 37,
    block: 5,
};

fn machine() -> Arc<api::MachineTree> {
    api::parse_machine(MACHINE).expect("the test machine parses")
}

fn passes(w: &mut dyn Workload) {
    let mut tr = Tracer::new(true);
    for full in [true, false] {
        let out = w.op(&mut tr, full);
        assert_eq!(out.failure, None);
        assert!(out.model_time > 0.0);
        assert_eq!(out.parts_ns.len(), w.parts().len());
        assert_eq!(out.wall_ns, out.parts_ns.iter().sum::<u64>());
    }
    // Every part is a root span, and every root has layer spans below it.
    let roots = tr.spans().iter().filter(|s| s.parent.is_none()).count();
    assert_eq!(roots, 2 * w.parts().len());
    assert!(tr.spans().len() > roots);
}

#[test]
fn collectives_match_the_references_on_both_engines() {
    for engine in [Engine::Sim, Engine::Threads] {
        let mut coll = Coll::setup(3, engine, machine(), SMALL).expect("set-up");
        passes(&mut coll);
    }
}

#[test]
fn a_wrong_collective_output_fails_the_op() {
    let mut coll = Coll::setup(3, Engine::Sim, machine(), SMALL).expect("set-up");
    coll.corrupt_reference();
    let mut tr = Tracer::new(false);
    let failure = coll
        .op(&mut tr, true)
        .failure
        .expect("the full check bites");
    assert!(failure.starts_with("reduce"), "{failure}");
    // The shape-only check cannot see a wrong value; that is what the
    // full check every sixteenth op is for.
    assert_eq!(coll.op(&mut tr, false).failure, None);
}

#[test]
fn applications_match_the_references_on_both_engines() {
    let sizes = AppSizes {
        sort_n: 1000,
        matvec_n: 23,
        stencil_cells: 97,
        stencil_iters: 7,
    };
    for engine in [Engine::Sim, Engine::Threads] {
        let mut apps = Apps::setup(5, engine, machine(), sizes).expect("set-up");
        passes(&mut apps);
    }
}

#[test]
fn a_drain_matches_the_other_engine_and_counts_its_batches() {
    let jobs = api::parse_jobs(
        "a gather n=16 seed=1\n\
         b scatter n=8 seed=2 after=0\n\
         c reduce n=8 seed=3 after=0\n\
         d broadcast n=12 seed=4 after=1,2\n\
         e scan n=4 seed=5\n\
         f alltoall n=2 seed=6 after=4\n",
    )
    .expect("the job file parses");
    for engine in [Engine::Sim, Engine::Threads] {
        let mut drain = Drain::setup(9, engine, machine(), &jobs).expect("set-up");
        passes(&mut drain);
        let counts = drain.counts();
        let batches = counts
            .iter()
            .find(|c| c.0 == "sched.batches")
            .expect("counted")
            .1;
        assert!(
            (3.0..=6.0).contains(&batches),
            "a three-deep DAG: {batches}"
        );
    }
    assert!(
        api::parse_jobs("x gather\n").is_err(),
        "a malformed file is refused"
    );
}

#[test]
fn the_raw_replay_posts_the_interpreters_traffic() {
    // Same pairs, sizes, scopes and charges, so the simulator prices the
    // replay exactly like the interpreted schedule.
    let tree = machine();
    let sim = api::executor(&tree, Engine::Sim);
    let inputs = gen::coll_inputs(1, tree.num_procs(), SMALL);
    for kind in KINDS {
        let plan = api::tune(&tree, kind, api::size_hint(kind, SMALL)).expect("a plan");
        let replay = api::Replay::of(&plan.schedule, tree.num_procs());
        let (prog, _) = api::stage(&tree, plan, &inputs);
        let interpreted = api::execute(&sim, &prog).expect("runs").model_time;
        let (replayed, received) = api::run_states(&sim, &replay).expect("runs");
        assert_eq!(replayed, interpreted, "{}", api::kind_name(kind));
        assert_eq!(received.iter().sum::<u64>(), replay.wire_bytes);
    }
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let sizes = AppSizes {
        sort_n: 64,
        matvec_n: 8,
        stencil_cells: 32,
        stencil_iters: 1,
    };
    assert_eq!(gen::coll_inputs(7, 3, SMALL), gen::coll_inputs(7, 3, SMALL));
    assert_ne!(gen::coll_inputs(7, 3, SMALL), gen::coll_inputs(8, 3, SMALL));
    assert_eq!(gen::app_inputs(7, sizes), gen::app_inputs(7, sizes));
    assert_ne!(gen::app_inputs(7, sizes), gen::app_inputs(8, sizes));
    assert_eq!(gen::job_seed(7, 858, 0), gen::job_seed(7, 858, 0));
    assert_ne!(gen::job_seed(7, 858, 0), gen::job_seed(8, 858, 0));
    assert_ne!(gen::job_seed(7, 858, 0), gen::job_seed(7, 858, 1));
    let inputs = gen::coll_inputs(7, 3, SMALL);
    assert_eq!(inputs.items.len(), SMALL.n);
    assert!(inputs.vectors.iter().all(|v| v.len() == SMALL.veclen));
    assert!(inputs.blocks[1][1].is_empty() && inputs.blocks[1][2].len() == SMALL.block);
    let app = gen::app_inputs(7, sizes);
    assert!(app.matrix.iter().all(|x| (-1.0..1.0).contains(x)));
}

#[test]
fn the_references_compute_what_they_say() {
    assert_eq!(oracle::concat(&[&[1, 2], &[], &[3]]), vec![1, 2, 3]);
    assert_eq!(
        oracle::split(&[1, 2, 3, 4], &[0..1, 1..1, 1..4]),
        vec![vec![1], vec![], vec![2, 3, 4]]
    );
    assert_eq!(oracle::copies(&[9, 8], 2), vec![vec![9, 8], vec![9, 8]]);
    let vectors = vec![vec![1, u32::MAX], vec![2, 1], vec![3, 0]];
    assert_eq!(oracle::fold_sum(&vectors), vec![6, 0]);
    assert_eq!(
        oracle::prefix_sums(&vectors),
        vec![vec![1, u32::MAX], vec![3, 0], vec![6, 0]]
    );
    let blocks = vec![
        vec![vec![], vec![1], vec![2]],
        vec![vec![3], vec![], vec![4]],
        vec![vec![5], vec![6], vec![]],
    ];
    assert_eq!(
        oracle::transpose(&blocks),
        vec![vec![3, 5], vec![1, 6], vec![2, 4]]
    );
    assert_eq!(oracle::sorted(&[3, 1, 2]), vec![1, 2, 3]);
    assert_eq!(
        oracle::matvec(&[1.0, 2.0, 3.0, 4.0], &[1.0, -1.0], 2, 2),
        vec![-1.0, -1.0]
    );
    assert_eq!(oracle::max_rel_diff(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    assert!(oracle::max_rel_diff(&[1.0], &[1.0, 2.0]).is_infinite());
    assert!(oracle::max_rel_diff(&[100.0], &[101.0]) > 9e-3);
}
