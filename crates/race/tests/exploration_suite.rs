//! The unmutated runtime under exhaustive exploration: every barrier,
//! watchdog, and mailbox protocol must be free of data races, lost
//! wakeups, deadlocks, and runaway spins across *all* interleavings
//! within the preemption bound (2–3 threads), and the whole engine
//! must stay clean under seeded random walks.
//!
//! Each test prints the explored interleaving count and seed so CI
//! logs show the actual coverage.

use hbsp_race::scenarios::{self, Machine};
use hbsp_runtime::BarrierKind;

fn exhaustive() -> weave::Config {
    weave::Config {
        max_executions: 400_000,
        ..weave::Config::default()
    }
}

fn report(what: &str, out: &weave::Outcome) {
    println!(
        "{what}: {} interleavings (exhausted: {}, max depth {}, seed {:#x})",
        out.stats.executions, out.stats.exhausted, out.stats.max_depth, out.stats.seed
    );
}

#[test]
fn hier_barrier_flat2_is_clean_exhaustively() {
    let out = weave::explore(&exhaustive(), || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Flat2, 1)
    });
    report("hier flat2 x1", &out);
    out.assert_clean("hier barrier, 2 threads, 1 generation");
    assert!(out.stats.exhausted, "2-thread barrier must be exhaustible");
}

#[test]
fn hier_barrier_sense_reversal_is_clean_exhaustively() {
    // Two generations: a waiter of generation 1 must never be
    // released by a stale generation-0 flip (sense reversal).
    let out = weave::explore(&exhaustive(), || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Flat2, 2)
    });
    report("hier flat2 x2", &out);
    out.assert_clean("hier barrier, 2 threads, 2 generations");
    assert!(
        out.stats.exhausted,
        "2-generation barrier must be exhaustible"
    );
}

#[test]
#[ignore = "~50k interleavings; run via the CI race job (--include-ignored)"]
fn hier_barrier_clustered3_is_clean_exhaustively() {
    // Three threads across two combining levels: the last arriver of
    // the pair cluster re-arrives at the root.
    let out = weave::explore(&exhaustive(), || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Clustered3, 1)
    });
    report("hier clustered3 x1", &out);
    out.assert_clean("hier barrier, 3 threads, 2 levels");
}

#[test]
fn central_barrier_is_clean_exhaustively() {
    let out = weave::explore(&exhaustive(), || {
        scenarios::barrier_publish(BarrierKind::Central, Machine::Flat2, 2)
    });
    report("central flat2 x2", &out);
    out.assert_clean("central barrier, 2 threads, 2 generations");
    assert!(out.stats.exhausted, "central barrier must be exhaustible");
}

#[test]
fn central_barrier_three_parties_is_clean() {
    let out = weave::explore(&exhaustive(), || {
        scenarios::barrier_publish(BarrierKind::Central, Machine::Clustered3, 1)
    });
    report("central clustered3 x1", &out);
    out.assert_clean("central barrier, 3 threads");
}

#[test]
fn watchdog_abort_racing_release_is_clean() {
    // Eager timeouts: the watchdog deadline genuinely races healthy
    // arrival, so both the normal-release and the claimed-abort
    // branches (and their interleavings) are explored.
    let cfg = weave::Config {
        eager_timeouts: true,
        ..exhaustive()
    };
    let out = weave::explore(&cfg, || scenarios::watchdog_races_release(Machine::Flat2));
    report("watchdog flat2", &out);
    out.assert_clean("watchdog abort vs normal release, 2 threads");
    assert!(out.stats.exhausted, "watchdog race must be exhaustible");
}

#[test]
#[ignore = "~280k interleavings; run via the CI race job (--include-ignored)"]
fn watchdog_abort_three_parties_is_clean() {
    let cfg = weave::Config {
        eager_timeouts: true,
        ..exhaustive()
    };
    let out = weave::explore(&cfg, || {
        scenarios::watchdog_races_release(Machine::Clustered3)
    });
    report("watchdog clustered3", &out);
    out.assert_clean("watchdog abort vs normal release, 3 threads");
}

/// The outbox hand-off on one machine and barrier: four supersteps, so
/// each parity is written, pulled from, and written again.
fn outbox_pull_is_clean(kind: BarrierKind, m: Machine, cfg: &weave::Config) {
    let out = weave::explore(cfg, || scenarios::outbox_pull(kind, m, 3, 2));
    report(&format!("outbox pull {kind:?} {m:?} x3"), &out);
    out.assert_clean("outbox hand-off, two outboxes per rank");
    assert!(out.stats.exhausted, "outbox hand-off must be exhaustible");
}

#[test]
fn outbox_pull_flat2_is_clean_exhaustively() {
    outbox_pull_is_clean(BarrierKind::Hierarchical, Machine::Flat2, &exhaustive());
    outbox_pull_is_clean(BarrierKind::Central, Machine::Flat2, &exhaustive());
}

#[test]
fn outbox_pull_clustered3_is_clean_exhaustively() {
    // Three threads, four generations: exhaustive at one preemption
    // (the 2-thread test covers two).
    let cfg = weave::Config {
        preemption_bound: Some(1),
        ..exhaustive()
    };
    outbox_pull_is_clean(BarrierKind::Hierarchical, Machine::Clustered3, &cfg);
    outbox_pull_is_clean(BarrierKind::Central, Machine::Clustered3, &cfg);
}

#[test]
fn mailbox_circulation_is_clean_exhaustively() {
    let out = weave::explore(&exhaustive(), || scenarios::mailbox_circulation(2, 2));
    report("mailbox 2x2", &out);
    out.assert_clean("mailbox deposit_batch vs drain");
    assert!(out.stats.exhausted, "2-thread mailbox must be exhaustible");
}

#[test]
fn worker_pool_dispatch_is_clean_exhaustively() {
    // Two dispatches of different borrowed jobs, then drop: no worker
    // touches job 1 after dispatch 1 returned, none misses job 2, and
    // the drop strands nobody in `park`.
    let out = weave::explore(&exhaustive(), || scenarios::pool_dispatch(2));
    report("pool 2 workers x2 + drop", &out);
    out.assert_clean("worker pool, 2 workers, 2 dispatches, drop");
    assert!(out.stats.exhausted, "2-worker pool must be exhaustible");
}

#[test]
#[ignore = "~98k interleavings; run via the CI race job (--include-ignored)"]
fn worker_pool_three_workers_is_clean_exhaustively() {
    // Four threads: exhaustive at one preemption (the 2-worker test
    // covers two).
    let cfg = weave::Config {
        preemption_bound: Some(1),
        ..exhaustive()
    };
    let out = weave::explore(&cfg, || scenarios::pool_dispatch(3));
    report("pool 3 workers x2 + drop (1 preemption)", &out);
    out.assert_clean("worker pool, 3 workers, 2 dispatches, drop");
    assert!(out.stats.exhausted, "3-worker pool must be exhaustible");
}

#[test]
fn engine_smoke_is_clean_under_random_walks() {
    // The full engine has far too many decision points for exhaustive
    // DFS; seeded random walks still drive slot writes, leader
    // gather, delivery, teardown, and the caller's reset of the kept
    // frame between runs (and its rebuild after a failed one) through
    // hundreds of distinct interleavings.
    let cfg = weave::Config {
        max_executions: 1,
        random_walks: 150,
        seed: 0xB5B5_0001,
        max_steps: 200_000,
        ..weave::Config::default()
    };
    let out = weave::explore(&cfg, || scenarios::engine_smoke(2));
    report("engine smoke p=2 x2, four runs on one runtime", &out);
    out.assert_clean("threaded engine, 2 processors, 2 supersteps, four runs");
}
