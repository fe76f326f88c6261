//! Ordering-mutation tests: weaken one labeled `site_ord!` site at a
//! time and assert the checker detects a data race *and names the
//! weakened site*. This is the evidence that each ordering in
//! `docs/ordering_audit.md` is load-bearing — and that the checker
//! would catch a regression that weakened it.
//!
//! Sites whose orderings are *not* mutation-tested here are the ones
//! the audit documents as redundant edges (`hier.generation.pin`) or
//! double-covered by a mutex clock (the engine's `failed` / `finished`
//! flags); weakening those cannot produce an observable race.

use hbsp_race::scenarios::{self, Machine};
use hbsp_runtime::BarrierKind;
use std::sync::atomic::Ordering;

/// Exploration budget for finding a seeded race: exhaustive DFS first,
/// seeded random walks as a backstop for the deeper interleavings.
fn mutated(label: &str, ord: Ordering) -> weave::Config {
    weave::Config {
        overrides: vec![(label.to_string(), ord)],
        max_executions: 200_000,
        random_walks: 500,
        seed: 0x5EED_0001,
        ..weave::Config::default()
    }
}

/// The failure must be a data race, name the mutated site, and carry a
/// replayable trace + schedule.
fn assert_names_site(out: &weave::Outcome, label: &str) {
    let f = out.expect_failure(&format!("weakened `{label}` must be detected"));
    assert_eq!(
        f.kind,
        weave::FailureKind::DataRace,
        "failure: {}",
        f.message
    );
    assert!(
        f.message.contains(label),
        "race report must name the weakened site `{label}`; got: {}",
        f.message
    );
    assert!(
        f.message.contains("scenarios.rs") || f.trace.contains("scenarios.rs"),
        "race report must point at the racing accesses; got: {}\n{}",
        f.message,
        f.trace
    );
    assert!(
        !f.schedule.is_empty(),
        "failure must carry a replayable schedule"
    );
    assert!(!f.trace.is_empty(), "failure must carry an event trace");
    println!(
        "`{label}` -> {:?} detected on execution {} ({} schedule steps)",
        f.kind,
        f.execution,
        f.schedule.len()
    );
}

#[test]
fn weakened_arrive_combine_is_detected() {
    // `hier.arrive.combine` (AcqRel fetch_add) carries the owner-phase
    // slot writes up the combining tree to the leader. Relaxed severs
    // the release side: the leader's gather reads race the owners'
    // writes.
    let label = "hier.arrive.combine";
    let out = weave::explore(&mutated(label, Ordering::Relaxed), || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Flat2, 1)
    });
    assert_names_site(&out, label);
}

#[test]
fn acquire_only_arrive_combine_is_detected() {
    // Direction sensitivity: keeping only the acquire half still
    // loses the arrival's publication — the leader races the owners.
    let label = "hier.arrive.combine";
    let out = weave::explore(&mutated(label, Ordering::Acquire), || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Flat2, 1)
    });
    assert_names_site(&out, label);
}

#[test]
fn weakened_generation_flip_is_detected() {
    // `hier.generation.flip` (AcqRel fetch_add) publishes the leader
    // section to yielding waiters polling the generation. Relaxed
    // means a poll-released waiter reads `result` without ordering.
    // (Parked waiters are masked by the condvar's own clock — the
    // checker must find the poll-release interleaving.)
    let label = "hier.generation.flip";
    let out = weave::explore(&mutated(label, Ordering::Relaxed), || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Flat2, 1)
    });
    assert_names_site(&out, label);
}

#[test]
fn weakened_generation_poll_is_detected() {
    // The acquire side of the same edge: a Relaxed poll observes the
    // flipped generation without joining the leader's clock.
    let label = "hier.generation.poll";
    let out = weave::explore(&mutated(label, Ordering::Relaxed), || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Flat2, 1)
    });
    assert_names_site(&out, label);
}

#[test]
fn weakened_abort_publish_is_detected() {
    // `hier.abort.publish` (Release store of ABORT_DEAD) publishes the
    // abort claimant's error recording to late arrivers that observe
    // the dead barrier on entry. Relaxed clears the store's release
    // clock, so the late arriver's error read races the claimant's
    // write. Eager timeouts let the abort win while rank 0 straggles.
    let label = "hier.abort.publish";
    let cfg = weave::Config {
        eager_timeouts: true,
        ..mutated(label, Ordering::Relaxed)
    };
    let out = weave::explore(&cfg, || scenarios::watchdog_races_release(Machine::Flat2));
    assert_names_site(&out, label);
}

/// The outbox hand-off's cells are the scenario's only shared cells
/// (per rank: the outboxes and the pull list), so a data race reported
/// from `scenarios.rs` under `outbox_pull` is a race on one of them.
fn outbox_pull_flat2() {
    scenarios::outbox_pull(BarrierKind::Hierarchical, Machine::Flat2, 3, 2)
}

#[test]
fn weakened_generation_flip_races_a_pull() {
    // The release edge, publish side: a poll-released receiver reads
    // its pull list and its peer's outbox without the leader's
    // pull-list write and outbox edit ordered before it.
    let label = "hier.generation.flip";
    let out = weave::explore(&mutated(label, Ordering::Relaxed), outbox_pull_flat2);
    assert_names_site(&out, label);
}

#[test]
fn weakened_generation_poll_races_a_pull() {
    // The acquire side of the same edge.
    let label = "hier.generation.poll";
    let out = weave::explore(&mutated(label, Ordering::Relaxed), outbox_pull_flat2);
    assert_names_site(&out, label);
}

#[test]
fn weakened_arrive_combine_races_an_outbox_refill() {
    // The arrival chain carries a reader's last read of `out[i][π]`
    // (and an owner's post) to the leader, and through the release to
    // the owner's refill two bodies later. Relaxed severs it: the
    // refill, or the leader's edit before it, meets an unordered
    // access of a peer.
    let label = "hier.arrive.combine";
    let out = weave::explore(&mutated(label, Ordering::Relaxed), outbox_pull_flat2);
    assert_names_site(&out, label);
}

#[test]
fn a_single_outbox_per_rank_is_a_race_with_every_ordering_intact() {
    // Negative control: ignore the parity and the owner's refill in
    // body `s + 1` meets its peer's read of step `s` in the same body.
    // No ordering is weakened — the second buffer is what keeps them
    // apart. (On the hierarchical barrier, whose released waiters take
    // no lock. The central barrier's mutex orders the two accesses in
    // the first schedules explored, and the same mistake surfaces
    // there as the scenario's stale-value assertion instead.)
    let cfg = weave::Config {
        max_executions: 200_000,
        ..weave::Config::default()
    };
    let out = weave::explore(&cfg, || {
        scenarios::outbox_pull(BarrierKind::Hierarchical, Machine::Flat2, 3, 1)
    });
    let f = out.expect_failure("one outbox per rank must be reported");
    assert_eq!(f.kind, weave::FailureKind::DataRace, "{}", f.message);
    assert!(
        f.message.contains("scenarios.rs") && !f.message.contains("ordering mutations"),
        "the race is on the scenario's own cells, unmutated; got: {}",
        f.message
    );
    println!("single outbox -> race on execution {}", f.execution);
}

/// The pool's edges guard two things at once — the posted-job cell
/// inside the runtime and whatever the job borrows — so the first
/// report may be either a data race or the cell's `hb_assert!`; both
/// must name the weakened site.
fn assert_pool_names_site(label: &str, ord: Ordering) {
    let out = weave::explore(&mutated(label, ord), || scenarios::pool_dispatch(2));
    let f = out.expect_failure(&format!("weakened `{label}` must be detected"));
    assert!(
        matches!(
            f.kind,
            weave::FailureKind::DataRace | weave::FailureKind::HbViolation
        ),
        "failure: {}",
        f.message
    );
    assert!(
        f.message.contains(label),
        "report must name the weakened site `{label}`; got: {}",
        f.message
    );
    assert!(
        f.message.contains("pool.rs") || f.message.contains("scenarios.rs"),
        "report must point at the unordered accesses; got: {}",
        f.message
    );
    assert!(
        !f.schedule.is_empty(),
        "failure must carry a replayable schedule"
    );
    println!(
        "`{label}` -> {:?} detected on execution {} ({} schedule steps)",
        f.kind,
        f.execution,
        f.schedule.len()
    );
}

#[test]
fn weakened_pool_publish_is_detected() {
    // `pool.epoch.publish` (Release fetch_add) carries the caller's
    // write of the job cell — and of everything the job borrows — to a
    // worker that sees the new epoch without having parked (the unpark
    // edge covers the ones that did). Relaxed: that worker's read of
    // the cell races the caller's write.
    assert_pool_names_site("pool.epoch.publish", Ordering::Relaxed);
}

#[test]
fn weakened_pool_poll_is_detected() {
    // The acquire side of the same edge.
    assert_pool_names_site("pool.epoch.poll", Ordering::Relaxed);
}

#[test]
fn weakened_pool_acknowledgement_is_detected() {
    // `pool.remaining.ack` (Release fetch_sub) orders a worker's last
    // touch of the job before the caller's return. Relaxed: the caller
    // clears the cell, and reuses what the job borrowed, while a
    // worker's accesses are still unordered with it. The wait side
    // (`pool.remaining.wait`) is the same edge's other half.
    assert_pool_names_site("pool.remaining.ack", Ordering::Relaxed);
    assert_pool_names_site("pool.remaining.wait", Ordering::Relaxed);
}

#[test]
fn unmutated_control_is_clean() {
    // Sanity: the same scenarios under the same budgets, with no
    // override, are clean — the failures above come from the mutation,
    // not from the scenario or budget.
    let cfg = weave::Config {
        max_executions: 200_000,
        ..weave::Config::default()
    };
    weave::explore(&cfg, || {
        scenarios::barrier_publish(BarrierKind::Hierarchical, Machine::Flat2, 1)
    })
    .assert_clean("unmutated barrier publish");
    let cfg = weave::Config {
        eager_timeouts: true,
        max_executions: 200_000,
        ..weave::Config::default()
    };
    weave::explore(&cfg, || scenarios::watchdog_races_release(Machine::Flat2))
        .assert_clean("unmutated watchdog");
    let cfg = weave::Config {
        max_executions: 200_000,
        ..weave::Config::default()
    };
    weave::explore(&cfg, || scenarios::pool_dispatch(2)).assert_clean("unmutated pool dispatch");
    // (`outbox_pull` unmutated is explored exhaustively in
    // `exploration_suite.rs`.)
}
