//! Frozen outputs of the structure-preserving rebuild.
//!
//! `carve`, `degrade` and `reparameterize` derive one machine from
//! another. For the two shipped machine files, what they derive is pinned
//! byte for byte in `golden/rebuild_*.txt`: `carve` of every node,
//! `degrade` of every single pid and every pair of pids (or the typed
//! error), and `reparameterize` under four fixed observations. Each
//! derived tree prints `g` and every node's `r`, speed, `c`, `L` and
//! coordinator, with the rank maps beside it.
//!
//! `f64`s print as `Debug`, which is shortest-roundtrip: equal text is
//! equal bits.

use hbsp::core::{topology, MachineTree, ObservedParams, ProcId};
use std::fmt::Write;

fn tree_text(t: &MachineTree) -> String {
    let mut s = format!("  g={:?}\n", t.g());
    for n in t.nodes() {
        let p = n.params();
        let coordinator = t.node(n.representative()).proc_id();
        writeln!(
            s,
            "  {} {} {:?} r={:?} speed={:?} c={:?} L={:?} coordinator={coordinator:?}",
            n.machine_id(),
            n.name(),
            n.kind(),
            p.r,
            p.speed,
            p.c,
            p.l_sync,
        )
        .unwrap();
    }
    s
}

/// Four observations that reach every branch of the merge: none, a
/// straggling wire with a new `g`, observed speeds with a new `L`, and
/// all of it with gaps left unobserved.
fn observations(p: usize) -> [ObservedParams; 4] {
    [
        ObservedParams::default(),
        ObservedParams {
            g: Some(1.5),
            r_by_proc: (0..p).map(|i| if i == 0 { 5.0 } else { 0.0 }).collect(),
            ..Default::default()
        },
        ObservedParams {
            speed_by_proc: (0..p).map(|i| 0.2 + 0.1 * (i % 4) as f64).collect(),
            l_by_level: vec![(1, 2500.0)],
            ..Default::default()
        },
        ObservedParams {
            g: Some(2.0),
            r_by_proc: (0..p).map(|i| 1.25 + 0.25 * i as f64).collect(),
            speed_by_proc: (0..p).map(|i| if i % 2 == 0 { 0.0 } else { 0.5 }).collect(),
            l_by_level: vec![(0, 3.0), (2, 70000.0)],
        },
    ]
}

fn rebuilds(file: &str) -> String {
    let text = std::fs::read_to_string(file).expect("machine file");
    let t = topology::parse(&text).expect("machine parses");
    let p = t.num_procs();
    let mut s = format!("machine {file}\n{}", tree_text(&t));
    for n in t.nodes() {
        let c = t.carve(n.idx());
        writeln!(s, "carve {} leaves={:?}", n.machine_id(), c.leaves).unwrap();
        s += &tree_text(&c.tree);
    }
    let singles = (0..p).map(|a| vec![ProcId(a as u32)]);
    let pairs =
        (0..p).flat_map(|a| (a + 1..p).map(move |b| vec![ProcId(a as u32), ProcId(b as u32)]));
    for dead in singles.chain(pairs) {
        match t.degrade(&dead) {
            Ok(d) => {
                writeln!(s, "degrade {dead:?} rank_map={:?}", d.rank_map).unwrap();
                s += &tree_text(&d.tree);
            }
            Err(e) => writeln!(s, "degrade {dead:?} error={e:?}").unwrap(),
        }
    }
    for (i, obs) in observations(p).iter().enumerate() {
        match t.reparameterize(obs) {
            Ok(u) => {
                writeln!(s, "reparameterize {i}").unwrap();
                s += &tree_text(&u);
            }
            Err(e) => writeln!(s, "reparameterize {i} error={e:?}").unwrap(),
        }
    }
    s
}

#[test]
fn campus_rebuilds_print_the_frozen_trees() {
    assert_eq!(
        rebuilds("machines/campus.hbsp"),
        include_str!("golden/rebuild_campus.txt")
    );
}

#[test]
fn grid3_rebuilds_print_the_frozen_trees() {
    assert_eq!(
        rebuilds("machines/grid3.hbsp"),
        include_str!("golden/rebuild_grid3.txt")
    );
}
