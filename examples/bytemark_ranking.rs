//! Rank a pool of (simulated) machines with the `bytemark` suite and
//! derive the HBSP^k parameters from the scores — the paper's §5.1
//! workflow ("the ranking of processors is determined by the BYTEmark
//! benchmark").
//!
//! ```text
//! cargo run --example bytemark_ranking
//! ```

use hbsp::prelude::*;
use hbsp_bench::ucf_profiles;

fn main() {
    let profiles = ucf_profiles();
    let suite = Suite::quick();

    println!("BYTEmark-style ranking of the simulated testbed\n");
    println!(
        "{:>10} {:>10} {:>12} {:>8} {:>8}",
        "machine", "index", "speed(norm)", "r", "c_j"
    );

    let indices = suite.indices(&profiles);
    let speeds = bytemark::rank(&indices);
    let total_speed: f64 = speeds.iter().sum();
    let min_comm = profiles
        .iter()
        .map(|m| m.comm_slowdown)
        .fold(f64::INFINITY, f64::min);
    for ((profile, &index), &speed) in profiles.iter().zip(&indices).zip(&speeds) {
        println!(
            "{:>10} {:>10.1} {:>12.3} {:>8.2} {:>8.3}",
            profile.name,
            index,
            speed,
            profile.comm_slowdown / min_comm,
            speed / total_speed,
        );
    }

    // Per-kernel detail for the reference machine.
    println!("\nper-kernel scores on the reference machine:");
    for score in suite.run(&profiles[0]) {
        println!(
            "  {:<18} ops = {:>9}  index = {:>10.1}  checksum = {:#018x}",
            score.kernel, score.ops, score.index, score.checksum
        );
    }

    // Feed the ranking into a machine tree and derive hierarchical
    // fractions (every cluster's c is the sum of its children's): carving
    // the whole machine rebuilds it with them.
    let mut b = TreeBuilder::new(1.0);
    let root = b.cluster("ranked-lan", NodeParams::cluster(2_000.0));
    for (profile, &speed) in profiles.iter().zip(&speeds) {
        b.child_proc(
            root,
            profile.name.clone(),
            NodeParams::proc(profile.comm_slowdown / min_comm, speed),
        );
    }
    let built = b.build().expect("valid machine");
    let tree = built.carve(built.root()).tree;
    tree.validate().expect("fractions consistent");

    let n = 256_000u64;
    let partition = Partition::balanced_for(&tree, n).expect("partition");
    println!("\nbalanced shares of a {n}-word problem (c_j · n):");
    for (i, leaf) in tree.leaves().iter().enumerate() {
        println!(
            "  {:<10} {:>8} words",
            tree.node(*leaf).name(),
            partition.share(ProcId(i as u32))
        );
    }
    assert_eq!(partition.shares().iter().sum::<u64>(), n);
    println!("\nshares sum exactly to n — the apportionment never loses an item.");
}
