//! The simulated UCF testbed.
//!
//! The paper's testbed is ten SUN/SGI workstations on 100 Mbit/s
//! Ethernet, ranked by BYTEmark. We recreate it as ten
//! [`MachineProfile`]s with calibrated compute and communication
//! slowdowns (spread ≈ 1–4×, typical of late-90s workstation pools).
//! Compute ranks come from actually running the `bytemark` suite on
//! each profile; communication slowness `r` is the profile's comm
//! slowdown, normalized so the fastest communicator is 1.
//!
//! One deliberate calibration detail, taken straight from the paper's
//! §5.2: the *second-fastest* machine ("ultra1") computes nearly as
//! fast as the reference but has a mediocre network path. BYTEmark
//! therefore assigns it a large `c_j` that its network cannot honor —
//! "the second fastest processor's workload does not match its
//! abilities" — which is what flattens Figure 3(b).

use bytemark::{rank, MachineProfile, Suite};
use hbsp_core::{topology, MachineTree, ModelError, TreeBuilder};

/// Processor counts evaluated in the paper's figures.
pub const TESTBED_PS: [usize; 5] = [2, 4, 6, 8, 10];

/// Input sizes (KB of 4-byte integers) on the figures' x-axis.
pub const PAPER_SIZES_KB: [usize; 10] = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];

/// Barrier cost used for the flat testbed cluster (model time units;
/// one unit = one word at fastest-machine speed).
pub const TESTBED_L: f64 = 2_000.0;

/// The ten simulated workstations: `(name, compute slowdown, comm
/// slowdown)` relative to the fastest machine.
pub fn ucf_profiles() -> Vec<MachineProfile> {
    vec![
        MachineProfile::new("ultra2", 1.0, 1.0),
        // Fast CPU, mediocre NIC: the §5.2 mis-estimated machine.
        MachineProfile::new("ultra1", 1.15, 2.4),
        MachineProfile::new("sgi-o2", 1.6, 1.6),
        MachineProfile::new("sparc20", 2.0, 2.0),
        MachineProfile::new("sgi-indy", 2.2, 2.5),
        MachineProfile::new("sparc10", 2.6, 2.4),
        MachineProfile::new("sparc5", 3.0, 3.2),
        MachineProfile::new("classic", 3.4, 3.0),
        MachineProfile::new("lx", 3.8, 3.6),
        MachineProfile::new("ipx", 4.2, 4.0),
    ]
}

/// Build the flat (HBSP^1) testbed from the first `p` profiles:
/// compute speeds from the `bytemark` indices, `r` from the comm
/// slowdowns (re-normalized so the subset's fastest communicator is 1,
/// as the model requires).
pub fn testbed(p: usize) -> Result<MachineTree, ModelError> {
    let profiles = ucf_profiles();
    assert!(
        (1..=profiles.len()).contains(&p),
        "testbed supports 1..=10 machines, asked for {p}"
    );
    let selected = &profiles[..p];
    let suite = Suite::quick();
    let speeds = rank(&suite.indices(selected));
    let min_comm = selected
        .iter()
        .map(|m| m.comm_slowdown)
        .fold(f64::INFINITY, f64::min);
    let mut b = TreeBuilder::new(1.0);
    let root = b.cluster("ucf-lan", hbsp_core::NodeParams::cluster(TESTBED_L));
    for (profile, &speed) in selected.iter().zip(&speeds) {
        b.child_proc(
            root,
            profile.name.clone(),
            hbsp_core::NodeParams::proc(profile.comm_slowdown / min_comm, speed),
        );
    }
    b.build()
}

/// An HBSP^2 view of the full testbed: the ten machines as two
/// department LANs joined by a campus backbone (used by the §4.3/§4.4
/// hierarchical analyses). `l2` is the campus barrier cost `L_{2,0}`.
pub fn hbsp2_testbed(l2: f64) -> Result<MachineTree, ModelError> {
    let profiles = ucf_profiles();
    let suite = Suite::quick();
    let speeds = rank(&suite.indices(&profiles));
    let min_comm = profiles
        .iter()
        .map(|m| m.comm_slowdown)
        .fold(f64::INFINITY, f64::min);
    let mut b = TreeBuilder::new(1.0);
    let root = b.cluster("campus", hbsp_core::NodeParams::cluster(l2));
    let lan_a = b.child_cluster(root, "lan-a", hbsp_core::NodeParams::cluster(TESTBED_L));
    let lan_b = b.child_cluster(root, "lan-b", hbsp_core::NodeParams::cluster(TESTBED_L));
    for (i, (profile, &speed)) in profiles.iter().zip(&speeds).enumerate() {
        let lan = if i % 2 == 0 { lan_a } else { lan_b };
        b.child_proc(
            lan,
            profile.name.clone(),
            hbsp_core::NodeParams::proc(profile.comm_slowdown / min_comm, speed),
        );
    }
    b.build()
}

/// The machine a command line names: `testbed:<p>` ([`testbed`]),
/// `testbed2` ([`hbsp2_testbed`] with a 60 000 campus barrier) or the
/// path of a topology file. `Ok(None)` when the count after `testbed:`
/// is not a number in 1..=10, a usage error; `Err` is the message to
/// print.
pub fn parse_machine(spec: &str) -> Result<Option<MachineTree>, String> {
    let built = match spec.strip_prefix("testbed:").map(str::parse::<usize>) {
        Some(Ok(p @ 1..=10)) => testbed(p),
        Some(_) => return Ok(None),
        None if spec == "testbed2" => hbsp2_testbed(60_000.0),
        None => {
            let text = std::fs::read_to_string(spec)
                .map_err(|e| format!("cannot read machine file `{spec}`: {e}"))?;
            return (topology::parse(&text).map(Some))
                .map_err(|e| format!("invalid machine description `{spec}`: {e}"));
        }
    };
    built
        .map(Some)
        .map_err(|e| format!("testbed `{spec}` does not build: {e}"))
}

/// Items (4-byte words) in a `kb`-kilobyte input, as in the paper's
/// "problem size" axis.
pub fn items_for_kb(kb: usize) -> usize {
    kb * 1024 / 4
}

/// Deterministic "uniformly distributed integers" input of `kb`
/// kilobytes (§5.1).
pub fn input_kb(kb: usize) -> Vec<u32> {
    let mut rng = bytemark::rng::SplitMix64::new(0x5EED_0000 + kb as u64);
    (0..items_for_kb(kb))
        .map(|_| rng.next_u64() as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_validates_at_every_p() {
        // Every count a command line may name, not only the figures'.
        for p in 1..=10 {
            let t = testbed(p).unwrap();
            assert_eq!(t.num_procs(), p);
            assert_eq!(t.height(), 1);
            t.validate().unwrap();
        }
    }

    #[test]
    fn fastest_is_ultra2_and_slowest_is_last() {
        let t = testbed(10).unwrap();
        assert_eq!(t.leaf(t.fastest_proc()).name(), "ultra2");
        assert_eq!(t.leaf(t.slowest_proc()).name(), "ipx");
    }

    #[test]
    fn second_fastest_has_mismatched_network() {
        // The §5.2 calibration: ultra1 ranks second on compute but its
        // r is worse than machines ranked below it.
        let t = testbed(4).unwrap();
        let ultra1 = t
            .leaves()
            .iter()
            .find(|&&l| t.node(l).name() == "ultra1")
            .copied()
            .unwrap();
        let sgi = t
            .leaves()
            .iter()
            .find(|&&l| t.node(l).name() == "sgi-o2")
            .copied()
            .unwrap();
        assert!(t.node(ultra1).params().speed > t.node(sgi).params().speed);
        assert!(t.node(ultra1).params().r > t.node(sgi).params().r);
    }

    #[test]
    fn speeds_equal_inverse_compute_slowdowns() {
        // OpCount timing makes the bytemark index exactly inverse to
        // the slowdown.
        let t = testbed(10).unwrap();
        for (leaf, profile) in t.leaves().iter().zip(ucf_profiles()) {
            let speed = t.node(*leaf).params().speed;
            assert!(
                (speed - 1.0 / profile.compute_slowdown).abs() < 1e-9,
                "{}: {speed} vs 1/{}",
                profile.name,
                profile.compute_slowdown
            );
        }
    }

    #[test]
    fn hbsp2_testbed_shape() {
        // At zero and every campus barrier cost the experiments use.
        for l2 in [0.0, 1e3, 1e4, 2e4, 4e4, 5e4, 6e4, 1e5, 2e5] {
            let t = hbsp2_testbed(l2).unwrap();
            assert_eq!(t.height(), 2);
            assert_eq!(t.num_procs(), 10);
            assert_eq!(t.machines_on_level(1).unwrap(), 2);
            t.validate().unwrap();
        }
    }

    #[test]
    fn input_sizes_match_paper_axis() {
        assert_eq!(items_for_kb(100), 25_600);
        assert_eq!(items_for_kb(1000), 256_000);
        assert_eq!(input_kb(100).len(), 25_600);
        // Deterministic.
        assert_eq!(input_kb(300)[..16], input_kb(300)[..16]);
    }
}
