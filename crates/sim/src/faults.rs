//! Deterministic fault injection: seeded scripts of crashes,
//! stragglers, message corruption, and barrier stalls.
//!
//! A [`FaultPlan`] is a *script*, not a random process: every fault
//! names the processor it hits and the superstep at which it fires.
//! Both engines consult the same plan at the same points of the
//! superstep protocol, in the same fixed order (stall → crash → run
//! bodies → drop/truncate sends → straggle timing → deadline), so a
//! fault run produces bit-identical outcomes on the virtual-time
//! [`crate::Simulator`] and the threaded runtime.
//!
//! Randomized plans ([`FaultPlan::random`]) derive everything from a
//! `u64` seed through an in-crate SplitMix64 generator — no external
//! RNG dependency, and the same seed always yields the same plan.

use crate::error::SimError;
use hbsp_core::{MachineTree, MsgBatch, ProcId};

/// One scripted fault event.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// `pid` dies at the start of superstep `step`: its body never
    /// runs and it never arrives at the closing barrier. Detected as
    /// [`crate::SimError::ProcCrashed`].
    Crash { pid: ProcId, step: usize },
    /// `pid` stalls indefinitely at superstep `step`'s barrier without
    /// dying. Detected by the watchdog as
    /// [`crate::SimError::BarrierTimeout`].
    Stall { pid: ProcId, step: usize },
    /// `pid`'s communication slows down transiently: its `r` is
    /// multiplied by `factor` (≥ 1) for superstep `step` only.
    Straggle {
        pid: ProcId,
        step: usize,
        factor: f64,
    },
    /// Every message `pid` posts during superstep `step` is silently
    /// dropped by the network.
    DropMsgs { pid: ProcId, step: usize },
    /// Every message `pid` posts during superstep `step` is truncated
    /// to at most `max_words` words (4 bytes each).
    Truncate {
        pid: ProcId,
        step: usize,
        max_words: usize,
    },
}

impl Fault {
    /// The processor this fault targets.
    pub fn pid(&self) -> ProcId {
        match *self {
            Fault::Crash { pid, .. }
            | Fault::Stall { pid, .. }
            | Fault::Straggle { pid, .. }
            | Fault::DropMsgs { pid, .. }
            | Fault::Truncate { pid, .. } => pid,
        }
    }

    /// The superstep at which this fault fires.
    pub fn step(&self) -> usize {
        match *self {
            Fault::Crash { step, .. }
            | Fault::Stall { step, .. }
            | Fault::Straggle { step, .. }
            | Fault::DropMsgs { step, .. }
            | Fault::Truncate { step, .. } => step,
        }
    }
}

/// A deterministic script of faults, consulted by both engines.
///
/// ```
/// use hbsp_sim::{Fault, FaultPlan};
/// use hbsp_core::ProcId;
///
/// let plan = FaultPlan::new()
///     .crash(ProcId(2), 3)
///     .straggle(ProcId(1), 0, 4.0);
/// assert_eq!(plan.crashed_at(3), vec![ProcId(2)]);
/// assert_eq!(plan.r_multipliers(0, 4), vec![1.0, 4.0, 1.0, 1.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan scripts no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Add an arbitrary fault event.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Script a crash: `pid` dies at the start of superstep `step`.
    pub fn crash(self, pid: ProcId, step: usize) -> Self {
        self.with(Fault::Crash { pid, step })
    }

    /// Script a barrier stall: `pid` never arrives at superstep
    /// `step`'s barrier (until the watchdog aborts the run).
    pub fn stall(self, pid: ProcId, step: usize) -> Self {
        self.with(Fault::Stall { pid, step })
    }

    /// Script a transient slowdown: `pid`'s `r` is scaled by `factor`
    /// (clamped to ≥ 1) during superstep `step`.
    pub fn straggle(self, pid: ProcId, step: usize, factor: f64) -> Self {
        let factor = if factor.is_finite() {
            factor.max(1.0)
        } else {
            1.0
        };
        self.with(Fault::Straggle { pid, step, factor })
    }

    /// Script message loss: everything `pid` sends at `step` vanishes.
    pub fn drop_msgs(self, pid: ProcId, step: usize) -> Self {
        self.with(Fault::DropMsgs { pid, step })
    }

    /// Script message truncation: everything `pid` sends at `step` is
    /// cut to `max_words` words.
    pub fn truncate(self, pid: ProcId, step: usize, max_words: usize) -> Self {
        self.with(Fault::Truncate {
            pid,
            step,
            max_words,
        })
    }

    /// Script a straggler whose slowdown *ramps*: starting at
    /// `start_step`, `pid`'s `r` is scaled by `factor` for `steps`
    /// consecutive supersteps, with the factor growing by `factor_step`
    /// each superstep. This is the canonical drift workload for the
    /// adaptive executor: a machine that keeps getting slower until a
    /// re-plan routes traffic around it.
    pub fn straggle_ramp(
        mut self,
        pid: ProcId,
        start_step: usize,
        steps: usize,
        factor: f64,
        factor_step: f64,
    ) -> Self {
        let mut f = factor;
        for i in 0..steps {
            self = self.straggle(pid, start_step + i, f);
            f += factor_step;
        }
        self
    }

    /// The plan re-based onto a later window: faults scheduled before
    /// superstep `offset` are dropped (they already fired — or never
    /// will), the rest have `offset` subtracted from their step. Used
    /// by segmented execution, where each segment restarts the engine's
    /// step counter at zero.
    pub fn shifted(&self, offset: usize) -> FaultPlan {
        let faults = self
            .faults
            .iter()
            .filter(|f| f.step() >= offset)
            .map(|f| {
                let mut f = f.clone();
                match &mut f {
                    Fault::Crash { step, .. }
                    | Fault::Stall { step, .. }
                    | Fault::Straggle { step, .. }
                    | Fault::DropMsgs { step, .. }
                    | Fault::Truncate { step, .. } => *step -= offset,
                }
                f
            })
            .collect();
        FaultPlan { faults }
    }

    /// The plan minus the stall faults that target one of `missing` at
    /// `step` — the faults a retrying executor treats as *transient*:
    /// having just watched them fire as a `BarrierTimeout`, it clears
    /// them from the script before replaying.
    pub fn without_stalls_at(&self, missing: &[ProcId], step: usize) -> FaultPlan {
        let faults = self
            .faults
            .iter()
            .filter(|f| {
                !(matches!(f, Fault::Stall { .. })
                    && f.step() == step
                    && missing.contains(&f.pid()))
            })
            .cloned()
            .collect();
        FaultPlan { faults }
    }

    /// Render the plan in the committed-fixture text format: one fault
    /// per line, `kind P<pid> @<step> [arg]`. [`FaultPlan::parse`]
    /// round-trips this exactly.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for f in &self.faults {
            match *f {
                Fault::Crash { pid, step } => writeln!(out, "crash P{} @{step}", pid.0),
                Fault::Stall { pid, step } => writeln!(out, "stall P{} @{step}", pid.0),
                Fault::Straggle { pid, step, factor } => {
                    writeln!(out, "straggle P{} @{step} x{factor}", pid.0)
                }
                Fault::DropMsgs { pid, step } => writeln!(out, "drop P{} @{step}", pid.0),
                Fault::Truncate {
                    pid,
                    step,
                    max_words,
                } => writeln!(out, "truncate P{} @{step} w{max_words}", pid.0),
            }
            .expect("write to String cannot fail");
        }
        out
    }

    /// Parse the text format produced by [`FaultPlan::render`]. Blank
    /// lines and `#` comments are ignored. Factors print with Rust's
    /// shortest-roundtrip `f64` formatting, so parse∘render is the
    /// identity on any plan.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}: {raw:?}", lineno + 1);
            let mut tok = line.split_whitespace();
            let kind = tok.next().unwrap_or("");
            let pid = tok
                .next()
                .and_then(|t| t.strip_prefix('P'))
                .and_then(|t| t.parse::<u32>().ok())
                .map(ProcId)
                .ok_or_else(|| err("expected P<pid>"))?;
            let step = tok
                .next()
                .and_then(|t| t.strip_prefix('@'))
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| err("expected @<step>"))?;
            let arg = tok.next();
            if tok.next().is_some() {
                return Err(err("trailing tokens"));
            }
            plan = match (kind, arg) {
                ("crash", None) => plan.crash(pid, step),
                ("stall", None) => plan.stall(pid, step),
                ("drop", None) => plan.drop_msgs(pid, step),
                ("straggle", Some(a)) => {
                    let factor = a
                        .strip_prefix('x')
                        .and_then(|t| t.parse::<f64>().ok())
                        .ok_or_else(|| err("expected x<factor>"))?;
                    plan.straggle(pid, step, factor)
                }
                ("truncate", Some(a)) => {
                    let words = a
                        .strip_prefix('w')
                        .and_then(|t| t.parse::<usize>().ok())
                        .ok_or_else(|| err("expected w<max_words>"))?;
                    plan.truncate(pid, step, words)
                }
                _ => return Err(err("unknown fault line")),
            };
        }
        Ok(plan)
    }

    /// A randomized plan derived deterministically from `seed` for the
    /// given machine: 1–3 faults over the first few supersteps, with
    /// every fault kind reachable. The same `(seed, machine shape)`
    /// always produces the same plan.
    pub fn random(seed: u64, tree: &MachineTree) -> Self {
        let mut rng = SplitMix64::new(seed);
        let p = tree.num_procs() as u64;
        let n_faults = 1 + rng.below(3); // 1..=3
        let mut plan = FaultPlan::new();
        for _ in 0..n_faults {
            let pid = ProcId(rng.below(p) as u32);
            let step = rng.below(4) as usize;
            plan = match rng.below(5) {
                0 => plan.crash(pid, step),
                1 => plan.stall(pid, step),
                2 => {
                    // factor in [1.5, 9.5), quantized to halves so the
                    // plan prints cleanly.
                    let factor = 1.5 + 0.5 * rng.below(16) as f64;
                    plan.straggle(pid, step, factor)
                }
                3 => plan.drop_msgs(pid, step),
                _ => plan.truncate(pid, step, rng.below(3) as usize),
            };
        }
        plan
    }

    /// Check the plan against a machine of `nprocs` processors: every
    /// fault must name one of them. Both engines call this before the
    /// first superstep, so a plan naming a processor the machine lacks
    /// fails the same way on each instead of firing on one only.
    pub fn validate(&self, nprocs: usize) -> Result<(), SimError> {
        match self.faults.iter().find(|f| f.pid().rank() >= nprocs) {
            Some(f) => Err(SimError::NoSuchFaultTarget {
                pid: f.pid(),
                nprocs,
            }),
            None => Ok(()),
        }
    }

    /// Pids scripted to crash at `step` (sorted, deduplicated).
    pub fn crashed_at(&self, step: usize) -> Vec<ProcId> {
        self.pids_matching(step, |f| matches!(f, Fault::Crash { .. }))
    }

    /// Pids scripted to stall at `step`'s barrier (sorted, dedup'd).
    pub fn stalled_at(&self, step: usize) -> Vec<ProcId> {
        self.pids_matching(step, |f| matches!(f, Fault::Stall { .. }))
    }

    /// True when `pid` is scripted to crash at `step`.
    pub fn crashes(&self, pid: ProcId, step: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Crash { pid: p, step: s } if *p == pid && *s == step))
    }

    /// True when `pid` is scripted to stall at `step`'s barrier.
    pub fn stalls(&self, pid: ProcId, step: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Stall { pid: p, step: s } if *p == pid && *s == step))
    }

    /// Per-processor `r` multipliers in effect during `step` (1.0 =
    /// unaffected). Multiple straggles on one pid compound.
    pub fn r_multipliers(&self, step: usize, nprocs: usize) -> Vec<f64> {
        let mut scale = vec![1.0f64; nprocs];
        for f in &self.faults {
            if let Fault::Straggle {
                pid,
                step: s,
                factor,
            } = *f
            {
                if s == step && pid.rank() < nprocs {
                    scale[pid.rank()] *= factor;
                }
            }
        }
        scale
    }

    /// True when `step` scripts any straggler.
    pub fn straggles_at(&self, step: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Straggle { step: s, .. } if *s == step))
    }

    /// Apply this step's drop/truncate faults, in place, to a batch of
    /// posted messages (keyed by each message's `src`). Survivors keep
    /// their original relative order; on the fault-free hot path (no
    /// drop/truncate scripted at `step`) this touches nothing and
    /// allocates nothing.
    pub fn corrupt_batch(&self, step: usize, sends: &mut MsgBatch) {
        if !self.faults.iter().any(|f| {
            f.step() == step && matches!(f, Fault::DropMsgs { .. } | Fault::Truncate { .. })
        }) {
            return;
        }
        sends.retain(|m| {
            !self.faults.iter().any(|f| {
                f.step() == step && f.pid() == m.src && matches!(f, Fault::DropMsgs { .. })
            })
        });
        for i in 0..sends.len() {
            let src = sends.get(i).src;
            for f in &self.faults {
                if f.step() != step || f.pid() != src {
                    continue;
                }
                if let Fault::Truncate { max_words, .. } = *f {
                    sends.truncate_payload(i, max_words.saturating_mul(4));
                }
            }
        }
    }

    /// Rewrite the plan for a degraded machine: `rank_map[old]` gives
    /// each old rank's new [`ProcId`] (or `None` when that leaf was
    /// dropped). Faults aimed at dead processors are discarded —
    /// they already fired.
    pub fn remap(&self, rank_map: &[Option<ProcId>]) -> FaultPlan {
        let faults = self
            .faults
            .iter()
            .filter_map(|f| {
                let new_pid = *rank_map.get(f.pid().rank())?;
                new_pid.map(|pid| {
                    let mut f = f.clone();
                    match &mut f {
                        Fault::Crash { pid: p, .. }
                        | Fault::Stall { pid: p, .. }
                        | Fault::Straggle { pid: p, .. }
                        | Fault::DropMsgs { pid: p, .. }
                        | Fault::Truncate { pid: p, .. } => *p = pid,
                    }
                    f
                })
            })
            .collect();
        FaultPlan { faults }
    }

    fn pids_matching(&self, step: usize, kind: impl Fn(&Fault) -> bool) -> Vec<ProcId> {
        let mut pids: Vec<ProcId> = self
            .faults
            .iter()
            .filter(|f| f.step() == step && kind(f))
            .map(Fault::pid)
            .collect();
        pids.sort_unstable_by_key(|p| p.0);
        pids.dedup();
        pids
    }
}

/// SplitMix64: tiny, high-quality, dependency-free PRNG. Used to
/// expand chaos seeds into fault plans and to derive deterministic
/// retry-backoff jitter — never for anything cryptographic.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output. Not an `Iterator`: the stream is
    /// infinite and `below` is the intended surface.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    #[test]
    fn queries_filter_by_step_and_kind() {
        let plan = FaultPlan::new()
            .crash(ProcId(3), 1)
            .crash(ProcId(1), 1)
            .crash(ProcId(1), 1) // duplicate
            .stall(ProcId(2), 1)
            .crash(ProcId(0), 2);
        assert_eq!(plan.crashed_at(1), vec![ProcId(1), ProcId(3)]);
        assert_eq!(plan.crashed_at(2), vec![ProcId(0)]);
        assert_eq!(plan.stalled_at(1), vec![ProcId(2)]);
        assert!(plan.crashed_at(0).is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn straggle_multipliers_compound_and_clamp() {
        let plan = FaultPlan::new()
            .straggle(ProcId(1), 0, 2.0)
            .straggle(ProcId(1), 0, 3.0)
            .straggle(ProcId(2), 1, 0.1); // clamped up to 1.0
        assert_eq!(plan.r_multipliers(0, 3), vec![1.0, 6.0, 1.0]);
        assert_eq!(plan.r_multipliers(1, 3), vec![1.0, 1.0, 1.0]);
        assert!(plan.straggles_at(0));
        assert!(!plan.straggles_at(2));
    }

    #[test]
    fn corrupt_batch_drops_and_truncates_by_source() {
        let plan = FaultPlan::new()
            .drop_msgs(ProcId(0), 2)
            .truncate(ProcId(1), 2, 1);
        let mut sends = MsgBatch::new();
        sends.push(ProcId(0), ProcId(2), 0, &[9; 8]);
        sends.push(ProcId(1), ProcId(2), 0, &[7; 12]);
        sends.push(ProcId(2), ProcId(0), 0, &[5; 8]);
        let pristine = sends.clone();
        let mut out = sends.clone();
        plan.corrupt_batch(2, &mut out);
        assert_eq!(out.len(), 2, "P0's message dropped");
        assert_eq!(out.get(0).src, ProcId(1));
        assert_eq!(out.get(0).payload.len(), 4, "truncated to one word");
        assert_eq!(out.get(1).payload.len(), 8, "P2 untouched");
        // Wrong step: everything passes through unchanged.
        plan.corrupt_batch(0, &mut sends);
        assert_eq!(sends, pristine);
    }

    /// Both corruption rules key on `m.src`, so applying the plan to
    /// each source's own outbox (the threaded runtime) is applying it
    /// to the pid-ordered gather of them (the simulator).
    #[test]
    fn corrupting_each_sources_batch_is_corrupting_the_gathered_batch() {
        let plan = FaultPlan::new()
            .drop_msgs(ProcId(0), 2)
            .truncate(ProcId(1), 2, 1)
            .truncate(ProcId(2), 2, 0)
            .drop_msgs(ProcId(3), 1);
        let per_source: Vec<MsgBatch> = (0..4u32)
            .map(|src| {
                let mut b = MsgBatch::new();
                for k in 0..3u32 {
                    let len = 4 * (src + k) as usize;
                    b.push(ProcId(src), ProcId((src + k) % 4), k, &vec![src as u8; len]);
                }
                b
            })
            .collect();
        for step in [1, 2, 3] {
            let mut gathered = MsgBatch::new();
            for b in &per_source {
                gathered.append(&mut b.clone());
            }
            plan.corrupt_batch(step, &mut gathered);
            let mut chained = MsgBatch::new();
            for b in &per_source {
                let mut b = b.clone();
                plan.corrupt_batch(step, &mut b);
                chained.append(&mut b);
            }
            assert_eq!(chained, gathered, "step {step}");
        }
    }

    /// Regression: `max_words * 4` overflowed (a debug-build panic) for
    /// a large bound, and 2^30 words became 2^32 bytes, which
    /// `truncate_payload` then narrowed to 0.
    #[test]
    fn truncating_to_more_than_a_payload_can_hold_is_a_no_op() {
        for text in [
            "truncate P0 @0 w1073741824\n",
            "truncate P0 @0 w18446744073709551615\n",
        ] {
            let plan = FaultPlan::parse(text).unwrap();
            assert_eq!(plan.render(), text, "render ∘ parse");
            let mut sends = MsgBatch::new();
            sends.push(ProcId(0), ProcId(1), 0, &[9; 16]);
            let pristine = sends.clone();
            plan.corrupt_batch(0, &mut sends);
            assert_eq!(sends, pristine, "{text}");
        }
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let tree = TreeBuilder::homogeneous(1.0, 100.0, 6).unwrap();
        for seed in 0..64 {
            let a = FaultPlan::random(seed, &tree);
            let b = FaultPlan::random(seed, &tree);
            assert_eq!(a, b, "seed {seed}");
            assert!(!a.is_empty());
            assert!(a.faults().len() <= 3);
            for f in a.faults() {
                assert!(f.pid().rank() < 6);
                assert!(f.step() < 4);
            }
        }
        assert_ne!(
            FaultPlan::random(0, &tree),
            FaultPlan::random(1, &tree),
            "different seeds diverge"
        );
    }

    #[test]
    fn shifted_drops_fired_faults_and_rebases_the_rest() {
        let plan = FaultPlan::new()
            .crash(ProcId(0), 1)
            .straggle(ProcId(1), 4, 2.0)
            .stall(ProcId(2), 6);
        let shifted = plan.shifted(4);
        assert_eq!(
            shifted.faults(),
            &[
                Fault::Straggle {
                    pid: ProcId(1),
                    step: 0,
                    factor: 2.0
                },
                Fault::Stall {
                    pid: ProcId(2),
                    step: 2
                },
            ]
        );
        assert_eq!(plan.shifted(0), plan, "zero offset is the identity");
        assert!(plan.shifted(100).is_empty());
    }

    #[test]
    fn straggle_ramp_expands_to_per_step_straggles() {
        let plan = FaultPlan::new().straggle_ramp(ProcId(1), 2, 3, 2.0, 0.5);
        assert_eq!(plan.r_multipliers(2, 2), vec![1.0, 2.0]);
        assert_eq!(plan.r_multipliers(3, 2), vec![1.0, 2.5]);
        assert_eq!(plan.r_multipliers(4, 2), vec![1.0, 3.0]);
        assert_eq!(plan.r_multipliers(5, 2), vec![1.0, 1.0]);
    }

    #[test]
    fn text_format_round_trips() {
        let plan = FaultPlan::new()
            .crash(ProcId(2), 3)
            .stall(ProcId(1), 0)
            .straggle(ProcId(0), 6, 4.25)
            .drop_msgs(ProcId(3), 2)
            .truncate(ProcId(1), 2, 1)
            .straggle_ramp(ProcId(0), 4, 2, 2.0, 1.0);
        let text = plan.render();
        let parsed = FaultPlan::parse(&text).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parse_accepts_comments_and_rejects_junk() {
        let plan = FaultPlan::parse(
            "# a drifting straggler\n\nstraggle P0 @6 x4 # ramps up\ncrash P2 @3\n",
        )
        .unwrap();
        assert_eq!(plan.faults().len(), 2);
        assert!(
            FaultPlan::parse("straggle P0 @6").is_err(),
            "missing factor"
        );
        assert!(
            FaultPlan::parse("crash P2 @3 x9").is_err(),
            "trailing token"
        );
        assert!(FaultPlan::parse("melt P0 @1").is_err(), "unknown kind");
        assert!(FaultPlan::parse("crash 2 @3").is_err(), "missing P prefix");
    }

    #[test]
    fn without_stalls_at_strips_only_the_named_transients() {
        let plan = FaultPlan::new()
            .stall(ProcId(1), 2)
            .stall(ProcId(2), 2)
            .stall(ProcId(1), 5)
            .straggle(ProcId(1), 2, 3.0);
        let cleared = plan.without_stalls_at(&[ProcId(1)], 2);
        // Only P1's stall at step 2 goes; its later stall, P2's stall,
        // and the straggle all survive.
        assert_eq!(cleared.faults().len(), 3);
        assert!(!cleared.stalls(ProcId(1), 2));
        assert!(cleared.stalls(ProcId(2), 2));
        assert!(cleared.stalls(ProcId(1), 5));
        assert!(cleared.straggles_at(2));
    }

    #[test]
    fn remap_translates_survivors_and_drops_the_dead() {
        let plan = FaultPlan::new()
            .crash(ProcId(1), 0)
            .straggle(ProcId(2), 1, 2.0)
            .stall(ProcId(0), 3);
        // Rank 1 died: survivors 0 and 2 renumber to 0 and 1.
        let map = vec![Some(ProcId(0)), None, Some(ProcId(1))];
        let remapped = plan.remap(&map);
        assert_eq!(
            remapped.faults(),
            &[
                Fault::Straggle {
                    pid: ProcId(1),
                    step: 1,
                    factor: 2.0
                },
                Fault::Stall {
                    pid: ProcId(0),
                    step: 3
                },
            ]
        );
    }
}
