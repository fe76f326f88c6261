//! One run of one workload: set-up, the closed-loop measurement, and
//! the metrics derived from it.
//!
//! The harness is one process with one client: the next op is issued
//! when the previous one returns. The only other threads are the
//! engine's own, which are the system under test.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Workload};
use crate::{api, layers};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Consecutive blocks a run's ops are cut into, at most; fewer when that
/// would leave a block under `MIN_OPS_PER_BLOCK` ops.
const BLOCKS: usize = 20;
const MIN_OPS_PER_BLOCK: usize = 8;
/// Every how many ops the outputs are compared in full.
const FULL_CHECK_EVERY: u32 = 16;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
}

/// What one run reports.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in contract order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The run's own spread of a metric: the interquartile range of its
    /// per-block values as a share of their median.
    pub spread: Vec<(&'static str, f64)>,
    pub load_start: f64,
    pub load_end: f64,
}

/// The raw measurements of a batch of ops.
struct Ops {
    wall_ns: Vec<u64>,
    /// `parts_ns[part][op]`.
    parts_ns: Vec<Vec<u64>>,
    /// Process CPU time before the first op and after each op.
    cpu_ms: Vec<f64>,
    traced: Vec<bool>,
    model_time: f64,
    failed: usize,
    failures: Vec<String>,
}

/// Issue ops back to back for `budget`, then one last fully checked op.
/// With `alternate`, odd ops run with the tracer on.
fn measure(w: &mut dyn Workload, tr: &mut Tracer, budget: Duration, alternate: bool) -> Ops {
    let mut ops = Ops {
        wall_ns: Vec::new(),
        parts_ns: vec![Vec::new(); w.parts().len()],
        cpu_ms: vec![stats::cpu_ms()],
        traced: Vec::new(),
        model_time: 0.0,
        failed: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    for i in 0u32.. {
        let last = start.elapsed() >= budget;
        let traced = alternate && i % 2 == 1;
        tr.set_enabled(traced);
        tr.begin_op(i);
        let out = w.op(tr, i % FULL_CHECK_EVERY == 0 || last);
        ops.cpu_ms.push(stats::cpu_ms());
        if i == 0 {
            ops.model_time = out.model_time;
        }
        let failure = out.failure.or_else(|| {
            (out.model_time != ops.model_time).then(|| "model time changed between ops".to_string())
        });
        if let Some(why) = failure {
            ops.failed += 1;
            if ops.failures.len() < 5 {
                ops.failures.push(format!("op {i}: {why}"));
            }
        }
        ops.wall_ns.push(out.wall_ns);
        for (part, ns) in ops.parts_ns.iter_mut().zip(out.parts_ns) {
            part.push(ns);
        }
        ops.traced.push(traced);
        if last {
            break;
        }
    }
    tr.set_enabled(false);
    ops
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Per-block medians of `values`, for a run's own spread.
fn block_medians(values: &[f64], blocks: usize) -> Vec<f64> {
    let per = values.len() / blocks;
    values.chunks_exact(per).take(blocks).map(median).collect()
}

/// CPU milliseconds per op of each block.
fn block_cpu_per_op(cpu_ms: &[f64], blocks: usize) -> Vec<f64> {
    let per = (cpu_ms.len() - 1) / blocks;
    (0..blocks)
        .map(|b| (cpu_ms[(b + 1) * per] - cpu_ms[b * per]) / per as f64)
        .collect()
}

fn warn_if_loaded(load: f64) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if load > cores as f64 {
        eprintln!("warning: 1-minute load average {load} exceeds the {cores} cores; expect noise");
    }
}

/// The value a run reports for a timing: the decile of its per-block
/// values on the quiet side (the lowest tenth where lower is better).
///
/// Noise on a shared host only ever slows an op down, and it comes in
/// stretches of seconds to tens of seconds, so the blocks of a run are
/// a mix of quiet and disturbed ones. The median of a quiet block is
/// what the code costs; the quiet decile finds it as long as a tenth of
/// the run was quiet, where the median over all ops needs half. A
/// regression slows every block and moves the decile as much as the
/// median.
fn quiet_decile(blocks: &[f64], lower_is_better: bool) -> f64 {
    stats::percentile(blocks, if lower_is_better { 0.1 } else { 0.9 })
}

/// The end-to-end run: tracing off, `seconds` of ops, `SETUPS` set-ups.
pub fn end_to_end(args: &RunArgs) -> Result<RunRecord, String> {
    let load_start = stats::loadavg_1m();
    warn_if_loaded(load_start);
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let workload = workloads::setup(&args.workload, args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        workload
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = timed_setup(&mut setup_s)?;
    let mut tr = Tracer::new(false);
    let ops = measure(
        workload.as_mut(),
        &mut tr,
        Duration::from_secs(args.seconds),
        false,
    );
    drop(workload);
    // Read before the remaining set-ups, so the peak belongs to one
    // set-up and the measured ops.
    let peak_rss_mb = stats::peak_rss_mb();
    while setup_s.len() < SETUPS {
        drop(timed_setup(&mut setup_s)?);
    }

    let n = ops.wall_ns.len();
    let wall_ms = ms(&ops.wall_ns);
    let blocks = BLOCKS.min(n / MIN_OPS_PER_BLOCK).max(1);
    let op_blocks = block_medians(&wall_ms, blocks);
    let throughputs = stats::block_throughputs(&ops.wall_ns, blocks);
    let cpu_blocks = block_cpu_per_op(&ops.cpu_ms, blocks);
    let value = |name: &str| match name {
        "op_ms_p50" => quiet_decile(&op_blocks, true),
        "ops_per_s" => quiet_decile(&throughputs, false),
        "cpu_ms_per_op" => quiet_decile(&cpu_blocks, true),
        "peak_rss_mb" => peak_rss_mb,
        "setup_s" => median(&setup_s),
        other => unreachable!("no end-to-end metric `{other}`"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    let spread = vec![
        ("op_ms_p50", stats::iqr_share(&op_blocks)),
        ("ops_per_s", stats::iqr_share(&throughputs)),
        ("cpu_ms_per_op", stats::iqr_share(&cpu_blocks)),
        ("setup_s", stats::iqr_share(&setup_s)),
    ];
    println!(
        "{}: {n} ops, {} failed, model_time {}; over all ops: median {:.3} ms, p90 {:.3} ms \
         ({} samples beyond it)",
        args.workload,
        ops.failed,
        ops.model_time,
        median(&wall_ms),
        stats::percentile(&wall_ms, 0.9),
        stats::samples_beyond(n, 0.9),
    );
    let load_end = stats::loadavg_1m();
    Ok(RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        attempted: n,
        failed: ops.failed,
        failures: ops.failures,
        metrics,
        spread,
        load_start,
        load_end,
    })
}

/// Share of a traced run's seconds spent on the workload's ops; the
/// rest goes to the micro-suite.
const TRACED_OPS_SHARE: f64 = 0.4;

/// The traced run: ops alternate between tracer off and on, then the
/// per-layer micro-suite runs. Prints every per-layer metric.
pub fn traced(args: &RunArgs) -> Result<RunRecord, String> {
    let load_start = stats::loadavg_1m();
    warn_if_loaded(load_start);
    let mut workload = workloads::setup(&args.workload, args.seed)?;
    let mut tr = Tracer::new(false);
    let ops = measure(
        workload.as_mut(),
        &mut tr,
        Duration::from_secs_f64(args.seconds as f64 * TRACED_OPS_SHARE),
        true,
    );
    let parts = workload.parts();
    let counts = workload.counts();
    let engine = workload.engine();
    drop(workload);

    let out_dir = api::repo_root().join("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace-{}.jsonl", args.workload));
    std::fs::write(&trace_path, trace::to_jsonl(tr.spans()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let n = ops.wall_ns.len();
    let wall_ms = ms(&ops.wall_ns);
    let of = |traced: bool, v: &[f64]| -> Vec<f64> {
        v.iter()
            .zip(&ops.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(x, _)| *x)
            .collect()
    };
    let untraced_ms = of(false, &wall_ms);
    let traced_ms = of(true, &wall_ms);
    let op_ms_p50 = median(&untraced_ms);
    values.insert("harness.op_ms_p90", stats::percentile(&wall_ms, 0.9));
    if !traced_ms.is_empty() {
        values.insert(
            "harness.trace_overhead_ratio",
            median(&traced_ms) / op_ms_p50,
        );
    }
    values.insert("harness.model_time", ops.model_time);
    values.insert("harness.failed_share", ops.failed as f64 / n as f64);

    // Per-part medians, from the untraced ops.
    for (metric, ns) in parts.iter().zip(&ops.parts_ns) {
        if let Some(metric) = metric {
            values.insert(metric, median(&of(false, &ms(ns))));
        }
    }

    // Self times of the layer spans, from the traced ops.
    let spans = tr.spans();
    let self_ns = trace::self_times_ns(spans);
    for (metric, span) in [
        ("hbsplib.execute.self_ms", "hbsplib.execute"),
        ("collectives.tune.self_ms", "collectives.tune"),
        ("collectives.stage.self_ms", "collectives.stage"),
        ("collectives.extract.self_ms", "collectives.extract"),
        ("sched.submit.self_ms", "sched.submit"),
        ("sched.run.self_ms", "sched.run"),
    ] {
        let per_op = trace::self_ms_per_op(spans, &self_ns, span);
        if !per_op.is_empty() {
            values.insert(metric, median(&per_op));
        }
    }
    let gaps = trace::attribution_gap_pct_per_op(spans, &self_ns);
    if !gaps.is_empty() {
        values.insert("harness.attribution_gap_pct", median(&gaps));
    }
    for (name, v) in counts {
        values.insert(name, v);
        if name == "sched.batches" {
            let per_batch = match engine {
                api::Engine::Threads => "sched.ms_per_batch.threads",
                api::Engine::Sim => "sched.ms_per_batch.sim",
            };
            values.insert(per_batch, op_ms_p50 / v.max(1.0));
        }
    }

    // The micro-suite, then the metrics that combine it with the trace.
    let budget = Duration::from_secs_f64(args.seconds as f64 * (1.0 - TRACED_OPS_SHARE));
    let suite = layers::run(budget)?;
    if let Some(&execute) = values.get("hbsplib.execute.self_ms") {
        let (gap, replay) = match engine {
            api::Engine::Threads => (
                "collectives.interpreter_gap_ms.threads",
                suite.replay_sweep_ms_threads,
            ),
            api::Engine::Sim => (
                "collectives.interpreter_gap_ms.sim",
                suite.replay_sweep_ms_sim,
            ),
        };
        values.insert(gap, execute - replay);
        println!(
            "{gap} = hbsplib.execute.self_ms {execute:.3} - raw replay of the same sweep {replay:.3}"
        );
    }
    values.extend(suite.metrics);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    println!(
        "{}: {n} ops ({} traced), {} failed, trace in {}",
        args.workload,
        traced_ms.len(),
        ops.failed,
        trace_path.display()
    );
    Ok(RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: true,
        attempted: n,
        failed: ops.failed,
        failures: ops.failures,
        metrics,
        spread: Vec::new(),
        load_start,
        load_end: stats::loadavg_1m(),
    })
}
