//! The benchmark's contract: metric names, units, directions and
//! bounds. `BENCHMARK.json` is generated from these tables (`manifest`
//! subcommand) and a unit test keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Measured with tracing off, the same five on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric a traced run
/// prints. A metric that does not apply to the workload being run
/// (`sched.batches` on a collective workload) is printed as 0.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    ("core.topology_parse_us", "us", "lower"),
    ("core.carve_us", "us", "lower"),
    ("core.partition_balanced_us", "us", "lower"),
    ("core.msgbatch_push_ns", "ns", "lower"),
    ("core.msgbatch_append_ns", "ns", "lower"),
    ("sim.time_queue_mops", "Mops/s", "higher"),
    ("sim.superstep_timing_us.p16", "us", "lower"),
    ("sim.empty_superstep_ns.p8", "ns", "lower"),
    ("sim.raw_hrel_1000kb_mb_per_s", "MB/s", "higher"),
    ("sim.raw_hrel_1kb_us_per_step", "us", "lower"),
    ("runtime.empty_superstep_ns.p8.hier", "ns", "lower"),
    ("runtime.empty_superstep_ns.p8.central", "ns", "lower"),
    ("runtime.empty_superstep_ns.p2.hier", "ns", "lower"),
    ("runtime.spawn_join_us.p8", "us", "lower"),
    ("runtime.mailbox_roundtrip_ns", "ns", "lower"),
    ("runtime.barrier_wait_ns.p2", "ns", "lower"),
    ("runtime.raw_hrel_1000kb_mb_per_s", "MB/s", "higher"),
    ("runtime.raw_hrel_1kb_us_per_step", "us", "lower"),
    ("hbsplib.codec_encode_mb_per_s", "MB/s", "higher"),
    ("hbsplib.codec_decode_mb_per_s", "MB/s", "higher"),
    ("hbsplib.executor_overhead_us", "us", "lower"),
    ("hbsplib.adaptive_run_ms", "ms", "lower"),
    ("hbsplib.execute.self_ms", "ms", "lower"),
    ("collectives.best_plan_us.gather", "us", "lower"),
    ("collectives.best_plan_us.broadcast", "us", "lower"),
    ("collectives.best_plan_us.scatter", "us", "lower"),
    ("collectives.best_plan_us.allgather", "us", "lower"),
    ("collectives.best_plan_us.reduce", "us", "lower"),
    ("collectives.best_plan_us.scan", "us", "lower"),
    ("collectives.best_plan_us.alltoall", "us", "lower"),
    ("collectives.predict_us", "us", "lower"),
    ("collectives.share_inits_ms", "ms", "lower"),
    ("collectives.piece_encode_mb_per_s", "MB/s", "higher"),
    ("collectives.piece_decode_mb_per_s", "MB/s", "higher"),
    ("collectives.tune.self_ms", "ms", "lower"),
    ("collectives.stage.self_ms", "ms", "lower"),
    ("collectives.extract.self_ms", "ms", "lower"),
    ("collectives.gather.op_ms_p50", "ms", "lower"),
    ("collectives.broadcast.op_ms_p50", "ms", "lower"),
    ("collectives.scatter.op_ms_p50", "ms", "lower"),
    ("collectives.allgather.op_ms_p50", "ms", "lower"),
    ("collectives.reduce.op_ms_p50", "ms", "lower"),
    ("collectives.scan.op_ms_p50", "ms", "lower"),
    ("collectives.alltoall.op_ms_p50", "ms", "lower"),
    ("collectives.interpreter_gap_ms.threads", "ms", "lower"),
    ("collectives.interpreter_gap_ms.sim", "ms", "lower"),
    ("check.verify_schedule_us", "us", "lower"),
    ("check.verify_dataflow_us", "us", "lower"),
    ("check.verify_dag_us", "us", "lower"),
    ("check.verify_standard_lowerings_ms", "ms", "lower"),
    ("sched.submit.self_ms", "ms", "lower"),
    ("sched.run.self_ms", "ms", "lower"),
    ("sched.batches", "count", "lower"),
    ("sched.jobs_per_batch", "count", "higher"),
    ("sched.ms_per_batch.sim", "ms", "lower"),
    ("sched.ms_per_batch.threads", "ms", "lower"),
    ("sched.price_fixture_ms", "ms", "lower"),
    ("obs.flight_probe_ratio.p8", "ratio", "lower"),
    ("obs.flight_probe_ratio.coll", "ratio", "lower"),
    ("obs.recorder_ratio.coll", "ratio", "lower"),
    ("obs.chrome_export_ms", "ms", "lower"),
    ("apps.sort.op_ms_p50", "ms", "lower"),
    ("apps.matvec.op_ms_p50", "ms", "lower"),
    ("apps.stencil.op_ms_p50", "ms", "lower"),
    ("apps.sort.seq_ms", "ms", "lower"),
    ("apps.matvec.seq_ms", "ms", "lower"),
    ("apps.stencil.seq_ms", "ms", "lower"),
    ("bench.jobfile_parse_ms", "ms", "lower"),
    ("harness.op_ms_p90", "ms", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.attribution_gap_pct", "%", "lower"),
    ("harness.timer_ns", "ns", "lower"),
    ("harness.model_time", "model_units", "lower"),
    ("harness.failed_share", "fraction", "lower"),
];

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = crate::api::repo_root().join("BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh manifest`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(u.len() <= 16 && u.chars().all(unit_ok), "{u}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(crate::workloads::WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }
}
