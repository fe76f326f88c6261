//! Post-mortem forensics: a [`PostmortemBundle`] is the self-contained
//! crash dump the executors capture when a run dies — the machine tree
//! and fault plan as rendered text, the flight recorder's last-N step
//! records and out-of-band events, the adaptive decision log, a metric
//! snapshot, and the causal span tree that places the failure inside
//! batch → job → segment → superstep.
//!
//! Bundles serialize to JSONL ([`PostmortemBundle::to_jsonl`]) and
//! parse back losslessly ([`PostmortemBundle::parse`]); export → parse
//! → export is byte-identical. Wall-clock marks are deliberately
//! **excluded** from the serialized form: a bundle is a virtual-time
//! artifact, so the same seeded failure produces bit-identical bundles
//! on the simulator and the threaded runtime — diffing the two is a
//! cross-engine conformance check, not noise.

use crate::export::{
    chrome_trace_with_causal, jsonl_event_line, jsonl_line, jsonl_metric_line, jsonl_step_line,
};
use crate::json::{parse as json_parse, Field::*, Value};
use crate::metrics::{MetricSample, MetricValue};
use crate::probe::StepRecord;
use crate::record::{check_span_invariants, EventTrace, StepTrace};
use crate::span::{check_causal_spans, CausalKind, CausalSpan};
use hbsp_core::{Level, ProcId};

/// Serialization format version (the header line carries it).
pub const BUNDLE_VERSION: u64 = 1;

/// Everything needed to diagnose a dead run offline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PostmortemBundle {
    /// Why the bundle was captured (the error's rendering).
    pub reason: String,
    /// Which engine was running (`sim` or `threads`).
    pub engine: String,
    /// Last superstep the flight recorder saw.
    pub step: usize,
    /// ASCII rendering of the machine tree at capture time.
    pub machine: String,
    /// Rendered [`FaultPlan`](../../hbsp_sim/struct.FaultPlan.html);
    /// empty when no faults were injected.
    pub fault_plan: String,
    /// Last-N step records from the flight recorder's ring.
    pub steps: Vec<StepTrace>,
    /// Out-of-band events (watchdog, degrade, recovery, replan),
    /// oldest first.
    pub events: Vec<EventTrace>,
    /// Adaptive controller decision log; empty for static runs.
    pub decision_log: String,
    /// Metric snapshot at capture time.
    pub metrics: Vec<MetricSample>,
    /// Causal span tree (batch → job → segment → superstep).
    pub spans: Vec<CausalSpan>,
}

impl PostmortemBundle {
    /// Serialize as JSONL: a header line, the rendered machine /
    /// fault-plan / decision-log texts, then step, event, span, and
    /// metric lines. Wall-clock fields are omitted so the output is
    /// bit-identical across engines for the same virtual execution.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        jsonl_line(
            &mut out,
            &[
                ("kind", Str("postmortem")),
                ("version", Int(BUNDLE_VERSION)),
                ("reason", Str(&self.reason)),
                ("engine", Str(&self.engine)),
                ("step", Int(self.step as u64)),
            ],
        );
        for (kind, text) in [
            ("machine", &self.machine),
            ("fault_plan", &self.fault_plan),
            ("decision_log", &self.decision_log),
        ] {
            jsonl_line(&mut out, &[("kind", Str(kind)), ("text", Str(text))]);
        }
        for st in &self.steps {
            jsonl_step_line(&mut out, st, false);
        }
        for ev in &self.events {
            jsonl_event_line(&mut out, ev);
        }
        for cs in &self.spans {
            jsonl_line(
                &mut out,
                &[
                    ("kind", Str("span")),
                    ("id", Int(cs.id as u64)),
                    ("parent", cs.parent.map_or(Null, |p| Int(p as u64))),
                    ("span_kind", Str(cs.kind.name())),
                    ("label", Str(&cs.label)),
                    ("start", Num(cs.start)),
                    ("end", Num(cs.end)),
                ],
            );
        }
        for m in &self.metrics {
            jsonl_metric_line(&mut out, m);
        }
        out
    }

    /// Parse a serialized bundle back. Inverse of
    /// [`PostmortemBundle::to_jsonl`] — `parse(b.to_jsonl())` equals
    /// `b` up to wall-clock marks (which the format omits).
    pub fn parse(text: &str) -> Result<PostmortemBundle, String> {
        let mut bundle = PostmortemBundle::default();
        let mut saw_header = false;
        for (ln, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json_parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
            let kind = v
                .get("kind")
                .and_then(Value::as_str)
                .ok_or(format!("line {}: missing \"kind\"", ln + 1))?;
            let err = |msg: String| format!("line {}: {msg}", ln + 1);
            match kind {
                "postmortem" => {
                    saw_header = true;
                    bundle.reason = req_str(&v, "reason").map_err(err)?;
                    bundle.engine = req_str(&v, "engine").map_err(err)?;
                    bundle.step = req_int(&v, "step").map_err(err)?;
                }
                "machine" => bundle.machine = req_str(&v, "text").map_err(err)?,
                "fault_plan" => bundle.fault_plan = req_str(&v, "text").map_err(err)?,
                "decision_log" => bundle.decision_log = req_str(&v, "text").map_err(err)?,
                "step" => bundle.steps.push(parse_step(&v).map_err(err)?),
                "event" => bundle.events.push(parse_event(&v).map_err(err)?),
                "span" => bundle.spans.push(parse_span(&v).map_err(err)?),
                "metric" => bundle.metrics.push(parse_metric(&v).map_err(err)?),
                other => return Err(err(format!("unknown kind {other:?}"))),
            }
        }
        if !saw_header {
            return Err("no \"postmortem\" header line".to_string());
        }
        Ok(bundle)
    }

    /// Structural validation: the header names an engine, each step
    /// record is internally consistent (spans tile `[start, release)`
    /// and barriered steps end in a barrier wait), causal spans form a
    /// well-nested tree, and span ids named by the tree exist.
    ///
    /// Cross-step invariants (consecutive steps abutting) are *not*
    /// enforced — a ring snapshot may start mid-run, and a recovering
    /// executor restarts virtual time between attempts.
    pub fn validate(&self) -> Result<(), String> {
        if self.engine.is_empty() {
            return Err("bundle names no engine".to_string());
        }
        if self.reason.is_empty() {
            return Err("bundle carries no reason".to_string());
        }
        for st in &self.steps {
            check_span_invariants(std::slice::from_ref(st))
                .map_err(|e| format!("step {}: {e}", st.step))?;
        }
        check_causal_spans(&self.spans)?;
        Ok(())
    }

    /// Compare two bundles field by field, returning one line per
    /// difference (empty = identical). Steps are compared in their
    /// serialized (wall-free) form, so a sim and a threads bundle of
    /// the same virtual execution diff clean.
    pub fn diff(&self, other: &PostmortemBundle) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, a: &str, b: &str| {
            if a != b {
                out.push(format!("{name}: {a:?} != {b:?}"));
            }
        };
        field("reason", &self.reason, &other.reason);
        field("engine", &self.engine, &other.engine);
        field("step", &self.step.to_string(), &other.step.to_string());
        field("machine", &self.machine, &other.machine);
        field("fault_plan", &self.fault_plan, &other.fault_plan);
        field("decision_log", &self.decision_log, &other.decision_log);
        if self.steps.len() != other.steps.len() {
            out.push(format!(
                "steps: {} recorded vs {}",
                self.steps.len(),
                other.steps.len()
            ));
        } else {
            for (a, b) in self.steps.iter().zip(&other.steps) {
                let (mut la, mut lb) = (String::new(), String::new());
                jsonl_step_line(&mut la, a, false);
                jsonl_step_line(&mut lb, b, false);
                if la != lb {
                    out.push(format!("step {}: records differ", a.step));
                }
            }
        }
        if self.events != other.events {
            out.push(format!(
                "events: {} recorded vs {} (or contents differ)",
                self.events.len(),
                other.events.len()
            ));
        }
        if self.spans != other.spans {
            out.push(format!(
                "spans: {} recorded vs {} (or contents differ)",
                self.spans.len(),
                other.spans.len()
            ));
        }
        if self.metrics != other.metrics {
            out.push(format!(
                "metrics: {} samples vs {} (or values differ)",
                self.metrics.len(),
                other.metrics.len()
            ));
        }
        out
    }

    /// Re-render the bundle as a Chrome trace: the recorded steps on
    /// the virtual-time track plus the causal span tree on its own
    /// track (see [`crate::export::PID_CAUSAL`]).
    pub fn chrome_trace(&self) -> String {
        chrome_trace_with_causal(&self.steps, &self.spans)
    }

    /// One-paragraph human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} bundle at step {}: {} — {} step record(s), {} event(s), \
             {} causal span(s), {} metric(s){}",
            self.engine,
            self.step,
            self.reason,
            self.steps.len(),
            self.events.len(),
            self.spans.len(),
            self.metrics.len(),
            if self.decision_log.is_empty() {
                ""
            } else {
                ", decision log attached"
            }
        )
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string \"{key}\""))
}

/// A number; `null` is how [`num`] renders a non-finite one.
fn float(x: &Value, key: &str) -> Result<f64, String> {
    match x {
        Value::Null => Ok(f64::NAN),
        other => other.as_f64().ok_or(format!("\"{key}\" is not a number")),
    }
}

fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    float(v.get(key).ok_or(format!("missing number \"{key}\""))?, key)
}

fn req_f64s(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    let items = v.get(key).and_then(Value::as_arr);
    let items = items.ok_or(format!("missing array \"{key}\""))?;
    items.iter().map(|x| float(x, key)).collect()
}

/// An integer as the format writes one: a non-negative whole number
/// that an `f64` (what the JSON parser reads numbers into) holds
/// exactly, and that fits the field's type. Anything else would parse
/// to a value that re-renders as different text.
fn int<T: TryFrom<u64>>(x: &Value, key: &str) -> Result<T, String> {
    x.as_f64()
        .filter(|f| f.is_sign_positive() && f.fract() == 0.0 && *f <= (1u64 << 53) as f64)
        .and_then(|f| T::try_from(f as u64).ok())
        .ok_or(format!("\"{key}\" is not an integer in the field's range"))
}

fn req_int<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    int(v.get(key).ok_or(format!("missing number \"{key}\""))?, key)
}

fn req_ints<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<Vec<T>, String> {
    let items = v.get(key).and_then(Value::as_arr);
    let items = items.ok_or(format!("missing array \"{key}\""))?;
    items.iter().map(|x| int(x, key)).collect()
}

/// An integer field that may be `null` or absent.
fn opt_int<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<Option<T>, String> {
    match v.get(key) {
        Some(Value::Null) | None => Ok(None),
        Some(x) => int(x, key).map(Some),
    }
}

fn parse_step(v: &Value) -> Result<StepTrace, String> {
    let step = req_int(v, "step")?;
    let barrier = opt_int::<Level>(v, "barrier")?;
    let starts = req_f64s(v, "starts")?;
    let compute_done = req_f64s(v, "compute_done")?;
    let send_done = req_f64s(v, "send_done")?;
    let finish = req_f64s(v, "finish")?;
    let releases = req_f64s(v, "releases")?;
    let work = req_f64s(v, "work")?;
    let sent_words: Vec<u64> = req_ints(v, "sent_words")?;
    let words_by_level: Vec<u64> = req_ints(v, "words_by_level")?;
    let messages_by_level: Vec<u64> = req_ints(v, "messages_by_level")?;
    let p = starts.len();
    for (name, len) in [
        ("compute_done", compute_done.len()),
        ("send_done", send_done.len()),
        ("finish", finish.len()),
        ("releases", releases.len()),
        ("work", work.len()),
        ("sent_words", sent_words.len()),
    ] {
        if len != p {
            return Err(format!("\"{name}\" has {len} entries, expected {p}"));
        }
    }
    if messages_by_level.len() != words_by_level.len() {
        return Err("level arrays disagree on depth".to_string());
    }
    Ok(StepTrace::from_record(&StepRecord {
        step,
        barrier,
        starts: &starts,
        compute_done: &compute_done,
        send_done: &send_done,
        finish: &finish,
        releases: &releases,
        words_by_level: &words_by_level,
        messages_by_level: &messages_by_level,
        hrelation: req_f64(v, "hrelation")?,
        work: &work,
        sent_words: &sent_words,
        wall: None, // the serialized form is wall-free by design
    }))
}

fn parse_pids(v: &Value, key: &str) -> Result<Vec<ProcId>, String> {
    Ok(req_ints(v, key)?.into_iter().map(ProcId).collect())
}

fn parse_event(v: &Value) -> Result<EventTrace, String> {
    let event = req_str(v, "event")?;
    Ok(match event.as_str() {
        "watchdog_fired" => EventTrace::WatchdogFired {
            step: req_int(v, "step")?,
            missing: parse_pids(v, "missing")?,
        },
        "degraded" => EventTrace::Degraded {
            step: req_int(v, "step")?,
            dead: parse_pids(v, "dead")?,
            remaining: req_int(v, "remaining")?,
        },
        "recovery_attempt" => EventTrace::RecoveryAttempt {
            attempt: req_int(v, "attempt")?,
        },
        "replan" => EventTrace::Replan {
            segment: req_int(v, "segment")?,
            step: req_int(v, "step")?,
            drift: req_f64(v, "drift")?,
            strategy: req_str(v, "strategy")?,
            predicted: req_f64(v, "predicted")?,
        },
        other => return Err(format!("unknown event {other:?}")),
    })
}

fn parse_span(v: &Value) -> Result<CausalSpan, String> {
    let kind_name = req_str(v, "span_kind")?;
    let kind = CausalKind::parse(&kind_name).ok_or(format!("unknown span kind {kind_name:?}"))?;
    Ok(CausalSpan {
        id: req_int(v, "id")?,
        parent: opt_int(v, "parent")?,
        kind,
        label: req_str(v, "label")?,
        start: req_f64(v, "start")?,
        end: req_f64(v, "end")?,
    })
}

fn parse_metric(v: &Value) -> Result<MetricSample, String> {
    let name = req_str(v, "name")?;
    let ty = req_str(v, "type")?;
    let value = match ty.as_str() {
        "counter" => MetricValue::Counter(req_int(v, "value")?),
        "histogram" => MetricValue::Histogram {
            count: req_int(v, "count")?,
            sum: req_f64(v, "sum")?,
        },
        other => return Err(format!("unknown metric type {other:?}")),
    };
    Ok(MetricSample { name, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_chrome_trace;
    use crate::span::CausalTree;

    fn sample_step(step: usize, t0: f64) -> StepTrace {
        StepTrace::from_record(&StepRecord {
            step,
            barrier: Some(1),
            starts: &[t0, t0],
            compute_done: &[t0 + 2.0, t0 + 3.0],
            send_done: &[t0 + 2.5, t0 + 3.0],
            finish: &[t0 + 3.0, t0 + 4.0],
            releases: &[t0 + 5.0, t0 + 5.0],
            words_by_level: &[0, 16],
            messages_by_level: &[0, 2],
            hrelation: 16.0,
            work: &[2.0, 3.0],
            sent_words: &[8, 8],
            wall: None,
        })
    }

    fn sample_bundle() -> PostmortemBundle {
        let mut tree = CausalTree::new();
        let seg = tree.push(CausalKind::Segment, "segment 0", None, 0.0, 10.0);
        tree.push(CausalKind::Superstep, "step 0", Some(seg), 0.0, 5.0);
        tree.push(CausalKind::Superstep, "step 1", Some(seg), 5.0, 10.0);
        PostmortemBundle {
            reason: "crash: P1 died at step 1 (\"seeded\")".to_string(),
            engine: "sim".to_string(),
            step: 1,
            machine: "M_{2,1} root\n  leaf x2\n".to_string(),
            fault_plan: "crash 1@1\n".to_string(),
            steps: vec![sample_step(0, 0.0), sample_step(1, 5.0)],
            events: vec![
                EventTrace::WatchdogFired {
                    step: 1,
                    missing: vec![ProcId(1)],
                },
                EventTrace::Degraded {
                    step: 1,
                    dead: vec![ProcId(1)],
                    remaining: 1,
                },
                EventTrace::RecoveryAttempt { attempt: 1 },
                EventTrace::Replan {
                    segment: 0,
                    step: 1,
                    drift: f64::INFINITY,
                    strategy: "re-place".to_string(),
                    predicted: 42.5,
                },
            ],
            decision_log: "segment 0: keep (drift 0.10)\n".to_string(),
            metrics: vec![
                MetricSample {
                    name: "hbsp_steps_total".to_string(),
                    value: MetricValue::Counter(2),
                },
                MetricSample {
                    name: "hbsp_hrelation_observed".to_string(),
                    value: MetricValue::Histogram {
                        count: 2,
                        sum: 32.0,
                    },
                },
            ],
            spans: tree.into_spans(),
        }
    }

    #[test]
    fn export_parse_reexport_is_byte_identical() {
        let bundle = sample_bundle();
        let text = bundle.to_jsonl();
        let parsed = PostmortemBundle::parse(&text).expect("parses");
        assert_eq!(parsed.to_jsonl(), text);
        // Infinite drift is normalized to -1.0 by the line format;
        // everything else survives exactly.
        assert_eq!(parsed.steps, bundle.steps);
        assert_eq!(parsed.spans, bundle.spans);
        assert_eq!(parsed.metrics, bundle.metrics);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let bundle = sample_bundle();
        bundle.validate().expect("valid bundle");

        let mut anon = bundle.clone();
        anon.engine.clear();
        assert!(anon.validate().unwrap_err().contains("engine"));

        let mut escaped = bundle.clone();
        escaped.spans[1].end = 99.0; // escapes its segment
        assert!(escaped.validate().unwrap_err().contains("escapes"));
    }

    #[test]
    fn diff_reports_differences_and_clean_pairs() {
        let a = sample_bundle();
        assert!(a.diff(&a.clone()).is_empty());
        let mut b = a.clone();
        b.engine = "threads".to_string();
        b.steps[1] = sample_step(7, 5.0);
        let d = a.diff(&b);
        assert!(d.iter().any(|l| l.starts_with("engine:")), "{d:?}");
        assert!(d.iter().any(|l| l.contains("records differ")), "{d:?}");
    }

    #[test]
    fn chrome_rendering_carries_the_causal_track_and_validates() {
        let text = sample_bundle().chrome_trace();
        validate_chrome_trace(&text).expect("bundle trace validates");
        assert!(text.contains("\"cat\":\"causal\""), "causal track present");
        assert!(text.contains("\"parent\":0"), "parent links present");
        assert!(text.contains("segment:segment 0"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(PostmortemBundle::parse("").is_err(), "no header");
        assert!(PostmortemBundle::parse("{\"kind\":\"step\"}").is_err());
        assert!(PostmortemBundle::parse("not json").is_err());
        let header = "{\"kind\":\"postmortem\",\"version\":1,\"reason\":\"r\",\
                      \"engine\":\"sim\",\"step\":0}";
        PostmortemBundle::parse(header).expect("bare header is a valid bundle");
        // Retired lines: the anomaly event and the gauge metric kind.
        for retired in [
            "{\"kind\":\"event\",\"event\":\"anomaly\",\"step\":1,\"pid\":1,\
             \"metric\":\"barrier_skew\",\"zscore\":5.25,\"value\":9,\"mean\":0.5}",
            "{\"kind\":\"metric\",\"name\":\"hbsp_anomaly_last_zscore\",\
             \"type\":\"gauge\",\"value\":5.25}",
        ] {
            let err = PostmortemBundle::parse(&format!("{header}\n{retired}")).unwrap_err();
            assert!(err.starts_with("line 2: unknown"), "{err}");
        }
    }
}
