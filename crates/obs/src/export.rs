//! Trace exporters: Chrome trace-event JSON (loads in Perfetto /
//! `chrome://tracing`) and line-delimited JSON.
//!
//! Chrome trace layout: two synthetic processes — pid 1 carries the
//! **virtual-time** timeline (model units mapped 1:1 to microseconds),
//! pid 2 the **wall-clock** timeline (present only for threaded runs;
//! nanoseconds mapped to microseconds). Each processor is a thread
//! (`tid` = rank). All spans are complete (`"ph": "X"`) events sorted
//! by `ts`, preceded by `"M"` metadata naming the tracks.

use crate::json::{escape, num};
use crate::record::{EventTrace, StepTrace};
use crate::span::{causal_depth, CausalSpan, Span};
use std::fmt::Write as _;

/// Synthetic pid for the virtual-time timeline.
pub const PID_VIRTUAL: u64 = 1;
/// Synthetic pid for the wall-clock timeline.
pub const PID_WALL: u64 = 2;
/// Synthetic pid for the causal span tree (batch → job → segment →
/// superstep).
pub const PID_CAUSAL: u64 = 4;

struct XEvent {
    name: String,
    cat: &'static str,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: usize,
    /// Pre-rendered `args` object fragment (without braces).
    args: String,
}

fn push_span_events(
    out: &mut Vec<XEvent>,
    spans: &[Span],
    pid: u64,
    tid: usize,
    step: usize,
    scale: f64,
) {
    for span in spans {
        out.push(XEvent {
            name: span.kind.name().to_string(),
            cat: "superstep",
            ts: span.start * scale,
            dur: span.duration() * scale,
            pid,
            tid,
            args: format!("\"step\":{step}"),
        });
    }
}

/// Render recorded steps as a Chrome trace-event JSON document.
pub fn chrome_trace(steps: &[StepTrace]) -> String {
    chrome_trace_with_causal(steps, &[])
}

/// Like [`chrome_trace`], with an extra track (pid [`PID_CAUSAL`])
/// carrying a causal span tree: one complete event per span, `tid` =
/// depth in the tree, `args` carrying the span's `id` and `parent`
/// link so consumers can rebuild the hierarchy.
pub fn chrome_trace_with_causal(steps: &[StepTrace], causal: &[CausalSpan]) -> String {
    let procs = steps.iter().map(StepTrace::procs).max().unwrap_or(0);
    let has_wall = steps.iter().any(|s| s.wall().is_some());

    let mut events = Vec::new();
    for st in steps {
        for pid in 0..st.procs() {
            push_span_events(&mut events, &st.spans(pid), PID_VIRTUAL, pid, st.step, 1.0);
            // Wall marks are nanoseconds; trace ts is microseconds.
            push_span_events(
                &mut events,
                &st.wall_spans(pid),
                PID_WALL,
                pid,
                st.step,
                1e-3,
            );
        }
    }
    for cs in causal {
        let parent = match cs.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        events.push(XEvent {
            name: format!("{}:{}", cs.kind.name(), cs.label),
            cat: "causal",
            ts: cs.start,
            dur: cs.end - cs.start,
            pid: PID_CAUSAL,
            tid: causal_depth(causal, cs.id),
            args: format!("\"id\":{},\"parent\":{}", cs.id, parent),
        });
    }
    events.sort_by(|a, b| {
        a.ts.total_cmp(&b.ts)
            .then(a.pid.cmp(&b.pid))
            .then(a.tid.cmp(&b.tid))
    });

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let meta = |out: &mut String, first: &mut bool, json: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&json);
    };
    meta(
        &mut out,
        &mut first,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID_VIRTUAL},\"tid\":0,\
             \"args\":{{\"name\":\"virtual time (model units as \\u00b5s)\"}}}}"
        ),
    );
    if has_wall {
        meta(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID_WALL},\"tid\":0,\
                 \"args\":{{\"name\":\"wall clock\"}}}}"
            ),
        );
    }
    if !causal.is_empty() {
        meta(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID_CAUSAL},\"tid\":0,\
                 \"args\":{{\"name\":\"causal spans (batch > job > segment > superstep)\"}}}}"
            ),
        );
    }
    for pid in 0..procs {
        meta(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_VIRTUAL},\"tid\":{pid},\
                 \"args\":{{\"name\":\"P{pid}\"}}}}"
            ),
        );
        if has_wall {
            meta(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_WALL},\"tid\":{pid},\
                     \"args\":{{\"name\":\"P{pid}\"}}}}"
                ),
            );
        }
    }
    for e in &events {
        meta(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                escape(&e.name),
                e.cat,
                num(e.ts),
                num(e.dur.max(0.0)),
                e.pid,
                e.tid,
                e.args
            ),
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn jsonl_u64s(vals: &[u64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn jsonl_f64s(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(","))
}

/// Append one `"kind":"step"` JSONL line for `st`. Wall-clock fields
/// are included only when `include_wall` is set — post-mortem bundles
/// omit them so bundles compare bit-identically across engines.
pub(crate) fn jsonl_step_line(out: &mut String, st: &StepTrace, include_wall: bool) {
    let barrier = match st.barrier {
        Some(l) => l.to_string(),
        None => "null".to_string(),
    };
    let _ = write!(
        out,
        "{{\"kind\":\"step\",\"step\":{},\"barrier\":{},\"hrelation\":{},\
         \"duration\":{},\"words\":{},\"messages\":{},\
         \"starts\":{},\"compute_done\":{},\"send_done\":{},\"finish\":{},\"releases\":{},\
         \"words_by_level\":{},\"messages_by_level\":{},\"work\":{},\"sent_words\":{}",
        st.step,
        barrier,
        num(st.hrelation),
        num(st.duration()),
        st.total_words(),
        st.total_messages(),
        jsonl_f64s(st.starts()),
        jsonl_f64s(st.compute_done()),
        jsonl_f64s(st.send_done()),
        jsonl_f64s(st.finish()),
        jsonl_f64s(st.releases()),
        jsonl_u64s(st.words_by_level()),
        jsonl_u64s(st.messages_by_level()),
        jsonl_f64s(st.work()),
        jsonl_u64s(st.sent_words()),
    );
    if include_wall {
        if let Some(w) = st.wall() {
            let _ = write!(
                out,
                ",\"wall\":{{\"body_start_ns\":{},\"body_end_ns\":{},\"leader_done_ns\":{}}}",
                jsonl_u64s(w.body_start_ns),
                jsonl_u64s(w.body_end_ns),
                w.leader_done_ns
            );
        }
    }
    out.push_str("}\n");
}

/// Append one `"kind":"event"` JSONL line for `ev`.
pub(crate) fn jsonl_event_line(out: &mut String, ev: &EventTrace) {
    match ev {
        EventTrace::WatchdogFired { step, missing } => {
            let pids: Vec<String> = missing.iter().map(|p| p.rank().to_string()).collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"event\",\"event\":\"watchdog_fired\",\"step\":{},\
                 \"missing\":[{}]}}",
                step,
                pids.join(",")
            );
        }
        EventTrace::Degraded {
            step,
            dead,
            remaining,
        } => {
            let pids: Vec<String> = dead.iter().map(|p| p.rank().to_string()).collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"event\",\"event\":\"degraded\",\"step\":{},\"dead\":[{}],\
                 \"remaining\":{}}}",
                step,
                pids.join(","),
                remaining
            );
        }
        EventTrace::RecoveryAttempt { attempt } => {
            let _ = writeln!(
                out,
                "{{\"kind\":\"event\",\"event\":\"recovery_attempt\",\"attempt\":{attempt}}}"
            );
        }
        EventTrace::Replan {
            segment,
            step,
            drift,
            strategy,
            predicted,
        } => {
            let _ = writeln!(
                out,
                "{{\"kind\":\"event\",\"event\":\"replan\",\"segment\":{},\"step\":{},\
                 \"drift\":{},\"strategy\":\"{}\",\"predicted\":{}}}",
                segment,
                step,
                num(if drift.is_finite() { *drift } else { -1.0 }),
                escape(strategy),
                num(*predicted)
            );
        }
        EventTrace::Anomaly {
            step,
            pid,
            metric,
            zscore,
            value,
            mean,
        } => {
            let _ = writeln!(
                out,
                "{{\"kind\":\"event\",\"event\":\"anomaly\",\"step\":{},\"pid\":{},\
                 \"metric\":\"{}\",\"zscore\":{},\"value\":{},\"mean\":{}}}",
                step,
                pid.rank(),
                escape(metric),
                num(*zscore),
                num(*value),
                num(*mean)
            );
        }
    }
}

/// Append one `"kind":"metric"` JSONL line for `m`.
pub(crate) fn jsonl_metric_line(out: &mut String, m: &crate::metrics::MetricSample) {
    use crate::metrics::MetricValue;
    match &m.value {
        MetricValue::Counter(v) => {
            let _ = writeln!(
                out,
                "{{\"kind\":\"metric\",\"name\":\"{}\",\"type\":\"counter\",\"value\":{}}}",
                escape(&m.name),
                v
            );
        }
        MetricValue::Gauge(v) => {
            let _ = writeln!(
                out,
                "{{\"kind\":\"metric\",\"name\":\"{}\",\"type\":\"gauge\",\"value\":{}}}",
                escape(&m.name),
                num(*v)
            );
        }
        MetricValue::Histogram { count, sum } => {
            let _ = writeln!(
                out,
                "{{\"kind\":\"metric\",\"name\":\"{}\",\"type\":\"histogram\",\
                 \"count\":{},\"sum\":{}}}",
                escape(&m.name),
                count,
                num(*sum)
            );
        }
    }
}

/// Render recorded steps, events, and metrics as JSONL: one
/// self-describing record per line (`"kind"` ∈ `step`, `event`,
/// `metric`).
pub fn jsonl(
    steps: &[StepTrace],
    events: &[EventTrace],
    metrics: &[crate::metrics::MetricSample],
) -> String {
    let mut out = String::new();
    for st in steps {
        jsonl_step_line(&mut out, st, true);
    }
    for ev in events {
        jsonl_event_line(&mut out, ev);
    }
    for m in metrics {
        jsonl_metric_line(&mut out, m);
    }
    out
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events (metadata included).
    pub events: usize,
    /// Complete (`X`) events.
    pub complete: usize,
    /// Matched `B`/`E` pairs.
    pub pairs: usize,
}

/// Validate a Chrome trace-event JSON document:
///
/// * well-formed JSON, top-level array or `{"traceEvents": [...]}`;
/// * every event is an object with string `ph`, numeric `pid`/`tid`;
/// * `X` events carry numeric `ts` and `dur ≥ 0`;
/// * `B`/`E` events carry numeric `ts` and balance per `(pid, tid)`;
/// * non-metadata events appear in non-decreasing `ts` order.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    use crate::json::{parse, Value};
    let doc = parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    let events = match &doc {
        Value::Arr(a) => a.as_slice(),
        Value::Obj(_) => doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("object form lacks a \"traceEvents\" array")?,
        _ => return Err("top level is neither an array nor an object".to_string()),
    };
    let mut last_ts: Option<f64> = None;
    let mut open: std::collections::BTreeMap<(u64, u64), usize> = std::collections::BTreeMap::new();
    let mut complete = 0usize;
    let mut pairs = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let obj = match ev {
            Value::Obj(_) => ev,
            _ => return Err(format!("event {i} is not an object")),
        };
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i} lacks a string \"ph\""))?;
        let pid = obj
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} lacks a numeric \"pid\""))? as u64;
        let tid = obj
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} lacks a numeric \"tid\""))? as u64;
        if ph == "M" {
            continue; // metadata is unordered and has no ts contract
        }
        let ts = obj
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} ({ph}) lacks a numeric \"ts\""))?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} decreases (previous was {prev})"
                ));
            }
        }
        last_ts = Some(ts);
        match ph {
            "X" => {
                let dur = obj
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or(format!("X event {i} lacks a numeric \"dur\""))?;
                if dur < 0.0 {
                    return Err(format!("X event {i} has negative dur {dur}"));
                }
                complete += 1;
            }
            "B" => {
                *open.entry((pid, tid)).or_insert(0) += 1;
            }
            "E" => {
                let depth = open.entry((pid, tid)).or_insert(0);
                if *depth == 0 {
                    return Err(format!(
                        "event {i}: E without matching B on pid {pid} tid {tid}"
                    ));
                }
                *depth -= 1;
                pairs += 1;
            }
            other => {
                return Err(format!("event {i}: unsupported ph {other:?}"));
            }
        }
    }
    if let Some(((pid, tid), depth)) = open.iter().find(|(_, d)| **d > 0) {
        return Err(format!(
            "{depth} unclosed B event(s) on pid {pid} tid {tid}"
        ));
    }
    Ok(TraceCheck {
        events: events.len(),
        complete,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricSample, MetricValue};
    use crate::probe::{StepRecord, StepWall};

    fn step(i: usize, t0: f64, wall: bool) -> StepTrace {
        StepTrace::from_record(&StepRecord {
            step: i,
            barrier: Some(0),
            starts: &[t0, t0],
            compute_done: &[t0 + 1.0, t0 + 2.0],
            send_done: &[t0 + 1.5, t0 + 2.0],
            finish: &[t0 + 2.0, t0 + 2.5],
            releases: &[t0 + 3.0, t0 + 3.0],
            words_by_level: &[0, 4],
            messages_by_level: &[0, 1],
            hrelation: 4.0,
            work: &[1.0, 2.0],
            sent_words: &[4, 0],
            wall: wall.then_some(StepWall {
                body_start_ns: &[10, 20],
                body_end_ns: &[400, 600],
                leader_done_ns: 900,
            }),
        })
    }

    #[test]
    fn chrome_trace_validates_and_counts() {
        let steps = vec![step(0, 0.0, true), step(1, 3.0, true)];
        let text = chrome_trace(&steps);
        let check = validate_chrome_trace(&text).expect("trace validates");
        assert!(check.complete > 0);
        assert_eq!(check.pairs, 0);
        assert!(text.contains("\"pid\":1"), "virtual track present");
        assert!(text.contains("\"pid\":2"), "wall track present");
        assert!(text.contains("barrier_wait"));
    }

    #[test]
    fn sim_only_trace_has_no_wall_track() {
        let text = chrome_trace(&[step(0, 0.0, false)]);
        validate_chrome_trace(&text).expect("trace validates");
        assert!(!text.contains("\"pid\":2"));
    }

    #[test]
    fn validator_rejects_defects() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"foo\": 1}").is_err());
        let unsorted = r#"[
            {"ph":"X","ts":5,"dur":1,"pid":1,"tid":0,"name":"a"},
            {"ph":"X","ts":4,"dur":1,"pid":1,"tid":0,"name":"b"}
        ]"#;
        assert!(validate_chrome_trace(unsorted)
            .unwrap_err()
            .contains("decreases"));
        let negative = r#"[{"ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}]"#;
        assert!(validate_chrome_trace(negative)
            .unwrap_err()
            .contains("negative"));
        let unbalanced = r#"[{"ph":"B","ts":0,"pid":1,"tid":0}]"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("unclosed"));
        let stray_end = r#"[{"ph":"E","ts":0,"pid":1,"tid":0}]"#;
        assert!(validate_chrome_trace(stray_end)
            .unwrap_err()
            .contains("without matching"));
    }

    #[test]
    fn validator_accepts_balanced_be_pairs() {
        let ok = r#"{"traceEvents":[
            {"ph":"B","ts":0,"pid":1,"tid":0,"name":"a"},
            {"ph":"E","ts":2,"pid":1,"tid":0}
        ]}"#;
        let check = validate_chrome_trace(ok).unwrap();
        assert_eq!(check.pairs, 1);
        assert_eq!(check.complete, 0);
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let steps = vec![step(0, 0.0, true)];
        let events = vec![EventTrace::RecoveryAttempt { attempt: 1 }];
        let metrics = vec![
            MetricSample {
                name: "hbsp_steps_total".into(),
                value: MetricValue::Counter(1),
            },
            MetricSample {
                name: "hbsp_hrelation_observed".into(),
                value: MetricValue::Histogram { count: 1, sum: 4.0 },
            },
        ];
        let text = jsonl(&steps, &events, &metrics);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v = crate::json::parse(line).expect("line parses");
            assert!(v.get("kind").is_some(), "{line}");
        }
        assert!(lines[0].contains("\"wall\""));
    }
}
