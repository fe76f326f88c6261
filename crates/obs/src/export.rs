//! Trace exporters: Chrome trace-event JSON (loads in Perfetto /
//! `chrome://tracing`) and line-delimited JSON.
//!
//! Chrome trace layout: two synthetic processes — pid 1 carries the
//! **virtual-time** timeline (model units mapped 1:1 to microseconds),
//! pid 2 the **wall-clock** timeline (present only for threaded runs;
//! nanoseconds mapped to microseconds). Each processor is a thread
//! (`tid` = rank). All spans are complete (`"ph": "X"`) events sorted
//! by `ts`, preceded by `"M"` metadata naming the tracks.

use crate::json::{escape, num, write_record, Field, Field::*};
use crate::record::{EventTrace, StepTrace};
use crate::span::{causal_depth, CausalSpan};

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
        for tid in 0..st.procs() {
            // Wall marks are nanoseconds; trace ts is microseconds.
            let tracks = [
                (st.spans(tid), PID_VIRTUAL, 1.0),
                (st.wall_spans(tid), PID_WALL, 1e-3),
            ];
            for (spans, pid, scale) in tracks {
                events.extend(spans.iter().map(|span| XEvent {
                    name: span.kind.name().to_string(),
                    cat: "superstep",
                    ts: span.start * scale,
                    dur: span.duration() * scale,
                    pid,
                    tid,
                    args: format!("\"step\":{}", st.step),
                }));
            }
        }
    }
    for cs in causal {
        let parent = cs.parent.map_or("null".to_string(), |p| p.to_string());
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

    // Metadata naming the process and thread tracks, then the spans.
    let mut tracks = vec![(PID_VIRTUAL, "virtual time (model units as \\u00b5s)")];
    if has_wall {
        tracks.push((PID_WALL, "wall clock"));
    }
    if !causal.is_empty() {
        tracks.push((
            PID_CAUSAL,
            "causal spans (batch > job > segment > superstep)",
        ));
    }
    let pids: &[u64] = if has_wall {
        &[PID_VIRTUAL, PID_WALL]
    } else {
        &[PID_VIRTUAL]
    };
    let threads = (0..procs).flat_map(|tid| pids.iter().map(move |&pid| (pid, tid)));
    let meta = |kind: &str, pid: u64, tid: usize, name: &str| {
        format!(
            "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )
    };
    let processes = tracks
        .iter()
        .map(|&(pid, name)| meta("process_name", pid, 0, name));
    let lines = processes
        .chain(threads.map(|(pid, tid)| meta("thread_name", pid, tid, &format!("P{tid}"))))
        .chain(events.iter().map(|e| {
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
            )
        }));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, line) in lines.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&line);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Append `fields` as one JSONL line.
pub(crate) fn jsonl_line(out: &mut String, fields: &[(&str, Field<'_>)]) {
    write_record(out, fields);
    out.push('\n');
}

/// Append one `"kind":"step"` JSONL line for `st`. Wall-clock fields
/// are included only when `include_wall` is set — post-mortem bundles
/// omit them so bundles compare bit-identically across engines.
pub(crate) fn jsonl_step_line(out: &mut String, st: &StepTrace, include_wall: bool) {
    let wall = (st.wall().filter(|_| include_wall)).map(|w| {
        [
            ("body_start_ns", Ints(w.body_start_ns)),
            ("body_end_ns", Ints(w.body_end_ns)),
            ("leader_done_ns", Int(w.leader_done_ns)),
        ]
    });
    let mut fields = vec![
        ("kind", Str("step")),
        ("step", Int(st.step as u64)),
        ("barrier", st.barrier.map_or(Null, |l| Int(l as u64))),
        ("hrelation", Num(st.hrelation)),
        ("duration", Num(st.duration())),
        ("words", Int(st.total_words())),
        ("messages", Int(st.total_messages())),
        ("starts", Nums(st.starts())),
        ("compute_done", Nums(st.compute_done())),
        ("send_done", Nums(st.send_done())),
        ("finish", Nums(st.finish())),
        ("releases", Nums(st.releases())),
        ("words_by_level", Ints(st.words_by_level())),
        ("messages_by_level", Ints(st.messages_by_level())),
        ("work", Nums(st.work())),
        ("sent_words", Ints(st.sent_words())),
    ];
    fields.extend(wall.as_ref().map(|w| ("wall", Obj(w))));
    jsonl_line(out, &fields);
}

/// Append one `"kind":"event"` JSONL line for `ev`.
pub(crate) fn jsonl_event_line(out: &mut String, ev: &EventTrace) {
    let ranks: Vec<u64> = match ev {
        EventTrace::WatchdogFired { missing: pids, .. }
        | EventTrace::Degraded { dead: pids, .. } => pids.iter().map(|p| p.rank() as u64).collect(),
        _ => Vec::new(),
    };
    let (kind, int) = (("kind", Str("event")), |n: &usize| Int(*n as u64));
    let fields = match ev {
        EventTrace::WatchdogFired { step, .. } => vec![
            kind,
            ("event", Str("watchdog_fired")),
            ("step", int(step)),
            ("missing", Ints(&ranks)),
        ],
        EventTrace::Degraded {
            step, remaining, ..
        } => vec![
            kind,
            ("event", Str("degraded")),
            ("step", int(step)),
            ("dead", Ints(&ranks)),
            ("remaining", int(remaining)),
        ],
        EventTrace::RecoveryAttempt { attempt } => vec![
            kind,
            ("event", Str("recovery_attempt")),
            ("attempt", int(attempt)),
        ],
        EventTrace::Replan {
            segment,
            step,
            drift,
            strategy,
            predicted,
        } => vec![
            kind,
            ("event", Str("replan")),
            ("segment", int(segment)),
            ("step", int(step)),
            ("drift", Num(if drift.is_finite() { *drift } else { -1.0 })),
            ("strategy", Str(strategy)),
            ("predicted", Num(*predicted)),
        ],
    };
    jsonl_line(out, &fields);
}

/// Append one `"kind":"metric"` JSONL line for `m`.
pub(crate) fn jsonl_metric_line(out: &mut String, m: &crate::metrics::MetricSample) {
    use crate::metrics::MetricValue;
    let (kind, name) = (("kind", Str("metric")), ("name", Str(&m.name)));
    let fields = match m.value {
        MetricValue::Counter(v) => vec![kind, name, ("type", Str("counter")), ("value", Int(v))],
        MetricValue::Histogram { count, sum } => vec![
            kind,
            name,
            ("type", Str("histogram")),
            ("count", Int(count)),
            ("sum", Num(sum)),
        ],
    };
    jsonl_line(out, &fields);
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
        let num_at = |key: &str| obj.get(key).and_then(Value::as_f64);
        let pid = num_at("pid").ok_or(format!("event {i} lacks a numeric \"pid\""))? as u64;
        let tid = num_at("tid").ok_or(format!("event {i} lacks a numeric \"tid\""))? as u64;
        if ph == "M" {
            continue; // metadata is unordered and has no ts contract
        }
        let ts = num_at("ts").ok_or(format!("event {i} ({ph}) lacks a numeric \"ts\""))?;
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
                let dur = num_at("dur").ok_or(format!("X event {i} lacks a numeric \"dur\""))?;
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
