//! Job-graph file parsing and validation, shared by `hbsp_sched`
//! (which executes the graphs) and `hbsp_check --jobs` (which lints
//! them statically).
//!
//! The format is line-oriented: one job per line, `#` comments and
//! blank lines ignored.
//!
//! ```text
//! <name> <kind> n=<words> [procs=<min>] [after=<id>,<id>,...] [seed=<u64>]
//! ```
//!
//! `<kind>` is any of the seven collectives (`gather`, `broadcast`,
//! `scatter`, `allgather`, `alltoall`, `reduce`, `scan`); `after`
//! references 0-based job ids — line positions among job lines.
//!
//! [`parse`] reports *every* malformed line (not just the first) with
//! its 1-based line number, and [`validate`] adds the graph-level
//! checks: dependency ids must exist, payloads must move at least one
//! word, and the DAG must be acyclic (an `after` cycle would make the
//! scheduler's admission loop starve the cycle forever, which it
//! reports at run time — the point of the static check is to say so
//! *before* anything runs, with a line number).

use hbsp_check::{verify_dag, Violation};
use hbsp_sched::{CollectiveKind, Job, JobId, JobWork};
use std::fmt;

/// One diagnostic tied to a line of the job-graph file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobfileError {
    /// 1-based line number (0 = file-level).
    pub line: usize,
    pub message: String,
}

impl fmt::Display for JobfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.line, self.message)
    }
}

/// A parsed job plus the provenance [`validate`] needs.
#[derive(Debug, Clone)]
pub struct ParsedJob {
    pub job: Job,
    /// 1-based source line.
    pub line: usize,
}

/// Parse a job-graph file, collecting every malformed line as a
/// diagnostic. Jobs from well-formed lines are returned even when
/// other lines are broken, so `validate` can still check the rest.
pub fn parse(text: &str) -> (Vec<ParsedJob>, Vec<JobfileError>) {
    let mut jobs = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        match parse_line(line) {
            Ok(job) => jobs.push(ParsedJob { job, line: lineno }),
            Err(message) => errors.push(JobfileError {
                line: lineno,
                message,
            }),
        }
    }
    (jobs, errors)
}

fn parse_line(line: &str) -> Result<Job, String> {
    let mut tokens = line.split_whitespace();
    let name = tokens.next().ok_or("missing job name")?;
    let kind_tok = tokens.next().ok_or("missing collective kind")?;
    let kind = CollectiveKind::parse(kind_tok)
        .ok_or_else(|| format!("unknown collective `{kind_tok}`"))?;
    let mut n: Option<u64> = None;
    let mut job = Job::collective(name, kind, 0);
    for tok in tokens {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{tok}`"))?;
        match key {
            "n" => n = Some(value.parse().map_err(|_| format!("bad size `{value}`"))?),
            "procs" => {
                job = job.with_min_procs(value.parse().map_err(|_| format!("bad procs `{value}`"))?)
            }
            "seed" => {
                job = job.with_seed(value.parse().map_err(|_| format!("bad seed `{value}`"))?)
            }
            "after" => {
                let deps = value
                    .split(',')
                    .map(|d| {
                        d.parse()
                            .map(JobId)
                            .map_err(|_| format!("bad dependency id `{d}`"))
                    })
                    .collect::<Result<Vec<JobId>, String>>()?;
                job = job.after(&deps);
            }
            other => return Err(format!("unknown key `{other}`")),
        }
    }
    let n = n.ok_or("missing n=<words>")?;
    if let JobWork::Collective { n: slot, .. } = &mut job.work {
        *slot = n;
    }
    Ok(job)
}

/// Graph-level validation: unknown dependency ids, zero-word payloads,
/// and dependency cycles, each reported against the offending line.
/// The graph checks are [`hbsp_check::verify_dag`]'s — the ones the
/// scheduler runs before it admits anything — mapped to file lines.
pub fn validate(jobs: &[ParsedJob]) -> Vec<JobfileError> {
    let at = |id: usize, message: String| JobfileError {
        line: jobs.get(id).map_or(0, |pj| pj.line),
        message,
    };
    let name = |id: usize| jobs.get(id).map_or("", |pj| &*pj.job.name);
    let mut errors: Vec<JobfileError> = (jobs.iter().enumerate())
        .filter(|(_, pj)| matches!(pj.job.work, JobWork::Collective { n: 0, .. }))
        .map(|(id, pj)| {
            let msg = format!(
                "job {id} `{}`: zero-word payload (n=0 moves nothing)",
                pj.job.name
            );
            at(id, msg)
        })
        .collect();
    let edges: Vec<(usize, usize)> = (jobs.iter().enumerate())
        .flat_map(|(id, pj)| pj.job.blocked_by.iter().map(move |dep| (id, dep.0)))
        .collect();
    errors.extend(verify_dag(jobs.len(), &edges).into_iter().map(|v| match v {
        Violation::DependencyOutOfRange { job, dep, num_jobs } => at(
            job,
            format!(
                "job {job} `{}`: dependency on unknown job id {dep} (only {num_jobs} jobs)",
                name(job)
            ),
        ),
        Violation::SelfDependency { job } => {
            at(job, format!("job {job} `{}`: depends on itself", name(job)))
        }
        Violation::DependencyCycle { cycle } => {
            // Reported at the job whose edge closes the cycle.
            let last = cycle.last().copied().unwrap_or_default();
            let walk: Vec<String> = (cycle.iter().chain(cycle.first()))
                .map(|&j| format!("{j} `{}`", name(j)))
                .collect();
            at(last, format!("dependency cycle: {}", walk.join(" -> ")))
        }
        other => at(0, other.to_string()),
    }));
    errors.sort_by_key(|e| e.line);
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(errors: &[JobfileError]) -> Vec<usize> {
        errors.iter().map(|e| e.line).collect()
    }

    #[test]
    fn well_formed_file_parses_every_field() {
        let (jobs, errors) = parse(
            "# comment\n\
             a gather n=64\n\
             \n\
             b reduce n=32 procs=4 after=0 seed=9 # trailing\n",
        );
        assert!(errors.is_empty());
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].line, 2);
        assert_eq!(jobs[1].line, 4);
        assert_eq!(jobs[1].job.min_procs, 4);
        assert_eq!(jobs[1].job.seed, 9);
        assert_eq!(jobs[1].job.blocked_by, vec![JobId(0)]);
        assert!(validate(&jobs).is_empty());
    }

    #[test]
    fn every_malformed_line_is_reported() {
        let (jobs, errors) = parse(
            "a gather n=64\n\
             bad-kind frobnicate n=1\n\
             c scatter\n\
             d scan n=not-a-number\n",
        );
        assert_eq!(jobs.len(), 1);
        assert_eq!(ids(&errors), vec![2, 3, 4]);
        assert!(errors[0].message.contains("frobnicate"));
        assert!(errors[1].message.contains("missing n="));
        assert!(errors[2].message.contains("bad size"));
    }

    #[test]
    fn validate_flags_unknown_ids_zero_payloads_and_cycles() {
        let (jobs, errors) = parse(
            "a gather n=0\n\
             b reduce n=8 after=9\n\
             c scan n=8 after=3\n\
             d scatter n=8 after=2\n",
        );
        assert!(errors.is_empty());
        let diags = validate(&jobs);
        let msgs: Vec<&str> = diags.iter().map(|e| e.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("zero-word payload")));
        assert!(msgs.iter().any(|m| m.contains("unknown job id 9")));
        assert!(msgs.iter().any(|m| m.contains("dependency cycle")));
        // The cycle c(2) <-> d(3) names both participants.
        let cycle = msgs.iter().find(|m| m.contains("cycle")).unwrap();
        assert!(cycle.contains("`c`") && cycle.contains("`d`"), "{cycle}");
    }

    #[test]
    fn self_dependency_is_reported_without_a_cycle_walk() {
        let (jobs, errors) = parse("a gather n=4 after=0\n");
        assert!(errors.is_empty());
        let diags = validate(&jobs);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("depends on itself"));
    }
}
