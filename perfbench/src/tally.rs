//! What one load thread did during the timed phase.

use std::fmt::Display;
use std::time::Instant;

use crate::stats::us;
use crate::trace::{self, timed};

/// Which end-to-end latency a call counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    /// Counted as a call but in neither latency.
    Other,
}

/// One latency sample, and whether spans were being recorded while it
/// was taken.
#[derive(Debug, Clone, Copy)]
pub struct Lat {
    pub us: f64,
    pub traced: bool,
    /// When the call ended.
    pub at: Instant,
}

/// Messages kept per kind of problem; the rest are only counted.
const KEEP: usize = 5;

#[derive(Debug, Default)]
pub struct Tally {
    pub reads: Vec<Lat>,
    pub writes: Vec<Lat>,
    /// One sample per DAG task (`dag_tasks` only).
    pub tasks: Vec<Lat>,
    /// One sample per job, with the payload bytes it moved.
    pub jobs: Vec<(Lat, u64)>,
    /// When each client call ended.
    pub done: Vec<Instant>,
    /// Client calls attempted, and how many returned `Err`.
    pub calls: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Failed correctness checks.
    pub violations: u64,
    pub violation_notes: Vec<String>,
}

impl Tally {
    /// Times one client call, counts it, and keeps its latency under
    /// `class`. A call that returns `Err` is counted as failed and the
    /// run goes on.
    pub fn call<R, E: Display>(
        &mut self,
        name: &'static str,
        class: Class,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Option<R> {
        let traced = trace::enabled();
        let (out, d) = timed(name, f);
        let at = Instant::now();
        self.done.push(at);
        let lat = Lat {
            us: us(d),
            traced,
            at,
        };
        match class {
            Class::Read => self.reads.push(lat),
            Class::Write => self.writes.push(lat),
            Class::Other => {}
        }
        self.calls += 1;
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < KEEP {
                    self.errors.push(format!("{name} #{}: {e}", self.calls));
                }
                None
            }
        }
    }

    /// Times one job, traced entirely or not at all; `f` returns the
    /// payload bytes the job moved.
    pub fn job(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> u64) {
        trace::whole(|| {
            let traced = trace::enabled();
            let (bytes, d) = timed(name, || f(self));
            let at = Instant::now();
            self.jobs.push((
                Lat {
                    us: us(d),
                    traced,
                    at,
                },
                bytes,
            ));
        });
    }

    /// Times one DAG task.
    pub fn task(&mut self, name: &'static str, f: impl FnOnce(&mut Self)) {
        let traced = trace::enabled();
        let ((), d) = timed(name, || f(self));
        let at = Instant::now();
        self.tasks.push(Lat {
            us: us(d),
            traced,
            at,
        });
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, note: impl FnOnce() -> String) {
        self.violations += 1;
        if self.violation_notes.len() < KEEP {
            self.violation_notes.push(note());
        }
    }

    /// Checks `ok`, recording a violation described by `note` if false.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.violation(note);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.tasks.extend(other.tasks);
        self.jobs.extend(other.jobs);
        self.done.extend(other.done);
        self.calls += other.calls;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(KEEP);
        self.violations += other.violations;
        self.violation_notes.extend(other.violation_notes);
        self.violation_notes.truncate(KEEP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_calls_are_counted_and_timed() {
        let mut t = Tally::default();
        assert_eq!(t.call("ok", Class::Read, || Ok::<_, String>(3)), Some(3));
        assert_eq!(t.call("bad", Class::Write, || Err::<(), _>("boom")), None);
        t.call("other", Class::Other, || Ok::<_, String>(()));
        assert_eq!((t.calls, t.failed), (3, 1));
        assert_eq!((t.reads.len(), t.writes.len()), (1, 1));
        assert_eq!(t.errors, vec!["bad #2: boom".to_string()]);
    }

    #[test]
    fn jobs_keep_their_bytes_and_checks_their_notes() {
        let mut t = Tally::default();
        t.job("j", |t| {
            t.check(1 + 1 == 2, || unreachable!());
            t.check(false, || "mismatch".into());
            42
        });
        assert_eq!(t.jobs.len(), 1);
        assert_eq!(t.jobs[0].1, 42);
        assert_eq!((t.violations, t.violation_notes.len()), (1, 1));
    }
}
