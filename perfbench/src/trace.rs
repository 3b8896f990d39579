//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Recording is off unless [`set_enabled`] turns it on, and then each
//! [`timed`] call keeps one span: a name, start and end relative to the
//! process's first span, and the span that was open on the same thread
//! when it started. A thread inside [`whole`] keeps the setting it had
//! on entry, so a job is traced entirely or not at all. Spans stay in
//! per-thread buffers until [`flush`] and are written out once, when the
//! run ends.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

use jiffy_sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use jiffy_sync::Mutex;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// The instant span times count from, set by the first call that needs
/// it; each thread copies it once.
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    *EPOCH.lock().get_or_insert_with(Instant::now)
}

struct Local {
    thread: u32,
    epoch: Instant,
    open: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static LATCH: Cell<Option<bool>> = const { Cell::new(None) };
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        epoch: epoch(),
        open: Vec::new(),
        spans: Vec::new(),
    });
}

/// Turns span recording on or off for calls that start afterwards.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    LATCH
        .get()
        .unwrap_or_else(|| ENABLED.load(Ordering::Relaxed))
}

/// Runs `f` with recording on this thread fixed as it is on entry.
pub fn whole<R>(f: impl FnOnce() -> R) -> R {
    let outer = LATCH.get();
    LATCH.set(Some(enabled()));
    let out = f();
    LATCH.set(outer);
    out
}

/// Runs `f`, returning its result and how long it took, and records a
/// span named `name` around it when recording is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    if !enabled() {
        let start = Instant::now();
        let out = f();
        return (out, start.elapsed());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        let since = |t: Instant| t.saturating_duration_since(l.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            thread: l.thread,
            name,
            start_ns: since(start),
            end_ns: since(end),
        };
        l.spans.push(span);
    });
    (out, end - start)
}

/// Hands this thread's recorded spans to the process-wide collection.
/// Every thread that records calls this before it ends.
pub fn flush() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    SINK.lock().extend(spans);
}

/// Every span flushed so far, in start order, leaving none behind.
pub fn take_all() -> Vec<Span> {
    flush();
    let mut all = std::mem::take(&mut *SINK.lock());
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Durations in microseconds of the spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Writes `spans` as tab-separated lines with a header.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tthread\tname\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.thread,
            s.name,
            s.start_ns,
            s.dur_ns()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            thread: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..50 once.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A disjoint child.
            span(4, 1, 70, 80),
            // A grandchild counts against its own parent only.
            span(5, 2, 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30 - 5);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&5], 5);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let st = self_times(&[span(1, 0, 10, 20), span(2, 1, 5, 15)]);
        assert_eq!(st[&1], 5);
    }

    #[test]
    fn nested_timed_calls_link_parent_and_child() {
        set_enabled(true);
        let ((), _) = timed("outer", || {
            let (x, d) = timed("inner", || 7);
            assert_eq!(x, 7);
            assert!(d <= Duration::from_secs(1));
        });
        set_enabled(false);
        let ((), _) = timed("untraced", || ());
        set_enabled(true);
        let ((), _) = whole(|| {
            set_enabled(false);
            timed("latched", || ())
        });
        let spans: Vec<Span> = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["inner", "outer", "latched"]);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
