//! Seeded benchmark of a Jiffy cluster: a one-shard controller and two
//! memory servers over TCP loopback, in this process, driven by one of
//! four workloads. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <kv_state|kv_ingest|shuffle|dag_tasks> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric when untraced, every per-layer metric when traced. The exit
//! code is 1 when a correctness check failed and 2 when the run could
//! not be made.

mod env;
mod probes;
mod report;
mod stats;
mod tally;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use env::{Counters, Env};
use jiffy_sync::atomic::{AtomicBool, Ordering};
use stats::{median, percentile};
use tally::Lat;
use trace::Span;
use workloads::{Outcome, Primary, Stop, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Loopback round trips before the first set-up (see [`env::warm_host`]).
const HOST_WARM_UP: Duration = Duration::from_secs(2);
/// Stretches of the timed phase in a traced run, alternately untraced
/// and traced, for the tracing-overhead estimate.
const TRACE_SLICES: u32 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|s| (1..=600).contains(s))
                            .ok_or_else(|| bad("1 to 600"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(20),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one measurement; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    let mut w = workloads::by_name(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let shape = w.shape();

    // The host anchor is measured once after every set-up, so its
    // samples span several clusters, each with its threads placed anew.
    let (mut setups, mut echo, mut ping) = (Vec::new(), Vec::new(), Vec::new());
    let mut env = None;
    env::warm_host(HOST_WARM_UP);
    for _ in 0..SETUPS {
        drop(env.take());
        let start = Instant::now();
        let e = Env::boot(shape)?;
        w.prepare(&e)?;
        w.warm_up(&e);
        setups.push(start.elapsed().as_secs_f64());
        trace::set_enabled(args.trace);
        echo.extend(env::tcp_echo_us());
        ping.extend(env::ping_us(&e));
        trace::set_enabled(false);
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let echo_p50 = percentile(&mut echo, 50.0).expect("echo samples");
    let ping_p50 = percentile(&mut ping, 50.0).expect("ping samples");

    let before = env.counters(&w.clients());
    let started = Instant::now();
    let outcome = timed_phase(w.as_ref(), &env, args)?;
    let delta = env.counters(&w.clients()).since(&before);

    let t = &outcome.tally;
    eprintln!(
        "{}: seed {}, {} jobs, {} calls, {} failed, {} checks failed, set-ups {:?} s",
        args.workload, args.seed, outcome.jobs, t.calls, t.failed, t.violations, setups
    );
    for line in outcome
        .notes
        .iter()
        .chain(&t.errors)
        .chain(&t.violation_notes)
    {
        eprintln!("  {line}");
    }

    let mut values = BTreeMap::new();
    if args.trace {
        trace::set_enabled(true);
        probes::data_plane(&env)?;
        probes::replication(shape)?;
        probes::control_plane(&env)?;
        let codec_reps = probes::codec(&w.envelope())?;
        probes::blocks(shape)?;
        trace::set_enabled(false);
        let spans = trace::take_all();
        let path =
            Path::new("perfbench/out").join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        trace::write_tsv(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("  {} spans in {}", spans.len(), path.display());
        let reps = Reps {
            codec: codec_reps,
            block: probes::block_reps(shape),
        };
        per_layer(&mut values, &spans, &outcome, &delta, w.primary(), reps);
        values.insert("host.tcp_echo_p50_us", echo_p50);
        values.insert("rpc.ping_p50_us", ping_p50);
        values.insert(
            "rpc.ping_p90_us",
            percentile(&mut ping, 90.0).expect("ping"),
        );
    } else {
        end_to_end(
            &mut values,
            &outcome,
            started,
            median(&mut setups).expect("set-ups"),
        );
        // The host anchor carries no bound: on a virtual machine its
        // wake-up latency can halve or double between runs. It is
        // printed for the record only.
        println!("{:<38} {echo_p50:>16.4} us", "host.tcp_echo_p50_us");
        println!("{:<38} {ping_p50:>16.4} us", "rpc.ping_p50_us");
    }
    let spec = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let metrics = report::select(spec, &values)?;
    for (name, unit, value) in &metrics {
        println!("{name:<38} {value:>16.4} {unit}");
    }
    let correct = t.violations == 0;
    println!(
        "{}",
        report::result_line(correct, t.calls, t.failed, &metrics)
    );
    Ok(correct)
}

/// Runs the workload until `--seconds` have passed. In a traced run a
/// timer thread switches span recording off and on in equal stretches.
fn timed_phase(w: &dyn Workload, env: &Env, args: &Args) -> Result<Outcome, String> {
    let seconds = Duration::from_secs(args.seconds);
    let until = Instant::now() + seconds;
    let done = AtomicBool::new(false);
    let outcome = std::thread::scope(|s| {
        if args.trace {
            s.spawn(|| {
                let slice = seconds / TRACE_SLICES;
                let mut next = Instant::now() + slice;
                let mut on = false;
                while !done.load(Ordering::Relaxed) {
                    if Instant::now() >= next {
                        on = !on;
                        trace::set_enabled(on);
                        next += slice;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        let outcome = w.run(env, Stop::At(until));
        done.store(true, Ordering::Relaxed);
        outcome
    });
    if outcome.tally.calls == 0 {
        return Err("the timed phase made no calls".into());
    }
    Ok(outcome)
}

/// Every time metric is first taken per second of the timed phase, and
/// the median of the per-second figures is reported. On a shared virtual
/// machine the host's speed swings by a fifth from one second to the
/// next; the median over many seconds averages the swings out, and a
/// slow stretch moves it only as far as the share of seconds it covers.
const WINDOW: Duration = Duration::from_secs(1);
/// Fewest calls, and fewest jobs, for a second to count.
const WINDOW_CALLS: usize = 20;
const WINDOW_JOBS: usize = 3;

fn end_to_end(
    values: &mut BTreeMap<&'static str, f64>,
    o: &Outcome,
    started: Instant,
    setup_s: f64,
) {
    let t = &o.tally;
    let nan = f64::NAN;
    let per_second = |samples: Vec<(Instant, f64)>, min: usize, p: f64| {
        stats::windowed(&samples, started, WINDOW, min, 50.0, |v| percentile(v, p)).unwrap_or(nan)
    };
    let calls = |lats: &[Lat]| lats.iter().map(|l| (l.at, l.us)).collect::<Vec<_>>();
    let jobs = t.jobs.iter().map(|(l, _)| (l.at, l.us / 1e3)).collect();
    // Bytes per microsecond are megabytes per second.
    let rates = t
        .jobs
        .iter()
        .map(|(l, bytes)| (l.at, *bytes as f64 / l.us))
        .collect();
    values.insert("setup_s", setup_s);
    values.insert(
        "read_p50_us",
        per_second(calls(&t.reads), WINDOW_CALLS, 50.0),
    );
    values.insert(
        "read_p90_us",
        per_second(calls(&t.reads), WINDOW_CALLS, 90.0),
    );
    values.insert(
        "write_p50_us",
        per_second(calls(&t.writes), WINDOW_CALLS, 50.0),
    );
    values.insert(
        "write_p90_us",
        per_second(calls(&t.writes), WINDOW_CALLS, 90.0),
    );
    values.insert("job_p50_ms", per_second(jobs, WINDOW_JOBS, 50.0));
    // A second holds a fair sample of the call mix only when jobs are
    // shorter than it; otherwise the rate is taken over the whole run.
    let typical_job = median(&mut t.jobs.iter().map(|(l, _)| l.us).collect::<Vec<_>>());
    let ops_per_s = if typical_job.is_some_and(|us| us * 1e-6 < WINDOW.as_secs_f64()) {
        stats::windowed_rate(&t.done, started, started + o.elapsed, WINDOW, 50.0)
    } else {
        t.calls as f64 / o.elapsed.as_secs_f64()
    };
    values.insert("ops_per_s", ops_per_s);
    values.insert("mb_per_s", per_second(rates, WINDOW_JOBS, 50.0));
    values.insert("alloc_per_live", o.alloc_per_live);
}

fn p50_of(spans: &[Span], name: &str) -> f64 {
    percentile(&mut trace::durations_us(spans, name), 50.0).unwrap_or(f64::NAN)
}

/// Median nanoseconds per operation of spans that each cover `reps`.
fn ns_per_op(spans: &[Span], name: &str, reps: usize) -> f64 {
    p50_of(spans, name) * 1e3 / reps as f64
}

fn per_layer(
    values: &mut BTreeMap<&'static str, f64>,
    spans: &[Span],
    o: &Outcome,
    d: &Counters,
    primary: Primary,
    reps: Reps,
) {
    let t = &o.tally;
    let ratio = |n: u64, of: u64| n as f64 / of.max(1) as f64;
    let ping = p50_of(spans, "raw.ping");
    let raw_get = p50_of(spans, "raw.get");
    let raw_put = p50_of(spans, "raw.put");
    let replicate = p50_of(spans, "raw.replicate");
    values.insert(
        "client.get_self_us",
        p50_of(spans, "probe.client_get") - raw_get,
    );
    values.insert(
        "client.put_self_us",
        p50_of(spans, "probe.client_put") - p50_of(spans, "raw.put_same"),
    );
    // With no metadata lookups at all, none missed.
    let lookups = d.cache_hits + d.cache_misses;
    values.insert(
        "client.cache_hit_ratio",
        if lookups == 0 {
            1.0
        } else {
            ratio(d.cache_hits, lookups)
        },
    );
    values.insert("client.resolves_per_task", ratio(d.resolves, o.tasks));
    values.insert("client.error_ratio", ratio(t.failed, t.calls));
    values.insert("server.get_rtt_p50_us", raw_get);
    values.insert("server.put_rtt_p50_us", raw_put);
    values.insert("server.self_us", raw_get - ping);
    values.insert("server.replicate_rtt_p50_us", replicate);
    values.insert(
        "server.fan_down_us",
        replicate - p50_of(spans, "raw.put_head"),
    );
    values.insert("server.ops_per_call", ratio(d.server_ops, t.calls));
    values.insert("server.window_replays", ratio(d.window_replays, o.jobs));
    values.insert("server.splits", ratio(d.server_splits, o.jobs));
    values.insert("server.merges", ratio(d.server_merges, o.jobs));
    values.insert("server.imports", ratio(d.server_imports, o.jobs));
    for (metric, span) in [
        ("block.get_ns", "block.get"),
        ("block.put_ns", "block.put"),
        ("block.append_ns", "block.append"),
        ("block.enqueue_ns", "block.enqueue"),
        ("block.replay_record_ns", "block.replay_record"),
    ] {
        values.insert(metric, ns_per_op(spans, span, reps.block));
    }
    values.insert(
        "proto.encode_ns",
        ns_per_op(spans, "proto.encode", reps.codec),
    );
    values.insert(
        "proto.decode_ns",
        ns_per_op(spans, "proto.decode", reps.codec),
    );
    for (metric, span) in [
        ("controller.register_p50_us", "controller.register"),
        ("controller.create_p50_us", "controller.create"),
        ("controller.resolve_p50_us", "controller.resolve"),
        ("controller.renew_p50_us", "controller.renew"),
        ("controller.remove_p50_us", "controller.remove"),
    ] {
        values.insert(metric, p50_of(spans, span));
    }
    values.insert("controller.ops_per_task", ratio(d.control_ops, o.tasks));
    values.insert(
        "controller.splits_per_round",
        ratio(d.control_splits, o.jobs),
    );
    values.insert("controller.peak_blocks", o.peak_blocks as f64);
    values.insert("controller.idle_blocks", o.idle_blocks);
    values.insert(
        "persistent.journal_objects_per_task",
        ratio(d.journal_objects, o.tasks),
    );
    values.insert(
        "persistent.journal_bytes_per_task",
        ratio(d.journal_bytes, o.tasks),
    );
    values.insert("trace.overhead_pct", overhead_pct(t, primary));
    let self_ns = trace::self_times(spans);
    let mut job_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == 0 && JOB_SPANS.contains(&s.name))
        .map(|s| self_ns[&s.id] as f64 / 1e3)
        .collect();
    values.insert(
        "bench.job_self_us",
        median(&mut job_self).unwrap_or(f64::NAN),
    );
}

/// Operations covered by each span of the in-process probes.
struct Reps {
    codec: usize,
    block: usize,
}

/// Names of the spans around one job of each workload.
const JOB_SPANS: &[&str] = &[
    "kv_state.round",
    "kv_ingest.cycle",
    "shuffle.round",
    "dag.job",
];

/// How much slower the primary latency's median was while spans were
/// recorded than while they were not, in percent.
fn overhead_pct(t: &tally::Tally, primary: Primary) -> f64 {
    let lats: &[Lat] = match primary {
        Primary::Reads => &t.reads,
        Primary::Writes => &t.writes,
        Primary::Tasks => &t.tasks,
    };
    let split = |traced: bool| -> Vec<f64> {
        lats.iter()
            .filter(|l| l.traced == traced)
            .map(|l| l.us)
            .collect()
    };
    let on = median(&mut split(true)).unwrap_or(f64::NAN);
    let off = median(&mut split(false)).unwrap_or(f64::NAN);
    (on - off) / off * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse("--workload shuffle --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("shuffle", 7, 3, true)
        );
        let a = parse("--workload kv_state").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, 20, false));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "",
            "--seed 1",
            "--workload x --seed -1",
            "--workload x --seconds 0",
            "--workload x --trace 2",
            "--workload x --bogus 1",
            "--workload",
        ] {
            assert!(parse(line).is_err(), "{line:?} was accepted");
        }
    }
}
