//! Metric names, units and the printed result.
//!
//! The two lists below are the benchmark's contract: an untraced run
//! prints every end-to-end metric and a traced run every per-layer
//! metric, on every workload, each with its unit. `BENCHMARK.json` at
//! the repository root declares the same names and units.

use std::collections::BTreeMap;
use std::fmt::Write;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("job_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
    ("alloc_per_live", "ratio"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.tcp_echo_p50_us", "us"),
    ("rpc.ping_p50_us", "us"),
    ("rpc.ping_p90_us", "us"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("client.get_self_us", "us"),
    ("client.put_self_us", "us"),
    ("client.cache_hit_ratio", "ratio"),
    ("client.resolves_per_task", "count"),
    ("client.error_ratio", "ratio"),
    ("server.get_rtt_p50_us", "us"),
    ("server.put_rtt_p50_us", "us"),
    ("server.self_us", "us"),
    ("server.replicate_rtt_p50_us", "us"),
    ("server.fan_down_us", "us"),
    ("server.ops_per_call", "ratio"),
    ("server.window_replays", "count"),
    ("server.splits", "count"),
    ("server.merges", "count"),
    ("server.imports", "count"),
    ("block.get_ns", "ns"),
    ("block.put_ns", "ns"),
    ("block.append_ns", "ns"),
    ("block.enqueue_ns", "ns"),
    ("block.replay_record_ns", "ns"),
    ("controller.register_p50_us", "us"),
    ("controller.create_p50_us", "us"),
    ("controller.resolve_p50_us", "us"),
    ("controller.renew_p50_us", "us"),
    ("controller.remove_p50_us", "us"),
    ("controller.ops_per_task", "count"),
    ("controller.splits_per_round", "count"),
    ("controller.peak_blocks", "count"),
    ("controller.idle_blocks", "count"),
    ("persistent.journal_objects_per_task", "count"),
    ("persistent.journal_bytes_per_task", "B"),
    ("trace.overhead_pct", "%"),
    ("bench.job_self_us", "us"),
];

/// A name starts with a letter or digit and has at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit has 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Orders `values` as `spec` lists them, paired with their units.
///
/// # Errors
///
/// Names a metric of `spec` that has no value or whose value is not
/// finite, or a value that `spec` does not list.
pub fn select(
    spec: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if let Some(extra) = values.keys().find(|k| !spec.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    spec.iter()
        .map(|&(name, unit)| match values.get(name) {
            _ if !valid_name(name) || !valid_unit(unit) => {
                Err(format!("metric {name} in {unit} is not well formed"))
            }
            Some(v) if v.is_finite() => Ok((name, unit, *v)),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric's value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints an f64 with every digit needed to read it back, and
        // never in exponent form.
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("server.fan_down_us"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let file = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = file.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn select_orders_by_spec_and_rejects_gaps() {
        let spec = [("b", "s"), ("a", "us")];
        let mut values = BTreeMap::from([("a", 2.0), ("b", 1.0)]);
        assert_eq!(
            select(&spec, &values).unwrap(),
            vec![("b", "s", 1.0), ("a", "us", 2.0)]
        );
        values.insert("c", 3.0);
        assert!(select(&spec, &values).unwrap_err().contains("c"));
        values.remove("c");
        values.insert("a", f64::NAN);
        assert!(select(&spec, &values).unwrap_err().contains("NaN"));
        values.remove("a");
        assert!(select(&spec, &values).unwrap_err().contains("not measured"));
    }

    #[test]
    fn result_line_prints_every_digit_with_its_unit() {
        let line = result_line(true, 3, 1, &[("lat", "us", 12.0625), ("n", "count", 7.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"lat\": {\"value\": 12.0625, \"unit\": \"us\"}, \
             \"n\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        let tiny = result_line(false, 1, 0, &[("x", "s", 1e-7)]);
        assert!(tiny.contains("\"value\": 0.0000001,"), "{tiny}");
    }
}
