//! Metric names, run metadata, and everything that is printed.
//!
//! The metric tables here are the single definition `BENCHMARK.json` is
//! checked against (see the test at the bottom): a metric exists when it is
//! in one of them and every run prints all of its table.

use std::process::Command;

use super::preload::{filesystem_type, output_dir, target_dir};
use super::stats::{median, relative_spread, sorted, LatencySummary};
use super::workload::{Outcome, RunConfig, Workload};
use super::{Ctx, Res};

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median a gated metric may worsen by.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: [MetricSpec; 5] = [
    gated("setup_s", "s", true, 0.25),
    gated("throughput_ops_s", "ops/s", false, 0.25),
    gated("latency_mean_ms", "ms", true, 0.25),
    gated("restart_s", "s", true, 0.25),
    gated("peak_rss_mb", "MB", true, 0.10),
];

/// Single layers, measured from outside, plus the client-side numbers that
/// exist on some workloads only and are therefore informational. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [MetricSpec; 54] = [
    layer("client.write_mean_ms", "ms", true),
    layer("client.write_p50_ms", "ms", true),
    layer("client.write_p95_ms", "ms", true),
    layer("client.write_p99_ms", "ms", true),
    layer("client.write_samples", "count", false),
    layer("client.read_mean_ms", "ms", true),
    layer("client.read_p50_ms", "ms", true),
    layer("client.read_p95_ms", "ms", true),
    layer("client.read_p99_ms", "ms", true),
    layer("client.read_samples", "count", false),
    layer("client.notify_p50_ms", "ms", true),
    layer("client.notify_p95_ms", "ms", true),
    layer("client.notify_samples", "count", false),
    layer("client.import_rows_s", "rows/s", false),
    layer("client.wal_bytes_per_write", "bytes", true),
    layer("parser.parse_us", "us", true),
    layer("analysis.lint_us", "us", true),
    layer("core.read_point_us", "us", true),
    layer("core.read_2hop_us", "us", true),
    layer("core.read_scan_us", "us", true),
    layer("core.run_write_us", "us", true),
    layer("core.run_write_net_us", "us", true),
    layer("core.merge_same_rows_s", "rows/s", false),
    layer("core.merge_all_rows_s", "rows/s", false),
    layer("core.merge_legacy_rows_s", "rows/s", false),
    layer("graph.integrity_check_us", "us", true),
    layer("graph.publish_us", "us", true),
    layer("storage.apply_self_us", "us", true),
    layer("storage.flush_us", "us", true),
    layer("storage.flushes_per_write", "ratio", true),
    layer("storage.wal_bytes_per_write", "bytes", true),
    layer("storage.checkpoint_ms", "ms", true),
    layer("storage.recover_ms", "ms", true),
    layer("storage.snapshot_bytes_per_entity", "bytes", true),
    layer("server.wire_rtt_us", "us", true),
    layer("server.submit_write_us", "us", true),
    layer("server.snapshot_after_write_us", "us", true),
    layer("server.queue_len_max", "count", true),
    layer("server.busy_retries", "count", true),
    layer("replication.replicate_us_per_unit", "us", true),
    layer("replication.lag_units_max", "count", true),
    layer("replication.converge_ms", "ms", true),
    layer("ivm.register_ms", "ms", true),
    layer("ivm.maintained_us_per_stmt", "us", true),
    layer("ivm.fallback_us_per_stmt", "us", true),
    layer("ivm.fallbacks_per_stmt", "ratio", true),
    layer("ivm.delta_rows_per_stmt", "rows", true),
    layer("datagen.generate_s", "s", true),
    layer("bench.preload_s", "s", true),
    layer("trace.coverage_ratio", "ratio", false),
    layer("trace.overhead_ratio", "ratio", false),
    layer("trace.replayed_statements", "count", false),
    layer("trace.untraced_ops_s", "ops/s", false),
    layer("trace.traced_ops_s", "ops/s", false),
];

/// A run's metrics in table order.
pub type Metrics = Vec<(&'static str, f64)>;

pub fn end_to_end_metrics(o: &Outcome) -> Metrics {
    vec![
        ("setup_s", o.setup.total_s),
        ("throughput_ops_s", o.throughput_ops_s()),
        ("latency_mean_ms", o.headline().mean_ms),
        ("restart_s", o.restart_s),
        ("peak_rss_mb", o.peak_rss_mb),
    ]
}

// ---------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------

/// Where and how a run was taken; part of every output.
#[derive(Clone, Debug)]
pub struct Meta {
    pub workload: &'static str,
    pub git_commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub data_dir_fs: String,
    pub seed: u64,
    pub measured_s: f64,
    pub warmup_s: f64,
    pub setups: usize,
    pub graph: String,
    pub why: &'static str,
    pub traced: bool,
}

/// The server's durability policy, as configured by `ServerConfig::new`.
pub const FLUSH_POLICY: &str = "RealFs fsync; group commit, default policy: max_batch=32, \
     queue_depth=128, one fsync per batch on the pipelined flusher; acks after fsync \
     (and quorum where configured)";
pub const LOAD_SHAPE: &str = "closed loop, 2 connections, each waits for its reply";
pub const SANDBOX_NOTE: &str =
    "latencies are sandbox numbers: fsync may be cheap and reads come from the page cache";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

impl Meta {
    pub fn collect(w: Workload, cfg: &RunConfig, traced: bool) -> Meta {
        let c = w.preset(cfg.check).config();
        Meta {
            workload: w.name(),
            // The driver's checkout is not a git repository.
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            data_dir_fs: filesystem_type(&target_dir()),
            seed: cfg.seed,
            measured_s: cfg.seconds,
            warmup_s: cfg.warmup_s,
            setups: cfg.setups,
            graph: format!(
                "marketplace users={} vendors={} products={} orders={} offers={}",
                c.users, c.vendors, c.products, c.orders, c.offers
            ),
            why: w.why(),
            traced,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"git_commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \
             \"data_dir_fs\": \"{}\", \"flush_policy\": \"{}\", \"load_shape\": \"{}\", \
             \"seed\": {}, \"measured_s\": {}, \"warmup_s\": {}, \"setups\": {}, \
             \"graph\": \"{}\", \"traced\": {}, \"note\": \"{}\"}}",
            self.workload,
            json_escape(&self.git_commit),
            json_escape(&self.rustc),
            self.nproc,
            json_escape(&self.data_dir_fs),
            FLUSH_POLICY,
            LOAD_SHAPE,
            self.seed,
            self.measured_s,
            self.warmup_s,
            self.setups,
            self.graph,
            self.traced,
            SANDBOX_NOTE
        )
    }

    pub fn print(&self) {
        println!("== {} ==", self.workload);
        println!("  why: {}", self.why);
        println!(
            "  commit {}  {}  nproc {}  data dir on {}",
            self.git_commit, self.rustc, self.nproc, self.data_dir_fs
        );
        println!(
            "  seed {}  measured {} s after {} s warm-up  {} set-up(s)  traced: {}",
            self.seed, self.measured_s, self.warmup_s, self.setups, self.traced
        );
        println!("  graph: {}", self.graph);
        println!("  load: {LOAD_SHAPE}");
        println!("  flush policy: {FLUSH_POLICY}");
        println!("  note: {SANDBOX_NOTE}");
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

fn spec_of(table: &[MetricSpec], name: &str) -> Option<MetricSpec> {
    table.iter().copied().find(|m| m.name == name)
}

/// `name value unit` lines, one per metric.
pub fn print_metrics(table: &[MetricSpec], metrics: &Metrics) {
    for (name, value) in metrics {
        let unit = spec_of(table, name).map_or("", |m| m.unit);
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

fn print_latency(label: &str, l: &LatencySummary) {
    if l.samples == 0 {
        println!("  {label:<8} —");
        return;
    }
    println!(
        "  {label:<8} n={:<7} mean {:.4} ms  p50 {:.4} ms  p95 {} ms  p99 {:.4} ms  max {:.4} ms",
        l.samples,
        l.mean_ms,
        l.p50_ms,
        l.p95_text(),
        l.p99_ms,
        l.max_ms
    );
}

/// The human-readable part of an untraced run.
pub fn print_outcome(o: &Outcome) {
    println!(
        "  graph {} nodes / {} rels; {} statements attempted, {} failed, {} busy retries",
        o.nodes, o.rels, o.window.attempted, o.window.failed, o.window.busy_retries
    );
    print_latency("write", &o.window.write);
    print_latency("read", &o.window.read);
    print_latency("notify", &o.window.notify);
    if o.window.import_rows_s > 0.0 {
        println!("  import   {:.1} rows/s", o.window.import_rows_s);
    }
    if o.converge_ms > 0.0 {
        println!(
            "  replica converged {:.3} ms after the last ack",
            o.converge_ms
        );
    }
    println!("  end-to-end metrics:");
    print_metrics(&END_TO_END, &end_to_end_metrics(o));
    for v in &o.validated {
        println!("  validated: {v}");
    }
}

/// The result line of the benchmark contract: the last line of stdout.
pub fn result_line(attempted: u64, failed: u64, table: &[MetricSpec], metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec_of(table, name).map_or("", |m| m.unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Read a [`result_line`] back: the metrics of `table` it carries, in table
/// order. `run` and `stability` take each measurement in a child process
/// (so that `peak_rss_mb` is that run's alone) and read its last line.
pub fn parse_result_line(line: &str, table: &[MetricSpec]) -> Res<Metrics> {
    if !line.starts_with("{\"correct\": true") {
        return Err(format!("not a result line: `{line}`"));
    }
    table
        .iter()
        .map(|spec| {
            let key = format!("\"{}\": {{\"value\": ", spec.name);
            let rest = line
                .split_once(&key)
                .ok_or_else(|| format!("result line lacks {}", spec.name))?
                .1;
            let number = rest.split([',', '}']).next().unwrap_or("");
            let value = number
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("{}: `{number}` is not a number", spec.name))?;
            Ok((spec.name, value))
        })
        .collect()
}

/// Every digit measured; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Keep a run's raw result next to its trace: `<target>/bench/<name>.json`.
pub fn write_result(meta: &Meta, suffix: &str, line: &str) -> Res<()> {
    let path = output_dir()?.join(format!("{}.{suffix}.json", meta.workload));
    let text = format!("{{\"meta\": {},\n\"result\": {line}}}\n", meta.json());
    std::fs::write(path, text).ctx("write result file")
}

// ---------------------------------------------------------------------
// Stability and spread
// ---------------------------------------------------------------------

/// One `metric × workload` row of a run-to-run comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct StabilityRow {
    pub workload: &'static str,
    pub metric: &'static str,
    pub values: Vec<f64>,
    /// How far the runs are apart, as a share of their median.
    pub difference: f64,
    pub bound: f64,
}

impl StabilityRow {
    pub fn within_bound(&self) -> bool {
        self.difference <= self.bound
    }
}

fn compare(
    workload: &'static str,
    runs: &[Metrics],
    apart: fn(&[f64]) -> Option<f64>,
) -> Vec<StabilityRow> {
    END_TO_END
        .iter()
        .filter_map(|spec| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|m| m.iter().find(|(n, _)| *n == spec.name).map(|(_, v)| *v))
                .collect();
            Some(StabilityRow {
                workload,
                metric: spec.name,
                difference: apart(&values)?,
                values,
                bound: spec.bound?,
            })
        })
        .collect()
}

fn range_over_median(values: &[f64]) -> Option<f64> {
    let v = sorted(values.to_vec());
    let mid = median(&v)?;
    (mid != 0.0).then(|| (v.last().unwrap_or(&mid) - v.first().unwrap_or(&mid)) / mid.abs())
}

/// `stability`: whole sets on one build and one seed. For two sets the
/// difference is their relative difference; for more, the full range over
/// the median.
pub fn stability_rows(workload: &'static str, sets: &[Metrics]) -> Vec<StabilityRow> {
    compare(workload, sets, range_over_median)
}

/// `spread`: runs over different seeds; the distance between the first and
/// third quartile as a share of the median — the acceptance rule of the
/// benchmark contract, which wants it under a third of the bound.
pub fn spread_rows(workload: &'static str, runs: &[Metrics]) -> Vec<StabilityRow> {
    compare(workload, runs, relative_spread)
}

fn print_rows(rows: &[StabilityRow], exempt: &[&str]) -> bool {
    println!(
        "{:<18} {:<20} {:>12} {:>8}  values",
        "workload", "metric", "apart", "bound"
    );
    let mut ok = true;
    for r in rows {
        let verdict = if r.within_bound() {
            if r.difference * 3.0 <= r.bound {
                "ok"
            } else {
                "ok (over a third of the bound)"
            }
        } else if exempt.contains(&r.metric) {
            "exceeds (not gated)"
        } else {
            ok = false;
            "EXCEEDS"
        };
        let values: Vec<String> = r.values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{:<18} {:<20} {:>11.2}% {:>7.0}%  {}  {verdict}",
            r.workload,
            r.metric,
            r.difference * 100.0,
            r.bound * 100.0,
            values.join(" ")
        );
    }
    ok
}

pub fn print_stability(rows: &[StabilityRow]) -> bool {
    print_rows(rows, &[])
}

/// The spread of `setup_s` over seeds is reported but not gated: a set-up
/// is a fraction of a second and its median of three still moves.
pub fn print_spread(rows: &[StabilityRow]) -> bool {
    print_rows(rows, &["setup_s"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics the
    /// harness emits, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let flat: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for w in Workload::ALL {
            assert!(
                flat.contains(&format!("{{\"name\": \"{}\", \"why\": \"", w.name())),
                "workload {} missing",
                w.name()
            );
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(flat.contains(&format!("\"why\": \"{}\"", w.why())));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            let mut entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                m.name, m.unit
            );
            if let Some(b) = m.bound {
                entry.push_str(&format!(", \"bound\": {b}"));
            }
            entry.push('}');
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = flat.matches("{\"name\": ").count();
        assert_eq!(
            names,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let line = result_line(
            12,
            0,
            &END_TO_END,
            &vec![("setup_s", 0.5125), ("latency_mean_ms", f64::NAN)],
        );
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5125, \"unit\": \"s\"}"));
        assert!(line.contains("\"latency_mean_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
    }

    #[test]
    fn a_result_line_reads_back_as_the_metrics_it_was_made_from() {
        let metrics: Metrics = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64 * 1e-7))
            .collect();
        let line = result_line(3, 0, &END_TO_END, &metrics);
        assert_eq!(parse_result_line(&line, &END_TO_END), Ok(metrics));
        assert!(parse_result_line(&line, &PER_LAYER).is_err());
        assert!(parse_result_line("perfbench: failed", &END_TO_END).is_err());
    }

    #[test]
    fn stability_compares_each_gated_metric_against_its_bound() {
        let a: Metrics = vec![("setup_s", 1.0), ("throughput_ops_s", 100.0)];
        let b: Metrics = vec![("setup_s", 1.1), ("throughput_ops_s", 140.0)];
        let rows = stability_rows("w", &[a, b]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].within_bound(), "{:?}", rows[0]);
        assert!(!rows[1].within_bound(), "{:?}", rows[1]);
        assert!(!print_stability(&rows));
    }

    #[test]
    fn spread_is_the_interquartile_distance_over_the_median() {
        let runs: Vec<Metrics> = (1..=10)
            .map(|i| vec![("restart_s", f64::from(i))])
            .collect();
        let rows = spread_rows("w", &runs);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].difference - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].bound, 0.25);
    }
}
