//! `perfbench` — the repository's benchmark.
//!
//! Driver form (the `command` of `BENCHMARK.json`, run from the root of a
//! checkout):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit and, as the last line of
//! stdout, one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A run whose outputs fail validation prints no result and
//! exits non-zero.
//!
//! For people — each measurement below is one driver-form run in a child
//! process, so it is taken exactly as the driver takes it:
//!
//! ```text
//! perfbench run --all [--seed N] [--seconds S] [--trace]
//! perfbench run --workload <name> [--seed N] [--seconds S] [--trace]
//! perfbench run --check            # tiny graphs, every workload and validator
//! perfbench stability --sets 2 [--seed N] [--seconds S]
//! perfbench spread --runs 10 [--seed N] [--seconds S]
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod harness;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use harness::report::{
    self, end_to_end_metrics, parse_result_line, print_spread, print_stability, spread_rows,
    stability_rows, Meta, Metrics, END_TO_END, PER_LAYER,
};
use harness::workload::{self, RunConfig, Workload};
use harness::{layers, Ctx, Res};

/// `run_seconds` of `BENCHMARK.json`; `run`, `stability` and `spread`
/// default to it.
const DEFAULT_SECONDS: f64 = 10.0;
const WARMUP_S: f64 = 1.0;
/// Full set-ups and restart measurements per run; `setup_s` and
/// `restart_s` are their medians.
const SETUPS: usize = 3;
const RESTARTS: usize = 5;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    all: bool,
    check: bool,
    trace: bool,
    seed: u64,
    seconds: f64,
    sets: usize,
    runs: usize,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        command: None,
        workload: None,
        all: false,
        check: false,
        trace: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        sets: 2,
        runs: 10,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_some_and(|first| !first.starts_with("--")) {
        args.command = it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = parse_num(&value("an integer")?)?,
            "--seconds" => args.seconds = parse_num(&value("a duration in seconds")?)?,
            "--sets" => args.sets = parse_num(&value("a count")?)?,
            "--runs" => args.runs = parse_num(&value("a count")?)?,
            "--all" => args.all = true,
            "--check" => args.check = true,
            // The driver passes `--trace 0|1`; people pass a bare flag.
            "--trace" => match it.peek().map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    args.trace = v == "1";
                    it.next();
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Res<T> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn config(args: &Args) -> RunConfig {
    if args.check {
        RunConfig {
            seed: args.seed,
            seconds: 0.4,
            warmup_s: 0.1,
            check: true,
            setups: 1,
            restarts: 1,
        }
    } else {
        RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            warmup_s: WARMUP_S,
            check: false,
            setups: SETUPS,
            restarts: RESTARTS,
        }
    }
}

fn named(name: &str) -> Res<Workload> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })
}

/// The driver form: one workload, measured in this process; the result
/// line comes last.
fn measure(w: Workload, cfg: &RunConfig, trace: bool) -> Res<()> {
    let meta = Meta::collect(w, cfg, trace);
    meta.print();
    let line = if trace {
        let traced = layers::run(w, cfg, &meta)?;
        println!("  per-layer metrics (0 = this workload does not exercise the layer):");
        report::print_metrics(&PER_LAYER, &traced.metrics);
        println!("  trace: {}", traced.trace_file.display());
        report::result_line(traced.attempted, traced.failed, &PER_LAYER, &traced.metrics)
    } else {
        let outcome = workload::run(w, cfg)?;
        report::print_outcome(&outcome);
        report::result_line(
            outcome.window.attempted,
            outcome.window.failed,
            &END_TO_END,
            &end_to_end_metrics(&outcome),
        )
    };
    report::write_result(&meta, if trace { "layers" } else { "result" }, &line)?;
    println!("{line}");
    Ok(())
}

/// Take one measurement in a child process — a fresh address space, so
/// that `peak_rss_mb` is this run's alone — echoing what it prints.
fn measure_in_child(w: Workload, args: &Args, seed: u64, trace: bool) -> Res<Metrics> {
    let exe = std::env::current_exe().ctx("locate own executable")?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.check {
        cmd.arg("--check");
    }
    let mut child = cmd.spawn().ctx("start a measurement")?;
    let mut last = String::new();
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines() {
            let line = line.ctx("read a measurement's output")?;
            if !line.starts_with("{\"correct\"") {
                println!("{line}");
            }
            last = line;
        }
    }
    let status = child.wait().ctx("wait for a measurement")?;
    if !status.success() {
        return Err(format!("{}: measurement failed ({status})", w.name()));
    }
    parse_result_line(&last, if trace { &PER_LAYER } else { &END_TO_END })
}

fn main_inner() -> Res<()> {
    let args = parse_args()?;
    let cfg = config(&args);
    match args.command.as_deref() {
        None => {
            let name = args
                .workload
                .as_deref()
                .ok_or("--workload <name> is required (or use `run`, `stability`, `spread`)")?;
            measure(named(name)?, &cfg, args.trace)
        }
        Some("run") => {
            let workloads: Vec<Workload> = match &args.workload {
                Some(name) => vec![named(name)?],
                None if args.all || args.check => Workload::ALL.to_vec(),
                None => return Err("run needs --all, --check or --workload <name>".to_owned()),
            };
            let mut taken: Vec<(Workload, Metrics, Option<Metrics>)> = Vec::new();
            for w in workloads {
                let e2e = measure_in_child(w, &args, args.seed, false)?;
                let layers = if args.trace || args.check {
                    Some(measure_in_child(w, &args, args.seed, true)?)
                } else {
                    None
                };
                taken.push((w, e2e, layers));
                println!();
            }
            print_scale(&taken);
            if args.check {
                println!("check: every workload ran and every validator passed");
            }
            Ok(())
        }
        Some("stability") => {
            let taken = passes(&args, args.sets.max(2), |_| args.seed)?;
            let rows: Vec<_> = taken
                .iter()
                .flat_map(|(w, runs)| stability_rows(w.name(), runs))
                .collect();
            if print_stability(&rows) {
                Ok(())
            } else {
                Err("a gated metric differs between sets by more than its bound".to_owned())
            }
        }
        Some("spread") => {
            let taken = passes(&args, args.runs.max(2), |pass| args.seed + pass as u64)?;
            let rows: Vec<_> = taken
                .iter()
                .flat_map(|(w, runs)| spread_rows(w.name(), runs))
                .collect();
            if print_spread(&rows) {
                Ok(())
            } else {
                Err("a gated metric spreads over seeds by more than its bound".to_owned())
            }
        }
        Some(other) => Err(format!(
            "unknown command `{other}` (run, stability, spread)"
        )),
    }
}

/// Measure the whole set of workloads `n` times, pass `i` under
/// `seed_of(i)`; per workload, its end-to-end metrics pass by pass.
fn passes(
    args: &Args,
    n: usize,
    seed_of: impl Fn(usize) -> u64,
) -> Res<Vec<(Workload, Vec<Metrics>)>> {
    let mut taken: Vec<(Workload, Vec<Metrics>)> =
        Workload::ALL.iter().map(|w| (*w, Vec::new())).collect();
    for pass in 0..n {
        for (w, runs) in &mut taken {
            println!("-- pass {} of {n}: {} --", pass + 1, w.name());
            runs.push(measure_in_child(*w, args, seed_of(pass), false)?);
        }
    }
    println!();
    Ok(taken)
}

/// `scale.*`: how much the same statement stream slows down when the graph
/// grows tenfold. Needs both OLTP workloads and the per-class latencies of
/// their traced runs, so only `run --all --trace` (and `--check`) has it.
fn print_scale(taken: &[(Workload, Metrics, Option<Metrics>)]) {
    let layers = |w| {
        taken
            .iter()
            .find(|(t, _, _)| *t == w)
            .and_then(|(_, _, layers)| layers.as_ref())
    };
    let (Some(small), Some(large)) = (layers(Workload::OltpMix10k), layers(Workload::OltpMix100k))
    else {
        return;
    };
    let get = |m: &Metrics, name: &str| m.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    println!("scale (oltp_mix_100k / oltp_mix_10k; 1 = statement cost independent of graph size):");
    for (ratio, metric) in [
        ("scale.write_p50_ratio", "client.write_p50_ms"),
        ("scale.read_p50_ratio", "client.read_p50_ms"),
    ] {
        if let (Some(a), Some(b)) = (get(large, metric), get(small, metric)) {
            if b > 0.0 {
                println!("  {ratio:<22} {:>10.2}", a / b);
            }
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
