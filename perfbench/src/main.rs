//! The repository benchmark: four batch workloads, each stressing a
//! different part of the allocator and simulator, measured end to end
//! from untraced repetitions (`--trace 0`) or per layer from a traced
//! run (`--trace 1`). Run it through `perfbench/run.py`; see
//! `perfbench/README.md` for the design.
//!
//! Usage: `pim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed check
//! prints its reason to standard error and exits non-zero.

mod churn;
mod graph;
mod host_speed;
mod remote_free;
mod report;
mod serve;
mod span;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::{Rep, TraceRun};
use span::Spans;

/// Repetitions a run makes however short `--seconds` is, so that the
/// modeled results are checked for repeats and setup has a median.
const MIN_REPS: usize = 3;

const WORKLOADS: [&str; 4] = ["churn", "remote-free", "graph-update", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// The executor's worker count, read as the executor reads it:
/// `PIM_EXEC_WORKERS` if a positive integer, else the hardware threads.
fn workers() -> usize {
    std::env::var("PIM_EXEC_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The values a run reports, by metric name, with their units.
type Metrics = Vec<(String, f64, &'static str)>;

/// End-to-end metrics from untraced repetitions. Modeled figures are
/// identical in every repetition.
fn end_to_end(args: &Args) -> Result<(Metrics, Vec<Rep>), String> {
    let seed = args.seed;
    let rep: fn(u64) -> Result<Rep, String> = match args.workload.as_str() {
        "churn" => churn::rep,
        "remote-free" => remote_free::rep,
        "graph-update" => graph::rep,
        _ => serve::rep,
    };
    // Neighbours on a shared host slow whole runs by up to half, so host
    // times are scaled to an idle host by the slowdown of a reference
    // loop sampled between repetitions, on as many threads as the
    // workload runs on (see `host_speed`). Totals over the run sample the
    // same conditions as the loop.
    let threads = match args.workload.as_str() {
        "graph-update" => workers(),
        _ => 1,
    };
    let (reps, rss_mb, slowdown) = report::repeat(args.seconds, MIN_REPS, threads, || rep(seed))?;
    let mut modeled = reps[0].modeled.clone();
    if args.workload == "serve" {
        let (_, knee) = serve::ladder(seed, &modeled)?;
        modeled.set("sim_knee_rps", knee);
    }
    let ops: u64 = reps.iter().map(|r| r.ops).sum();
    let wall_s: f64 = reps.iter().map(|r| r.wall_s).sum();
    let best = reps
        .iter()
        .map(|r| r.ops as f64 / r.wall_s)
        .fold(0.0, f64::max);
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[setups.len() / 2];
    println!(
        "{} repetitions as measured: {:.0} ops/s over the run, {best:.0} at best, \
         median setup {setup_s:.6} s; host {slowdown:.3}x slower than nominal",
        reps.len(),
        ops as f64 / wall_s,
    );
    let mut values = BTreeMap::new();
    values.insert("setup_s", setup_s / slowdown);
    values.insert("host_ops_per_s", ops as f64 / wall_s * slowdown);
    values.insert("peak_rss_mb", rss_mb);
    let metrics = report::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .or_else(|| modeled.get(name))
                .ok_or_else(|| format!("{name} was not measured"))?;
            Ok((name.to_string(), v, unit))
        })
        .collect::<Result<Metrics, String>>()?;
    Ok((metrics, reps))
}

fn per_layer(args: &Args) -> Result<(Metrics, Vec<Rep>), String> {
    let mut spans = Spans::default();
    let run: fn(u64, f64, &mut Spans) -> Result<TraceRun, String> = match args.workload.as_str() {
        "churn" => churn::trace_run,
        "remote-free" => remote_free::trace_run,
        "graph-update" => graph::trace_run,
        _ => serve::trace_run,
    };
    let (layers, reps) = run(args.seed, args.seconds, &mut spans)?;
    spans.print();
    let metrics = report::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = layers.get(&name);
            (name, v, unit)
        })
        .collect();
    Ok((metrics, reps))
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pim-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::env::var("PIM_EXEC_WORKERS").unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} PIM_EXEC_WORKERS={workers} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "every repetition starts from fresh inputs, a fresh DpuSim and a freshly initialised \
         allocator: thread caches eagerly pre-populated, metadata caches as init left them"
    );
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let (metrics, reps) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pim-perfbench: check failed: {e}");
            println!("{}", json(false, 1, 1, &Metrics::new()));
            return ExitCode::from(1);
        }
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("pim-perfbench: {name} is not finite");
        return ExitCode::from(1);
    }
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    println!(
        "repetitions={} attempted={attempted} failed={failed}",
        reps.len()
    );
    for (name, v, unit) in &metrics {
        println!("{name:<44} {v:>18.6} {unit}");
    }
    println!("{}", json(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
