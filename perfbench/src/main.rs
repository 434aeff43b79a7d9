//! Open-loop serving and churn benchmark for the `rsp_oracle` stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_uniform --seed 1 --seconds 48 --trace 0
//! ```
//!
//! Run from the repository root. Report lines go to standard output; the
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. A traced run also writes its spans to
//! `.bench_out/trace-<workload>.csv`. See `perfbench/README.md` for the
//! workloads and what each metric should move.

mod check;
mod churn;
mod inputs;
mod reader;
mod report;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use inputs::FaultLaw;
use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads and their frozen shapes and rates. The offered rates are
/// absolute, so later builds are offered the same load: about a quarter
/// (`serve_uniform`) and a tenth (`churn_serve`) of the closed-loop rate
/// this benchmark measured on a 2-vCPU Xeon. At half that rate, queueing
/// (which grows as ρ / (1 − ρ)) amplified the shared host's drifting speed
/// into open-loop tails that moved by half from run to run. The serving
/// graph has 5,000 vertices: at 20,000 the engine path took 5–10 ms a
/// query, too few answers per run for steady figures on that host.
#[derive(Clone, Debug)]
enum Workload {
    Serve(serve::ServeSpec),
    Churn(churn::ChurnSpec),
}

fn workload(name: &str) -> Option<Workload> {
    let serve = |law, offered_qps, open_readers, trace_every| {
        Workload::Serve(serve::ServeSpec {
            n: 5_000,
            sources: 64,
            law,
            offered_qps,
            open_readers,
            trace_every,
            samples: 64,
        })
    };
    Some(match name {
        // Every query misses its source's tree: the snapshot fast path.
        "serve_offtree" => serve(FaultLaw::OffTree { max: 3 }, 600_000.0, 1, 256),
        // Uniform faults hit the tree about a third of the time each, so
        // about 63% of queries run the exact engine. Two or three faults
        // rather than one or two keep the fast-path share (~0.37) away
        // from one half: at ~0.55 the median query sat on the boundary
        // between microsecond and millisecond answers and jumped between
        // them from run to run.
        "serve_uniform" => serve(FaultLaw::Uniform { min: 2, max: 3 }, 600.0, 2, 1),
        "churn_serve" => Workload::Churn(churn::ChurnSpec {
            n: 1_024,
            sources: 64,
            frame_rate: 20.0,
            scrub_every_ms: 50.0,
            checkpoint_every: 64,
            reader_qps: 600.0,
            samples: 256,
        }),
        _ => return None,
    })
}

const WORKLOADS: &[&str] = &["serve_offtree", "serve_uniform", "churn_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The commit the benchmark was run from, read from `.git` when the
/// working directory is a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    Some(match workload(name)? {
        Workload::Serve(spec) => serve::run(&spec, seed, seconds, trace),
        Workload::Churn(spec) => churn::run(&spec, seed, seconds, trace),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(outcome) = run(&args.workload, args.seed, args.seconds, args.trace) else {
        eprintln!(
            "perfbench: unknown workload {:?}; valid: {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut prov = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"git_commit\": \"{}\", \"rustc\": \"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        git_commit(),
        env!("PERFBENCH_RUSTC"),
    );
    for (k, v) in &outcome.provenance {
        let _ = write!(prov, ", \"{k}\": \"{v}\"");
    }
    println!("# provenance {prov}}}");
    for line in &outcome.notes {
        println!("# {line}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} = {} {unit}", json_number(value));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if args.trace {
        for (layer, ns) in trace::self_times(&outcome.spans) {
            println!("# self time {}: {:.6} s", layer.name(), ns as f64 / report::S);
        }
        let path = std::path::PathBuf::from(format!(".bench_out/trace-{}.csv", args.workload));
        match trace::write_csv(&path, &outcome.spans) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let correct = outcome.failed == 0 && outcome.checks_passed;
    println!("attempted = {}, failed = {}, correct = {correct}", outcome.attempted, outcome.failed);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-sized run of every workload, traced and untraced: it
    /// finishes, fails nothing, and reports every catalogue metric.
    #[test]
    fn smoke_runs_of_every_workload_fail_nothing() {
        for &name in WORKLOADS {
            let mut w = workload(name).expect("listed workloads exist");
            match &mut w {
                Workload::Serve(s) => {
                    s.n = 400;
                    s.sources = 8;
                    s.offered_qps = s.offered_qps.min(2_000.0);
                    s.samples = 16;
                }
                Workload::Churn(c) => {
                    c.n = 96;
                    c.sources = 8;
                    c.frame_rate = 400.0;
                    c.scrub_every_ms = 20.0;
                    c.checkpoint_every = 16;
                    c.reader_qps = 1_000.0;
                    c.samples = 32;
                }
            }
            for trace in [false, true] {
                let out = match &w {
                    Workload::Serve(s) => serve::run(s, 7, 0.4, trace),
                    Workload::Churn(c) => churn::run(c, 7, 0.6, trace),
                };
                assert_eq!(out.failed, 0, "{name} trace={trace}: {:?}", out.notes);
                assert!(out.checks_passed, "{name} trace={trace}: {:?}", out.notes);
                assert!(out.attempted > 0);
                assert!(out.metrics["verify.checked"] > 0.0, "{name}: nothing re-checked");
                for (metric, _) in END_TO_END {
                    assert!(out.metrics.get(metric).is_some_and(|&v| v > 0.0), "{name}: {metric}");
                }
                if trace {
                    assert!(!out.spans.iter().all(Vec::is_empty), "{name}: no spans");
                }
            }
        }
    }
}
