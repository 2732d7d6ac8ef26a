//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload (or all three, one after another in this process) for
//! `S` host seconds, prints every metric as `metric <name> <value> <unit>`
//! and, as the last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, a `reconcile` line breaks the median traced
//! repetition's `run_s` into layers plus unexplained time, and the spans
//! are written to `.perfbench/trace-<workload>-<seed>.jsonl`.
//!
//! `--print-digests` runs one untraced repetition and prints its cells'
//! `digests.txt` lines instead.
//!
//! Exits 0 when every output checked out, 1 when a check failed, 2 on a
//! usage error.

use perfbench::digest::{self, DEFAULT_SEED};
use perfbench::{measure, Faults, Metric, Options, Outcome, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_digests: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            a.print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => a.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                a.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(a)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn report(o: &Outcome, trace: bool) -> bool {
    let mut metrics = if trace { o.per_layer() } else { o.end_to_end() };
    let mut correct = o.correct();
    for m in &mut metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            m.value = 0.0;
            correct = false;
        }
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("metric fail_ratio {} ratio", o.fail_ratio());
    if trace {
        if let Some(line) = o.reconciliation() {
            println!("{line}");
        }
        let path = PathBuf::from(".perfbench").join(format!(
            "trace-{}-{}.jsonl",
            o.opts.workload.name(),
            o.opts.seed
        ));
        let written = std::fs::create_dir_all(".perfbench")
            .and_then(|()| std::fs::write(&path, o.spans.to_jsonl()));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for p in o.problems.iter().take(20) {
        eprintln!("perfbench: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        json_metrics(&metrics)
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dc-fattree|hybrid-fattree|wireless-sweep|all> \
                 [--seed N] [--seconds S] [--trace 0|1] [--print-digests]"
            );
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in args.workloads {
        let opts = Options {
            workload,
            seed: args.seed,
            seconds: if args.print_digests { 0.0 } else { args.seconds },
            trace: args.trace && !args.print_digests,
            size: Size::Full,
            faults: Faults::default(),
            work_dir: PathBuf::from(".perfbench").join(std::process::id().to_string()),
        };
        let o = measure(&opts);
        if args.print_digests {
            for cell in &o.reps[0].cells {
                match &cell.outcome {
                    Ok(d) => {
                        println!("{}", digest::line(workload.name(), args.seed, &cell.name, *d));
                    }
                    Err(e) => {
                        eprintln!("perfbench: cell {} failed: {e}", cell.name);
                        all_correct = false;
                    }
                }
            }
        } else {
            eprintln!(
                "perfbench: {} seed {}: {} repetitions",
                workload.name(),
                args.seed,
                o.reps.len()
            );
            all_correct &= report(&o, args.trace);
        }
    }
    // Gone unless a traced run left its spans there.
    let _ = std::fs::remove_dir(".perfbench");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
