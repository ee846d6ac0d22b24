//! `camus-ledger`: run the workloads, or compare two result files.
//!
//! ```text
//! camus-ledger --workload W --seed N --seconds S --trace 0|1   one run, in this process
//! camus-ledger [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs N]
//!                                                              every selected run, one
//!                                                              process each, results.json
//! camus-ledger compare A.json B.json
//! ```

use camus_ledger::digest::{self, DEFAULT_SEED};
use camus_ledger::json::Json;
use camus_ledger::report::Record;
use camus_ledger::{compare, mem, workloads, RunConfig, Tamper, RUN_SECONDS};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Where span files and `results.json` go, relative to the repository
/// root the command runs from.
const OUT_DIR: &str = "benchmark/out";

/// The default-seed input digests, checked in beside the sources.
const PINNED: &str = include_str!("../digests.json");

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u32>,
    trace: Option<bool>,
    runs: Option<usize>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}; one of {:?}", workloads::NAMES));
                }
                out.workload = Some(value.clone());
            }
            "--seed" => out.seed = Some(parse_u64(value).ok_or_else(bad)?),
            "--seconds" => {
                out.seconds =
                    Some(value.parse().ok().filter(|s| (1..=60).contains(s)).ok_or_else(bad)?)
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--runs" => out.runs = Some(value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

fn pinned_digest(workload: &str) -> Option<String> {
    Json::parse(PINNED).ok()?.get(workload)?.str().map(str::to_string)
}

/// One run in this process. Prints the report, then the record, then
/// the contract's result line last.
fn run_one(workload: &str, seed: u64, seconds: u32, trace: bool) -> ExitCode {
    let cfg =
        RunConfig { seed, seconds, trace, out_dir: PathBuf::from(OUT_DIR), tamper: Tamper::None };
    let name = workload.to_string();
    // BDD construction recurses as deep as the longest variable
    // chain; the product gives its own compile threads this stack, and
    // the traced run calls the same stages directly.
    let outcome = std::thread::Builder::new()
        .name("camus-ledger".into())
        .stack_size(camus_bdd::DEEP_STACK)
        .spawn(move || workloads::run(&name, &cfg))
        .expect("spawn the workload thread")
        .join();
    let Ok(Some(outcome)) = outcome else {
        eprintln!("camus-ledger: workload {workload} panicked");
        return ExitCode::from(2);
    };
    let record = Record { workload: workload.to_string(), seed, seconds, trace, outcome };
    // The inputs are pinned for the default seed at the pinned scale.
    let pinned =
        (seed == DEFAULT_SEED && seconds == RUN_SECONDS).then(|| pinned_digest(workload)).flatten();
    record.print(pinned.as_deref());
    if pinned.is_some_and(|p| p != digest::hex(record.outcome.input_digest)) {
        eprintln!(
            "camus-ledger: {workload}'s generated inputs differ from benchmark/digests.json: \
             this is a different workload, not a comparable run"
        );
        return ExitCode::from(3);
    }
    println!("record: {}", record.to_json().render());
    println!("{}", record.contract_line());
    ExitCode::SUCCESS
}

/// Every selected run, each in a process of its own (`VmHWM` is a
/// process-lifetime high-water mark), untraced runs first.
fn run_many(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let traces: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let exe = std::env::current_exe().expect("own path");
    let mut records = Vec::new();
    let mut all_ok = true;
    for &trace in &traces {
        for _ in 0..args.runs.unwrap_or(1) {
            for name in &names {
                let mut child = Command::new(&exe)
                    .args(["--workload", name, "--seed", &seed.to_string()])
                    .args([
                        "--seconds",
                        &seconds.to_string(),
                        "--trace",
                        if trace { "1" } else { "0" },
                    ])
                    .stdout(Stdio::piped())
                    .spawn()
                    .expect("start a run");
                let lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
                for line in lines.map_while(Result::ok) {
                    match line.strip_prefix("record: ") {
                        Some(json) => records.extend(Json::parse(json)),
                        None => println!("{line}"),
                    }
                }
                let status = child.wait().expect("wait for the run");
                all_ok &= status.success();
                println!();
            }
        }
    }
    let failed_ops: f64 =
        records.iter().filter_map(|r| r.get("ops_failed").and_then(|f| f.num())).sum();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = Json::object(vec![
        ("cores", Json::uint(cores as u64)),
        ("link", Json::text("none: in-process Switch / Network models")),
        ("runs", Json::list(records)),
    ]);
    let path = PathBuf::from(OUT_DIR).join("results.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, results.render() + "\n"));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("camus-ledger: could not write {}: {e}", path.display());
            all_ok = false;
        }
    }
    println!("ops_failed across all runs: {failed_ops}");
    if all_ok && failed_ops == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => {
                eprintln!("usage: camus-ledger compare A.json B.json");
                ExitCode::from(2)
            }
        },
        _ => match parse_args(&args) {
            Err(e) => {
                eprintln!("camus-ledger: {e}");
                ExitCode::from(2)
            }
            Ok(Args { workload: Some(w), seed, seconds, trace: Some(t), runs: None }) => {
                run_one(&w, seed.unwrap_or(DEFAULT_SEED), seconds.unwrap_or(RUN_SECONDS), t)
            }
            Ok(a) => run_many(&a),
        },
    }
}
