//! Command line: `perfbench --workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`.
//!
//! The process refuses to run with any `MONTSALVAT_*` variable set,
//! prints provenance, then runs the workload in a child process under a
//! deadline: a hang counts the ops it did not finish as failed instead
//! of stalling the benchmark, and the child's peak RSS is the
//! workload's alone. The last line of standard output is the JSON
//! result.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use perfbench::report::{self, Outcome, END_TO_END, PER_LAYER};
use perfbench::run::{self, Plan};
use perfbench::workloads;

/// Longest a workload's child process may run before it is killed.
const DEADLINE: Duration = Duration::from_secs(150);

fn usage() -> String {
    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        names.join("|")
    )
}

struct Args {
    plan: Plan,
    child: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child) = (1u64, 10u64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { plan: Plan { workload, seed, seconds, trace }, child })
}

/// Output of a command, trimmed, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit of the checkout, when the working directory is the top
/// of a git repository.
fn commit() -> String {
    let top = PathBuf::from(command_output("git", &["rev-parse", "--show-toplevel"]));
    let here = std::env::current_dir().ok().and_then(|d| d.canonicalize().ok());
    if top.canonicalize().ok().is_some_and(|t| Some(t) == here) {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_owned()
    }
}

/// Where runs write scratch files and traces.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn failure_json(attempted: u64) -> String {
    let outcome =
        Outcome { attempted: attempted.max(1), failed: attempted.max(1), ..Outcome::default() };
    report::result_json(&outcome, &[])
}

fn parent(args: &Args, raw: &[String]) -> ExitCode {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MONTSALVAT_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("refusing to run: {} would change the measured program", knobs.join(", "));
        return ExitCode::from(2);
    }
    let plan = &args.plan;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} commit={} nproc={} rustc=\"{}\" \
         switchless_workers={}",
        plan.workload.name,
        plan.seed,
        plan.seconds,
        u8::from(plan.trace),
        commit(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        command_output("rustc", &["--version"]),
        run::SWITCHLESS_WORKERS,
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut child = match Command::new(exe)
        .args(raw)
        .arg("--child")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            eprintln!("cannot start the workload process: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let started = Instant::now();
    let mut attempted = 0u64;
    let mut last = String::new();
    let mut timed_out = false;
    loop {
        let left = DEADLINE.saturating_sub(started.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => match line.strip_prefix("progress ") {
                Some(n) => attempted = n.parse().unwrap_or(attempted),
                None => {
                    println!("{line}");
                    last = line;
                }
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                timed_out = true;
                break;
            }
        }
    }
    if timed_out {
        let _ = child.kill();
    }
    let status = child.wait();
    let _ = reader.join();
    if timed_out {
        // A killed child leaves its scratch directories behind.
        let prefix = format!("run-{}-", child.id());
        for entry in std::fs::read_dir(out_dir()).into_iter().flatten().flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let ok = !timed_out && status.as_ref().is_ok_and(|s| s.success()) && last.starts_with('{');
    if ok {
        return ExitCode::SUCCESS;
    }
    if timed_out {
        eprintln!("workload exceeded {DEADLINE:?}; its unfinished ops count as failed");
    } else {
        eprintln!("workload process failed: {status:?}");
    }
    println!("{}", failure_json(attempted));
    ExitCode::FAILURE
}

fn child(plan: &Plan) -> ExitCode {
    let mut progress = |n: u64| {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "progress {n}");
        let _ = out.flush();
    };
    match run::run(plan, &out_dir(), &mut progress) {
        Ok(outcome) => {
            let specs = if plan.trace { PER_LAYER } else { END_TO_END };
            print!("{}", report::table(&outcome, specs));
            println!("{}", report::result_json(&outcome, specs));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse(&raw) {
        Ok(args) if args.child => child(&args.plan),
        Ok(args) => parent(&args, &raw),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
