//! Benchmark of `wcoj-server` and its layers: one workload per run.
//!
//! ```text
//! perfbench --server-bin PATH --workload analytics|lookups|ingest \
//!     --seed N --seconds S --trace 0|1 [--quick] [--commit C] [--rustc V]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against the server child
//! process. `--trace 1` replays the workload's request sequence twice
//! in-process against an identically loaded catalog and service, timing
//! the calls into each layer, and once more over HTTP for the server's
//! share. `--quick` shrinks the data for smoke runs. The last line of
//! stdout is the JSON result; the line before it records the run's
//! environment and a summary.

mod data;
mod e2e;
mod http;
mod server;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Kind, Workload};

struct Args {
    server_bin: PathBuf,
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--quick" {
            quick = true;
            continue;
        }
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let take = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        take(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = take("workload")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        server_bin: PathBuf::from(take("server-bin")?),
        workload,
        kind,
        seed: num("seed")?,
        seconds,
        trace,
        quick,
        commit: map
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        rustc: map
            .get("rustc")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let w = Workload::new(args.kind, args.seed, args.seconds, args.quick);
    let outcome = if args.trace {
        traced::run(&w, &args.server_bin)
    } else {
        let setups = if args.quick { 1 } else { 3 };
        e2e::run(&w, &args.server_bin, args.seconds, setups, !args.quick)
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some((name, _)) = report.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        eprintln!(
            "perfbench: {} measured no finite value for {name}",
            args.workload
        );
        return ExitCode::from(1);
    }
    for note in &report.tally.notes {
        eprintln!("perfbench: {note}");
    }
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\"nproc\":{nproc},\"commit\":{},\"rustc\":{},\"summary\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        json_str(&args.commit),
        json_str(&args.rustc),
        report.summary
    );
    let correct = report.tally.wrong == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} answers differed from the oracle",
            report.tally.wrong
        );
        ExitCode::from(3)
    }
}
