//! The repository benchmark: end-to-end and per-layer metrics of the
//! MINFLOTRANSIT sizing stack on two workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot_suite|what_if_10k --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics traced). A traced run also writes its spans and
//! the per-layer table with each value's provenance to
//! `perfbench/traces/<workload>-seed<N>.json`. See `RATIONALE.md`.

mod oneshot;
mod plan;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use plan::Workload;
use report::Metrics;
use std::process::ExitCode;

/// What one workload run produced.
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub spans_json: Option<String>,
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-child") {
        return match serve::serve_child() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("server child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload {
        Workload::OneshotSuite => oneshot::run(args.seed, args.seconds, args.trace),
        Workload::WhatIf10k => serve::run(args.seed, args.seconds, args.trace),
    };
    let catalogue = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    let selected = outcome.metrics.select(&catalogue);
    if let Some(spans) = outcome.spans_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.json", args.workload.name(), args.seed);
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"layers\": {},\n\"spans\": {}}}\n",
            args.workload.name(),
            args.seed,
            report::layer_table_json(&selected),
            spans
        );
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {path}");
    }
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &selected
        )
    );
    ExitCode::SUCCESS
}
