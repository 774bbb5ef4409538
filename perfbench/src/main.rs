//! End-to-end and per-layer benchmark of the rtml cluster.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rtt|fine|shuffle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run drives one workload through [`ROUNDS`] rounds, each a child
//! process with a fresh cluster and one closed-loop driver thread, and
//! reports every metric's median across rounds. A round's timed window
//! is a fixed op count (`--seconds` times the workload's nominal op
//! rate, split over the rounds), never a time box. With `--trace 0` the
//! last stdout line is a JSON object with the end-to-end metrics. With
//! `--trace 1` untraced and traced rounds alternate; the JSON holds the
//! traced rounds' per-layer metrics plus the tracing overhead, and the
//! spans are written to `perfbench/out/`.

mod layers;
mod round;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use round::{parse_report, run_round, RoundResult};
use stats::median;
use workloads::Kind;

/// Rounds per run; each metric is the median across them.
const ROUNDS: u64 = 9;
/// Untraced/traced round pairs in a traced run.
const TRACED_PAIRS: u64 = 3;
/// Fewest timed ops per round: enough for p90 to leave ten samples
/// beyond it.
const MIN_OPS: u64 = 100;

/// glibc malloc settings every round runs with. By default glibc moves
/// its mmap threshold as large blocks are freed and trims the heap top
/// eagerly, so the data plane's large buffers flip between `mmap`, heap
/// growth and trimming from round to round; on a 2-vCPU VM that alone
/// moved `shuffle`'s op p50 (with 1 MiB payloads) between 10 and 35 ms.
/// Fixing both thresholds makes every round take the same allocator path.
const MALLOC_TUNABLES: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
];

const USAGE: &str =
    "usage: perfbench --workload <rtt|fine|shuffle> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a round's child process: which round to run.
    round: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut round) = (None, 1, 10, false, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--round" => round = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        round,
    })
}

fn spans_path(kind: Kind, seed: u64, round: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{seed}-round{round}.jsonl",
            kind.name()
        ))
}

/// Runs one round in a child process and collects its report.
fn spawn_round(args: &Args, round: u64, traced: bool) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--round", &round.to_string()])
        .envs(MALLOC_TUNABLES)
        .output()
        .map_err(|e| format!("starting round {round}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("round {round} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (result, other) = parse_report(&stdout).map_err(|e| format!("round {round}: {e}"))?;
    for line in other {
        println!("{line}");
    }
    Ok(result)
}

/// Each metric's median across rounds (every round lists the same
/// metrics in the same order).
fn median_across(rounds: &[RoundResult]) -> Vec<(String, f64, String)> {
    rounds[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values: Vec<f64> = rounds.iter().map(|r| r.metrics[i].1).collect();
            (name.clone(), median(&values), unit.clone())
        })
        .collect()
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let kind = args.kind;
    let ops = (kind.shape().ops_per_second * args.seconds / ROUNDS).max(MIN_OPS);
    if let Some(round) = args.round {
        let spans = args.trace.then(|| spans_path(kind, args.seed, round));
        run_round(kind, args.seed, round, ops, spans.as_deref())?;
        return Ok(ExitCode::SUCCESS);
    }

    let name = kind.name();
    println!(
        "# workload {name}, seed {}, {ROUNDS} rounds of {ops} timed ops, trace {}, {} host cores",
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let metrics = if args.trace {
        // Untraced and traced rounds alternate, so a change in the
        // host's speed lands on both sides of the overhead ratio.
        for round in 0..TRACED_PAIRS {
            plain.push(spawn_round(args, round, false)?);
            traced.push(spawn_round(args, round, true)?);
        }
        let mut metrics = median_across(&traced);
        let overhead: Vec<f64> = plain
            .iter()
            .zip(&traced)
            .map(|(p, t)| t.wall_s / p.wall_s - 1.0)
            .collect();
        metrics.push((
            "trace.overhead_share".into(),
            median(&overhead),
            "ratio".into(),
        ));
        metrics
    } else {
        for round in 0..ROUNDS {
            plain.push(spawn_round(args, round, false)?);
        }
        let mut metrics = median_across(&plain);
        let growth: Vec<(u64, u64, u64)> = plain
            .iter()
            .map(|r| (r.rss_after_setup_kb, r.rss_after_window_kb, r.tasks_done))
            .collect();
        metrics.push((
            "rss_kb_per_task".into(),
            stats::rss_kb_per_task(&growth),
            "KiB".into(),
        ));
        metrics
    };
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} = {value:.6} {unit}");
    }

    let all: Vec<&RoundResult> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let wrong: Vec<&String> = all.iter().filter_map(|r| r.wrong.as_ref()).collect();
    for m in &wrong {
        eprintln!("wrong output: {m}");
    }
    println!(
        "{}",
        json_result(wrong.is_empty(), attempted, failed, &metrics)
    );
    Ok(if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
