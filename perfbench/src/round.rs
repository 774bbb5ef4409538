//! One round: a fresh process starts a cluster, warms it up, runs a
//! closed-loop timed window of ops, and reports the round's figures to
//! the parent as `@`-prefixed lines on stdout. Running each round in its
//! own process keeps one round's threads, heap and peak RSS out of the
//! next round's numbers.

use std::path::Path;
use std::time::Instant;

use crate::layers::{layer_metrics, Counters, Metric, TracedWindow};
use crate::stats::{drift, highest_supported, percentile, ProcStatus};
use crate::trace::Tracer;
use crate::workloads::{Bench, Kind};

/// A round stops early after this many failed ops.
const MAX_FAILED: u64 = 3;
/// Warm-up op indices start here, clear of every timed op's inputs.
const WARMUP_BASE: u64 = 1 << 40;

/// What a round reports.
pub struct RoundResult {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Option<String>,
    pub wall_s: f64,
    pub tasks_done: u64,
    pub rss_after_setup_kb: u64,
    pub rss_after_window_kb: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Starts a cluster and runs the warm-up ops; returns it with the
/// elapsed set-up time.
fn set_up(kind: Kind, seed: u64) -> Result<(Bench, f64), String> {
    let start = Instant::now();
    let bench = Bench::start(kind, seed).map_err(|e| format!("cluster start: {e}"))?;
    let mut off = Tracer::new(false);
    for i in 0..kind.shape().warmup_ops {
        let plan = bench.plan(WARMUP_BASE + i);
        let got = bench
            .execute(&plan, &mut off)
            .map_err(|e| format!("warm-up op {i}: {e}"))?;
        plan.check(&got)
            .map_err(|m| format!("warm-up op {i}: {m}"))?;
    }
    Ok((bench, start.elapsed().as_secs_f64()))
}

/// Runs round `index` (timed ops `index × ops .. (index + 1) × ops`) in
/// this process and prints its report. With `spans`, the round is traced
/// and its spans are written there. Fails, without a report, when no op
/// succeeded.
pub fn run_round(
    kind: Kind,
    seed: u64,
    index: u64,
    ops: u64,
    spans: Option<&Path>,
) -> Result<(), String> {
    let (bench, setup_s) = set_up(kind, seed)?;
    let at_setup = ProcStatus::read();
    let (before, _) = Counters::read(&bench.cluster);

    let mut tracer = Tracer::new(spans.is_some());
    let mut op_ms = Vec::with_capacity(ops as usize);
    let (mut attempted, mut failed, mut wrong) = (0, 0, None);
    let start = Instant::now();
    for op in index * ops..(index + 1) * ops {
        let plan = bench.plan(op);
        attempted += 1;
        let began = Instant::now();
        tracer.begin_op(op);
        let outcome = bench.execute(&plan, &mut tracer);
        tracer.end_op();
        let elapsed_ms = began.elapsed().as_secs_f64() * 1e3;
        match outcome.map(|got| plan.check(&got)) {
            Ok(Ok(())) => op_ms.push(elapsed_ms),
            Ok(Err(m)) => {
                wrong = Some(format!("op {op}: {m}"));
                break;
            }
            Err(e) => {
                eprintln!("op {op} failed: {e}");
                failed += 1;
                if failed >= MAX_FAILED {
                    break;
                }
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if op_ms.is_empty() && wrong.is_none() {
        return Err(format!("round {index}: no op succeeded"));
    }
    let after = ProcStatus::read();
    let tasks_done = op_ms.len() as u64 * kind.shape().tasks_per_op;
    let mut sorted = op_ms.clone();
    sorted.sort_by(f64::total_cmp);

    let metrics = match spans {
        Some(path) => {
            let (counters, profile) = Counters::read(&bench.cluster);
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            layer_metrics(&TracedWindow {
                before,
                after: counters,
                profile: &profile,
                tracer: &tracer,
                tasks_done,
                wall_s,
                workers: kind.workers(),
                threads: at_setup.threads,
            })
        }
        None => {
            vec![
                ("setup_s", setup_s, "s"),
                ("op_p50_ms", percentile(&sorted, 50.0), "ms"),
                ("op_p90_ms", percentile(&sorted, 90.0), "ms"),
                ("tasks_per_s", tasks_done as f64 / wall_s, "1/s"),
                ("op_drift", drift(&op_ms), "ratio"),
                ("peak_rss_mb", after.peak_rss_kb as f64 / 1024.0, "MiB"),
            ]
        }
    };
    bench.shutdown();

    let (p, beyond) =
        highest_supported(sorted.len(), &[50.0, 90.0, 99.0, 99.9]).unwrap_or((50.0, 0));
    println!(
        "# round {index}{}: setup {setup_s:.3} s, {} of {attempted} ops ok in {wall_s:.3} s, \
         p50 {:.4} ms, p{p} {:.4} ms ({beyond} samples beyond), {} threads",
        if spans.is_some() { " traced" } else { "" },
        op_ms.len(),
        percentile(&sorted, 50.0),
        percentile(&sorted, p),
        at_setup.threads,
    );
    print!(
        "{}",
        report(&RoundResult {
            attempted,
            failed,
            wrong,
            wall_s,
            tasks_done,
            rss_after_setup_kb: at_setup.rss_kb,
            rss_after_window_kb: after.rss_kb,
            metrics: metrics
                .into_iter()
                .map(|(name, value, unit): Metric| (name.to_string(), value, unit.to_string()))
                .collect(),
        })
    );
    Ok(())
}

/// A round's report as the `@` lines [`parse_report`] reads.
fn report(r: &RoundResult) -> String {
    let mut out = format!(
        "@attempted {}\n@failed {}\n@wall_s {}\n@tasks_done {}\n@rss_kb {} {}\n",
        r.attempted, r.failed, r.wall_s, r.tasks_done, r.rss_after_setup_kb, r.rss_after_window_kb
    );
    if let Some(wrong) = &r.wrong {
        out += &format!("@wrong {}\n", wrong.replace('\n', " "));
    }
    for (name, value, unit) in &r.metrics {
        out += &format!("@metric {name} {value} {unit}\n");
    }
    out
}

/// Parses a round's stdout; other lines are returned for the parent to
/// pass through.
pub fn parse_report(stdout: &str) -> Result<(RoundResult, Vec<&str>), String> {
    let mut r = RoundResult {
        attempted: 0,
        failed: 0,
        wrong: None,
        wall_s: 0.0,
        tasks_done: 0,
        rss_after_setup_kb: 0,
        rss_after_window_kb: 0,
        metrics: Vec::new(),
    };
    let mut other = Vec::new();
    let bad = |line: &str| format!("bad round report line: {line}");
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix('@') else {
            other.push(line);
            continue;
        };
        let (key, value) = rest.split_once(' ').ok_or_else(|| bad(line))?;
        match key {
            "attempted" => r.attempted = value.parse().map_err(|_| bad(line))?,
            "failed" => r.failed = value.parse().map_err(|_| bad(line))?,
            "wall_s" => r.wall_s = value.parse().map_err(|_| bad(line))?,
            "tasks_done" => r.tasks_done = value.parse().map_err(|_| bad(line))?,
            "rss_kb" => {
                let (setup, window) = value.split_once(' ').ok_or_else(|| bad(line))?;
                r.rss_after_setup_kb = setup.parse().map_err(|_| bad(line))?;
                r.rss_after_window_kb = window.parse().map_err(|_| bad(line))?;
            }
            "wrong" => r.wrong = Some(value.to_string()),
            "metric" => {
                let mut parts = value.split(' ');
                let (Some(name), Some(v), Some(unit)) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(bad(line));
                };
                let v = v.parse().map_err(|_| bad(line))?;
                r.metrics.push((name.to_string(), v, unit.to_string()));
            }
            _ => return Err(bad(line)),
        }
    }
    if r.attempted == 0 {
        return Err("round reported no ops".into());
    }
    Ok((r, other))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let sent = RoundResult {
            attempted: 100,
            failed: 2,
            wrong: Some("op 7: output 3: got 1, want 2".into()),
            wall_s: 1.25,
            tasks_done: 98,
            rss_after_setup_kb: 10_240,
            rss_after_window_kb: 11_000,
            metrics: vec![
                ("op_p50_ms".into(), 0.612_345_678_9, "ms".into()),
                ("tasks_per_s".into(), 1603.5, "1/s".into()),
            ],
        };
        let text = format!("# round 0: a note\n{}", report(&sent));
        let (got, other) = parse_report(&text).unwrap();
        assert_eq!(other, vec!["# round 0: a note"]);
        assert_eq!(
            (got.attempted, got.failed, got.wall_s, got.tasks_done),
            (sent.attempted, sent.failed, sent.wall_s, sent.tasks_done)
        );
        assert_eq!(
            (got.rss_after_setup_kb, got.rss_after_window_kb),
            (sent.rss_after_setup_kb, sent.rss_after_window_kb)
        );
        assert_eq!(got.wrong, sent.wrong);
        assert_eq!(got.metrics, sent.metrics);
        assert!(parse_report("@metric op_p50_ms\n@attempted 1\n").is_err());
        assert!(parse_report("no report at all\n").is_err());
    }
}
