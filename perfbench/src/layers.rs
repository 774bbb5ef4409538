//! Per-layer figures of a traced window: counter deltas read from the
//! cluster's public stats before and after the window, stage gaps from
//! `Cluster::profile()` task stamps, and the benchmark's own spans.

use rtml_common::ids::TaskId;
use rtml_runtime::{Cluster, ProfileReport, TaskProfile};

use crate::stats::median;
use crate::trace::Tracer;

const MIB: f64 = (1u64 << 20) as f64;

/// Cumulative counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    kv_locks: u64,
    kv_entries: u64,
    net_msgs: u64,
    net_bytes: u64,
    net_egress_wait_ns: u64,
    global_spills: u64,
    fetches: u64,
    chunks_received: u64,
    dup_fetches_suppressed: u64,
    prefetches_issued: u64,
    prefetch_hits: u64,
    steal_attempts: u64,
    steal_grants: u64,
    tasks_stolen: u64,
}

impl Counters {
    /// Reads every counter; also returns the profile it read them from.
    pub fn read(cluster: &Cluster) -> (Counters, ProfileReport) {
        let services = cluster.services();
        let kv = services.kv.stats();
        let fabric = &services.fabric.stats;
        let profile = cluster.profile();
        let counters = Counters {
            kv_locks: kv.total_locks(),
            kv_entries: services.kv.len() as u64,
            net_msgs: fabric.sent.get(),
            net_bytes: fabric.bytes.get(),
            net_egress_wait_ns: fabric.egress_wait_nanos.get(),
            global_spills: cluster.global_stats().0,
            fetches: profile.transfer.fetches,
            chunks_received: profile.transfer.chunks_received,
            dup_fetches_suppressed: profile.transfer.duplicate_fetches_suppressed,
            prefetches_issued: profile.prefetches_issued as u64,
            prefetch_hits: profile.prefetch_hits as u64,
            steal_attempts: profile.steal.attempts,
            steal_grants: profile.steal.grants,
            tasks_stolen: profile.steal.tasks_stolen,
        };
        (counters, profile)
    }
}

/// What one traced window did, for [`layer_metrics`].
pub struct TracedWindow<'a> {
    pub before: Counters,
    pub after: Counters,
    pub profile: &'a ProfileReport,
    pub tracer: &'a Tracer,
    pub tasks_done: u64,
    pub wall_s: f64,
    pub workers: u64,
    pub threads: u64,
}

/// A named figure with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric. A layer the workload bypasses reads 0.
pub fn layer_metrics(w: &TracedWindow<'_>) -> Vec<Metric> {
    let tasks = w.tasks_done.max(1) as f64;
    let d = |f: fn(&Counters) -> u64| f(&w.after).saturating_sub(f(&w.before));
    let per_task = |n: u64| n as f64 / tasks;
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    // Stage gaps of the tasks the traced ops submitted.
    let by_id: std::collections::HashMap<TaskId, &TaskProfile> = w
        .profile
        .tasks
        .iter()
        .filter_map(|t| Some((t.task?, t)))
        .collect();
    let mut place_us = Vec::new();
    let mut queue_us = Vec::new();
    let mut exec_us = Vec::new();
    let mut exec_total_us = 0u64;
    let mut return_us = Vec::new();
    for (op, tasks) in w.tracer.ops() {
        let mut last_finish = None;
        for t in tasks.iter().filter_map(|id| by_id.get(id)) {
            if let (true, Some(sub), Some(placed)) = (t.spilled, t.submitted, t.placed) {
                place_us.push(placed.saturating_sub(sub) as f64 / 1e3);
            }
            // Ready-queue wait on the node that ran it: from the last
            // hand-off (local queueing, placement, or steal) to start.
            let handed = [t.queued, t.placed, t.stolen.map(|s| s.0)]
                .into_iter()
                .flatten()
                .max();
            if let (Some(handed), Some(started)) = (handed, t.started) {
                queue_us.push(started.saturating_sub(handed) as f64 / 1e3);
            }
            if let Some(us) = t.exec_micros {
                exec_us.push(us as f64);
                exec_total_us += us;
            }
            last_finish = last_finish.max(t.finished);
        }
        if let Some(finished) = last_finish {
            return_us.push(op.end_ns.saturating_sub(finished) as f64 / 1e3);
        }
    }
    let to_ms = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|n| n as f64 / 1e6).collect() };
    let submit_ns: u64 = w.tracer.per_op_nanos("submit").iter().sum();

    vec![
        (
            "runtime.submit_us_per_task",
            submit_ns as f64 / 1e3 / tasks,
            "us",
        ),
        (
            "runtime.get_wait_ms_p50",
            median(&to_ms(w.tracer.per_op_nanos("get"))),
            "ms",
        ),
        ("runtime.return_us_p50", median(&return_us), "us"),
        (
            "driver.self_us_p50",
            median(&to_ms(w.tracer.op_self_nanos())) * 1e3,
            "us",
        ),
        ("kv.locks_per_task", per_task(d(|c| c.kv_locks)), "count"),
        (
            "kv.entries_per_task",
            per_task(d(|c| c.kv_entries)),
            "count",
        ),
        (
            "sched.spill_share",
            per_task(d(|c| c.global_spills)),
            "ratio",
        ),
        ("sched.place_us_p50", median(&place_us), "us"),
        ("sched.queue_us_p50", median(&queue_us), "us"),
        (
            "sched.steal_grant_share",
            share(d(|c| c.steal_grants), d(|c| c.steal_attempts)),
            "ratio",
        ),
        ("sched.tasks_stolen", d(|c| c.tasks_stolen) as f64, "count"),
        ("net.msgs_per_task", per_task(d(|c| c.net_msgs)), "count"),
        ("net.bytes_per_task", per_task(d(|c| c.net_bytes)), "bytes"),
        (
            "net.egress_wait_ms",
            d(|c| c.net_egress_wait_ns) as f64 / 1e6,
            "ms",
        ),
        (
            "store.fetches_per_task",
            per_task(d(|c| c.fetches)),
            "count",
        ),
        (
            "store.chunks_per_mb",
            match d(|c| c.net_bytes) {
                0 => 0.0,
                bytes => d(|c| c.chunks_received) as f64 / (bytes as f64 / MIB),
            },
            "count/MiB",
        ),
        (
            "store.prefetch_hit_share",
            share(d(|c| c.prefetch_hits), d(|c| c.prefetches_issued)),
            "ratio",
        ),
        (
            "store.dup_fetch_suppressed",
            d(|c| c.dup_fetches_suppressed) as f64,
            "count",
        ),
        ("worker.exec_us_p50", median(&exec_us), "us"),
        (
            "worker.busy_share",
            exec_total_us as f64 / 1e6 / (w.wall_s * w.workers.max(1) as f64),
            "ratio",
        ),
        ("process.threads", w.threads as f64, "count"),
    ]
}
