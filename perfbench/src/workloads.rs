//! The three closed-loop workloads: one driver thread, one op in flight.
//! Each op's inputs come from the seed and the op index alone, and each
//! op checks its outputs against a serial reference computed here.

use std::time::Duration;

use bytes::Bytes;
use rtml_common::error::Error;
use rtml_common::resources::Resources;
use rtml_common::time::occupy;
use rtml_runtime::{Cluster, ClusterConfig, Driver, Func1, Func2, NodeConfig, TaskOptions};

use crate::trace::Tracer;

/// Deadline for every blocking call; an op that hits it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Rtt,
    Fine,
    Shuffle,
}

/// How a workload is sized.
pub struct Shape {
    /// Ops per requested second: the timed window runs exactly
    /// `ops_per_second × seconds` ops, however long they take.
    pub ops_per_second: u64,
    /// Untimed ops after registration, so caches and pools fill first.
    pub warmup_ops: u64,
    /// Tasks each op submits.
    pub tasks_per_op: u64,
}

/// `rtt`: tasks pinned to node 1 through this resource.
const PIN_REMOTE: &str = "pin";
/// `shuffle`: producers run where this resource is (node 1)...
const PRODUCER: &str = "producer";
/// ...and consumers where this one is (node 0).
const CONSUMER: &str = "consumer";

const FINE_TASKS: usize = 64;
const FINE_KERNEL: Duration = Duration::from_millis(1);
const PRODUCERS: usize = 8;
const CONSUMERS: usize = PRODUCERS / 2;
/// Each producer output is `PAYLOAD_BLOCK` seeded bytes repeated to
/// `PAYLOAD_BYTES`, so the reference sum costs one block.
const PAYLOAD_BYTES: usize = 256 << 10;
const PAYLOAD_BLOCK: usize = 64 << 10;
/// Per-node store capacity for `shuffle`: small enough that warm-up
/// fills it and the timed window runs with eviction in steady state.
const SHUFFLE_STORE_BYTES: u64 = 64 << 20;

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Rtt, Kind::Fine, Kind::Shuffle];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Rtt => "rtt",
            Kind::Fine => "fine",
            Kind::Shuffle => "shuffle",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Kind::Rtt => Shape {
                ops_per_second: 1500,
                warmup_ops: 300,
                tasks_per_op: 1,
            },
            Kind::Fine => Shape {
                ops_per_second: 75,
                warmup_ops: 20,
                tasks_per_op: FINE_TASKS as u64,
            },
            Kind::Shuffle => Shape {
                ops_per_second: 300,
                warmup_ops: 60,
                tasks_per_op: (PRODUCERS + CONSUMERS) as u64,
            },
        }
    }

    fn config(self) -> ClusterConfig {
        let nodes = match self {
            Kind::Rtt => vec![
                NodeConfig::cpu_only(2),
                NodeConfig::cpu_only(2).with_custom(PIN_REMOTE, 2.0),
            ],
            Kind::Fine => vec![NodeConfig::cpu_only(4), NodeConfig::cpu_only(4)],
            Kind::Shuffle => vec![
                NodeConfig::cpu_only(2)
                    .with_custom(CONSUMER, 2.0)
                    .with_store_capacity(SHUFFLE_STORE_BYTES),
                NodeConfig::cpu_only(2)
                    .with_custom(PRODUCER, 2.0)
                    .with_store_capacity(SHUFFLE_STORE_BYTES),
            ],
        };
        ClusterConfig {
            nodes,
            ..ClusterConfig::default()
        }
    }

    /// Total workers across the cluster.
    pub fn workers(self) -> u64 {
        self.config()
            .nodes
            .iter()
            .map(|n| u64::from(n.workers))
            .sum()
    }
}

/// The registered functions of one workload.
enum Funcs {
    Rtt(Func1<u64, u64>),
    Fine(Func1<u64, u64>),
    Shuffle {
        produce: Func1<u64, Bytes>,
        consume: Func2<Bytes, Bytes, u64>,
    },
}

/// A started cluster with its workload registered and a driver attached.
pub struct Bench {
    pub cluster: Cluster,
    driver: Driver,
    funcs: Funcs,
    seed: u64,
}

/// One op's inputs and the outputs a serial reference computed for
/// them, prepared before the op's clock starts.
pub struct Plan {
    /// Task arguments (`shuffle`: producer seeds).
    args: Vec<u64>,
    /// `shuffle`: which producer outputs each consumer reads.
    pairing: Vec<[usize; 2]>,
    /// Expected outputs, in submission order.
    want: Vec<u64>,
}

impl Plan {
    /// Checks the program's outputs against the serial reference,
    /// element by element.
    pub fn check(&self, got: &[u64]) -> Result<(), String> {
        if got.len() != self.want.len() {
            return Err(format!("{} outputs, want {}", got.len(), self.want.len()));
        }
        match got.iter().zip(&self.want).position(|(g, w)| g != w) {
            None => Ok(()),
            Some(i) => Err(format!("output {i}: got {}, want {}", got[i], self.want[i])),
        }
    }
}

impl Bench {
    /// `Cluster::start` plus function registration.
    pub fn start(kind: Kind, seed: u64) -> Result<Bench, Error> {
        let cluster = Cluster::start(kind.config())?;
        let funcs = match kind {
            Kind::Rtt => Funcs::Rtt(cluster.register_fn1("rtt_echo", |x: u64| Ok(mix(x)))),
            Kind::Fine => Funcs::Fine(cluster.register_fn1("fine_kernel", |x: u64| {
                occupy(FINE_KERNEL);
                Ok(mix(x))
            })),
            Kind::Shuffle => Funcs::Shuffle {
                produce: cluster.register_fn1("shuffle_produce", |seed: u64| Ok(payload(seed))),
                consume: cluster.register_fn2("shuffle_consume", |a: Bytes, b: Bytes| {
                    Ok(byte_sum(&a).wrapping_add(byte_sum(&b)))
                }),
            },
        };
        let driver = cluster.driver();
        Ok(Bench {
            cluster,
            driver,
            funcs,
            seed,
        })
    }

    /// Inputs and reference outputs of op number `op`.
    pub fn plan(&self, op: u64) -> Plan {
        let args =
            |n: usize| -> Vec<u64> { (0..n as u64).map(|k| arg(self.seed, op, k)).collect() };
        match &self.funcs {
            Funcs::Rtt(_) => {
                let args = args(1);
                let want = args.iter().map(|&x| mix(x)).collect();
                Plan {
                    args,
                    pairing: Vec::new(),
                    want,
                }
            }
            Funcs::Fine(_) => {
                let args = args(FINE_TASKS);
                let want = args.iter().map(|&x| mix(x)).collect();
                Plan {
                    args,
                    pairing: Vec::new(),
                    want,
                }
            }
            Funcs::Shuffle { .. } => {
                let args = args(PRODUCERS);
                let pairing = pairing(arg(self.seed, op, PRODUCERS as u64));
                let reps = (PAYLOAD_BYTES / PAYLOAD_BLOCK) as u64;
                let sums: Vec<u64> = args.iter().map(|&s| byte_sum(&block(s)) * reps).collect();
                let want = pairing
                    .iter()
                    .map(|p| sums[p[0]].wrapping_add(sums[p[1]]))
                    .collect();
                Plan {
                    args,
                    pairing,
                    want,
                }
            }
        }
    }

    /// Submits the planned op and blocks until its outputs are back.
    pub fn execute(&self, plan: &Plan, tracer: &mut Tracer) -> Result<Vec<u64>, Error> {
        let driver = &self.driver;
        match &self.funcs {
            Funcs::Rtt(echo) => {
                let opts = TaskOptions::resources(Resources::cpu(1.0).with_custom(PIN_REMOTE, 1.0));
                let t = tracer.start();
                let fut = driver.submit1_opts(echo, plan.args[0], opts)?;
                tracer.end("submit", t);
                tracer.tasks(fut.id().producer_task());
                let t = tracer.start();
                let got = driver.get_timeout(&fut, OP_TIMEOUT)?;
                tracer.end("get", t);
                Ok(vec![got])
            }
            Funcs::Fine(f) => {
                let t = tracer.start();
                let futs = driver.submit_many(f, plan.args.iter().copied())?;
                tracer.end("submit", t);
                tracer.tasks(futs.iter().filter_map(|f| f.id().producer_task()));
                let t = tracer.start();
                let got = driver.get_many_timeout(&futs, OP_TIMEOUT)?;
                tracer.end("get", t);
                Ok(got)
            }
            Funcs::Shuffle { produce, consume } => {
                let producer_opts =
                    TaskOptions::resources(Resources::cpu(1.0).with_custom(PRODUCER, 1.0));
                let consumer_opts =
                    TaskOptions::resources(Resources::cpu(1.0).with_custom(CONSUMER, 1.0));
                let t = tracer.start();
                let parts =
                    driver.submit_batch_opts(produce, plan.args.iter().copied(), producer_opts)?;
                let mut sums = Vec::with_capacity(CONSUMERS);
                for pair in &plan.pairing {
                    sums.push(driver.submit2_opts(
                        consume,
                        parts[pair[0]],
                        parts[pair[1]],
                        consumer_opts.clone(),
                    )?);
                }
                tracer.end("submit", t);
                let ids = parts
                    .iter()
                    .map(|f| f.id())
                    .chain(sums.iter().map(|f| f.id()));
                tracer.tasks(ids.filter_map(|id| id.producer_task()));
                let t = tracer.start();
                let got = driver.get_many_timeout(&sums, OP_TIMEOUT)?;
                tracer.end("get", t);
                Ok(got)
            }
        }
    }

    pub fn shutdown(self) {
        drop(self.driver);
        self.cluster.shutdown();
    }
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Argument `k` of op `op` under `seed`.
fn arg(seed: u64, op: u64, k: u64) -> u64 {
    mix(mix(seed ^ mix(op)).wrapping_add(k))
}

/// Which two producer outputs each consumer reads: a seeded
/// permutation of the producers, taken in pairs.
fn pairing(r: u64) -> Vec<[usize; 2]> {
    let mut order: Vec<usize> = (0..PRODUCERS).collect();
    let mut state = r;
    for i in (1..PRODUCERS).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order.chunks(2).map(|c| [c[0], c[1]]).collect()
}

/// The seeded block a producer output repeats.
fn block(seed: u64) -> Vec<u8> {
    (0..PAYLOAD_BLOCK / 8)
        .flat_map(|i| mix(seed.wrapping_add(i as u64)).to_le_bytes())
        .collect()
}

/// One producer output: `block(seed)` repeated to `PAYLOAD_BYTES`.
fn payload(seed: u64) -> Bytes {
    Bytes::from(block(seed).repeat(PAYLOAD_BYTES / PAYLOAD_BLOCK))
}

fn byte_sum(bytes: &[u8]) -> u64 {
    bytes.iter().map(|&b| u64::from(b)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_seed_and_op_only() {
        assert_eq!(arg(7, 3, 1), arg(7, 3, 1));
        assert_ne!(arg(7, 3, 1), arg(8, 3, 1));
        assert_ne!(arg(7, 3, 1), arg(7, 4, 1));
        assert_ne!(arg(7, 3, 1), arg(7, 3, 2));
    }

    #[test]
    fn pairing_reads_every_producer_once() {
        for r in 0..50 {
            let mut seen: Vec<usize> = pairing(r).into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..PRODUCERS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn check_rejects_any_wrong_output() {
        let plan = Plan {
            args: vec![1, 2, 3],
            pairing: Vec::new(),
            want: vec![2, 3, 4],
        };
        assert!(plan.check(&[2, 3, 4]).is_ok());
        assert!(plan.check(&[2, 3, 5]).is_err());
        assert!(plan.check(&[2, 3]).is_err());
    }

    #[test]
    fn payload_sum_matches_block_reference() {
        let p = payload(42);
        assert_eq!(p.len(), PAYLOAD_BYTES);
        let reps = (PAYLOAD_BYTES / PAYLOAD_BLOCK) as u64;
        assert_eq!(byte_sum(&p), byte_sum(&block(42)) * reps);
    }
}
